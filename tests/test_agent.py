"""Unit/integration tests for the NetChain client agent."""

from __future__ import annotations

import pytest

from repro.core.protocol import (
    NetChainHeader,
    OpCode,
    QueryStatus,
    build_query_packet,
    make_cas,
    make_delete,
    make_read,
    make_write,
)
from repro.deploy import DeploymentSpec, build_deployment
from repro.workloads.clients import LoadClient
from repro.workloads.generators import Operation, OpType


def test_write_then_read_roundtrip(cluster, agent):
    cluster.controller.populate(["alpha"])
    write = agent.write("alpha", b"value-1").result()
    assert write.ok and write.error is None
    assert write.version[1] == 1
    read = agent.read("alpha").result()
    assert read.ok
    assert read.value == b"value-1"
    assert read.version == write.version


def test_read_of_unknown_key_reports_not_found(cluster, agent):
    result = agent.read("never-inserted").result()
    assert not result.ok
    assert result.not_found and result.error == "key_not_found"


def test_sequence_numbers_increase_across_writes(cluster, agent):
    cluster.controller.populate(["k"])
    seqs = [agent.write("k", f"v{i}").result().version[1] for i in range(5)]
    assert seqs == [1, 2, 3, 4, 5]


def test_insert_then_write_and_delete(cluster, agent):
    insert = agent.insert("fresh", b"first").result()
    assert insert.ok
    assert agent.read("fresh").result().value == b"first"
    delete = agent.delete("fresh").result()
    assert delete.ok
    assert agent.read("fresh").result().not_found


def test_cas_semantics(cluster, agent):
    cluster.controller.populate(["lock"])
    assert agent.cas("lock", b"", b"me").result().ok
    result = agent.cas("lock", b"", b"other").result()
    assert result.cas_failed and result.error == "cas_failed"
    assert result.value == b"me"
    assert agent.cas("lock", b"me", b"").result().ok


def test_latency_close_to_paper_value(cluster, agent):
    """Section 8.2: DPDK clients observe ~9.7 us query latency."""
    cluster.controller.populate(["k"])
    result = agent.read("k").result()
    assert 5e-6 < result.latency < 30e-6
    # The paper reports per-query latency on an idle client; let the scaled
    # NIC finish serializing the previous query before issuing the next.
    cluster.run(until=cluster.sim.now + 1e-3)
    write = agent.write("k", b"v").result()
    assert 5e-6 < write.latency < 30e-6


def test_reads_and_writes_from_different_hosts_are_consistent(cluster):
    cluster.controller.populate(["shared"])
    writer = cluster.agent("H0")
    reader = cluster.agent("H1")
    writer.write("shared", b"from-h0").result()
    assert reader.read("shared").result().value == b"from-h0"


def test_retries_mask_packet_loss(cluster, agent):
    cluster.controller.populate(["k"])
    cluster.topology.set_loss_rate(0.2)
    for i in range(10):
        result = agent.write("k", f"v{i}").result(10.0)
        assert result.ok
    assert agent.retransmissions >= 1


def test_async_callbacks_and_outstanding_tracking(cluster, agent):
    cluster.controller.populate(["a", "b"])
    results = []
    agent.read("a").then(results.append)
    agent.read("b").then(results.append)
    assert agent.outstanding() == 2
    cluster.run(until=cluster.sim.now + 0.01)
    assert len(results) == 2
    assert agent.outstanding() == 0
    assert agent.completed == 2


def test_load_client_latencies_separate_reads_and_writes(cluster, agent):
    """The per-kind latency split lives in the load client (the agent keeps
    none): one write and two reads land one and two samples."""
    cluster.controller.populate(["k"])
    script = [Operation(OpType.WRITE, "k", b"v"), Operation(OpType.READ, "k"),
              Operation(OpType.READ, "k")]

    class Scripted:
        def next_operation(self):
            if len(script) == 1:
                client.stop()  # the last op's completion issues nothing
            return script.pop(0)

    client = LoadClient(agent, Scripted(), concurrency=1)
    client.start()
    cluster.run(until=cluster.sim.now + 0.01)
    assert not script and client.completions.total() == 3
    assert client.read_latency.count() == 2
    assert client.write_latency.count() == 1
    assert not hasattr(agent, "latency")


def test_value_sizes_up_to_prototype_limit(cluster, agent):
    """The prototype supports values up to 128 bytes at line rate."""
    cluster.controller.populate(["big"])
    payload = bytes(range(128))
    assert agent.write("big", payload).result().ok
    assert agent.read("big").result().value == payload


def test_an_oversized_value_is_refused_at_submit():
    """A value longer than one pipeline pass raises ``ValueError`` where the
    write, CAS or insert is submitted, before anything is scheduled.  It
    used to reach the head switch and raise out of ``Simulator.run``."""
    deployment = build_deployment(DeploymentSpec(backend="netchain", store_size=8, seed=1))
    client = deployment.clients(1)[0]
    sim = deployment.sim
    scheduled = sim._seq
    key = "k00000000"  # one of the spec's populated keys
    for submit in (lambda: client.write(key, bytes(200)),
                   lambda: client.cas(key, b"", bytes(129)),
                   lambda: client.insert("new", bytes(129))):
        with pytest.raises(ValueError, match="longer than 128 bytes"):
            submit()
    assert (sim._seq, client.outstanding()) == (scheduled, 0)
    assert client.write(key, bytes(128)).result(1.0).ok
    assert client.read(key).result(1.0).value == bytes(128)
    deployment.teardown()


# --------------------------------------------------------------------- #
# The agent's one positional header/packet against the public constructors.
# --------------------------------------------------------------------- #

#: op -> (submit through the agent, the reference header and destination).
_SPELLINGS = {
    "read": (lambda agent: agent.read("k"),
             lambda ips, **route: (make_read("k", ips, **route), ips[-1])),
    "write": (lambda agent: agent.write("k", "v1"),
              lambda ips, **route: (make_write("k", "v1", ips, **route), ips[0])),
    "cas": (lambda agent: agent.cas("k", "old", 17),
            lambda ips, **route: (make_cas("k", "old", 17, ips, **route), ips[0])),
    "delete": (lambda agent: agent.delete("k"),
               lambda ips, **route: (make_delete("k", ips, **route), ips[0])),
}


@pytest.mark.parametrize("op", sorted(_SPELLINGS))
def test_agent_spells_queries_as_the_public_constructors_do(cluster, agent, op):
    """First send and a retry after ``commit_chain`` moved the route: header
    and packet equal ``make_*`` + ``build_query_packet`` field by field."""
    submit, reference = _SPELLINGS[op]
    controller = cluster.controller
    controller.populate(["k"])
    sent = []
    agent.host.send = sent.append  # nothing is delivered, so the retry timer fires
    created_at = cluster.sim.now
    future = submit(agent)

    def check(packet):
        ips, vgroup, epoch = controller.route_for_key("k")
        header, dst_ip = reference(list(ips), vgroup=vgroup, epoch=epoch)
        header.query_id = future.query_id
        expected = build_query_packet(agent.host.ip, agent.udp_port, dst_ip, header,
                                      created_at=created_at)
        assert packet.payload == header  # dataclass equality: every field
        assert type(packet.payload.op) is OpCode
        assert type(packet.payload.status) is QueryStatus
        for name in ("eth", "ip", "udp", "payload_bytes", "pipeline_passes",
                     "created_at", "trace_id"):
            assert getattr(packet, name) == getattr(expected, name), name
        return ips, vgroup, epoch

    ips, vgroup, epoch = check(sent[0])
    controller.commit_chain(vgroup, controller.chain_for_key("k").switches[::-1])
    controller.bump_group_epoch(vgroup)
    cluster.run(until=cluster.sim.now + 1.5 * agent.retry_timeout)
    assert len(sent) == 2 and agent.retransmissions == 1
    assert check(sent[1]) == (ips[::-1], vgroup, epoch + 1)
    assert sent[1].payload.chain is not sent[0].payload.chain


def test_every_header_on_the_wire_carries_enum_members(cluster, agent):
    """Identity comparison of ops and statuses rests on this: whoever builds
    or rewrites a header -- agent, switch program, ``from_bytes`` -- leaves
    an ``OpCode`` / ``QueryStatus`` member in it, never a bare int."""
    cluster.controller.populate(["k"])
    seen = []
    deliver = agent.host._sockets[agent.udp_port]
    agent.host.bind(agent.udp_port, lambda packet: (seen.append(packet.payload),
                                                    deliver(packet)))
    agent.write("k", b"v").result()
    agent.cas("k", b"nope", b"w").result()
    agent.read("k").result()
    agent.delete("k").result()
    agent.read("k").result()
    agent.read("absent").result()
    assert [(h.op, h.status) for h in seen] == [
        (OpCode.WRITE_REPLY, QueryStatus.OK), (OpCode.CAS_REPLY, QueryStatus.CAS_FAILED),
        (OpCode.READ_REPLY, QueryStatus.OK), (OpCode.DELETE_REPLY, QueryStatus.OK),
        (OpCode.READ_REPLY, QueryStatus.KEY_NOT_FOUND),
        (OpCode.READ_REPLY, QueryStatus.KEY_NOT_FOUND)]
    for header in seen + [NetChainHeader.from_bytes(h.to_bytes()) for h in seen]:
        assert type(header.op) is OpCode and type(header.status) is QueryStatus


def test_an_operation_consumes_one_query_id(cluster, agent):
    """The header is built with the pending query's id; its default factory
    (for headers built without one) must not burn a second id per op."""
    cluster.controller.populate(["k"])
    ids = [agent.read("k").query_id, agent.write("k", b"v").query_id,
           agent.cas("k", b"v", b"w").query_id, agent.delete("k").query_id]
    assert ids == list(range(ids[0], ids[0] + 4))
    assert make_read("k", ["10.0.0.1"]).query_id == ids[-1] + 1
