"""Ablation benchmarks for the paper's design choices.

These do not correspond to a numbered figure; they quantify the paper's
design arguments on the same simulated substrate:

* **Chain replication vs primary-backup** (Section 2.2): a write costs
  n+1 messages on a chain versus 2n with primary-backup, and the switch
  needs no per-query bookkeeping.
* **In-network vs server-hosted chain replication** (Section 2.1): moving
  the same chain protocol from servers into switches removes the per-hop
  host stack and drops query latency by an order of magnitude.
* **Sequence-number ordering** (Section 4.3): disabling the ordering check
  (an ablated switch program) lets reordered writes leave replicas
  inconsistent, which the shipped protocol never does.

Every deployment is built from a declarative spec
(:mod:`repro.deploy`), so the three systems under comparison differ only
in the spec's ``backend`` field.
"""

from __future__ import annotations

import random

from bench_utils import record_result
from repro.core.protocol import QueryStatus
from repro.deploy import DeploymentSpec, build_deployment
from repro.netsim.faults import LinkFaultModel
from repro.netsim.switch import PipelineAction

#: The per-hop host stack of the server-hosted baselines in this ablation.
SERVER_STACK_DELAY = 40e-6


def make_netchain(seed: int = 0):
    """A small testbed deployment (mirrors the unit-test helper)."""
    return build_deployment(DeploymentSpec(
        backend="netchain", store_slots=2048, vnodes_per_switch=4, seed=seed))


def make_server_baseline(backend: str, seed: int = 0):
    """A server-hosted baseline: 3 replicas + 1 client host, kernel stacks."""
    return build_deployment(DeploymentSpec(
        backend=backend, replication=3, num_hosts=4, seed=seed,
        options={"stack_delay": SERVER_STACK_DELAY}))


def test_ablation_chain_vs_primary_backup_messages(benchmark):
    def run():
        chain = make_server_baseline("server-chain")
        pb = make_server_baseline("primary-backup")
        chain_client = chain.clients(1)[0]
        pb_client = pb.clients(1)[0]
        chain_latency = sum(chain_client.write("k", b"v").result().latency
                            for _ in range(20)) / 20
        pb_latency = sum(pb_client.write("k", b"v").result().latency
                         for _ in range(20)) / 20
        return {
            "chain_messages": chain.cluster.messages_per_write(),
            "pb_messages": pb.cluster.messages_per_write(),
            "chain_latency_us": chain_latency * 1e6,
            "pb_latency_us": pb_latency * 1e6,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"messages per write  : chain replication {result['chain_messages']}  "
        f"primary-backup {result['pb_messages']}",
        f"write latency (us)  : chain replication {result['chain_latency_us']:.1f}  "
        f"primary-backup {result['pb_latency_us']:.1f}",
    ]
    record_result("ablation_chain_vs_pb", "Ablation: chain replication vs primary-backup",
                  lines)
    assert result["chain_messages"] < result["pb_messages"]


def test_ablation_in_network_vs_server_chain_latency(benchmark):
    def run():
        # Server-hosted chain replication over kernel-TCP hosts.
        server_chain = make_server_baseline("server-chain")
        client = server_chain.clients(1)[0]
        server_latency = sum(client.write(f"k{i}", b"v").result().latency
                             for i in range(20)) / 20
        # The same chain inside the switches, DPDK client.
        deployment = make_netchain()
        deployment.cluster.populate(20)
        agent = deployment.clients(1)[0]
        netchain_samples = []
        for i in range(20):
            netchain_samples.append(agent.write(f"k{i:08d}", b"v").result().latency)
            # Per-query latency on an idle client: let the scaled NIC finish
            # serializing this query before issuing the next.
            deployment.run(until=deployment.sim.now + 1e-3)
        netchain_latency = sum(netchain_samples) / len(netchain_samples)
        return {"server_us": server_latency * 1e6, "netchain_us": netchain_latency * 1e6}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"server-hosted chain write latency : {result['server_us']:.1f} us",
        f"in-network chain write latency    : {result['netchain_us']:.1f} us",
        f"speedup                            : {result['server_us'] / result['netchain_us']:.1f}x",
    ]
    record_result("ablation_in_network", "Ablation: in-network vs server chain replication",
                  lines)
    assert result["netchain_us"] * 5 < result["server_us"]


def test_ablation_sequence_numbers_prevent_inconsistency(benchmark):
    """Disable the version check (Algorithm 1 lines 10-13) and show replicas
    diverge under reordering, while the real protocol stays consistent."""

    def run():
        outcomes = {}
        for ordered in (True, False):
            cluster = make_netchain(seed=7).cluster
            # Aggressive reordering between hops: far larger than the ~50 us
            # spacing at which the (scaled) client emits writes.
            for link in cluster.topology.links:
                link.set_faults(LinkFaultModel(link.rng, reorder_jitter=400e-6))
            keys = [f"key{i}" for i in range(4)]
            cluster.controller.populate(keys)
            if not ordered:
                # Ablation: replicas apply every write regardless of its
                # version, i.e. Algorithm 1 without lines 10-13.
                for program in cluster.controller.programs.values():
                    if program.kvstore is None:
                        continue

                    def process_write_no_check(switch, packet, header, loc,
                                               prog=program):
                        stored = prog.kvstore.read_loc(loc)
                        if header.seq == 0 and header.session == 0:
                            header.session = stored.session
                            header.seq = stored.seq + 1
                        prog.kvstore.write_loc(loc, header.value, header.seq,
                                               header.session)
                        if header.chain:
                            packet.ip.dst_ip = header.chain.pop(0)
                            return PipelineAction.FORWARD
                        prog._make_reply(switch, packet, header, QueryStatus.OK)
                        return PipelineAction.FORWARD

                    program._process_write = process_write_no_check
            agents = cluster.agent_list()
            rng = random.Random(3)
            for i in range(150):
                agent = agents[rng.randrange(len(agents))]
                agent.write(rng.choice(keys), f"v{i}")
            cluster.run(until=cluster.sim.now + 0.3)
            divergent = 0
            for key in keys:
                chain = cluster.controller.chain_for_key(key).switches
                stores = [cluster.controller.stores[s] for s in chain]
                values = {store.read(key).value for store in stores}
                if len(values) > 1:
                    divergent += 1
            outcomes["with ordering" if ordered else "without ordering"] = divergent
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"keys with divergent replicas ({label}): {count}"
             for label, count in outcomes.items()]
    record_result("ablation_sequence_numbers",
                  "Ablation: sequence-number ordering under reordering", lines)
    assert outcomes["with ordering"] == 0
    assert outcomes["without ordering"] >= outcomes["with ordering"]
