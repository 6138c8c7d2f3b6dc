"""Planted protocol bugs the end-to-end checks must catch.

Each mutant is a monkeypatch of the NetChain data plane -- no source is
edited -- and is killed only by an end-to-end check of a scenario run
(history, chain invariants, lost keys), never by a unit test asserting the
mechanism.  M1 and M4 wrap ``NetChainSwitchProgram.process`` and change the
key's registers for the pass; M3 wraps ``_process_query``, Algorithm 1's one
function, which the failure-rule loop calls too.  A mutant planted on a
function no pass calls would survive silently, so each must also change
the outcome of one pass of its own (``test_each_mutant_is_planted_where_a_pass_runs``).

* **M1, a replica applies a stale write** (Algorithm 1 line 13 never
  drops).  A write reordered behind a newer one on a switch-to-switch link
  overwrites it, so a replica holds an older version than the one after it
  in the chain.  Every write is still applied at the tail in some order a
  client may observe, so the history stays linearizable; Invariant 1
  (upstream version >= downstream), sampled while writes are in flight,
  names it.
* **M3, the penultimate switch acks early.**  The switch before the tail
  applies a write, forwards it to the tail as usual, and also answers the
  client itself.  The client can then read the tail before the write gets
  there -- or, on a lossy link, never does -- and sees the version it was
  acked go back.

* **M4, a read reports the version before the one it read.**  The value
  is right, so the history stays linearizable and the version witness only
  defers the keys; the per-client version check names the client that sees
  the version of its own earlier write go back.

``python tests/test_mutant_catalogue.py`` runs every mutant's killing run
with and without it and prints ``mutants killed end to end: K of N``.
"""

from __future__ import annotations

import re

import pytest

from repro.core.invariants import sample_chain_invariants
from repro.core.kvstore import SwitchKVStore
from repro.core.protocol import NetChainHeader, OpCode, QueryStatus, build_query_packet
from repro.core.switch_program import NetChainSwitchProgram
from repro.deploy import run_scenario
from repro.experiments.failures import fault_scenario
from repro.netsim.engine import Simulator
from repro.netsim.switch import PipelineAction, Switch

#: The testbed's switch ring.
SWITCH_LINKS = (("S0", "S1"), ("S1", "S2"), ("S2", "S3"), ("S0", "S3"))


def stored_row(program, header):
    """The store slot of ``header``'s key on ``program``'s switch, if any."""
    store = program.kvstore
    return None if store is None else store.index.get(header.key)


def is_write(header) -> bool:
    """A write, CAS or delete on its way down a chain (a request, not a read)."""
    return header.is_request() and header.op not in (OpCode.READ, OpCode.CLEAN)


def stale_writes_applied(monkeypatch) -> None:
    """M1: a replica's stale-write check is never true.  The check compares
    a chain write's version with the stored one, so for the pass of a
    non-head write the mutant stores the lowest version (0, 0) in the key's
    registers, and puts the real one back if the write did not overwrite it."""
    process = NetChainSwitchProgram.process

    def no_stale_check(self, switch, packet, in_port):
        header = packet.payload
        loc = None
        if (type(header) is NetChainHeader and is_write(header)
                and (header.seq, header.session) != (0, 0)):  # the head assigns it
            loc = stored_row(self, header)
        if loc is None:
            return process(self, switch, packet, in_port)
        store = self.kvstore
        version = store._seq_data[loc], store._session_data[loc]
        store._seq_data[loc] = store._session_data[loc] = 0
        try:
            return process(self, switch, packet, in_port)
        finally:
            if (store._seq_data[loc], store._session_data[loc]) == (0, 0):
                store._seq_data[loc], store._session_data[loc] = version

    monkeypatch.setattr(NetChainSwitchProgram, "process", no_stale_check)


def penultimate_acks_early(monkeypatch) -> None:
    """M3: a write the hop before the tail applies and forwards to the tail
    is answered there too.  It is planted on Algorithm 1's one function, so
    the write a failover rule hands to its switch is answered early too."""
    process_query = NetChainSwitchProgram._process_query

    def acks_early(self, switch, packet, header):
        penultimate = is_write(header) and len(header.chain) == 1
        action = process_query(self, switch, packet, header)
        if penultimate and action is PipelineAction.FORWARD and header.is_request():
            ack = packet.copy()
            self._make_reply(switch, ack, ack.payload, QueryStatus.OK)
            switch.forward(ack)
        return action

    monkeypatch.setattr(NetChainSwitchProgram, "_process_query", acks_early)


def reads_report_an_older_version(monkeypatch) -> None:
    """M4: a read reply carries its version's predecessor (same session):
    for a read's pass the key's sequence register holds one less."""
    process = NetChainSwitchProgram.process

    def one_behind(self, switch, packet, in_port):
        header = packet.payload
        loc = None
        if type(header) is NetChainHeader and header.op is OpCode.READ:
            loc = stored_row(self, header)
        seqs = None if loc is None else self.kvstore._seq_data
        if seqs is None or seqs[loc] <= 1:
            return process(self, switch, packet, in_port)
        seqs[loc] -= 1
        try:
            return process(self, switch, packet, in_port)
        finally:
            seqs[loc] += 1

    monkeypatch.setattr(NetChainSwitchProgram, "process", one_behind)


def lossy(schedule, _cluster):
    """1% loss on every switch-to-switch link from the start."""
    for a, b in SWITCH_LINKS:
        schedule.at(0.0, "set_link_faults", a, b, loss_rate=0.01)
    return schedule


def lossy_failover_run():
    """The run that kills M3: a switch failure at 0.4 s under 1% loss."""
    return run_scenario(*fault_scenario(seed=1, duration=1.0, store_size=64,
                                        faults=[(0.4, "fail_switch", "S1")]),
                        schedule_builder=lossy)


def reordered_run():
    """The run that kills M1: 30 us of reorder jitter on every
    switch-to-switch link, a write-heavy closed loop on 8 keys, and
    Invariant 1 sampled every 2 ms besides the run's own end-of-run check."""
    sampled = []

    def reordering(schedule, cluster):
        for a, b in SWITCH_LINKS:
            schedule.at(0.0, "set_link_faults", a, b, reorder_jitter=30e-6)
        cluster.sim.every(2e-3, lambda: sampled.extend(sample_chain_invariants(
            cluster.controller, raise_on_violation=False)))
        return schedule

    result = run_scenario(*fault_scenario(seed=1, duration=0.05, store_size=8, think_time=0.0,
                                          concurrency=4, write_ratio=0.5),
                          schedule_builder=reordering)
    if sampled:
        result.failures.append(
            f"{len(sampled)} chain invariant violation(s) in flight: {sampled[0]}")
    return result


def test_m1_stale_write_is_caught_end_to_end(monkeypatch):
    control = reordered_run()
    assert control.ok(), control.failures
    # The run reorders enough writes for the check to matter.
    assert sum(program.stats.writes_stale_dropped
               for program in control.deployment.cluster.controller.programs.values()) > 0

    stale_writes_applied(monkeypatch)
    result = reordered_run()
    assert not result.ok(), "M1 survived: no replica fell behind its successor"
    assert all("Invariant 1 violated" in failure for failure in result.failures)
    assert result.linearizability.ok


def test_m3_penultimate_ack_is_caught_end_to_end(monkeypatch):
    control = lossy_failover_run()
    assert control.ok(), control.failures
    assert control.linearizability.witnessed == len(control.linearizability.keys)

    penultimate_acks_early(monkeypatch)
    result = lossy_failover_run()
    report = result.linearizability
    rejected = report.violations()
    assert rejected and not result.ok(), "M3 survived: every key linearizable"
    # The witness deferred exactly the keys the search rejects (it never
    # overrules the search) ...
    assert report.witnessed == len(report.keys) - len(rejected)
    # ... and each verdict first says where the reported order and real time part.
    for key_report in rejected:
        assert re.match(r"read went back \(\d+, \d+\) -> \(\d+, \d+\); no valid linearization",
                        key_report.message), key_report.message
    assert "read went back" in report.summary()


def read_write_run():
    """The run that kills M4: a write-heavy closed loop on 8 keys."""
    return run_scenario(*fault_scenario(seed=1, duration=0.05, store_size=8,
                                        think_time=0.0, concurrency=4, write_ratio=0.5))


def test_m4_older_read_version_is_caught_end_to_end(monkeypatch):
    control = read_write_run()
    assert control.ok() and control.consistent(), control.failures

    reads_report_an_older_version(monkeypatch)
    result = read_write_run()
    assert not result.ok() and not result.consistent(), "M4 survived: no version went back"
    assert result.linearizability.ok  # only the version check sees it
    assert result.version_violations
    assert result.failures == [f"{len(result.version_violations)} version regression(s): "
                               f"{result.version_violations[0]}"]


#: Each mutant with the run that must kill it.
CATALOGUE = {"M1": (stale_writes_applied, reordered_run),
             "M3": (penultimate_acks_early, lossy_failover_run),
             "M4": (reads_report_an_older_version, read_write_run)}


def one_pass(header):
    """What one pass of ``header``, addressed to a switch storing ``k`` at
    version (1, 5), does: its action, the header after it, the stored row
    and what the switch forwarded on its own (it has no routes)."""
    switch = Switch(Simulator(), "S", "10.0.0.2")
    program = NetChainSwitchProgram(switch, kvstore=SwitchKVStore(switch, slots=8))
    store = program.kvstore
    store.write_loc(store.insert_key("k"), b"old", 5, 1)
    packet = build_query_packet("10.1.0.1", 9001, switch.ip, header)
    action = program.process(switch, packet, None)
    return (action, header.op, header.value, header.seq, header.session, header.chain,
            store.read("k"), switch.dropped_no_route)


#: Mutant -> the pass it must change: a replica's stale write (M1), a write
#: one hop before the tail (M3) and a read at the tail (M4).
PASSES = {"M1": lambda: NetChainHeader(OpCode.WRITE, b"k", b"new", 4, 1, ["10.0.0.4"]),
          "M3": lambda: NetChainHeader(OpCode.WRITE, b"k", b"new", 6, 1, ["10.0.0.4"]),
          "M4": lambda: NetChainHeader(OpCode.READ, b"k", b"", 0, 0, ["10.0.0.1"])}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_each_mutant_is_planted_where_a_pass_runs(monkeypatch, name):
    """A mutant planted on a function no pass calls any more changes
    nothing and is not killed, whatever the end-to-end checks: each must
    change the outcome of its own pass."""
    control = one_pass(PASSES[name]())
    CATALOGUE[name][0](monkeypatch)
    assert one_pass(PASSES[name]()) != control, f"{name} is planted where no pass runs"


def killed_end_to_end(plant, run) -> bool:
    """Whether ``run`` is clean without the mutant ``plant`` and fails with it."""
    if not run().ok():
        return False
    with pytest.MonkeyPatch.context() as monkeypatch:
        plant(monkeypatch)
        return not run().ok()


if __name__ == "__main__":
    killed = [name for name, (plant, run) in CATALOGUE.items() if killed_end_to_end(plant, run)]
    print(f"mutants killed end to end: {len(killed)} of {len(CATALOGUE)} ({', '.join(killed)})")
