"""Planted protocol bugs the end-to-end checks must catch.

Each mutant is a monkeypatch of the NetChain data plane -- no source is
edited -- and is killed only by an end-to-end check of a scenario run
(history, chain invariants, lost keys), never by a unit test asserting the
mechanism.  The catalogue starts with the bug the version witness and the
search together must name:

* **M3, the penultimate switch acks early.**  The switch before the tail
  applies a write, forwards it to the tail as usual, and also answers the
  client itself.  The client can then read the tail before the write gets
  there -- or, on a lossy link, never does -- and sees the version it was
  acked go back.
"""

from __future__ import annotations

import re

from repro.core.protocol import QueryStatus
from repro.core.switch_program import NetChainSwitchProgram
from repro.deploy import run_scenario
from repro.experiments.failures import fault_scenario
from repro.netsim.switch import PipelineAction

#: The testbed's switch ring.
SWITCH_LINKS = (("S0", "S1"), ("S1", "S2"), ("S2", "S3"), ("S0", "S3"))


def penultimate_acks_early(monkeypatch) -> None:
    """M3: a write at the hop before the tail is answered there too."""
    process_write = NetChainSwitchProgram._process_write

    def acks_early(self, switch, packet, header, loc):
        penultimate = len(header.chain) == 1
        action = process_write(self, switch, packet, header, loc)
        if penultimate and action is PipelineAction.FORWARD and header.is_request():
            ack = packet.copy()
            self._make_reply(switch, ack, ack.payload, QueryStatus.OK)
            switch.forward(ack)
        return action

    monkeypatch.setattr(NetChainSwitchProgram, "_process_write", acks_early)


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
