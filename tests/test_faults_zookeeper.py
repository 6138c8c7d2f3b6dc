"""Failure-scenario matrix for the ZooKeeper baseline.

The same fault vocabulary (seeded link faults, switch failures, partitions
with heal) runs against the ZAB ensemble, with clients connected to the
leader so reads are linearizable, and the same history recorder /
linearizability checker verifies the outcome.  Because ZooKeeper rides on
the reliable TCP transport, faults cost latency (RTO stalls, congestion
backoff) rather than lost operations -- which is exactly the contrast to
NetChain's UDP-and-retry story the paper draws in Figure 9(d).

The ensemble servers are placed on hosts behind *different* switches of
the ring (unlike the throughput experiments, which co-locate everything
behind S0), so that switch and link faults actually cut server-to-server
paths.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import (
    ZooKeeperClient,
    ZooKeeperKVClient,
    build_zookeeper_ensemble,
)
from repro.core.history import History, check_linearizable
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.netsim.host import HostConfig
from repro.netsim.link import LinkConfig
from repro.netsim.routing import install_shortest_path_routes, reroute_around_failures
from repro.netsim.topology import Topology
from repro.workloads import KeyValueWorkload, LoadClient, WorkloadConfig
from tests.conftest import fault_seeds

SEEDS = fault_seeds()

STORE_SIZE = 12


class ZkFaultHarness:
    """A ZooKeeper deployment spread over the ring, with recorded load."""

    def __init__(self, seed: int) -> None:
        topo = Topology(seed=seed)
        host_config = HostConfig(stack_delay=40e-6, nic_pps=None)
        switches = [topo.add_switch(f"S{i}") for i in range(4)]
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            topo.add_link(switches[a], switches[b], config=LinkConfig())
        # One server host behind each of S0..S2; clients behind S0 with the
        # leader (server 0), so client <-> leader traffic never crosses the
        # faulted ring links.
        server_hosts = []
        for i in range(3):
            host = topo.add_host(f"Z{i}", config=host_config)
            topo.add_link(host, switches[i], config=LinkConfig())
        client_hosts = []
        for i in range(2):
            host = topo.add_host(f"C{i}", config=host_config)
            topo.add_link(host, switches[0], config=LinkConfig())
        install_shortest_path_routes(topo)
        self.topology = topo
        self.sim = topo.sim
        self.ensemble = build_zookeeper_ensemble(
            [topo.hosts[f"Z{i}"] for i in range(3)], server_msgs_per_sec=None)
        self.keys = [f"k{i:08d}" for i in range(STORE_SIZE)]
        self.ensemble.preload({f"/kv/{key}": b"" for key in self.keys})
        self.injector = FaultInjector(topo, seed=seed)
        self.failed_switches = set()
        self.injector.observers.append(self.reroute)
        self.history = History(self.sim)
        self.clients = []
        for index in range(2):
            session = ZooKeeperClient(topo.hosts[f"C{index}"], self.ensemble,
                                      server_id=0)  # the leader
            workload = KeyValueWorkload(
                WorkloadConfig(store_size=STORE_SIZE, value_size=8,
                               write_ratio=0.4, unique_values=True),
                rng=random.Random((seed << 8) + index + 1), tag=f"z{index}")
            self.clients.append(LoadClient(ZooKeeperKVClient(session), workload,
                                           concurrency=2, history=self.history,
                                           think_time=4e-3, name=f"z{index}"))

    def reroute(self, event) -> None:
        """The underlay routes around a switch as it fails or recovers: no
        NetChain controller owns the failover here."""
        if event.kind == "switch_fail":
            self.failed_switches.add(event.target)
        elif event.kind == "switch_recover":
            self.failed_switches.discard(event.target)
        else:
            return
        reroute_around_failures(self.topology, self.failed_switches)

    def schedule(self) -> FaultSchedule:
        return FaultSchedule(self.injector)

    def run(self, duration: float, drain: float = 2.5) -> None:
        for client in self.clients:
            client.start()
        self.sim.run(until=duration)
        for client in self.clients:
            client.stop()
        self.sim.run(until=duration + drain)

    def check(self):
        initial = {key.encode(): b"" for key in self.keys}
        return check_linearizable(self.history, initial=initial)

    def history_fingerprint(self):
        return [(op.client, op.op, op.key, op.value, op.invoked_at,
                 op.returned_at, op.ok) for op in self.history.ops]


def assert_zk_consistent(harness) -> None:
    report = harness.check()
    assert not report.exhausted_keys()
    assert report.ok, report.summary()
    assert not harness.history.version_violations()
    assert len(harness.history.completed_ops()) > 50


@pytest.mark.parametrize("seed", SEEDS)
def test_follower_switch_failure_and_repair(seed):
    harness = ZkFaultHarness(seed)
    # S2 going down isolates follower Z2; quorum (leader + Z1) continues.
    (harness.schedule()
     .at(0.6, "fail_switch", "S2")
     .at(2.0, "recover_switch", "S2")
     .arm())
    harness.run(duration=3.5)
    assert_zk_consistent(harness)
    trace = [(event.kind, event.target) for event in harness.injector.trace]
    assert ("switch_fail", "S2") in trace and ("switch_recover", "S2") in trace
    # The isolated follower caught up after the repair.
    leader_commits = harness.ensemble.servers[0].writes_committed
    follower_commits = harness.ensemble.servers[2].writes_committed
    assert leader_commits > 0
    assert follower_commits == leader_commits


@pytest.mark.parametrize("seed", SEEDS)
def test_lossy_leader_follower_link(seed):
    harness = ZkFaultHarness(seed)
    (harness.schedule()
     .at(0.3, "set_link_faults", "S0", "S1", loss_rate=0.1,
         corrupt_rate=0.02, reorder_jitter=100e-6)
     .arm())
    harness.run(duration=3.0)
    assert_zk_consistent(harness)
    drops = harness.injector.drop_report()["S0-S1"]
    assert drops["dropped_loss"] > 0
    # TCP absorbed the loss: nothing was lost end to end, only delayed.
    assert harness.clients[0].failed_queries == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_acceptance_scenario_partition_heal_replays(seed):
    """Flagship ZK schedule: lossy link + follower switch failure +
    partition heal, consistent and replay-identical."""

    def build(harness):
        (harness.schedule()
         .at(0.3, "set_link_faults", "S0", "S1", loss_rate=0.05)
         .at(0.8, "fail_switch", "S2")
         .at(1.6, "recover_switch", "S2")
         .at(2.2, "partition", {"S1", "Z1"})
         .at(3.0, "heal_partition")
         .arm())
        harness.run(duration=4.0, drain=3.0)

    first = ZkFaultHarness(seed)
    build(first)
    assert_zk_consistent(first)
    assert first.injector.trace_signature()

    second = ZkFaultHarness(seed)
    build(second)
    assert first.injector.trace_signature() == second.injector.trace_signature()
    assert first.history_fingerprint() == second.history_fingerprint()
    assert first.injector.drop_report() == second.injector.drop_report()
