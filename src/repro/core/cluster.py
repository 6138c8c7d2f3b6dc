"""One-call assembly of a NetChain deployment on a simulated testbed.

Most examples, tests and experiments need the same setup: install the
NetChain program on the switches of the Figure 8 testbed, start the
controller, and attach one client agent per host.
:class:`NetChainCluster` bundles that over a topology its caller built
(usually :func:`repro.perfmodel.devices.scaled_testbed`); the
``netchain`` and ``hybrid`` deployments of :mod:`repro.deploy` build it
from a :class:`~repro.deploy.spec.DeploymentSpec`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.agent import NetChainAgent
from repro.core.controller import ControllerConfig, NetChainController
from repro.core.detector import DetectorConfig, FailureDetector
from repro.netsim.engine import Simulator
from repro.netsim.link import LinkConfig
from repro.netsim.topology import Topology


class NetChainCluster:
    """A ready-to-use NetChain deployment on a testbed topology.

    ``scale`` is the capacity divisor the topology was built with (a
    hot-plugged switch gets the same); ``retry_timeout`` is every agent's
    client retry timeout.  A chain longer than the member switches (all
    of the topology's unless ``member_switches`` names some) raises
    :class:`ValueError` before anything is installed.
    """

    def __init__(self, topology: Topology, controller_config: ControllerConfig,
                 retry_timeout: float = 500e-6, scale: float = 1000.0,
                 member_switches: Optional[List[str]] = None) -> None:
        self.topology = topology
        self.scale = scale
        members = member_switches if member_switches is not None \
            else sorted(topology.switches)
        if controller_config.replication > len(members):
            raise ValueError(
                f"replication (chain length) {controller_config.replication} exceeds "
                f"the {len(members)} member switches {sorted(members)}; shrink the "
                f"chain or add switches")
        self.controller = NetChainController(topology, member_switches=member_switches,
                                             config=controller_config)
        self.agents: Dict[str, NetChainAgent] = {}
        for name, host in topology.hosts.items():
            self.agents[name] = NetChainAgent(host, self.controller,
                                              retry_timeout=retry_timeout)
        self.detector: Optional[FailureDetector] = None

    # ------------------------------------------------------------------ #
    # Convenience accessors.
    # ------------------------------------------------------------------ #

    @property
    def sim(self) -> Simulator:
        """The underlying simulator."""
        return self.topology.sim

    def agent(self, host_name: str = "H0") -> NetChainAgent:
        """The agent on a given host (defaults to H0)."""
        return self.agents[host_name]

    def agent_list(self) -> List[NetChainAgent]:
        """All agents, in host-name order."""
        return [self.agents[name] for name in sorted(self.agents)]

    def session(self, host_name: str = "H0", window: int = 16):
        """A :class:`repro.core.client.KVSession` over the host's agent."""
        return self.agents[host_name].session(window=window)

    def populate(self, num_keys: int, value_size: int = 64,
                 key_prefix: str = "k") -> List[str]:
        """Pre-install ``num_keys`` keys with ``value_size``-byte values.

        Mirrors the evaluation's "store size" parameter (Section 8.1).
        Returns the key names.
        """
        from repro.workloads.generators import standard_key_names
        keys = standard_key_names(num_keys, key_prefix)
        value = bytes(value_size)
        self.controller.populate(keys, default_value=value)
        return keys

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self.sim.run(until=until)

    def total_completed(self) -> int:
        """Queries completed across all agents."""
        return sum(agent.completed for agent in self.agents.values())

    # ------------------------------------------------------------------ #
    # Elastic reconfiguration (hot-plug + live migration).
    # ------------------------------------------------------------------ #

    def add_switch(self, name: str, link_to: Optional[List[str]] = None,
                   switch_config=None):
        """Hot-plug a switch into the running cluster.

        The device comes up with the cluster's scaled capacity, links to
        ``link_to`` (default: the first and last current member, which
        extends the testbed ring), gets underlay routes, and is provisioned
        with the NetChain program and an empty store.  It serves no keys
        until a migration (or failure recovery) commits groups onto it.
        """
        from repro.netsim.routing import reroute_around_failures
        from repro.perfmodel.devices import scaled_switch_config

        members = self.controller.members
        if link_to is None:
            link_to = [members[-1], members[0]] if len(members) > 1 else members[:1]
        if switch_config is None:
            switch_config = scaled_switch_config(self.scale)
        switch = self.topology.attach_switch(name, link_to,
                                             switch_config=switch_config,
                                             link_config=LinkConfig())
        reroute_around_failures(self.topology, self.controller.failed_switches)
        self.controller.provision_switch(name)
        return switch

    def migrate(self, target_members: List[str]):
        """Plan and start a live migration to ``target_members``.

        Returns the running :class:`repro.core.reconfig.MigrationCoordinator`;
        advance the simulation until ``coordinator.done`` and inspect
        ``coordinator.report``.
        """
        from repro.core.reconfig import migrate
        return migrate(self.controller, target_members)

    def enable_hotkey_tier(self, config=None):
        """Turn on the adaptive hot-key tier (:mod:`repro.core.hotkeys`).

        Installs a detection sketch on every member switch, starts the
        :class:`~repro.core.hotkeys.HotKeyManager` policy loop, and (unless
        disabled in the config) attaches an epoch-validated read cache to
        every host agent.  ``config`` may be a
        :class:`~repro.core.hotkeys.HotKeyTierConfig` or an options dict.
        Returns the manager; ``manager.stop()`` reverts everything.
        """
        from repro.core.hotkeys import enable_hotkey_tier
        return enable_hotkey_tier(self, config)

    def start_failure_detector(self, config: Optional[DetectorConfig] = None
                               ) -> FailureDetector:
        """Start the control-plane failure detector (idempotent per cluster).

        With a detector running, injected faults (fail-stop, gray failure,
        partitions that cut a switch off) trigger failover and recovery by
        themselves -- no test or experiment calls the controller directly.
        Passing a config when a detector already runs replaces it (the old
        one is stopped); passing none reuses the existing detector.
        """
        if self.detector is not None and config is not None:
            self.detector.stop()
            self.detector = None
        if self.detector is None:
            self.detector = FailureDetector(self.controller, config=config)
        self.detector.start()
        return self.detector
