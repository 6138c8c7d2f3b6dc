"""One-call assembly of a NetChain deployment on the simulated testbed.

Most examples, tests and experiments need the same setup: build the
Figure 8 testbed, install the NetChain program on the switches, start the
controller, and attach one client agent per host.  :class:`NetChainCluster`
bundles that, with the scale model applied to all device capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.agent import AgentConfig, NetChainAgent
from repro.core.controller import ControllerConfig, NetChainController
from repro.core.detector import DetectorConfig, FailureDetector
from repro.netsim.engine import Simulator
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.netsim.link import LinkConfig
from repro.netsim.topology import Topology
from repro.perfmodel.devices import scaled_testbed


@dataclass
class ClusterConfig:
    """Deployment parameters for a simulated NetChain cluster.

    Invalid parameter combinations raise :class:`ValueError` at
    construction time, so a bad config fails where it was written instead
    of deep inside chain building or the simulation.
    """

    #: Scale factor applied to all device capacities (see
    #: :mod:`repro.perfmodel.devices`).
    scale: float = 1000.0
    #: Number of client/server machines attached to the testbed.
    num_hosts: int = 4
    #: Chain length (f+1).
    replication: int = 3
    #: Virtual nodes (groups) per switch.
    vnodes_per_switch: int = 10
    #: Key slots per switch.
    store_slots: int = 65536
    #: Client retry timeout.
    retry_timeout: float = 500e-6
    #: Client retry budget.
    max_retries: int = 20
    #: Random seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.num_hosts < 1:
            raise ValueError(f"num_hosts must be at least 1, got {self.num_hosts}")
        if self.replication < 1:
            raise ValueError(
                f"replication (chain length) must be at least 1, got {self.replication}")
        if self.vnodes_per_switch < 1:
            raise ValueError(
                f"vnodes_per_switch must be at least 1, got {self.vnodes_per_switch}")
        if self.store_slots < 1:
            raise ValueError(f"store_slots must be at least 1, got {self.store_slots}")
        if self.retry_timeout <= 0:
            raise ValueError(
                f"retry_timeout must be positive, got {self.retry_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


class NetChainCluster:
    """A ready-to-use NetChain deployment on the 4-switch testbed."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 topology: Optional[Topology] = None,
                 member_switches: Optional[List[str]] = None,
                 controller_config: Optional[ControllerConfig] = None) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        if topology is None:
            topology = scaled_testbed(scale=cfg.scale, num_hosts=cfg.num_hosts,
                                      seed=cfg.seed)
        self.topology = topology
        if controller_config is None:
            controller_config = ControllerConfig(
                replication=cfg.replication,
                vnodes_per_switch=cfg.vnodes_per_switch,
                store_slots=cfg.store_slots,
                seed=cfg.seed,
            )
        members = member_switches if member_switches is not None \
            else sorted(topology.switches)
        if controller_config.replication > len(members):
            raise ValueError(
                f"replication (chain length) {controller_config.replication} exceeds "
                f"the {len(members)} member switches {sorted(members)}; shrink the "
                f"chain or add switches")
        self.controller = NetChainController(topology, member_switches=member_switches,
                                             config=controller_config)
        # One shared config for every agent: it is read-only to the agents
        # (each allocates its own UDP port because ``udp_port`` stays None).
        agent_config = AgentConfig(retry_timeout=cfg.retry_timeout,
                                   max_retries=cfg.max_retries)
        self.agents: Dict[str, NetChainAgent] = {}
        for name, host in topology.hosts.items():
            self.agents[name] = NetChainAgent(host, self.controller, config=agent_config)
        self._fault_injector: Optional[FaultInjector] = None
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

    def faults(self) -> FaultInjector:
        """The cluster's fault injector (created on first use), seeded
        with the cluster seed so a whole scenario replays from the single
        :class:`ClusterConfig.seed` knob."""
        if self._fault_injector is None:
            self._fault_injector = FaultInjector(self.topology,
                                                 seed=self.config.seed)
        return self._fault_injector

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
            switch_config = scaled_switch_config(self.config.scale)
        switch = self.topology.attach_switch(name, link_to,
                                             switch_config=switch_config,
                                             link_config=LinkConfig())
        reroute_around_failures(self.topology, self.controller.failed_switches)
        self.controller.provision_switch(name)
        return switch

    def migrate(self, target_members: List[str], config=None):
        """Plan and start a live migration to ``target_members``.

        Returns the running :class:`repro.core.reconfig.MigrationCoordinator`;
        advance the simulation until ``coordinator.done`` and inspect
        ``coordinator.report``.
        """
        from repro.core.reconfig import migrate
        return migrate(self.controller, target_members, config=config)

    def fault_schedule(self, poll_interval: float = 1e-3) -> FaultSchedule:
        """A new :class:`FaultSchedule` over the cluster's injector."""
        return FaultSchedule(self.faults(), poll_interval=poll_interval)

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
