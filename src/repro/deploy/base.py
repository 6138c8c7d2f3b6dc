"""The deployment protocol.

Every way of running a key-value service in this repository -- the
in-network NetChain cluster, the ZooKeeper ensemble, the server-hosted
chain and primary-backup baselines, and the hybrid network/server tiering
-- is one :class:`Deployment` subclass whose ``build`` classmethod turns
a declarative :class:`~repro.deploy.spec.DeploymentSpec` into an
instance (:mod:`repro.deploy.backends` maps backend names to the
classes).  Deployments all expose the same surface: the simulator,
clients speaking the unified :class:`repro.core.client.KVClient`
protocol, a fault injector, capability flags and a ``teardown``.
Everything downstream (scenario runner, experiments, benchmarks,
examples) composes against this surface, so a new backend or workload
combination is a config change, not a new builder.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.client import KVClient
from repro.deploy.spec import DeploymentSpec
from repro.netsim.faults import FaultInjector, FaultSchedule


@dataclass(frozen=True)
class Capabilities:
    """What a deployment can do, for scenario/check gating.

    Checks and schedules consult these flags instead of special-casing
    backend names: a scenario that wants live reconfiguration simply
    requires ``supports_reconfig`` and runs on anything that sets it.
    """

    #: Live membership changes with key migration (:mod:`repro.core.reconfig`).
    supports_reconfig: bool = False
    #: Seeded fault injection over the deployment's topology.
    supports_fault_injection: bool = True
    #: Throughput numbers are scaled back by ``deployment.scale``.
    scaled_throughput: bool = True
    #: The adaptive hot-key tier (:mod:`repro.core.hotkeys`): sketch
    #: detection, chain widening, epoch-invalidated client caching.
    supports_hotkey_tier: bool = False

    def as_dict(self) -> Dict[str, bool]:
        return asdict(self)


class Deployment:
    """The common surface of a built deployment.

    Concrete deployments (one class per backend) set the class
    attributes, implement :meth:`build` and the client factory; the base
    class provides the shared fault-injection plumbing and bookkeeping.
    """

    #: The backend's name in ``DeploymentSpec.backend``.
    backend_name: str = "kv"
    capabilities: Capabilities = Capabilities()
    #: The ``spec.options`` keys the backend reads; ``build_deployment``
    #: rejects any other.  Every backend accepts the scenario-level
    #: ``detector_config`` and ``reconfig`` (read by the scenario runner).
    option_keys: Tuple[str, ...] = ("detector_config", "reconfig")
    #: The spec this deployment was built from (set by ``build_deployment``).
    spec: Optional[DeploymentSpec] = None
    #: Preloaded key names (subclasses assign their own list).
    keys: List[str] = ()  # type: ignore[assignment]
    #: Scale factor for mapping measured throughput to absolute units.
    scale: float = 1.0

    @classmethod
    def build(cls, spec: DeploymentSpec) -> "Deployment":
        """Build a deployment from ``spec``, raising :class:`ValueError`
        before anything is built if the backend cannot run it; every
        stochastic choice derives from ``spec.seed``."""
        raise NotImplementedError

    # -- simulation ------------------------------------------------------ #

    # Subclasses provide ``sim`` (a property) and ``topology`` (a field or
    # property); the base class deliberately defines neither, so dataclass
    # subclasses can declare them as fields.

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self.sim.run(until=until)

    # -- clients --------------------------------------------------------- #

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        """``count`` clients speaking the unified :class:`KVClient` protocol.

        ``None`` asks for the backend's natural client population (one per
        client host, typically); larger counts are served by additional
        sessions, spread round-robin over hosts/servers.
        """
        raise NotImplementedError

    # -- faults ---------------------------------------------------------- #

    _fault_injector: Optional[FaultInjector] = None

    @property
    def fault_injector(self) -> FaultInjector:
        """The deployment's seeded fault injector (created on first use)."""
        if self._fault_injector is None:
            seed = self.spec.seed if self.spec is not None else 0
            self._fault_injector = FaultInjector(self.topology, seed=seed)
        return self._fault_injector

    def fault_schedule(self, poll_interval: float = 1e-3) -> FaultSchedule:
        """A new un-armed :class:`FaultSchedule` over the injector."""
        return FaultSchedule(self.fault_injector, poll_interval=poll_interval)

    def start_fault_reaction(self, options: Dict) -> None:
        """Start whatever control-plane machinery reacts to injected
        faults (a failure detector, a health prober).

        Called by the scenario runner after arming a spec's fault
        schedule; the default is a no-op so backends without reaction
        machinery need nothing.  ``options`` is the spec's backend
        options (e.g. ``detector_config``).
        """

    # -- telemetry ------------------------------------------------------- #

    def attach_telemetry(self, plane) -> None:
        """Wire a :class:`repro.core.trace.TelemetryPlane` into this
        deployment.

        The default instruments the topology (hosts, switches, links),
        which every backend has; backends with richer surfaces (agents,
        switch programs, a controller event log) override and extend.
        """
        plane.attach_topology(self.topology)

    # -- state ----------------------------------------------------------- #

    def initial_values(self) -> Dict[bytes, Optional[bytes]]:
        """Preloaded ``key -> value`` as raw bytes (linearizability initial
        state).  Defaults to ``value_size`` zero bytes per preloaded key."""
        if self.spec is None:
            return {}
        value = bytes(self.spec.value_size)
        return {key.encode("utf-8"): value for key in self.keys}

    def teardown(self) -> None:
        """Stop background machinery (detectors, schedules).

        Deployments are simulated objects, so there is nothing to free;
        teardown exists so scenarios leave no probes or schedules running
        when several deployments share a test process.
        """
