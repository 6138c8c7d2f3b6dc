"""The five deployment backends and the name -> class mapping.

Each backend builds the paper's evaluation testbed (Figure 8) for one
system under test as a :class:`~repro.deploy.base.Deployment` subclass
whose clients all speak the unified :class:`repro.core.client.KVClient`
protocol:

* ``netchain``       -- the in-network store: 4-switch ring, DPDK hosts,
  chains in the switch data plane (supports live reconfiguration).
* ``zookeeper``      -- the ZAB ensemble on the first ``replication``
  hosts, clients on the rest (supports watches).
* ``server-chain``   -- chain replication on kernel-TCP servers
  (Van Renesse & Schneider / FAWN-KV style).
* ``primary-backup`` -- the classical primary-backup protocol of
  Figure 1(a).
* ``hybrid``         -- NetChain as an accelerator tier in front of a
  server-based store (Section 6).

A new backend is one more ``Deployment`` subclass with a ``build(spec)``
classmethod, added to :data:`BACKENDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type, Union

from repro.core.client import KVClient
from repro.core.cluster import NetChainCluster
from repro.core.controller import ControllerConfig
from repro.deploy.base import Capabilities, Deployment
from repro.deploy.spec import DeploymentSpec
from repro.netsim.host import Host, HostConfig
from repro.netsim.link import LinkConfig
from repro.netsim.topology import Topology, build_testbed
from repro.perfmodel.devices import (
    KERNEL_STACK_DELAY,
    ZOOKEEPER_SERVER_MSGS_PER_SEC,
    scaled_testbed,
)

# The server baselines and the hybrid tier are imported by the builders
# that use them, so a NetChain run loads none of them.
if TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.chain_server import ServerChainCluster
    from repro.baselines.primary_backup import PrimaryBackupCluster
    from repro.baselines.zk_client import ZooKeeperClient, ZooKeeperKVClient
    from repro.baselines.zookeeper import ZooKeeperEnsemble
    from repro.core.hybrid import HybridStore

#: Share of the preloaded keys the ``hybrid`` backend pins into the network
#: tier (hot data); the rest start on the server tier.
HYBRID_NETWORK_FRACTION = 0.5


# --------------------------------------------------------------------- #
# NetChain.
# --------------------------------------------------------------------- #

class _NetChainFamilyDeployment(Deployment):
    """Shared surface of deployments carrying a :class:`NetChainCluster`
    (``netchain`` itself and the ``hybrid`` accelerator): its failure
    detector as the fault-reaction machinery, the optional hot-key tier,
    and its teardown.  ``options``: ``hotkey_tier`` (the tier's knobs)."""

    option_keys = Deployment.option_keys + ("hotkey_tier",)

    #: The running :class:`repro.core.hotkeys.HotKeyManager` when the spec
    #: enabled the adaptive hot-key tier (set by ``build``).
    hotkey_manager = None

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def topology(self):
        return self.cluster.topology

    @property
    def hotkey_tier_active(self) -> bool:
        """Whether the adaptive hot-key tier is running on this deployment."""
        return self.hotkey_manager is not None

    def start_fault_reaction(self, options: Dict) -> None:
        config = options.get("detector_config")
        if isinstance(config, dict):
            # Specs that crossed a process boundary as JSON (matrix cells)
            # carry the detector config as a plain field dict.
            from repro.core.detector import DetectorConfig
            config = DetectorConfig(**config)
        self.cluster.start_failure_detector(config)

    def attach_telemetry(self, plane) -> None:
        """Topology plus the NetChain-specific surfaces: agents (per-query
        spans + latency histograms), switch programs (chain-stage spans,
        op mix) and the controller's structured event log."""
        plane.attach_topology(self.topology)
        plane.attach_netchain(self.cluster)

    def teardown(self) -> None:
        if self.hotkey_manager is not None:
            self.hotkey_manager.stop()
            self.hotkey_manager = None
        if self.cluster.detector is not None:
            self.cluster.detector.stop()

    @staticmethod
    def _build_cluster(spec: DeploymentSpec) -> NetChainCluster:
        """The spec's cluster: the scaled testbed (capacity ceilings off
        when ``unlimited_capacity``, which also reports at scale 1), the
        controller config of the spec's fields (``store_slots`` sized from
        the preloaded keys when unset), and the spec's retry timeout.  The
        replication-versus-members check is the cluster's own."""
        slots = spec.store_slots
        if slots is None:
            slots = max(1024, spec.store_size + len(spec.extra_keys) + 1024)
        controller_config = ControllerConfig(
            replication=spec.replication,
            vnodes_per_switch=spec.vnodes_per_switch, store_slots=slots,
            sync_items_per_sec=spec.sync_items_per_sec, seed=spec.seed)
        scale = 1.0 if spec.unlimited_capacity else spec.scale
        topology = scaled_testbed(scale=scale, num_hosts=spec.num_hosts,
                                  seed=spec.seed,
                                  unlimited_capacity=spec.unlimited_capacity)
        return NetChainCluster(topology, controller_config,
                               retry_timeout=spec.retry_timeout, scale=scale)

    def _finish_build(self, spec: DeploymentSpec) -> None:
        """The last build steps of the family, after the store is loaded:
        the spec's loss rate and, when asked for, the hot-key tier."""
        if spec.loss_rate:
            self.topology.set_loss_rate(spec.loss_rate)
        if spec.hotkey_tier:
            self.hotkey_manager = self.cluster.enable_hotkey_tier(
                spec.options.get("hotkey_tier"))


@dataclass
class NetChainDeployment(_NetChainFamilyDeployment):
    """A NetChain cluster built from the spec.  ``options``:
    ``hotkey_tier``."""

    cluster: NetChainCluster
    scale: float
    keys: List[str] = field(default_factory=list)

    backend_name = "netchain"
    capabilities = Capabilities(supports_reconfig=True,
                                supports_fault_injection=True,
                                scaled_throughput=True,
                                supports_hotkey_tier=True)

    @classmethod
    def build(cls, spec: DeploymentSpec) -> "NetChainDeployment":
        cluster = cls._build_cluster(spec)
        keys = cluster.populate(spec.store_size, value_size=spec.value_size,
                                key_prefix=spec.key_prefix)
        if spec.extra_keys:
            cluster.controller.populate(list(spec.extra_keys))
            keys = keys + list(spec.extra_keys)
        deployment = cls(cluster=cluster, scale=cluster.scale, keys=keys)
        deployment._finish_build(spec)
        return deployment

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        agents = self.cluster.agent_list()
        if count is None:
            return agents
        return [agents[i % len(agents)] for i in range(count)]

    def initial_values(self) -> Dict[bytes, Optional[bytes]]:
        controller = self.cluster.controller
        initial: Dict[bytes, Optional[bytes]] = {}
        for key in self.keys:
            info = controller.chain_for_key(key)
            item = controller.stores[info.switches[-1]].read(key)
            initial[key.encode("utf-8")] = (
                item.value if item is not None and item.valid else None)
        return initial


# --------------------------------------------------------------------- #
# Server-hosted backends: ZooKeeper, chain replication, primary-backup.
# --------------------------------------------------------------------- #

class _ServerHostedDeployment(Deployment):
    """Shared surface of the backends whose ``spec.replication`` servers
    occupy the first hosts of a kernel-TCP testbed (NIC ceilings off --
    server CPUs and protocol round trips are the bottleneck, not packet
    IO): one cached client per requested client, spread round-robin over
    the remaining (client) hosts.  ``options``: ``stack_delay`` (the
    hosts' one-way stack delay)."""

    option_keys = Deployment.option_keys + ("stack_delay",)

    def __post_init__(self) -> None:
        self._kv_clients: List[KVClient] = []

    @classmethod
    def _testbed(cls, spec: DeploymentSpec) -> Tuple[Topology, List[Host], List[str]]:
        """Check that a host is left for clients, then build the testbed:
        the topology, the server hosts and the client host names."""
        if spec.replication >= spec.num_hosts:
            raise ValueError(
                f"the {cls.backend_name} backend needs at least one client "
                f"host: replication {spec.replication} leaves none of the "
                f"{spec.num_hosts} hosts")
        host_config = HostConfig(
            stack_delay=spec.options.get("stack_delay", KERNEL_STACK_DELAY),
            nic_pps=None)
        topology = build_testbed(host_config=host_config, link_config=LinkConfig(),
                                 num_hosts=spec.num_hosts, seed=spec.seed)
        from repro.netsim.routing import install_shortest_path_routes
        install_shortest_path_routes(topology)
        if spec.loss_rate:
            topology.set_loss_rate(spec.loss_rate)
        servers = [topology.hosts[f"H{i}"] for i in range(spec.replication)]
        return topology, servers, [f"H{i}" for i in range(spec.replication,
                                                          spec.num_hosts)]

    @property
    def sim(self):
        return self.topology.sim

    def new_kv_client(self, index: int = 0) -> KVClient:
        """A new client speaking the unified :class:`KVClient` protocol,
        on client host ``index`` (round-robin)."""
        raise NotImplementedError

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        if count is None:
            count = len(self.client_host_names)
        while len(self._kv_clients) < count:
            self._kv_clients.append(self.new_kv_client(len(self._kv_clients)))
        return list(self._kv_clients[:count])


@dataclass
class ZooKeeperDeployment(_ServerHostedDeployment):
    """A ZooKeeper ensemble (``spec.replication`` servers) on the testbed
    plus its client host(s).  Keys live under the znode prefix
    ``path_prefix``."""

    topology: Topology
    ensemble: ZooKeeperEnsemble
    client_host_names: List[str]
    scale: float
    paths: List[str] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)

    backend_name = "zookeeper"
    capabilities = Capabilities(supports_reconfig=False,
                                supports_fault_injection=True,
                                scaled_throughput=True)
    path_prefix = "/kv/"

    @classmethod
    def build(cls, spec: DeploymentSpec) -> "ZooKeeperDeployment":
        topology, servers, client_hosts = cls._testbed(spec)
        from repro.baselines.zookeeper import build_zookeeper_ensemble
        server_rate = (None if spec.unlimited_capacity
                       else ZOOKEEPER_SERVER_MSGS_PER_SEC / spec.scale)
        ensemble = build_zookeeper_ensemble(servers, server_rate)
        keys = spec.key_names()
        paths = [f"{cls.path_prefix}{key}" for key in keys]
        ensemble.preload({path: bytes(spec.value_size) for path in paths})
        return cls(topology=topology, ensemble=ensemble,
                   client_host_names=client_hosts,
                   scale=1.0 if spec.unlimited_capacity else spec.scale,
                   paths=paths, keys=keys)

    def new_client(self, index: int = 0) -> ZooKeeperClient:
        """A new client session on one of the client hosts, spread over the
        live servers round-robin."""
        host_name = self.client_host_names[index % len(self.client_host_names)]
        host = self.topology.hosts[host_name]
        live = self.ensemble.live_servers()
        server = live[index % len(live)]
        from repro.baselines.zk_client import ZooKeeperClient
        return ZooKeeperClient(host, self.ensemble, server_id=server.server_id)

    def new_kv_client(self, index: int = 0) -> ZooKeeperKVClient:
        from repro.baselines.zk_client import ZooKeeperKVClient
        return ZooKeeperKVClient(self.new_client(index), prefix=self.path_prefix)


@dataclass
class _ServerBaselineDeployment(_ServerHostedDeployment):
    """The server-hosted replication baselines, which differ only in the
    replica cluster class.  Throughput is unscaled (``scale`` is ignored
    beyond validation): these baselines exist for latency and
    message-count comparisons.  Each subclass names its replica cluster
    class in ``_cluster_class``, imported only when built."""

    topology: Topology
    cluster: Union[ServerChainCluster, PrimaryBackupCluster]
    client_host_names: List[str]
    scale: float = 1.0
    keys: List[str] = field(default_factory=list)

    capabilities = Capabilities(supports_reconfig=False,
                                supports_fault_injection=True,
                                scaled_throughput=False)

    @classmethod
    def build(cls, spec: DeploymentSpec) -> "_ServerBaselineDeployment":
        topology, servers, client_hosts = cls._testbed(spec)
        cluster = cls._cluster_class()(servers)
        keys = spec.key_names()
        cluster.preload({key: bytes(spec.value_size) for key in keys})
        return cls(topology=topology, cluster=cluster,
                   client_host_names=client_hosts, keys=keys)

    def new_kv_client(self, index: int = 0) -> KVClient:
        name = self.client_host_names[index % len(self.client_host_names)]
        return self.cluster.client(self.topology.hosts[name])


class ServerChainDeployment(_ServerBaselineDeployment):
    """Chain replication on kernel-TCP servers, clients on the rest."""

    backend_name = "server-chain"

    @staticmethod
    def _cluster_class() -> type:
        from repro.baselines.chain_server import ServerChainCluster
        return ServerChainCluster


class PrimaryBackupDeployment(_ServerBaselineDeployment):
    """Primary-backup replication on kernel-TCP servers."""

    backend_name = "primary-backup"

    @staticmethod
    def _cluster_class() -> type:
        from repro.baselines.primary_backup import PrimaryBackupCluster
        return PrimaryBackupCluster


# --------------------------------------------------------------------- #
# Hybrid (NetChain accelerator in front of a server tier, Section 6).
# --------------------------------------------------------------------- #

@dataclass
class HybridDeployment(_NetChainFamilyDeployment):
    """A NetChain cluster fronting a server-tier store.

    The first :data:`HYBRID_NETWORK_FRACTION` of the preloaded keys are
    pinned into the network tier (hot data); the rest start on the server
    tier and are promoted by the default read-popularity policy.
    ``options``: ``hotkey_tier``.
    """

    cluster: NetChainCluster
    store: HybridStore
    scale: float
    keys: List[str] = field(default_factory=list)

    backend_name = "hybrid"
    capabilities = Capabilities(supports_reconfig=False,
                                supports_fault_injection=True,
                                scaled_throughput=True,
                                supports_hotkey_tier=True)

    @classmethod
    def build(cls, spec: DeploymentSpec) -> "HybridDeployment":
        from repro.core.hybrid import DictBackend, HybridPolicy, HybridStore
        cluster = cls._build_cluster(spec)
        policy = HybridPolicy()
        store = HybridStore(cluster.agent("H0"), DictBackend(), policy=policy)
        keys = spec.key_names()
        value = bytes(spec.value_size)
        network_keys: List[str] = []
        if policy.fits_in_network(value):
            split = int(round(len(keys) * HYBRID_NETWORK_FRACTION))
            network_keys = keys[:split]
        for key in network_keys:
            policy.pin(key)
        if network_keys:
            cluster.controller.populate(network_keys, default_value=value)
            store._network_keys.update(k.encode("utf-8") for k in network_keys)
        for key in keys[len(network_keys):]:
            store.backend.write(key, value)
        deployment = cls(cluster=cluster, store=store, scale=cluster.scale,
                         keys=keys)
        # The tier manages the network-resident keys; the server tier's
        # promotion policy already rides the same sketch structure
        # (``store.popularity``).
        deployment._finish_build(spec)
        return deployment

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        agents = self.cluster.agent_list()
        if count is None:
            count = len(agents)
        from repro.core.hybrid import HybridKVClient
        return [HybridKVClient(self.store, agent=agents[i % len(agents)])
                for i in range(count)]


# --------------------------------------------------------------------- #
# The backend names.
# --------------------------------------------------------------------- #

BACKENDS: Dict[str, Type[Deployment]] = {
    "hybrid": HybridDeployment,
    "netchain": NetChainDeployment,
    "primary-backup": PrimaryBackupDeployment,
    "server-chain": ServerChainDeployment,
    "zookeeper": ZooKeeperDeployment,
}


def available_backends() -> List[str]:
    """The backend names, sorted."""
    return sorted(BACKENDS)


def build_deployment(spec: DeploymentSpec) -> Deployment:
    """Validate ``spec`` and build it with its backend's class.

    Raises :class:`ValueError` for an unknown backend and for
    ``spec.options`` keys the backend does not read, naming the known
    ones: specs arrive as JSON (matrix cells), so a typo must not be
    ignored without a word.
    """
    spec.validate()
    try:
        cls = BACKENDS[spec.backend]
    except KeyError:
        raise ValueError(f"unknown backend {spec.backend!r}; available: "
                         f"{', '.join(available_backends())}") from None
    unknown = sorted(set(spec.options) - set(cls.option_keys))
    if unknown:
        raise ValueError(
            f"unknown {spec.backend} option(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(cls.option_keys))})")
    deployment = cls.build(spec)
    deployment.spec = spec
    return deployment
