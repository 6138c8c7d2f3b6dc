"""The five registered deployment backends.

Each backend builds the paper's evaluation testbed (Figure 8) for one
system under test and hands back a :class:`~repro.deploy.base.Deployment`
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.client import KVClient
from repro.core.cluster import ClusterConfig, NetChainCluster
from repro.core.protocol import MAX_PROTOTYPE_VALUE_BYTES
from repro.deploy.base import Backend, Capabilities, Deployment, register_backend
from repro.deploy.spec import DeploymentSpec
from repro.netsim.faults import FaultInjector
from repro.netsim.host import HostConfig
from repro.netsim.link import LinkConfig
from repro.netsim.topology import Topology, build_testbed
from repro.perfmodel.devices import KERNEL_STACK_DELAY, ZOOKEEPER_COMMIT_DELAY, scaled_testbed

# The server baselines and the hybrid tier are imported by the builders
# that use them, so a NetChain run loads none of them.
if TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.chain_server import ServerChainCluster
    from repro.baselines.primary_backup import PrimaryBackupCluster
    from repro.baselines.zk_client import ZooKeeperClient, ZooKeeperKVClient
    from repro.baselines.zookeeper import ZooKeeperEnsemble
    from repro.core.hybrid import HybridStore

#: Message-processing capacity used for the ZooKeeper servers, calibrated to
#: the measured ensemble throughput (see repro.baselines.zookeeper).
ZOOKEEPER_SERVER_MSGS_PER_SEC = 160e3


def _default_slots(spec: DeploymentSpec) -> int:
    if spec.store_slots is not None:
        return spec.store_slots
    return max(1024, spec.store_size + len(spec.extra_keys) + 1024)


# --------------------------------------------------------------------- #
# NetChain.
# --------------------------------------------------------------------- #

class _NetChainFamilyDeployment(Deployment):
    """Shared surface of deployments carrying a :class:`NetChainCluster`
    (``netchain`` itself and the ``hybrid`` accelerator): the cluster's
    fault injector, its failure detector as the fault-reaction machinery,
    the optional hot-key tier, and its teardown."""

    #: The running :class:`repro.core.hotkeys.HotKeyManager` when the spec
    #: enabled the adaptive hot-key tier (set by the backend's build).
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

    @property
    def fault_injector(self) -> FaultInjector:
        return self.cluster.faults()

    def fault_schedule(self, poll_interval: float = 1e-3):
        return self.cluster.fault_schedule(poll_interval=poll_interval)

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


def _scaled_cluster_parts(spec: DeploymentSpec):
    """The shared NetChain-family build scaffolding: the spec-derived
    :class:`ClusterConfig`, an (optional) unlimited-capacity topology,
    and the effective reporting scale."""
    config = ClusterConfig(scale=spec.scale, num_hosts=spec.num_hosts,
                           replication=spec.replication,
                           vnodes_per_switch=spec.vnodes_per_switch,
                           store_slots=_default_slots(spec),
                           retry_timeout=spec.retry_timeout, seed=spec.seed)
    topology = None
    scale = spec.scale
    if spec.unlimited_capacity:
        topology = scaled_testbed(num_hosts=spec.num_hosts, seed=spec.seed,
                                  unlimited_capacity=True)
        scale = 1.0
        config.scale = 1.0
    return config, topology, scale


@dataclass
class NetChainDeployment(_NetChainFamilyDeployment):
    """A NetChain cluster plus the knobs the experiment fixed."""

    cluster: NetChainCluster
    scale: float
    keys: List[str] = field(default_factory=list)

    backend_name = "netchain"

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


class NetChainBackend(Backend):
    """Builds :class:`NetChainDeployment` from a spec.

    ``options``: ``controller_config`` (a full
    :class:`repro.core.controller.ControllerConfig`, overriding the
    spec-derived one), ``member_switches``.
    """

    name = "netchain"
    capabilities = Capabilities(supports_reconfig=True,
                                supports_fault_injection=True,
                                scaled_throughput=True,
                                supports_hotkey_tier=True)

    def check(self, spec: DeploymentSpec) -> None:
        members = spec.options.get("member_switches")
        member_count = len(members) if members is not None else 4
        if spec.replication > member_count:
            raise ValueError(
                f"replication {spec.replication} exceeds the {member_count} "
                f"member switches of the testbed")

    def build(self, spec: DeploymentSpec) -> NetChainDeployment:
        config, topology, scale = _scaled_cluster_parts(spec)
        controller_config = spec.options.get("controller_config")
        if isinstance(controller_config, dict):
            # JSON-deserialized specs (matrix cells) carry the controller
            # config as a plain field dict.
            from repro.core.controller import ControllerConfig
            controller_config = ControllerConfig(**controller_config)
        cluster = NetChainCluster(
            config, topology=topology,
            member_switches=spec.options.get("member_switches"),
            controller_config=controller_config)
        keys = cluster.populate(spec.store_size, value_size=spec.value_size,
                                key_prefix=spec.key_prefix)
        if spec.extra_keys:
            cluster.controller.populate(list(spec.extra_keys))
            keys = keys + list(spec.extra_keys)
        if spec.loss_rate:
            cluster.topology.set_loss_rate(spec.loss_rate)
        deployment = NetChainDeployment(cluster=cluster, scale=scale, keys=keys)
        if spec.hotkey_tier:
            deployment.hotkey_manager = cluster.enable_hotkey_tier(
                spec.options.get("hotkey_tier"))
        return deployment


# --------------------------------------------------------------------- #
# ZooKeeper.
# --------------------------------------------------------------------- #

@dataclass
class ZooKeeperDeployment(Deployment):
    """A ZooKeeper ensemble on the testbed plus its client host(s)."""

    topology: Topology
    ensemble: ZooKeeperEnsemble
    client_host_names: List[str]
    scale: float
    paths: List[str] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)
    path_prefix: str = "/kv/"

    backend_name = "zookeeper"

    def __post_init__(self) -> None:
        self._kv_clients: List[ZooKeeperKVClient] = []

    @property
    def sim(self):
        return self.topology.sim

    def new_client(self, index: int = 0) -> ZooKeeperClient:
        """A new client session on one of the client hosts, spread over the
        live servers round-robin."""
        host_name = self.client_host_names[index % len(self.client_host_names)]
        host = self.topology.hosts[host_name]
        live = self.ensemble.live_servers()
        server = live[index % len(live)]
        from repro.baselines.zk_client import ZooKeeperClient
        return ZooKeeperClient(host, self.ensemble, server_id=server.server_id)

    def new_kv_client(self, index: int = 0,
                      prefix: Optional[str] = None) -> ZooKeeperKVClient:
        """A new session adapted to the unified :class:`KVClient` protocol,
        keyed under the same path prefix the deployment preloaded."""
        from repro.baselines.zk_client import ZooKeeperKVClient
        return ZooKeeperKVClient(self.new_client(index),
                                 prefix=prefix or self.path_prefix)

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        if count is None:
            count = len(self.client_host_names)
        while len(self._kv_clients) < count:
            self._kv_clients.append(self.new_kv_client(len(self._kv_clients)))
        return list(self._kv_clients[:count])


class ZooKeeperBackendImpl(Backend):
    """Builds :class:`ZooKeeperDeployment` from a spec.

    ``spec.replication`` is the ensemble size; the remaining
    ``num_hosts - replication`` hosts run the client processes.
    ``options``: ``path_prefix``.
    """

    name = "zookeeper"
    capabilities = Capabilities(supports_reconfig=False,
                                supports_fault_injection=True,
                                scaled_throughput=True)

    def check(self, spec: DeploymentSpec) -> None:
        if spec.replication >= spec.num_hosts:
            raise ValueError(
                f"the ensemble needs at least one client host: replication "
                f"{spec.replication} leaves none of the {spec.num_hosts} hosts")

    def build(self, spec: DeploymentSpec) -> ZooKeeperDeployment:
        from repro.baselines.zookeeper import ZooKeeperConfig, build_zookeeper_ensemble
        num_servers = spec.replication
        topology = _server_topology(spec)
        scale = spec.scale
        server_rate = (None if spec.unlimited_capacity
                       else ZOOKEEPER_SERVER_MSGS_PER_SEC / scale)
        if spec.unlimited_capacity:
            scale = 1.0
        config = ZooKeeperConfig(server_msgs_per_sec=server_rate,
                                 log_sync_delay=ZOOKEEPER_COMMIT_DELAY)
        server_hosts = [topology.hosts[f"H{i}"] for i in range(num_servers)]
        ensemble = build_zookeeper_ensemble(server_hosts, config)
        prefix = spec.options.get("path_prefix", "/kv/")
        keys = spec.key_names()
        paths = [f"{prefix}{key}" for key in keys]
        ensemble.preload({path: bytes(spec.value_size) for path in paths})
        client_hosts = [f"H{i}" for i in range(num_servers, len(topology.hosts))]
        return ZooKeeperDeployment(topology=topology, ensemble=ensemble,
                                   client_host_names=client_hosts, scale=scale,
                                   paths=paths, keys=keys, path_prefix=prefix)


# --------------------------------------------------------------------- #
# Server-hosted baselines (chain replication and primary-backup).
# --------------------------------------------------------------------- #

class _ServerBaselineDeployment(Deployment):
    """Shared surface of the server-hosted baselines: kernel-TCP hosts,
    one cached ``kv_client`` per requested client, spread round-robin
    over the client hosts."""

    def __post_init__(self) -> None:
        self._kv_clients: List[KVClient] = []

    @property
    def sim(self):
        return self.topology.sim

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        if count is None:
            count = len(self.client_host_names)
        while len(self._kv_clients) < count:
            name = self.client_host_names[len(self._kv_clients)
                                          % len(self.client_host_names)]
            self._kv_clients.append(
                self.cluster.kv_client(self.topology.hosts[name]))
        return list(self._kv_clients[:count])


@dataclass
class ServerChainDeployment(_ServerBaselineDeployment):
    """Chain replication on kernel-TCP servers, clients on the rest."""

    topology: Topology
    cluster: ServerChainCluster
    client_host_names: List[str]
    scale: float = 1.0
    keys: List[str] = field(default_factory=list)

    backend_name = "server-chain"


@dataclass
class PrimaryBackupDeployment(_ServerBaselineDeployment):
    """Primary-backup replication on kernel-TCP servers."""

    topology: Topology
    cluster: PrimaryBackupCluster
    client_host_names: List[str]
    scale: float = 1.0
    keys: List[str] = field(default_factory=list)

    backend_name = "primary-backup"


def _server_topology(spec: DeploymentSpec) -> Topology:
    """The shared substrate of the server-hosted baselines: the testbed
    with kernel-TCP hosts (NIC ceilings off -- server CPUs and protocol
    round trips are the bottleneck, not packet IO)."""
    host_config = HostConfig(
        stack_delay=spec.options.get("stack_delay", KERNEL_STACK_DELAY),
        nic_pps=None)
    topology = build_testbed(host_config=host_config, link_config=LinkConfig(),
                             num_hosts=spec.num_hosts, seed=spec.seed)
    from repro.netsim.routing import install_shortest_path_routes
    install_shortest_path_routes(topology)
    if spec.loss_rate:
        topology.set_loss_rate(spec.loss_rate)
    return topology


class _ServerBaselineBackend(Backend):
    """Shared spec checking for the two server-hosted baselines.

    ``spec.replication`` servers occupy the first hosts; the remaining
    hosts run clients.  Throughput is unscaled (``scale`` is ignored
    beyond validation): these baselines exist for latency and
    message-count comparisons.  ``options``: ``stack_delay``.
    """

    capabilities = Capabilities(supports_reconfig=False,
                                supports_fault_injection=True,
                                scaled_throughput=False)

    def check(self, spec: DeploymentSpec) -> None:
        if spec.replication >= spec.num_hosts:
            raise ValueError(
                f"the {self.name} baseline needs at least one client host: "
                f"replication {spec.replication} leaves none of the "
                f"{spec.num_hosts} hosts")


class ServerChainBackend(_ServerBaselineBackend):
    name = "server-chain"

    def build(self, spec: DeploymentSpec) -> ServerChainDeployment:
        from repro.baselines.chain_server import ServerChainCluster
        topology = _server_topology(spec)
        hosts = [topology.hosts[f"H{i}"] for i in range(spec.num_hosts)]
        cluster = ServerChainCluster(hosts[:spec.replication])
        keys = spec.key_names()
        cluster.preload({key: bytes(spec.value_size) for key in keys})
        client_hosts = [f"H{i}" for i in range(spec.replication, spec.num_hosts)]
        return ServerChainDeployment(topology=topology, cluster=cluster,
                                     client_host_names=client_hosts, keys=keys)


class PrimaryBackupBackend(_ServerBaselineBackend):
    name = "primary-backup"

    def build(self, spec: DeploymentSpec) -> PrimaryBackupDeployment:
        from repro.baselines.primary_backup import PrimaryBackupCluster
        topology = _server_topology(spec)
        hosts = [topology.hosts[f"H{i}"] for i in range(spec.num_hosts)]
        cluster = PrimaryBackupCluster(hosts[:spec.replication])
        keys = spec.key_names()
        cluster.preload({key: bytes(spec.value_size) for key in keys})
        client_hosts = [f"H{i}" for i in range(spec.replication, spec.num_hosts)]
        return PrimaryBackupDeployment(topology=topology, cluster=cluster,
                                       client_host_names=client_hosts, keys=keys)


# --------------------------------------------------------------------- #
# Hybrid (NetChain accelerator in front of a server tier, Section 6).
# --------------------------------------------------------------------- #

@dataclass
class HybridDeployment(_NetChainFamilyDeployment):
    """A NetChain cluster fronting a server-tier store."""

    cluster: NetChainCluster
    store: HybridStore
    scale: float
    keys: List[str] = field(default_factory=list)
    server_delay: float = 80e-6

    backend_name = "hybrid"

    def clients(self, count: Optional[int] = None) -> List[KVClient]:
        agents = self.cluster.agent_list()
        if count is None:
            count = len(agents)
        from repro.core.hybrid import HybridKVClient
        return [HybridKVClient(self.store, agent=agents[i % len(agents)],
                               server_delay=self.server_delay)
                for i in range(count)]


class HybridBackend(Backend):
    """Builds :class:`HybridDeployment` from a spec.

    The first ``network_fraction`` of the preloaded keys are pinned into
    the network tier (hot data), the rest start on the server tier and
    are promoted by the read-popularity policy.  ``options``:
    ``network_fraction`` (default 0.5), ``promote_after_reads``,
    ``max_network_value_bytes``, ``server_delay``, ``pinned`` (extra
    keys to pin).
    """

    name = "hybrid"
    capabilities = Capabilities(supports_reconfig=False,
                                supports_fault_injection=True,
                                scaled_throughput=True,
                                supports_hotkey_tier=True)

    def check(self, spec: DeploymentSpec) -> None:
        fraction = spec.options.get("network_fraction", 0.5)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"network_fraction must be in [0, 1], got {fraction}")
        # Replication-vs-members is checked eagerly (and authoritatively)
        # by NetChainCluster itself.

    def build(self, spec: DeploymentSpec) -> HybridDeployment:
        from repro.core.hybrid import DictBackend, HybridPolicy, HybridStore
        options = spec.options
        config, topology, scale = _scaled_cluster_parts(spec)
        cluster = NetChainCluster(config, topology=topology)
        policy = HybridPolicy(
            max_network_value_bytes=options.get("max_network_value_bytes",
                                                MAX_PROTOTYPE_VALUE_BYTES),
            promote_after_reads=options.get("promote_after_reads", 16))
        store = HybridStore(cluster.agent("H0"), DictBackend(), policy=policy)
        keys = spec.key_names()
        value = bytes(spec.value_size)
        network_keys: List[str] = []
        if policy.fits_in_network(value):
            split = int(round(len(keys) * options.get("network_fraction", 0.5)))
            network_keys = keys[:split]
        for key in network_keys:
            policy.pin(key)
        if network_keys:
            cluster.controller.populate(network_keys, default_value=value)
            store._network_keys.update(k.encode("utf-8") for k in network_keys)
        for key in keys[len(network_keys):]:
            store.backend.write(key, value)
        for key in options.get("pinned", ()):
            policy.pin(key)
        if spec.loss_rate:
            cluster.topology.set_loss_rate(spec.loss_rate)
        deployment = HybridDeployment(cluster=cluster, store=store, scale=scale,
                                      keys=keys,
                                      server_delay=options.get("server_delay",
                                                               80e-6))
        if spec.hotkey_tier:
            # The tier manages the network-resident keys; the server tier's
            # promotion policy already rides the same sketch structure
            # (``store.popularity``).
            deployment.hotkey_manager = cluster.enable_hotkey_tier(
                spec.options.get("hotkey_tier"))
        return deployment


# --------------------------------------------------------------------- #
# Registration.
# --------------------------------------------------------------------- #

register_backend(NetChainBackend())
register_backend(ZooKeeperBackendImpl())
register_backend(ServerChainBackend())
register_backend(PrimaryBackupBackend())
register_backend(HybridBackend())
