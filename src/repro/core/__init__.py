"""NetChain core: the paper's primary contribution.

An in-network, strongly-consistent, fault-tolerant key-value store built
from:

* :mod:`repro.core.protocol` -- the UDP-based query format (Figure 2(b)).
* :mod:`repro.core.kvstore` -- the on-chip key/value storage layout
  (key index + register arrays, Figure 3).
* :mod:`repro.core.switch_program` -- the data-plane program
  (Algorithm 1 plus chain routing and failure-handling rules).
* :mod:`repro.core.ring` -- consistent hashing with virtual nodes.
* :mod:`repro.core.client` -- the backend-agnostic ``KVClient`` protocol:
  futures, sessions and pipelined batch submission.
* :mod:`repro.core.agent` -- the client-side agent exposing the key-value API.
* :mod:`repro.core.controller` -- the control plane: chain assignment,
  fast failover (Algorithm 2) and failure recovery (Algorithm 3).
* :mod:`repro.core.coordination` -- locks, barriers, configuration and
  group membership built on the key-value API.
* :mod:`repro.core.invariants` -- executable versions of the paper's
  correctness invariants (the TLA+ appendix).
* :mod:`repro.core.hotkeys` -- the adaptive hot-key tier: sketch-based
  detection, self-tuning chain widening, epoch-invalidated client caching.
"""

from repro.core.agent import NetChainAgent
from repro.core.client import (
    KVBatch,
    KVClient,
    KVFuture,
    KVResult,
    KVSession,
    KVTimeout,
    first,
    gather,
)
from repro.core.cluster import NetChainCluster
from repro.core.controller import ChainInfo, ControllerConfig, HotRoute, NetChainController
from repro.core.coordination import (
    Barrier,
    ConfigurationStore,
    DistributedLock,
    GroupMembership,
)
from repro.core.detector import DetectorConfig, FailureDetector
from repro.core.history import (
    History,
    HistoryOp,
    LinearizabilityReport,
    RecordingClient,
    check_linearizable,
)
from repro.core.hotkeys import (
    ClientReadCache,
    HotKeyManager,
    HotKeySketch,
    HotKeyTierConfig,
    SketchConfig,
)
from repro.core.hybrid import HybridKVClient, HybridPolicy, HybridStore
from repro.core.invariants import (
    ClientObservationChecker,
    check_chain_invariant,
    check_value_agreement,
    invariant_observer,
    sample_chain_invariants,
)
from repro.core.kvstore import StoreFullError, SwitchKVStore
from repro.core.protocol import NetChainHeader, OpCode, QueryStatus
from repro.core.reconfig import (
    MigrationCoordinator,
    MigrationPlan,
    MigrationReport,
    ReconfigPlanner,
    migrate,
)
from repro.core.ring import ConsistentHashRing, VirtualNode
from repro.core.switch_program import NetChainSwitchProgram

__all__ = [
    "KVClient",
    "KVFuture",
    "KVResult",
    "KVSession",
    "KVBatch",
    "KVTimeout",
    "gather",
    "first",
    "OpCode",
    "QueryStatus",
    "NetChainHeader",
    "SwitchKVStore",
    "StoreFullError",
    "ConsistentHashRing",
    "VirtualNode",
    "NetChainSwitchProgram",
    "NetChainAgent",
    "NetChainController",
    "ControllerConfig",
    "ChainInfo",
    "DistributedLock",
    "Barrier",
    "ConfigurationStore",
    "GroupMembership",
    "check_chain_invariant",
    "check_value_agreement",
    "invariant_observer",
    "sample_chain_invariants",
    "ClientObservationChecker",
    "DetectorConfig",
    "FailureDetector",
    "History",
    "HistoryOp",
    "LinearizabilityReport",
    "RecordingClient",
    "check_linearizable",
    "NetChainCluster",
    "MigrationCoordinator",
    "MigrationPlan",
    "MigrationReport",
    "ReconfigPlanner",
    "migrate",
    "HybridStore",
    "HybridPolicy",
    "HybridKVClient",
    "ClientReadCache",
    "HotKeyManager",
    "HotKeySketch",
    "HotKeyTierConfig",
    "HotRoute",
    "SketchConfig",
]
