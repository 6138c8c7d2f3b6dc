"""The declarative deployment specification.

A :class:`DeploymentSpec` is a plain, serializable description of one
deployment of *any* backend: topology scale, membership sizes,
preloaded store, loss rate, a declarative fault schedule, and a single
seed from which every stochastic choice in the deployment derives.  The
same spec (same seed) always builds the same deployment; sweeping the
evaluation matrix is editing fields, not writing a new builder.

The spec is the only description of a deployment's shape: a NetChain
controller's chain length, virtual groups, store slots, state-copy rate
and seed are its fields.  Backend-specific knobs that do not generalize
(the hot-key tier's knobs, the server hosts' stack delay) ride in
``options``; each backend class declares the keys it reads, and building
a spec with any other key raises.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple


def json_safe(value: Any, where: str) -> Any:
    """Recursively convert ``value`` to JSON-safe types.

    Dataclass config objects (``DetectorConfig``, ``HotKeyTierConfig``,
    ...) become plain field dicts and tuples become lists, so a spec built
    in-process serializes without callers flattening anything by hand.
    Anything else non-JSON raises a :class:`ValueError` naming the
    offending field path (``where``).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(item, f"{where}[{index}]")
                for index, item in enumerate(value)]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ValueError(
                    f"{where} has a non-string key {key!r}; JSON objects "
                    f"need string keys")
        return {key: json_safe(item, f"{where}[{key!r}]")
                for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: json_safe(getattr(value, f.name), f"{where}.{f.name}")
                for f in dataclasses.fields(value)}
    raise ValueError(
        f"{where} is not JSON-serializable: {type(value).__name__} "
        f"({value!r}); task descriptors must be constructible from JSON "
        f"alone -- pass plain values or dataclass configs")


#: The keys of ``options["reconfig"]``, read by the scenario runner.
RECONFIG_KEYS = ("changes", "link_new_to")


def check_unknown_fields(cls, data: Dict, what: str) -> None:
    """Reject dict keys that are not fields of ``cls``, naming them."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})")


@dataclass
class DeploymentSpec:
    """Declarative description of one deployment on the simulated testbed.

    Attributes:
        backend: backend name (``netchain``, ``zookeeper``,
            ``server-chain``, ``primary-backup``, ``hybrid``).
        scale: the scale model's capacity divisor (see
            :mod:`repro.perfmodel.devices`).
        num_hosts: client/server machines attached to the testbed.
        replication: chain length / ensemble size / replica count --
            whatever "number of replicas" means for the backend.
        vnodes_per_switch: virtual groups per switch (NetChain-family).
        store_size: keys preloaded before the workload starts.
        value_size: size of every preloaded value, in bytes.
        store_slots: per-switch key slots (NetChain-family); ``None``
            sizes them from ``store_size`` and ``extra_keys``.
        sync_items_per_sec: items per second the NetChain controller
            copies during state synchronization (failure recovery and
            migration); the prototype's ~140 is Figure 10(a)'s.
        loss_rate: Figure 9(d)'s loss: each switch drops an arriving
            packet with this probability (``Topology.set_loss_rate``).
        retry_timeout: client retry timeout (NetChain-family).
        unlimited_capacity: drop the scaled capacity ceilings
            (latency-bound experiments).
        hotkey_tier: enable the adaptive hot-key tier
            (:mod:`repro.core.hotkeys`) on backends whose capabilities set
            ``supports_hotkey_tier``; others ignore the flag, so the same
            skewed scenario runs across the whole matrix.  Tier knobs ride
            ``options["hotkey_tier"]`` (a ``HotKeyTierConfig`` field dict).
        seed: the single seed every stochastic choice derives from.
        key_prefix: prefix of the preloaded key names.
        extra_keys: additional keys to preload (e.g. lock keys).
        faults: declarative fault schedule, one ``(at, action, *args)``
            tuple per event, armed on the deployment's fault injector
            when a scenario runs (e.g. ``(0.5, "fail_switch", "S1")``).
        telemetry: the deterministic telemetry plane.  ``None``/``False``
            (default) keeps every hot path on its untraced branch;
            ``True`` enables tracing + metrics + the control event log
            with defaults; a dict or
            :class:`repro.netsim.telemetry.TelemetryConfig` sets the
            knobs (``run_dir``, ``sample_interval``, ``trace_sample``).  The scenario
            runner spills a ``trace/v2`` run directory and stores the
            summary on ``ScenarioResult.metrics``.
        options: backend-specific knobs, plus the scenario-level
            ``detector_config`` and ``reconfig`` every backend accepts
            (``Deployment.option_keys``).
    """

    backend: str = "netchain"
    scale: float = 1000.0
    num_hosts: int = 4
    replication: int = 3
    vnodes_per_switch: int = 4
    store_size: int = 0
    value_size: int = 64
    store_slots: Optional[int] = None
    sync_items_per_sec: float = 140.0
    loss_rate: float = 0.0
    retry_timeout: float = 500e-6
    unlimited_capacity: bool = False
    hotkey_tier: bool = False
    seed: int = 0
    key_prefix: str = "k"
    extra_keys: List[str] = field(default_factory=list)
    faults: List[Tuple] = field(default_factory=list)
    telemetry: Any = None
    options: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Validation (eager: fail where the spec was written).
    # ------------------------------------------------------------------ #

    def validate(self) -> "DeploymentSpec":
        """Raise :class:`ValueError` on an invalid spec; returns ``self``.

        Backend-specific constraints (e.g. replication versus member
        count) are checked by the backend's own ``check()`` when the
        deployment is built; this method covers everything a spec can get
        wrong on its own.
        """
        if not self.backend:
            raise ValueError("spec needs a backend name")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.num_hosts < 1:
            raise ValueError(f"num_hosts must be at least 1, got {self.num_hosts}")
        if self.replication < 1:
            raise ValueError(
                f"replication must be at least 1, got {self.replication}")
        if self.vnodes_per_switch < 1:
            raise ValueError(f"vnodes_per_switch must be at least 1, "
                             f"got {self.vnodes_per_switch}")
        if self.store_size < 0:
            raise ValueError(f"store_size must be >= 0, got {self.store_size}")
        if self.value_size < 0:
            raise ValueError(f"value_size must be >= 0, got {self.value_size}")
        preloaded = self.store_size + len(self.extra_keys)
        if self.store_slots is not None \
                and self.store_slots < max(1, preloaded):
            raise ValueError(
                f"store_slots ({self.store_slots}) must be at least 1 and "
                f"hold the {preloaded} preloaded keys (store_size "
                f"{self.store_size} + {len(self.extra_keys)} extra_keys)")
        if self.sync_items_per_sec <= 0:
            raise ValueError(f"sync_items_per_sec must be positive, "
                             f"got {self.sync_items_per_sec}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.retry_timeout <= 0:
            raise ValueError(
                f"retry_timeout must be positive, got {self.retry_timeout}")
        for event in self.faults:
            if len(event) < 2:
                raise ValueError(f"fault events are (at, action, *args) tuples, "
                                 f"got {event!r}")
            at, action = event[0], event[1]
            if not isinstance(action, str):
                raise ValueError(f"fault action must be a string, got {action!r}")
            if at < 0:
                raise ValueError(f"fault time must be >= 0, got {at}")
        if self.telemetry is not None and self.telemetry is not False:
            from repro.netsim.telemetry import TelemetryConfig
            TelemetryConfig.coerce(self.telemetry).validate()
        detector = self.options.get("detector_config")
        if isinstance(detector, dict):
            from repro.core.detector import DetectorConfig
            check_unknown_fields(DetectorConfig, detector, "detector_config")
        reconfig = self.options.get("reconfig") or {}
        unknown = sorted(set(reconfig) - set(RECONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown reconfig key(s): {', '.join(unknown)} "
                             f"(known: {', '.join(RECONFIG_KEYS)})")
        return self

    # ------------------------------------------------------------------ #
    # Serialization (matrix cells are JSON task descriptors).
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict from which :meth:`from_dict` rebuilds the spec.

        Dataclass configs riding ``options`` (``detector_config``,
        ``hotkey_tier``) are flattened to field dicts -- the consuming
        backends coerce them back.  Values that cannot cross a process
        boundary as JSON (live objects, open handles) raise
        :class:`ValueError` naming the offending field.
        """
        self.validate()
        data: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            name = f.name
            value = getattr(self, name)
            if name == "telemetry" and value is not None \
                    and not isinstance(value, (bool, dict)):
                from repro.netsim.telemetry import TelemetryConfig
                value = TelemetryConfig.coerce(value)
            data[name] = json_safe(value, f"DeploymentSpec.{name}")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeploymentSpec":
        """Rebuild a validated spec from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` naming them; fault events
        round-trip from JSON lists back to ``(at, action, *args)`` tuples.
        """
        if not isinstance(data, dict):
            raise ValueError(f"DeploymentSpec.from_dict needs a dict, "
                             f"got {type(data).__name__}")
        check_unknown_fields(cls, data, "DeploymentSpec")
        kwargs = dict(data)
        if "faults" in kwargs:
            faults = kwargs["faults"]
            if not isinstance(faults, (list, tuple)):
                raise ValueError(f"DeploymentSpec.faults must be a list of "
                                 f"(at, action, *args) events, got {faults!r}")
            kwargs["faults"] = [tuple(event) for event in faults]
        if "extra_keys" in kwargs:
            kwargs["extra_keys"] = list(kwargs["extra_keys"])
        return cls(**kwargs).validate()

    # ------------------------------------------------------------------ #
    # Convenience.
    # ------------------------------------------------------------------ #

    def with_backend(self, backend: str, **overrides) -> "DeploymentSpec":
        """A copy of this spec targeting another backend.

        This is how one scenario sweeps the backend matrix: the workload
        knobs stay identical and only the backend (plus any
        backend-specific overrides) changes.
        """
        return replace(self, backend=backend, **overrides)

    def key_names(self) -> List[str]:
        """The preloaded key names (prefix + index, plus ``extra_keys``)."""
        from repro.workloads.generators import standard_key_names
        return standard_key_names(self.store_size, self.key_prefix) \
            + list(self.extra_keys)
