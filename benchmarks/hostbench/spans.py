"""Host-time spans recorded from outside the simulator.

:func:`install` replaces, at class level, the public entry points of every
simulator layer with wrappers that open a span in a :class:`Ledger`, and
routes every scheduled callback, socket handler and future continuation
through a span named after the module that owns the callback.  A span
stack gives each span its parent, its inclusive time and its self time
(duration minus the time its children cover), so the self times of all
layers add up to the root span -- the timed window.  Nothing under ``src/``
knows it is being measured; :func:`install` returns the undo function.

A layer is a module name without the ``repro.`` prefix (``netsim.link``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.chain_server import ServerChainClient, ServerChainReplica
from repro.core.agent import NetChainAgent
from repro.core.client import KVFuture
from repro.core.controller import NetChainController
from repro.core.detector import FailureDetector
from repro.core.history import History
from repro.core.history_store import HistoryWriter, SpillingHistory
from repro.core.switch_program import NetChainSwitchProgram
from repro.core.trace import TelemetryPlane, Tracer
from repro.deploy import matrix as matrix_module
from repro.deploy import scenario as scenario_module
from repro.netsim.engine import Simulator
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.switch import Switch
from repro.netsim.tcp import TcpEndpoint
from repro.netsim.telemetry import ControlEventLog, MetricsRegistry, PeriodicSampler
from repro.workloads.clients import LoadClient
from repro.workloads.generators import KeyValueWorkload

_now = time.perf_counter_ns

#: Raw spans are kept until this many workload operations have been issued.
RAW_OPERATIONS = 200


class Ledger:
    """Per-layer call counts and self time, plus the first raw spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Open spans: ``[layer, name, start_ns, child_ns, raw_index, op]``.
        self.stack: List[list] = []
        #: ``{id, parent, layer, name, start_ns, end_ns, op}`` of the first
        #: :data:`RAW_OPERATIONS` operations; ``op`` is the query id a span
        #: (or its nearest ancestor) carried in a packet argument.
        self.raw: List[Optional[dict]] = []
        self.recording = True
        self.operations = 0

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` running inside a span of ``layer``."""
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns
        calls.setdefault(layer, 0)
        self_ns.setdefault(layer, 0)

        def spanned(*args, **kwargs):
            frame = [layer, name, 0, 0, -1, None]
            if self.recording:
                self._open_raw(frame, args)
            stack.append(frame)
            frame[2] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _now() - frame[2]
                stack.pop()
                calls[layer] += 1
                self_ns[layer] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if frame[4] >= 0:
                    self._close_raw(frame, duration)

        return spanned

    def _open_raw(self, frame: list, args: tuple) -> None:
        frame[4] = len(self.raw)
        self.raw.append(None)
        for arg in args:
            # A scheduled callback's own arguments arrive as one tuple.
            for item in arg if type(arg) is tuple else (arg,):
                query_id = getattr(getattr(item, "payload", None), "query_id", None)
                if query_id is not None:
                    frame[5] = query_id
                    return
        if self.stack:
            frame[5] = self.stack[-1][5]

    def _close_raw(self, frame: list, duration: int) -> None:
        parent = self.stack[-1][4] if self.stack else -1
        self.raw[frame[4]] = {"id": frame[4], "parent": parent, "layer": frame[0],
                              "name": frame[1], "start_ns": frame[2],
                              "end_ns": frame[2] + duration, "op": frame[5]}

    def count_operation(self) -> None:
        self.operations += 1
        if self.operations >= RAW_OPERATIONS:
            self.recording = False

    def report(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {calls, self_s, self_share}`` over everything recorded."""
        total = sum(self.self_ns.values())
        return {layer: {"calls": self.calls[layer],
                        "self_s": self.self_ns[layer] / 1e9,
                        "self_share": self.self_ns[layer] / total if total else 0.0}
                for layer in sorted(self.calls)}


def layer_name(module: Optional[str]) -> str:
    """``repro.netsim.link`` -> ``netsim.link``."""
    module = module or "unknown"
    return module[len("repro."):] if module.startswith("repro.") else module


def layer_of(callback: Callable) -> str:
    """The layer owning ``callback``: its instance's class module, else its own."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return layer_name(type(owner).__module__)
    return layer_name(getattr(callback, "__module__", None))


#: ``(class, methods)``: each layer's public entry points.  The one
#: underscored name is a handler its layer registers on a plain attribute
#: (``on_message``), which no scheduler or socket wrapper sees.
ENTRY_POINTS: List[Tuple[Any, List[str]]] = [
    (Simulator, ["run"]),
    (Link, ["transmit"]),
    (Host, ["send", "receive"]),
    (Switch, ["receive", "forward"]),
    (TcpEndpoint, ["send"]),
    (FaultInjector, ["fail_switch", "recover_switch"]),
    (FaultSchedule, ["arm", "cancel"]),
    (MetricsRegistry, ["inc", "gauge", "histogram", "add_sample"]),
    (PeriodicSampler, ["start", "stop"]),
    (ControlEventLog, ["emit"]),
    (NetChainSwitchProgram, ["process"]),
    (NetChainAgent, ["read", "write"]),
    (NetChainController, ["route_for_key", "handle_switch_failure",
                          "fast_failover", "failure_recovery"]),
    (FailureDetector, ["start", "stop", "probe"]),
    (History, ["invoke", "complete"]),
    (SpillingHistory, ["invoke", "complete", "finish"]),
    (HistoryWriter, ["append", "close"]),
    (Tracer, ["query_submit", "query_tx", "query_reply", "query_timeout",
              "host_tx", "host_rx", "link_tx", "switch_enq", "switch_stage",
              "op_complete"]),
    (TelemetryPlane, ["start", "finish"]),
    (LoadClient, ["start", "stop"]),
    (KeyValueWorkload, ["next_operation"]),
    (ServerChainReplica, ["handle_message"]),
    (ServerChainClient, ["read_async", "write_async", "_on_reply"]),
]


def install(ledger: Ledger) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that undoes it."""
    undo: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, name: str, value: Any) -> None:
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    for cls, methods in ENTRY_POINTS:
        layer = layer_name(cls.__module__)
        for name in methods:
            replace(cls, name, ledger.wrap(layer, f"{cls.__name__}.{name}",
                                           cls.__dict__[name]))

    # Module-level functions are wrapped where their callers look them up.
    for module, names in ((scenario_module, ["check_linearizable",
                                             "check_linearizable_streaming"]),
                          (matrix_module, ["run_scenario", "run_cell",
                                           "merge_summaries"])):
        for name in names:
            fn = module.__dict__[name]
            replace(module, name, ledger.wrap(layer_of(fn), name, fn))

    # Callbacks run in a span named after their owner's layer; one wrapper
    # per (code, owner class), so an inherited method counts for the subclass.
    wrappers: Dict[Tuple[Any, type], Callable] = {}

    def run_callback(callback: Callable, args: tuple) -> None:
        func = getattr(callback, "__func__", callback)
        key = (getattr(func, "__code__", func), type(getattr(callback, "__self__", None)))
        spanned = wrappers.get(key)
        if spanned is None:
            spanned = wrappers[key] = ledger.wrap(
                layer_of(callback), getattr(func, "__qualname__", "callback"),
                lambda cb, cb_args: cb(*cb_args))
        spanned(callback, args)

    def owned(callback: Callable) -> Callable:
        return lambda *args: run_callback(callback, args)

    schedule, call_after = Simulator.__dict__["schedule"], Simulator.__dict__["call_after"]
    every, bind, then = Simulator.__dict__["every"], Host.__dict__["bind"], \
        KVFuture.__dict__["then"]
    replace(Simulator, "schedule", ledger.wrap(
        "netsim.engine", "Simulator.schedule",
        lambda sim, delay, callback, *args: schedule(
            sim, delay, run_callback, callback, args)))
    replace(Simulator, "call_after", ledger.wrap(
        "netsim.engine", "Simulator.call_after",
        lambda sim, delay, callback, *args: call_after(
            sim, delay, run_callback, callback, args)))
    replace(Simulator, "every",
            lambda sim, interval, callback, *args, **kwargs: every(
                sim, interval, owned(callback), *args, **kwargs))
    replace(Host, "bind",
            lambda host, port, handler: bind(host, port, owned(handler)))
    replace(KVFuture, "then",
            lambda future, callback: then(future, owned(callback)))

    next_operation = KeyValueWorkload.__dict__["next_operation"]

    def counted_next_operation(workload):
        ledger.count_operation()
        return next_operation(workload)

    replace(KeyValueWorkload, "next_operation", counted_next_operation)

    def uninstall() -> None:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return uninstall
