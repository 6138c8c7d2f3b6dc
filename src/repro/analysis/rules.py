"""The detlint rule set: eight determinism & hot-path invariants as AST checks.

Each rule is a small class with metadata (used by ``explain`` and the README
rule table) and a ``check(ctx)`` generator yielding ``(line, col, message)``
tuples.  Rules are scoped by path segment -- wall-clock reads are a bug in
sim-time code but the whole point of a benchmark harness -- so the same
invocation can sweep ``src/``, ``benchmarks/`` and ``tests/`` at once.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import FileContext

Finding3 = Tuple[int, int, str]

#: Path segments that mark simulator-owned, sim-time code.
SIM_SEGMENTS = ("repro", "netsim", "core")
#: Path segments for the data-plane hot path (PR-5 discipline applies).
HOT_SEGMENTS = ("netsim", "core")
#: Path segments whose JSON output is a committed or diffed artifact.
ARTIFACT_SEGMENTS = ("repro", "benchmarks")


class Rule:
    """Base class: metadata + path scoping shared by every rule."""

    id = "DET000"
    title = "detlint meta"
    summary = ""
    rationale = ""
    bad_example = ""
    good_example = ""
    #: ``None`` scopes the rule to every scanned file; otherwise the file's
    #: path must contain at least one of these segments.
    scope_segments: Optional[Tuple[str, ...]] = None
    exclude_filenames: Tuple[str, ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        if ctx.filename in self.exclude_filenames:
            return False
        if self.scope_segments is None:
            return True
        return any(segment in ctx.parts for segment in self.scope_segments)

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        return iter(())

    def scope_doc(self) -> str:
        if self.scope_segments is None:
            return "all scanned files"
        doc = "files under " + " | ".join(f"{s}/" for s in self.scope_segments)
        if self.exclude_filenames:
            doc += " except " + ", ".join(self.exclude_filenames)
        return doc


class MetaRule(Rule):
    """DET000 is emitted by the engine itself; registered here for docs."""

    id = "DET000"
    title = "detlint meta findings"
    summary = "Parse failures, malformed / unjustified / unused pragmas."
    rationale = (
        "Suppressions are part of the determinism contract: every pragma must "
        "carry a justification ('-- <why>') so the next reader knows what "
        "invariant is being waived, and stale pragmas that no longer silence "
        "anything are flagged so the waiver list never rots."
    )
    bad_example = "x = time.time()  # detlint: disable=DET001"
    good_example = "x = time.time()  # detlint: disable=DET001 -- wall clock is the payload"


# ---------------------------------------------------------------------------
# DET001: wall clock & ambient entropy
# ---------------------------------------------------------------------------

WALL_CLOCK_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "host monotonic clock",
    "time.monotonic_ns": "host monotonic clock",
    "time.perf_counter": "host performance counter",
    "time.perf_counter_ns": "host performance counter",
    "time.process_time": "host CPU clock",
    "time.process_time_ns": "host CPU clock",
    "time.clock_gettime": "host clock",
    "time.clock_gettime_ns": "host clock",
    "time.localtime": "wall clock",
    "time.gmtime": "wall clock",
    "time.ctime": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
}

AMBIENT_ENTROPY_CALLS = {
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host-derived UUID",
    "uuid.uuid4": "random UUID",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.token_urlsafe": "OS entropy",
    "secrets.randbelow": "OS entropy",
    "secrets.randbits": "OS entropy",
    "secrets.choice": "OS entropy",
}


class WallClockRule(Rule):
    id = "DET001"
    title = "wall clock / ambient entropy in sim-time code"
    summary = "time.time()-family, datetime.now(), uuid4(), os.urandom() in simulator code."
    rationale = (
        "Simulator code runs on virtual time (Simulator.now); reading the host "
        "clock or OS entropy makes event timing or emitted artifacts differ "
        "across runs and machines, silently breaking byte-identical seeded "
        "replay.  Benchmark harnesses measure wall clock on purpose and are "
        "outside this rule's scope."
    )
    bad_example = "started = time.time()"
    good_example = "started = sim.now"
    scope_segments = SIM_SEGMENTS

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            kind = WALL_CLOCK_CALLS.get(resolved) or AMBIENT_ENTROPY_CALLS.get(resolved)
            if kind is None:
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"{resolved}() reads {kind}; sim-time code must derive time from "
                "Simulator.now and randomness from a seeded rng",
            )


# ---------------------------------------------------------------------------
# DET002: global / unseeded RNG
# ---------------------------------------------------------------------------

GLOBAL_RNG_FUNCTIONS = {
    "betavariate",
    "binomialvariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "getstate",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "setstate",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

NUMPY_SEEDED_CONSTRUCTORS = {
    "Generator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "RandomState",
    "SFC64",
    "SeedSequence",
    "default_rng",
}


class GlobalRngRule(Rule):
    id = "DET002"
    title = "global or unseeded RNG use"
    summary = "random.<fn>() on the module instance, np.random.*, unseeded Random()."
    rationale = (
        "The module-level random instance is shared mutable global state: any "
        "other caller (a library, a test running earlier) advances it, so "
        "results stop being a function of the seed you control.  Every "
        "stochastic component must take an explicitly seeded random.Random "
        "threaded in as a parameter; numpy's global np.random.* plane and "
        "argless Random() / default_rng() are banned for the same reason."
    )
    bad_example = "delay = random.uniform(0.1, 0.2)"
    good_example = "delay = self.rng.uniform(0.1, 0.2)  # rng = random.Random(seed)"
    scope_segments = None  # determinism discipline applies tree-wide

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            yield from self._check_call(ctx, node, resolved)

    def _check_call(self, ctx: FileContext, node: ast.Call, resolved: str) -> Iterator[Finding3]:
        loc = (node.lineno, node.col_offset)
        if resolved == "random.SystemRandom":
            yield (
                *loc,
                "random.SystemRandom draws OS entropy and can never replay; "
                "use random.Random(seed)",
            )
            return
        if resolved == "random.Random":
            if not node.args and not node.keywords:
                yield (
                    *loc,
                    "unseeded random.Random(): pass an explicit seed derived "
                    "from the scenario seed",
                )
                return
            for seed_arg in list(node.args) + [kw.value for kw in node.keywords]:
                culprit = self._nondeterministic_seed(ctx, seed_arg)
                if culprit is not None:
                    yield (
                        *loc,
                        f"random.Random() seeded from {culprit}; the seed differs "
                        "across processes (PYTHONHASHSEED / ASLR), so replays on "
                        "another machine draw a different stream",
                    )
                    break
            return
        if resolved.startswith("random."):
            tail = resolved.split(".", 1)[1]
            if tail in GLOBAL_RNG_FUNCTIONS:
                yield (
                    *loc,
                    f"random.{tail}() uses the process-global RNG instance; "
                    "thread a seeded random.Random(seed) instead",
                )
            return
        if resolved.startswith("numpy.random."):
            tail = resolved.split(".")[-1]
            if tail in NUMPY_SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield (*loc, f"unseeded numpy.random.{tail}(): pass an explicit seed")
                return
            yield (
                *loc,
                f"numpy.random.{tail}() uses numpy's global RNG plane; "
                "use numpy.random.default_rng(seed)",
            )

    def _nondeterministic_seed(self, ctx: FileContext, arg: ast.AST) -> Optional[str]:
        """Name of a process-specific call feeding the seed expression, if any."""
        for node in ast.walk(arg):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
                if ctx.is_builtin_name(node.func.id):
                    return f"{node.func.id}()"
            resolved = ctx.resolve(node.func)
            if resolved in WALL_CLOCK_CALLS or resolved in AMBIENT_ENTROPY_CALLS:
                return f"{resolved}()"
        return None


# ---------------------------------------------------------------------------
# DET003: unordered iteration
# ---------------------------------------------------------------------------

DIRECTORY_SCAN_CALLS = ("os.listdir", "os.scandir", "glob.glob", "glob.iglob")
DIRECTORY_SCAN_METHODS = ("glob", "iterdir", "rglob")
SET_RETURNING_METHODS = ("union", "intersection", "difference", "symmetric_difference")
SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
ORDER_SENSITIVE_WRAPPERS = ("list", "tuple", "enumerate")


class UnorderedIterationRule(Rule):
    id = "DET003"
    title = "iteration over unordered containers"
    summary = "for-loops / comprehensions over sets; listdir/glob/iterdir without sorted()."
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED and insertion history; "
        "directory listings depend on the filesystem.  When such an order "
        "feeds event scheduling, hashing or NDJSON emission, two runs of the "
        "same seed diverge.  Wrap the iterable in sorted(...) or iterate an "
        "insertion-ordered structure (dict, list) instead; membership tests "
        "and deterministic aggregates (len, min, max, sum) are fine."
    )
    bad_example = "for key in {a, b, c}: emit(key)"
    good_example = "for key in sorted({a, b, c}): emit(key)"
    scope_segments = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        tainted = self._tainted_set_names(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                yield from self._check_iterable(ctx, node.iter, tainted, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iterable(ctx, generator.iter, tainted, "comprehension")
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, tainted)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, tainted: Dict[ast.AST, Set[str]]
    ) -> Iterator[Finding3]:
        resolved = ctx.resolve(node.func)
        scan_name = None
        if resolved in DIRECTORY_SCAN_CALLS:
            scan_name = resolved
        elif isinstance(node.func, ast.Attribute) and node.func.attr in DIRECTORY_SCAN_METHODS:
            scan_name = f".{node.func.attr}"
        if scan_name is not None and not self._wrapped_in_sorted(ctx, node):
            yield (
                node.lineno,
                node.col_offset,
                f"{scan_name}() order is filesystem-dependent; wrap in sorted(...)",
            )
            return
        if isinstance(node.func, ast.Name) and node.func.id in ORDER_SENSITIVE_WRAPPERS:
            for arg in node.args[:1]:
                if self._is_set_expr(ctx, arg, tainted):
                    yield (
                        arg.lineno,
                        arg.col_offset,
                        f"{node.func.id}() materializes set iteration order; "
                        "use sorted(...) to pin it",
                    )
        if isinstance(node.func, ast.Attribute) and node.func.attr == "join" and node.args:
            if self._is_set_expr(ctx, node.args[0], tainted):
                yield (
                    node.args[0].lineno,
                    node.args[0].col_offset,
                    "str.join over a set concatenates in hash order; sort first",
                )

    def _check_iterable(
        self, ctx: FileContext, iterable: ast.AST, tainted: Dict[ast.AST, Set[str]], where: str
    ) -> Iterator[Finding3]:
        if self._is_set_expr(ctx, iterable, tainted):
            yield (
                iterable.lineno,
                iterable.col_offset,
                f"{where} iterates a set in hash order; wrap in sorted(...) "
                "or use an insertion-ordered container",
            )

    def _wrapped_in_sorted(self, ctx: FileContext, node: ast.AST) -> bool:
        parent = ctx.parent(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ("sorted", "len", "set", "frozenset", "min", "max", "sum")
        )

    def _scope_of(self, ctx: FileContext, node: ast.AST) -> ast.AST:
        found = ctx.enclosing_def(node)
        return ctx.tree if found is None else found

    def _tainted_set_names(self, ctx: FileContext) -> Dict[ast.AST, Set[str]]:
        """Per-scope names last assigned a set-valued expression."""
        tainted: Dict[ast.AST, Set[str]] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            scope = self._scope_of(ctx, node)
            names = tainted.setdefault(scope, set())
            if self._is_set_expr(ctx, node.value, tainted, literal_only=True):
                names.add(target.id)
            else:
                names.discard(target.id)
        return tainted

    def _is_set_expr(
        self,
        ctx: FileContext,
        node: ast.AST,
        tainted: Dict[ast.AST, Set[str]],
        literal_only: bool = False,
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return not self._wrapped_in_sorted(ctx, node)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return not self._wrapped_in_sorted(ctx, node)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SET_RETURNING_METHODS
                and self._is_set_expr(ctx, node.func.value, tainted, literal_only)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, SET_BINOPS):
            return self._is_set_expr(ctx, node.left, tainted, literal_only) or self._is_set_expr(
                ctx, node.right, tainted, literal_only
            )
        if not literal_only and isinstance(node, ast.Name):
            scope = self._scope_of(ctx, node)
            if node.id in tainted.get(scope, ()):
                return True
            return scope is not ctx.tree and node.id in tainted.get(ctx.tree, ())
        return False


# ---------------------------------------------------------------------------
# DET004: unsorted JSON artifacts
# ---------------------------------------------------------------------------


class UnsortedJsonRule(Rule):
    id = "DET004"
    title = "json.dumps without sort_keys=True"
    summary = "Artifact writers must emit canonically ordered JSON keys."
    rationale = (
        "Every committed artifact schema (history/v1, trace/v2, perf reports, "
        "benchmark results) promises byte-identical output per seed, which "
        "CI checks with diff/sha256.  Insertion-ordered keys silently break "
        "that the first time a dict is built in a different order; "
        "sort_keys=True makes key order canonical."
    )
    bad_example = 'path.write_text(json.dumps(report, indent=2))'
    good_example = 'path.write_text(json.dumps(report, indent=2, sort_keys=True))'
    scope_segments = ARTIFACT_SEGMENTS

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in ("json.dumps", "json.dump"):
                continue
            sorted_kw = None
            for keyword in node.keywords:
                if keyword.arg == "sort_keys":
                    sorted_kw = keyword
            if sorted_kw is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{resolved}() without sort_keys=True: key order follows dict "
                    "insertion and is not canonical across code paths",
                )
            elif isinstance(sorted_kw.value, ast.Constant) and sorted_kw.value.value is False:
                yield (
                    sorted_kw.value.lineno,
                    sorted_kw.value.col_offset,
                    f"{resolved}(sort_keys=False) explicitly opts out of canonical "
                    "key order in an artifact writer",
                )


# ---------------------------------------------------------------------------
# DET005: __slots__ drift
# ---------------------------------------------------------------------------


class _SlottedClass:
    def __init__(self, node: ast.ClassDef, slots: Set[str], class_attrs: Set[str]) -> None:
        self.node = node
        self.slots = slots
        self.class_attrs = class_attrs
        self.bases = [b.id if isinstance(b, ast.Name) else None for b in node.bases]


class SlotsDriftRule(Rule):
    id = "DET005"
    title = "__slots__ drift"
    summary = "Slotted classes assigned attributes their __slots__ never declared."
    rationale = (
        "Hot-path classes (Packet, headers, futures, heap entries) are slotted "
        "so per-event allocation stays flat.  Assigning an undeclared "
        "attribute raises AttributeError at runtime -- but only on the code "
        "path that assigns it, which for error paths can be long after the "
        "change shipped.  This rule catches the drift statically, including "
        "assignments from module code onto instances of slotted classes."
    )
    bad_example = "class P:\n    __slots__ = ('a',)\n    def f(self): self.b = 1"
    good_example = "class P:\n    __slots__ = ('a', 'b')\n    def f(self): self.b = 1"
    scope_segments = None

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        classes = self._module_classes(ctx)
        for info in classes.values():
            effective = self._effective_slots(info, classes, set())
            if effective is None:
                yield from self._check_unslotted_subclass(info, classes)
                continue
            allowed = effective | info.class_attrs
            yield from self._check_methods(info, allowed)
        yield from self._check_instance_assigns(ctx, classes)

    def _check_unslotted_subclass(
        self, info: _SlottedClass, classes: Dict[str, _SlottedClass]
    ) -> Iterator[Finding3]:
        """A slots-free subclass of a slotted base silently regains __dict__."""
        if info.slots is not None:
            return
        for base in info.bases:
            base_info = classes.get(base) if base is not None else None
            if base_info is not None and base_info.slots is not None:
                yield (
                    info.node.lineno,
                    info.node.col_offset,
                    f"{info.node.name} subclasses slotted {base} without declaring "
                    "__slots__; every instance silently regains a per-object "
                    "__dict__, defeating the hot-path memory discipline",
                )
                return

    def _module_classes(self, ctx: FileContext) -> Dict[str, _SlottedClass]:
        classes: Dict[str, _SlottedClass] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            slots = self._declared_slots(node)
            attrs: Set[str] = {"__slots__"}
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            attrs.add(target.id)
                elif isinstance(statement, ast.AnnAssign):
                    if isinstance(statement.target, ast.Name):
                        attrs.add(statement.target.id)
                elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    attrs.add(statement.name)
            if slots is not None:
                classes[node.name] = _SlottedClass(node, slots, attrs)
            else:
                classes[node.name] = _SlottedClass(node, None, attrs)  # type: ignore[arg-type]
        return classes

    def _declared_slots(self, node: ast.ClassDef) -> Optional[Set[str]]:
        dataclass_slots = self._dataclass_slots(node)
        if dataclass_slots is not None:
            return dataclass_slots
        for statement in node.body:
            targets: List[ast.AST] = []
            value = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = [statement.target], statement.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                        names: Set[str] = set()
                        for element in value.elts:
                            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                                names.add(element.value)
                            else:
                                return None  # dynamic __slots__: out of scope
                        return names
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        return {value.value}
                    return None
        return None

    def _dataclass_slots(self, node: ast.ClassDef) -> Optional[Set[str]]:
        """Field names of a ``@dataclass(slots=True)`` class, else ``None``."""
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            label = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if label != "dataclass":
                continue
            slotted = any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            )
            if not slotted:
                continue
            names: Set[str] = set()
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    if not self._is_classvar(statement.annotation):
                        names.add(statement.target.id)
            return names
        return None

    @staticmethod
    def _is_classvar(annotation: ast.AST) -> bool:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name) and sub.id == "ClassVar":
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "ClassVar":
                return True
        return False

    def _effective_slots(
        self,
        info: _SlottedClass,
        classes: Dict[str, _SlottedClass],
        visiting: Set[str],
    ) -> Optional[Set[str]]:
        """Union of slots up the (module-local) MRO; None = has __dict__ / unknown."""
        if info.slots is None:
            return None
        if info.node.name in visiting:
            return None
        effective = set(info.slots)
        for base in info.bases:
            if base == "object":
                continue
            base_info = classes.get(base) if base is not None else None
            if base_info is None:
                return None  # base defined elsewhere: cannot prove no __dict__
            base_slots = self._effective_slots(
                base_info, classes, visiting | {info.node.name}
            )
            if base_slots is None:
                return None
            effective |= base_slots
            effective |= base_info.class_attrs
        return effective

    def _check_methods(self, info: _SlottedClass, allowed: Set[str]) -> Iterator[Finding3]:
        for statement in info.node.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if self._is_class_or_static(statement):
                continue
            if not statement.args.args:
                continue
            self_name = statement.args.args[0].arg
            for node in ast.walk(statement):
                attr = self._stored_attr(node, self_name)
                if attr is not None and attr not in allowed:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{info.node.name}.{attr} assigned but missing from __slots__ "
                        f"(declared: {', '.join(sorted(allowed & info.slots)) or 'none'})",
                    )

    @staticmethod
    def _is_class_or_static(statement: ast.AST) -> bool:
        for decorator in statement.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id in ("classmethod", "staticmethod"):
                return True
        return False

    @staticmethod
    def _stored_attr(node: ast.AST, receiver: str) -> Optional[str]:
        if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, (ast.Store, ast.Del)):
            return None
        if isinstance(node.value, ast.Name) and node.value.id == receiver:
            return node.attr
        return None

    def _check_instance_assigns(
        self, ctx: FileContext, classes: Dict[str, _SlottedClass]
    ) -> Iterator[Finding3]:
        """Catch ``pkt = Packet(...); pkt.oops = 1`` in module / other functions."""
        slotted_allowed: Dict[str, Set[str]] = {}
        for name, info in classes.items():
            effective = self._effective_slots(info, classes, set())
            if effective is not None:
                slotted_allowed[name] = effective | info.class_attrs
        if not slotted_allowed:
            return
        instance_of: Dict[Tuple[ast.AST, str], str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                scope = self._scope_node(ctx, node)
                value = node.value
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in slotted_allowed
                ):
                    instance_of[(scope, target.id)] = value.func.id
                else:
                    instance_of.pop((scope, target.id), None)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Store):
                continue
            if not isinstance(node.value, ast.Name):
                continue
            scope = self._scope_node(ctx, node)
            class_name = instance_of.get((scope, node.value.id))
            if class_name is None:
                continue
            function = self._scope_node(ctx, node)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if function.args.args and function.args.args[0].arg == node.value.id:
                    continue
            if node.attr not in slotted_allowed[class_name]:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{node.value.id}.{node.attr} assigned but {class_name}.__slots__ "
                    "does not declare it",
                )

    @staticmethod
    def _scope_node(ctx: FileContext, node: ast.AST) -> ast.AST:
        found = ctx.enclosing_def(node)
        return ctx.tree if found is None else found


# ---------------------------------------------------------------------------
# DET006: per-event closures into the scheduler
# ---------------------------------------------------------------------------

SCHEDULER_METHODS = ("call_after", "call_at", "schedule", "schedule_at")
HOT_NAME_HINTS = (
    "packet",
    "receive",
    "recv",
    "deliver",
    "transmit",
    "forward",
    "process",
    "send",
)


class HotPathClosureRule(Rule):
    id = "DET006"
    title = "per-event closure allocation in packet paths"
    summary = "lambda / nested def / functools.partial passed to call_after-family APIs."
    rationale = (
        "The PR-5 hot-path overhaul removed per-hop closure allocation: the "
        "scheduler takes a callback plus positional args, so packet-processing "
        "methods schedule bound methods directly.  A lambda (or partial) per "
        "event reintroduces an allocation + capture cost on every hop.  "
        "Control-plane code (recovery, migration, fault schedules) fires "
        "rarely and is out of scope: only methods whose names mark them as "
        "packet-processing are checked."
    )
    bad_example = "self.sim.call_after(delay, lambda: self.transmit(pkt, port))"
    good_example = "self.sim.call_after(delay, self.transmit, pkt, port)"
    scope_segments = HOT_SEGMENTS

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in SCHEDULER_METHODS:
                continue
            function = ctx.enclosing_def(node)
            if function is None or not self._is_hot_name(function.name):
                continue
            nested = self._nested_defs(function)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                reason = self._closure_reason(ctx, arg, nested)
                if reason is not None:
                    yield (
                        arg.lineno,
                        arg.col_offset,
                        f"{reason} passed to .{node.func.attr}() inside packet-path "
                        f"method {function.name}(); pass the callback and its args "
                        "positionally instead",
                    )

    @staticmethod
    def _is_hot_name(name: str) -> bool:
        lowered = name.lower()
        return any(hint in lowered for hint in HOT_NAME_HINTS)

    @staticmethod
    def _nested_defs(function: ast.AST) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(function):
            if node is function:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(node.name)
        return nested

    def _closure_reason(
        self, ctx: FileContext, arg: ast.AST, nested: Set[str]
    ) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "per-event lambda"
        if isinstance(arg, ast.Name) and arg.id in nested:
            return f"per-event nested function {arg.id}()"
        if isinstance(arg, ast.Call):
            resolved = ctx.resolve(arg.func)
            if resolved == "functools.partial":
                return "per-event functools.partial"
        return None


# ---------------------------------------------------------------------------
# DET007: unguarded telemetry calls
# ---------------------------------------------------------------------------


class TelemetryGuardRule(Rule):
    id = "DET007"
    title = "telemetry call outside the 'if tel is not None' guard"
    summary = "Instrumented hot sites must bind + guard telemetry before calling it."
    rationale = (
        "The telemetry plane is optional: every instrumented hot site binds "
        "it once (tel = self.telemetry) and guards the call with 'if tel is "
        "not None'.  An unguarded call crashes the moment telemetry is "
        "disabled or detached mid-run -- exactly the configuration the perf "
        "fast path depends on -- and the crash only fires on the untraced "
        "code path, so tests with telemetry enabled never see it."
    )
    bad_example = "self.telemetry.query_tx(self, pending, dst_ip)"
    good_example = "tel = self.telemetry\nif tel is not None:\n    tel.query_tx(...)"
    scope_segments = HOT_SEGMENTS
    exclude_filenames = ("telemetry.py", "trace.py")

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, function)

    def _check_function(self, ctx: FileContext, function: ast.AST) -> Iterator[Finding3]:
        tel_names = {"tel"}
        assigned_non_none: List[Tuple[int, str]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value_is_tel = self._is_telemetry_attr(node.value)
                if isinstance(target, ast.Name) and value_is_tel:
                    tel_names.add(target.id)
                if self._is_telemetry_attr(target) or (
                    isinstance(target, ast.Name) and target.id in tel_names
                ):
                    if not (isinstance(node.value, ast.Constant) and node.value.value is None):
                        if not value_is_tel:
                            assigned_non_none.append((node.lineno, self._subject_dump(target)))
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            receiver = node.func.value
            is_tel_call = self._is_telemetry_attr(receiver) or (
                isinstance(receiver, ast.Name) and receiver.id in tel_names
            )
            if not is_tel_call:
                continue
            subject = self._subject_dump(receiver)
            if self._guarded(ctx, node, function, subject, assigned_non_none):
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"telemetry call .{node.func.attr}() is not guarded by "
                "'if tel is not None'; it crashes when telemetry is disabled",
            )

    @staticmethod
    def _is_telemetry_attr(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("telemetry", "tel")

    @staticmethod
    def _subject_dump(node: ast.AST) -> str:
        """Normalized spelling of a Name/Attribute chain (ignores Load/Store)."""
        if isinstance(node, ast.Name):
            return f"name:{node.id}"
        if isinstance(node, ast.Attribute):
            return f"{TelemetryGuardRule._subject_dump(node.value)}.{node.attr}"
        return ast.dump(node)

    def _guarded(
        self,
        ctx: FileContext,
        call: ast.Call,
        function: ast.AST,
        subject: str,
        assigned_non_none: List[Tuple[int, str]],
    ) -> bool:
        for lineno, target_dump in assigned_non_none:
            if target_dump == subject and lineno <= call.lineno:
                return True
        child: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if ancestor is function:
                break
            if isinstance(ancestor, ast.If):
                in_body = any(child is stmt or self._contains(stmt, child) for stmt in ancestor.body)
                if in_body and self._test_guards(ancestor.test, subject, positive=True):
                    return True
                if not in_body and self._test_guards(ancestor.test, subject, positive=False):
                    return True
            elif isinstance(ancestor, ast.IfExp):
                if child is ancestor.body and self._test_guards(
                    ancestor.test, subject, positive=True
                ):
                    return True
            elif isinstance(ancestor, ast.BoolOp) and isinstance(ancestor.op, ast.And):
                index = next(
                    (i for i, value in enumerate(ancestor.values) if value is child), None
                )
                if index is not None and any(
                    self._test_guards(value, subject, positive=True)
                    for value in ancestor.values[:index]
                ):
                    return True
            child = ancestor
        return self._early_return_guard(function, call, subject)

    @staticmethod
    def _contains(root: ast.AST, node: ast.AST) -> bool:
        return any(candidate is node for candidate in ast.walk(root))

    def _test_guards(self, test: ast.AST, subject: str, positive: bool) -> bool:
        if positive:
            if self._subject_dump(test) == subject:
                return True
            if isinstance(test, ast.Compare) and len(test.ops) == 1:
                if (
                    isinstance(test.ops[0], ast.IsNot)
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None
                    and self._subject_dump(test.left) == subject
                ):
                    return True
            if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
                return any(self._test_guards(value, subject, True) for value in test.values)
            return False
        # Negative: the call lives in the else-branch of ``if S is None`` /
        # ``if not S``.
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            if (
                isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and self._subject_dump(test.left) == subject
            ):
                return True
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._subject_dump(test.operand) == subject
        return False

    def _early_return_guard(self, function: ast.AST, call: ast.Call, subject: str) -> bool:
        """``if tel is None: return`` earlier in the function body."""
        for node in ast.walk(function):
            if not isinstance(node, ast.If) or node.lineno >= call.lineno:
                continue
            if not node.body or node.orelse:
                continue
            if not isinstance(node.body[-1], (ast.Return, ast.Raise, ast.Continue)):
                continue
            if self._test_guards(node.test, subject, positive=False):
                return True
        return False


# ---------------------------------------------------------------------------
# DET008: hash()/id() in ordering or artifacts
# ---------------------------------------------------------------------------

SORTING_CALLS = ("sorted", "min", "max", "sort")


class HashIdentityRule(Rule):
    id = "DET008"
    title = "hash()/id() as sort key or in emitted data"
    summary = "Builtin hash()/id() values are process-specific; never order by or emit them."
    rationale = (
        "id() is a memory address (changes with ASLR and allocation history) "
        "and str/bytes hash() is salted by PYTHONHASHSEED, so both differ "
        "across processes and machines.  Using them as sort keys or storing "
        "them in histories, traces or reports makes otherwise-identical runs "
        "diff dirty.  Derive identity from explicit names or counters "
        "(itertools.count) instead; defining __hash__ for in-process dict "
        "use remains fine."
    )
    bad_example = 'name = f"client-{id(inner):x}"'
    good_example = 'name = f"client-{next(self._client_ids):04d}"'
    scope_segments = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        for builtin in ("hash", "id"):
            if not ctx.is_builtin_name(builtin):
                continue
            for node in ast.walk(ctx.tree):
                if (
                    not isinstance(node, ast.Call)
                    or not isinstance(node.func, ast.Name)
                    or node.func.id != builtin
                ):
                    continue
                function = ctx.enclosing_def(node)
                if function is not None and function.name in ("__hash__", "__eq__", "__ne__"):
                    continue
                context = self._context_of(ctx, node)
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{builtin}() is process-specific ({context}); use an explicit "
                    "name or a deterministic counter",
                )

    def _context_of(self, ctx: FileContext, node: ast.AST) -> str:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.keyword) and ancestor.arg == "key":
                call = ctx.parent(ancestor)
                if isinstance(call, ast.Call):
                    callee = call.func
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
                    if name in SORTING_CALLS:
                        return f"used as a {name}() sort key"
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return "its value can leak into emitted artifacts"


RULES: Sequence[Rule] = (
    MetaRule(),
    WallClockRule(),
    GlobalRngRule(),
    UnorderedIterationRule(),
    UnsortedJsonRule(),
    SlotsDriftRule(),
    HotPathClosureRule(),
    TelemetryGuardRule(),
    HashIdentityRule(),
)


def rule_ids() -> List[str]:
    return [rule.id for rule in RULES]


def rule_by_id(rule_id: str) -> Optional[Rule]:
    for rule in RULES:
        if rule.id == rule_id:
            return rule
    return None
