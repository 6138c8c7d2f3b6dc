"""The detlint rule set: the determinism invariants replay cannot see, as AST checks.

Each rule is a small class with metadata (used by ``explain`` and the README
rule table) and a ``check(ctx)`` generator yielding ``(line, col, message)``
tuples.  Rules are scoped by path segment -- wall-clock reads are a bug in
sim-time code but the whole point of a benchmark harness -- so the same
invocation can sweep ``src/``, ``benchmarks/`` and ``tests/`` at once.

What replay does see is not linted: set iteration feeding event order,
slots drift and unguarded telemetry move a pinned byte or count of the
``@pytest.mark.anchor`` tests, which ``tests/test_hashseed_replay.py`` reruns
under two ``PYTHONHASHSEED``s; a per-hop closure trips the packet-path call
budget.  The rules kept guard code no anchor runs (wall clock, global RNG,
unsorted JSON) and process identity no seed moves (``hash()`` / ``id()``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.analysis.engine import FileContext

Finding3 = Tuple[int, int, str]

#: Path segments that mark simulator-owned, sim-time code.
SIM_SEGMENTS = ("repro", "netsim", "core")
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

    def applies(self, ctx: FileContext) -> bool:
        if self.scope_segments is None:
            return True
        return any(segment in ctx.parts for segment in self.scope_segments)

    def check(self, ctx: FileContext) -> Iterator[Finding3]:
        return iter(())

    def scope_doc(self) -> str:
        if self.scope_segments is None:
            return "all scanned files"
        return "files under " + " | ".join(f"{s}/" for s in self.scope_segments)


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


class GlobalRngRule(Rule):
    id = "DET002"
    title = "global or unseeded RNG use"
    summary = "random.<fn>() on the module instance, unseeded or machine-seeded Random()."
    rationale = (
        "The module-level random instance is shared mutable global state: any "
        "other caller (a library, a test running earlier) advances it, so "
        "results stop being a function of the seed you control.  Every "
        "stochastic component must take an explicitly seeded random.Random "
        "threaded in as a parameter; an argless Random() is banned for the "
        "same reason."
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
    UnsortedJsonRule(),
    HashIdentityRule(),
)


def rule_ids() -> List[str]:
    return [rule.id for rule in RULES]


def rule_by_id(rule_id: str) -> Optional[Rule]:
    for rule in RULES:
        if rule.id == rule_id:
            return rule
    return None
