"""Core driver for detlint: parse, run rules, apply pragmas.

The engine is deliberately boring: one :func:`ast.parse` per file, parent
links threaded through the tree, a per-file import/alias map shared by all
rules, and a pragma pass that consumes ``# detlint: disable=...`` comments.
Everything stochastic-free and wall-clock-free by construction -- reports
for identical trees are byte-identical, which lets CI diff them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Path segments never scanned (bytecode caches, the intentionally-broken
#: fixture corpus used to test the rules themselves).
EXCLUDED_SEGMENTS = ("__pycache__",)

#: The fixture corpus is full of deliberate violations; it is opted back in
#: explicitly by the analyzer's own tests via ``include_fixtures=True``.
FIXTURE_MARKER = ("fixtures", "detlint")

#: The one pragma shape, ``detlint: disable=DET00X[,DET00Y] -- why`` in a
#: comment, silences those rules on its own line only.
PRAGMA_RE = re.compile(
    r"#\s*detlint:\s*disable\s*="
    r"\s*(?P<rules>[A-Za-z0-9_, ]+?)\s*(?:--\s*(?P<why>.*\S))?\s*$"
)

#: Module heads the alias resolver is allowed to track through simple
#: ``name = module`` assignments.  Restricting the set keeps the resolver
#: from mistaking arbitrary attribute chains for module paths.
TRACKED_MODULE_HEADS = (
    "datetime",
    "json",
    "os",
    "random",
    "secrets",
    "time",
    "uuid",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """A finding silenced by a justified inline pragma."""

    finding: Finding
    justification: str


@dataclass
class Pragma:
    rules: Tuple[str, ...]
    justification: str
    line: int
    used: bool = False


@dataclass
class FileResult:
    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Suppression] = field(default_factory=list)


@dataclass
class CheckResult:
    """Aggregated outcome of a :func:`check_paths` run."""

    root: str
    paths: List[str]
    files_scanned: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Suppression] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        table: Dict[str, int] = {}
        for finding in self.findings:
            table[finding.rule] = table.get(finding.rule, 0) + 1
        return table


class FileContext:
    """Everything a rule needs to inspect one parsed module."""

    def __init__(self, relpath: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.parts = tuple(Path(relpath).parts)
        self.tree = tree
        self._link_parents(tree)
        self.aliases = self._collect_aliases(tree)

    @staticmethod
    def _link_parents(tree: ast.Module) -> None:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._detlint_parent = node  # type: ignore[attr-defined]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_detlint_parent", None)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_def(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing named function (lambdas are skipped over)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def _collect_aliases(self, tree: ast.Module) -> Dict[str, str]:
        """Map local names to dotted module paths (imports + simple assigns)."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    aliases[local] = name.name if name.asname else name.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for name in node.names:
                    if name.name == "*":
                        continue
                    aliases[name.asname or name.name] = f"{node.module}.{name.name}"
        # One extra pass for ``r = random``-style module re-binding; values
        # must resolve to a tracked module head to count.
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                resolved = self._resolve_with(aliases, node.value)
                if resolved and resolved.split(".")[0] in TRACKED_MODULE_HEADS:
                    aliases[target.id] = resolved
        return aliases

    def _resolve_with(self, aliases: Dict[str, str], node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve_with(aliases, node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain through the alias map.

        ``import random as r`` + ``r.shuffle`` -> ``random.shuffle``.
        Returns ``None`` for anything that is not a resolvable chain.
        """
        return self._resolve_with(self.aliases, node)

    def is_builtin_name(self, name: str) -> bool:
        """True when ``name`` still refers to the builtin (never rebound)."""
        if name in self.aliases:
            return False
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name == name:
                    return False
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id == name:
                    return False
        return True


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` for every comment token; strings never match."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - ast parsed already
        pass
    return comments


def parse_pragmas(source: str) -> Tuple[List[Pragma], List[Tuple[int, str]]]:
    """Extract pragmas; also return ``(line, message)`` for malformed ones."""
    pragmas: List[Pragma] = []
    bad: List[Tuple[int, str]] = []
    for lineno, text in _comment_tokens(source):
        if "detlint" not in text:
            continue
        match = PRAGMA_RE.search(text)
        if match is None:
            if re.search(r"#\s*detlint\s*:", text):
                bad.append((lineno, "malformed detlint pragma (expected 'disable=DET00X -- why')"))
            continue
        rules = tuple(part.strip() for part in match.group("rules").split(",") if part.strip())
        unknown = [rule for rule in rules if not re.fullmatch(r"DET\d{3}", rule)]
        if unknown:
            bad.append((lineno, f"unknown rule id(s) in pragma: {', '.join(unknown)}"))
            continue
        justification = (match.group("why") or "").strip()
        if not justification:
            bad.append((lineno, "detlint pragma without justification ('-- <why>' is required)"))
            continue
        pragmas.append(Pragma(rules, justification, lineno))
    return pragmas, bad


def analyze_file(path: Path, relpath: str) -> FileResult:
    """Run every applicable rule over one file and fold in pragmas."""
    from repro.analysis.rules import RULES

    result = FileResult(path=relpath)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        result.findings.append(Finding("DET000", relpath, 1, 0, f"unreadable file: {exc}"))
        return result
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.findings.append(
            Finding("DET000", relpath, exc.lineno or 1, 0, f"syntax error: {exc.msg}")
        )
        return result

    ctx = FileContext(relpath, tree)
    pragmas, bad_pragmas = parse_pragmas(source)
    for rule in RULES:
        if not rule.applies(ctx):
            continue
        for line, col, message in rule.check(ctx):
            finding = Finding(rule.id, relpath, line, col, message)
            pragma = _matching_pragma(pragmas, finding)
            if pragma is None:
                result.findings.append(finding)
            else:
                pragma.used = True
                result.suppressed.append(Suppression(finding, pragma.justification))
    for lineno, message in bad_pragmas:
        result.findings.append(Finding("DET000", relpath, lineno, 0, message))
    for pragma in pragmas:
        if not pragma.used:
            message = f"unused suppression for {', '.join(pragma.rules)} (nothing to silence)"
            result.findings.append(Finding("DET000", relpath, pragma.line, 0, message))
    result.findings.sort(key=Finding.sort_key)
    return result


def _matching_pragma(pragmas: Sequence[Pragma], finding: Finding) -> Optional[Pragma]:
    for pragma in pragmas:
        if pragma.line == finding.line and finding.rule in pragma.rules:
            return pragma
    return None


def iter_python_files(paths: Sequence[Path], include_fixtures: bool = False) -> List[Path]:
    """Deterministically ordered ``.py`` files under the given paths."""
    out: List[Path] = []
    for base in paths:
        if base.is_file():
            candidates = [base]
        else:
            candidates = sorted(base.rglob("*.py"))
        for candidate in candidates:
            parts = candidate.parts
            if any(segment in parts for segment in EXCLUDED_SEGMENTS):
                continue
            if not include_fixtures and _in_fixture_corpus(parts):
                continue
            out.append(candidate)
    return out


def _in_fixture_corpus(parts: Tuple[str, ...]) -> bool:
    for index in range(len(parts) - 1):
        if parts[index : index + 2] == FIXTURE_MARKER:
            return True
    return False


def check_paths(
    paths: Sequence,
    root: Optional[Path] = None,
    include_fixtures: bool = False,
) -> CheckResult:
    """Analyze every python file under ``paths``; the public entry point."""
    root = Path.cwd() if root is None else Path(root)
    bases = [Path(p) if Path(p).is_absolute() else root / p for p in paths]
    result = CheckResult(root=str(root), paths=[str(p) for p in paths])
    for path in iter_python_files(bases, include_fixtures=include_fixtures):
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        file_result = analyze_file(path, relpath)
        result.files_scanned += 1
        result.findings.extend(file_result.findings)
        result.suppressed.extend(file_result.suppressed)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=lambda s: s.finding.sort_key())
    return result
