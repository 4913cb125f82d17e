"""``repro lint``: AST-based invariant checker for reproducibility contracts.

The test suite can only spot-check the properties every result in this
repo rests on — bit-identical runs at any ``--jobs``, explicit
``numpy.random.Generator`` threading, no wall-clock reads in library
code, frozen physical constants, canonical instrument names.  This
module makes those conventions *decidable*: each :class:`Rule` walks a
parsed module and yields :class:`Finding` objects for violations, and CI
fails on any finding that is neither baselined
(:mod:`repro.analysis.baseline`) nor pragma-suppressed.

Suppression pragmas
-------------------
``# reprolint: disable=RPL003 -- reason`` suppresses the listed rule IDs
on its own line; written as a comment-only line, it also covers the next
code line (the idiom for statements too long to share a line with their
pragma).  ``# reprolint: skip-file=RPL005`` anywhere in a file
suppresses the listed rules for the whole file.  A reason after ``--``
is conventional, not parsed.

Two-pass orchestration
----------------------
Since the RPL1xx family, linting is two passes.  Pass one parses every
file into a :class:`LintContext` (parse failures become per-file RPL000
findings, never aborts) and — when the graph is enabled — builds the
project-wide index and call graph of :mod:`repro.analysis.graph`.  Pass
two runs the per-file rules over each context and the
:class:`GraphRule` subclasses once over the whole project.  With the
graph disabled (``--no-graph``) graph rules still run, but against a
degraded single-file project per module, so any finding that needs a
cross-module call edge provably disappears — the fixture contract the
RPL1xx tests assert.  Per-rule wall-clock cost is accounted in
:class:`LintRun.costs`.

Library entry points
--------------------
:func:`lint_project` is the full two-pass entry (findings + costs);
:func:`run_lint` is its findings-only wrapper; :func:`run_lint_source`
lints one in-memory snippet (the unit-test entry).  All return sorted
:class:`Finding` lists.  Rule instances carry per-run state (e.g.
duplicate-name detection across files), so a fresh rule set is created
for every run.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "GraphRule",
    "ImportMap",
    "LintContext",
    "LintRun",
    "Rule",
    "iter_python_files",
    "lint_project",
    "run_lint",
    "run_lint_source",
]

#: Pseudo-rule ID reported when a file does not parse at all.
SYNTAX_RULE_ID = "RPL000"

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(disable|skip-file)\s*=\s*([A-Z0-9, ]+)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    snippet: str = ""

    def fingerprint(self) -> str:
        """Location-independent identity used by the baseline file.

        Hashes path + rule + the stripped source line (not the line
        *number*), so unrelated edits above a grandfathered violation do
        not invalidate its baseline entry.
        """
        payload = f"{self.path}::{self.rule}::{self.snippet.strip()}"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:20]

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def _parse_pragmas(
    lines: Sequence[str],
) -> Tuple[frozenset, Dict[int, frozenset]]:
    """Extract file-level and per-line suppression pragmas.

    Returns ``(file_disabled, line_disabled)`` where ``line_disabled``
    maps 1-based line numbers to the rule IDs disabled on that line.
    """
    file_disabled: set = set()
    line_disabled: Dict[int, frozenset] = {}

    def disable(number: int, rules: frozenset) -> None:
        line_disabled[number] = line_disabled.get(number, frozenset()) | rules

    for number, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group(2).split(",") if rule.strip()
        )
        if match.group(1) == "skip-file":
            file_disabled |= rules
            continue
        disable(number, rules)
        if text.lstrip().startswith("#"):
            # Comment-only pragma: also cover the next code line.
            for follower in range(number, len(lines)):
                follower_text = lines[follower].strip()
                if follower_text and not follower_text.startswith("#"):
                    disable(follower + 1, rules)
                    break
    return frozenset(file_disabled), line_disabled


class ImportMap:
    """Local name -> canonical dotted path, from a module's import statements.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng`` maps ``default_rng -> numpy.random.default_rng``;
    relative imports keep their leading dots (``from .tracing import
    global_tracer`` maps to ``.tracing.global_tracer``), so rules match
    canonical names with :func:`str.endswith` when the absolute package
    root is unknowable.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level + (node.module or "")
                # ``from . import x``: the prefix already ends in its dot.
                separator = "" if prefix.endswith(".") else "."
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{prefix}{separator}{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, or ``None``.

        Follows ``Attribute`` chains down to a ``Name`` whose base is an
        imported alias.  Unimported bases (locals, builtins) resolve to
        ``None`` — rules that care about builtins match bare ``Name``
        nodes themselves.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(chain)])


class LintContext:
    """Everything a rule needs to check one parsed module."""

    def __init__(self, path: str, source: str) -> None:
        self.path = Path(path).as_posix()
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source)
        self.imports = ImportMap(self.tree)
        self.file_disabled, self.line_disabled = _parse_pragmas(self.lines)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    # -- path predicates ------------------------------------------------
    def _has_part(self, part: str) -> bool:
        return part in Path(self.path).parts

    @property
    def is_tests(self) -> bool:
        """Under a ``tests/`` directory (benchmarks are NOT exempt)."""
        return self._has_part("tests")

    @property
    def in_repro_src(self) -> bool:
        """Whether the file is library code under ``src/repro/``."""
        return "src/repro/" in self.path or self.path.startswith("repro/")

    @property
    def in_obs(self) -> bool:
        return self.in_repro_src and self._has_part("obs")

    @property
    def is_constants_module(self) -> bool:
        return self.in_repro_src and Path(self.path).name == "constants.py"

    # -- AST helpers ----------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def at_module_level(self, node: ast.AST) -> bool:
        """True when ``node`` is outside every function and class body."""
        current = self.parent(node)
        while current is not None:
            if isinstance(
                current,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                return False
            current = self.parent(current)
        return True

    def module_string_constants(self) -> Dict[str, str]:
        """Module-level ``NAME = "literal"`` assignments (spans use these)."""
        constants: Dict[str, str] = {}
        for stmt in self.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not isinstance(value, ast.Constant) or not isinstance(
                value.value, str
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = value.value
        return constants

    def snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: "Rule", node: ast.AST, message: str, hint: Optional[str] = None
    ) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule.id,
            message=message,
            hint=rule.hint if hint is None else hint,
            snippet=self.snippet(node),
        )

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_disabled:
            return True
        disabled = self.line_disabled.get(finding.line)
        return disabled is not None and finding.rule in disabled


class Rule:
    """Base class: subclasses set ``id``/``title``/``hint`` and ``check``.

    A rule instance lives for one :func:`run_lint` call and sees every
    file in deterministic (sorted) order, so it may carry cross-file
    state such as seen-instrument-name maps.
    """

    id: str = ""
    title: str = ""
    hint: str = ""

    def check(self, context: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        return f"{cls.id}: {cls.title}"


class GraphRule(Rule):
    """A rule that checks the whole project, not one file at a time.

    Subclasses implement :meth:`check_project` against a
    :class:`repro.analysis.graph.ProjectContext` (index + call graph +
    per-file contexts).  The orchestrator runs graph rules once over the
    full project in graph mode, and once per single-file project in
    ``--no-graph`` mode — same code path, degraded visibility — then
    filters their findings through the owning file's pragmas.
    """

    def check(self, context: LintContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError


_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"}


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    unique: Dict[str, Path] = {p.as_posix(): p for p in found}
    return [unique[key] for key in sorted(unique)]


def _default_rules() -> List[Rule]:
    from .rules import all_rules

    return all_rules()


def _select_rules(
    rules: Sequence[Rule],
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> List[Rule]:
    """Apply ``--select``/``--ignore`` id filters (RPL000 is implicit)."""
    active = list(rules)
    if select:
        wanted = set(select)
        active = [rule for rule in active if rule.id in wanted]
    if ignore:
        dropped = set(ignore)
        active = [rule for rule in active if rule.id not in dropped]
    return active


@dataclass
class RuleCost:
    """Wall-clock accounting for one rule over one run."""

    seconds: float = 0.0
    findings: int = 0


@dataclass
class LintRun:
    """The result of one :func:`lint_project` run."""

    findings: List[Finding]
    files_checked: int
    #: rule id -> cost; the index/graph build pass is accounted under
    #: the pseudo id ``"<index>"``.
    costs: Dict[str, RuleCost] = field(default_factory=dict)


#: Pseudo cost key for pass one (parse + index + call-graph build).
INDEX_COST_KEY = "<index>"


def _parse_error_finding(path: str, error: Exception) -> Finding:
    """An RPL000 finding for a file the parser rejected."""
    if isinstance(error, SyntaxError):
        return Finding(
            path=Path(path).as_posix(),
            line=error.lineno or 0,
            col=error.offset or 0,
            rule=SYNTAX_RULE_ID,
            message=f"file does not parse: {error.msg}",
            snippet=(error.text or "").strip(),
        )
    return Finding(
        path=Path(path).as_posix(),
        line=0,
        col=0,
        rule=SYNTAX_RULE_ID,
        message=f"file does not parse: {error!r}",
    )


def _crash_finding(rule: Rule, path: str, error: Exception) -> Finding:
    """An RPL000 finding for a rule that raised instead of checking."""
    return Finding(
        path=Path(path).as_posix(),
        line=0,
        col=0,
        rule=SYNTAX_RULE_ID,
        message=f"rule {rule.id} crashed: {error!r}",
        hint="report this as a linter bug; the rest of the run is unaffected",
    )


def _checked(rule: Rule, context: LintContext) -> List[Finding]:
    """One rule over one file, crash-contained to that file."""
    try:
        return [
            finding
            for finding in rule.check(context)
            if not context.suppressed(finding)
        ]
    except Exception as error:  # crash containment: RPL000, file-scoped
        return [_crash_finding(rule, context.path, error)]


def _now() -> float:
    from ..obs.metrics import monotonic_s

    return monotonic_s()


def _run_graph_rules(
    graph_rules: Sequence[Rule],
    contexts: Sequence[LintContext],
    whole_project: bool,
    costs: Dict[str, RuleCost],
) -> List[Finding]:
    """Run :class:`GraphRule` instances, whole-project or per-file.

    ``whole_project=False`` is the ``--no-graph`` degradation: every
    module is indexed alone, so rules keep their single-file power but
    lose every cross-module call edge.
    """
    if not graph_rules or not contexts:
        return []
    from .graph import ProjectContext

    t_index = _now()
    if whole_project:
        projects = [ProjectContext(list(contexts))]
    else:
        projects = [ProjectContext([context]) for context in contexts]
    costs.setdefault(INDEX_COST_KEY, RuleCost()).seconds += _now() - t_index
    findings: List[Finding] = []
    for rule in graph_rules:
        t_rule = _now()
        produced: List[Finding] = []
        for project in projects:
            try:
                for finding in rule.check_project(project):
                    owner = project.context_for(finding.path)
                    if owner is None or not owner.suppressed(finding):
                        produced.append(finding)
            except Exception as error:  # crash containment: RPL000
                anchor = min(project.contexts) if project.contexts else ""
                produced.append(_crash_finding(rule, anchor, error))
        cost = costs.setdefault(rule.id, RuleCost())
        cost.seconds += _now() - t_rule
        cost.findings += len(produced)
        findings.extend(produced)
    return findings


def lint_project(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    graph: bool = True,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintRun:
    """Two-pass lint over every ``.py`` file under ``paths``.

    Pass one parses each file (failures yield per-file RPL000 findings)
    and, with ``graph=True``, builds the project index + call graph.
    Pass two runs per-file rules file-by-file and graph rules over the
    project.  Per-rule wall time and finding counts land in
    :attr:`LintRun.costs`.
    """
    active = _select_rules(
        _default_rules() if rules is None else list(rules), select, ignore
    )
    file_rules = [rule for rule in active if not isinstance(rule, GraphRule)]
    graph_rules = [rule for rule in active if isinstance(rule, GraphRule)]
    findings: List[Finding] = []
    contexts: List[LintContext] = []
    costs: Dict[str, RuleCost] = {}
    files = iter_python_files(paths)
    t_parse = _now()
    for file_path in files:
        source = file_path.read_text(encoding="utf-8", errors="replace")
        try:
            contexts.append(LintContext(file_path.as_posix(), source))
        except (SyntaxError, ValueError, RecursionError, MemoryError) as error:
            findings.append(_parse_error_finding(file_path.as_posix(), error))
    costs[INDEX_COST_KEY] = RuleCost(seconds=_now() - t_parse)
    for context in contexts:
        for rule in file_rules:
            t_rule = _now()
            produced = _checked(rule, context)
            cost = costs.setdefault(rule.id, RuleCost())
            cost.seconds += _now() - t_rule
            cost.findings += len(produced)
            findings.extend(produced)
    findings.extend(
        _run_graph_rules(graph_rules, contexts, whole_project=graph, costs=costs)
    )
    return LintRun(
        findings=sorted(findings), files_checked=len(files), costs=costs
    )


def run_lint_source(
    source: str,
    path: str = "src/repro/_snippet.py",
    rules: Optional[Sequence[Rule]] = None,
    graph: bool = True,
) -> List[Finding]:
    """Lint one in-memory module; the unit-test entry point.

    ``path`` matters: rules scope themselves by location (``tests/`` is
    exempt from RPL001, ``obs/`` has its own RPL003 allowlist, RPL101
    anchors on ``serve/``), so tests pass a representative fake path.
    Graph rules run against the single-module project — the same
    visibility ``--no-graph`` gives them.
    """
    active: Sequence[Rule] = _default_rules() if rules is None else rules
    try:
        context = LintContext(path, source)
    except (SyntaxError, ValueError, RecursionError) as error:
        return [_parse_error_finding(path, error)]
    file_rules = [rule for rule in active if not isinstance(rule, GraphRule)]
    graph_rules = [rule for rule in active if isinstance(rule, GraphRule)]
    findings: List[Finding] = []
    for rule in file_rules:
        findings.extend(_checked(rule, context))
    if graph:
        findings.extend(
            _run_graph_rules(
                graph_rules, [context], whole_project=True, costs={}
            )
        )
    return sorted(findings)


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    graph: bool = True,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    return lint_project(paths, rules=rules, graph=graph).findings
