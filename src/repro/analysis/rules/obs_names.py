"""RPL006: observability instruments are registered once, named on-grammar.

The metrics registry and span tracer key everything by name: two modules
registering the same name silently share an instrument, a worker whose
name drifts from the parent's stops merging, and ``repro report`` output
becomes unreadable the moment names stop following the
``<module>.<noun>_<unit>`` grammar (DESIGN.md §9).  This rule pins the
conventions:

* ``global_registry().counter/gauge/histogram(...)`` calls — and their
  stale-proof twins ``counter_handle/gauge_handle/histogram_handle(...)``
  — happen at module level (import time), take a string-literal name,
  and no name is registered twice across the linted file set;
* a module-level binding of a *raw* instrument
  (``_HITS = global_registry().counter(...)``) is flagged outright: the
  reference goes stale after ``reset_metrics(clear=True)``, so module
  scopes hold ``*_handle`` objects instead;
* instrument names match ``seg.seg[.seg[.seg]]`` of lowercase
  ``snake_case`` segments; histogram names carry an explicit unit suffix;
* ``global_tracer().span(...)`` — and its timestamped twin
  ``global_tracer().emit_span(...)`` — take a module-level string
  constant (``_SPAN_SWEEP = "testbed.sweep"``) so every span name is
  statically registered exactly once.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Tuple

from ..linter import Finding, LintContext, Rule

_NAME_GRAMMAR = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){1,3}$")

#: Histogram names must say what they measure in what unit.
_UNIT_SUFFIXES = ("_s", "_ns", "_ms", "_bytes", "_db", "_hz", "_count")

_INSTRUMENT_METHODS = ("counter", "gauge", "histogram")

#: Stale-proof handle factories register instruments too (same grammar,
#: same uniqueness contract as the raw registry methods).
_HANDLE_FACTORIES = {
    "counter_handle": "counter",
    "gauge_handle": "gauge",
    "histogram_handle": "histogram",
}

#: Tracer methods whose first argument is a span name under the
#: module-level-constant discipline.
_SPAN_METHODS = ("span", "emit_span")


def _module_level_captures(tree: ast.Module) -> set:
    """Call nodes whose result a module-level assignment binds.

    A raw instrument captured this way keeps recording into a dead
    registry after ``reset_metrics(clear=True)`` — the stale-handle
    hazard the ``*_handle`` factories exist to close.
    """
    captured: set = set()
    for statement in tree.body:
        value = None
        if isinstance(statement, ast.Assign):
            value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            value = statement.value
        if isinstance(value, ast.Call):
            captured.add(value)
    return captured


def _registry_call(
    node: ast.Call, context: LintContext
) -> Tuple[str, bool]:
    """``(instrument method, is raw registry call)`` — ``("", False)`` if
    the call registers nothing."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _INSTRUMENT_METHODS:
        target = func.value
        if isinstance(target, ast.Call):
            resolved = context.imports.resolve(target.func)
            if resolved is not None and resolved.endswith("global_registry"):
                return func.attr, True
        return "", False
    resolved = context.imports.resolve(func)
    if resolved is None:
        return "", False
    return _HANDLE_FACTORIES.get(resolved.rsplit(".", 1)[-1], ""), False


def _span_call(node: ast.Call, context: LintContext) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _SPAN_METHODS:
        target = func.value
        if isinstance(target, ast.Call):
            resolved = context.imports.resolve(target.func)
            return resolved is not None and resolved.endswith("global_tracer")
    return False


class ObsNamingRule(Rule):
    """RPL006: module-level, unique, grammar-conforming instrument names."""

    id = "RPL006"
    title = "observability instrument registration or naming violation"
    hint = (
        "register instruments once at module level with literal names "
        "matching <module>.<noun>_<unit>; hoist span names to module-level "
        "string constants"
    )

    def __init__(self) -> None:
        # Cross-file state for this lint run: name -> first site.
        self._seen: Dict[str, Tuple[str, int]] = {}

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.is_tests:
            return
        span_constants = context.module_string_constants()
        captured = _module_level_captures(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            method, raw = _registry_call(node, context)
            if method:
                yield from self._check_registration(
                    context, node, method, raw and node in captured
                )
            elif _span_call(node, context):
                yield from self._check_span(context, node, span_constants)

    def _check_registration(
        self,
        context: LintContext,
        node: ast.Call,
        method: str,
        raw_capture: bool,
    ) -> Iterator[Finding]:
        if not context.at_module_level(node):
            yield context.finding(
                self,
                node,
                f"{method}() registration inside a function; instruments "
                "are registered once at module import",
            )
        elif raw_capture:
            # The instrument reference goes stale the moment
            # reset_metrics(clear=True) replaces the registry; the handle
            # re-resolves on every use.
            yield context.finding(
                self,
                node,
                f"module-level capture of a raw {method}() instrument goes "
                "stale after reset_metrics(clear=True); hold a "
                f"{method}_handle() instead",
            )
        name_node = node.args[0] if node.args else None
        if not isinstance(name_node, ast.Constant) or not isinstance(
            name_node.value, str
        ):
            yield context.finding(
                self,
                node,
                f"{method}() name must be a string literal so it is "
                "statically known",
            )
            return
        name = name_node.value
        yield from self._check_grammar(context, node, name, method)
        first = self._seen.get(name)
        if first is not None and first != (context.path, node.lineno):
            yield context.finding(
                self,
                node,
                f"instrument {name!r} already registered at "
                f"{first[0]}:{first[1]}; names are registered exactly once",
            )
        else:
            self._seen[name] = (context.path, node.lineno)

    def _check_grammar(
        self, context: LintContext, node: ast.AST, name: str, method: str
    ) -> Iterator[Finding]:
        if not _NAME_GRAMMAR.match(name):
            yield context.finding(
                self,
                node,
                f"{method} name {name!r} violates the "
                "<module>.<noun>_<unit> grammar (lowercase dotted "
                "snake_case, 2-4 segments)",
            )
        elif method == "histogram" and not name.endswith(_UNIT_SUFFIXES):
            yield context.finding(
                self,
                node,
                f"histogram name {name!r} needs a unit suffix "
                f"({', '.join(_UNIT_SUFFIXES)})",
            )

    def _check_span(
        self,
        context: LintContext,
        node: ast.Call,
        span_constants: Dict[str, str],
    ) -> Iterator[Finding]:
        name_node = node.args[0] if node.args else None
        if isinstance(name_node, ast.Name):
            literal = span_constants.get(name_node.id)
            if literal is None:
                yield context.finding(
                    self,
                    node,
                    f"span name {name_node.id!r} is not a module-level "
                    "string constant",
                )
            else:
                yield from self._check_grammar(context, node, literal, "span")
        elif isinstance(name_node, ast.Constant) and isinstance(
            name_node.value, str
        ):
            yield context.finding(
                self,
                node,
                f"inline span name {name_node.value!r}; hoist it to a "
                "module-level constant so the name is registered once",
            )
        else:
            yield context.finding(
                self,
                node,
                "span name is not statically known; use a module-level "
                "string constant",
            )
