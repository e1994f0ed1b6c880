"""Metric-name discipline: the ``repro.obs`` registry conventions.

Metric names are string literals scattered across every subsystem, but
they meet in one registry and one hwdb ``Metrics`` table, so the
conventions from the telemetry PR are load-bearing:

* ``metric-name`` — a literal passed to ``.counter()``/``.gauge()``/
  ``.histogram()`` must be dotted lowercase (``<subsystem>.<metric>``):
  a namespace prefix plus snake_case parts.
* ``metric-kind`` — the same name must not be registered with two
  different instrument kinds anywhere in the project (the registry would
  raise at runtime on the second call; the lint catches it statically).

Dynamic names (f-strings, variables) are skipped — they cannot be
checked statically.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Sequence, Tuple

from .core import Rule, SourceFile, Violation

NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

KIND_METHODS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}


class MetricNameRule(Rule):
    name = "metrics"
    ids = ("metric-name", "metric-kind")
    description = "metric literals follow registry naming conventions"

    def check_project(self, files: Sequence[SourceFile]) -> Iterable[Violation]:
        violations: List[Violation] = []
        # name -> (kind, path, line) of first registration
        registered: Dict[str, Tuple[str, str, int]] = {}
        sites: List[Tuple[str, str, SourceFile, ast.Call]] = []  # (name, kind, file, node)
        for source in files:
            if source.module.startswith("repro.analysis"):
                continue
            for node in ast.walk(source.tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                method = node.func.attr
                if method not in KIND_METHODS:
                    continue
                if not (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    continue
                name = node.args[0].value
                if not NAME_RE.match(name):
                    violations.append(self._name_violation(source, node, name, method))
                sites.append((name, KIND_METHODS[method], source, node))
        for name, kind, source, node in sites:
            first = registered.get(name)
            if first is None:
                registered[name] = (kind, source.path, node.lineno)
            elif first[0] != kind:
                violations.append(
                    Violation(
                        path=source.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule="metric-kind",
                        message=(
                            f"metric {name!r} registered as {kind} here but as "
                            f"{first[0]} at {first[1]}:{first[2]}; one name, one kind"
                        ),
                    )
                )
        return violations

    @staticmethod
    def _name_violation(
        source: SourceFile, node: ast.Call, name: str, method: str
    ) -> Violation:
        return Violation(
            path=source.path,
            line=node.lineno,
            col=node.col_offset + 1,
            rule="metric-name",
            message=(
                f"{method}() name {name!r} breaks the registry convention: "
                f"dotted lowercase '<subsystem>.<metric>' (e.g. 'hwdb.insert_total')"
            ),
        )
