"""Operator-DAG plans for CQL SELECT statements: the one executor.

``compile_select`` turns a parsed :class:`Select` into a small tree of
operators (scan -> join -> filter -> aggregate/project -> distinct ->
sort -> limit).  The operators share the row model (:class:`Binding`),
grouping, ordering and expression evaluation of
:mod:`repro.hwdb.cql.executor` with the reference executor in
:mod:`repro.check.oracle`, which every plan must match row for row and
error for error.

Most SELECTs compile to an *optimized* plan: constant folding, predicate
pushdown into the scans and window tightening (:mod:`.optimize`).  Those
rewrites change when an expression is evaluated, so they are only sound
when no evaluation can raise.  The planner checks that up front: every
column reference must resolve statically, every function must be known,
every aggregate well-formed (``resolvable_all``).  A statement that
fails the check compiles to an *unoptimized* plan instead: scans with
the source windows and no predicate, one filter holding the whole
WHERE, then the remaining operators.  That is exactly the order in
which the reference executor evaluates, so errors that depend on the
data (an unknown column only raises once a row exists to resolve it
against) surface exactly when they would there.  ``Plan.unoptimized``
says why; the incremental tier refuses such plans.

An unknown table or a duplicate alias raises :class:`QueryError` at
compile time, with the reference executor's message.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.errors import QueryError
from ..hwdb.cql.ast_nodes import (
    Binary,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    OrderItem,
    Projection,
    Select,
    TableRef,
    Unary,
    W_ALL,
    W_NOW,
    W_RANGE,
    W_ROWS,
    W_SINCE,
    Window,
)
from ..hwdb.cql.executor import (
    Binding,
    Evaluator,
    ResultSet,
    apply_window_ex,
    group_bindings,
    has_aggregate,
    order_rows,
    projection_name,
    star_projections,
    truthy,
)
from ..hwdb.cql.parser import AGGREGATE_FUNCTIONS, SCALAR_FUNCTIONS
from ..hwdb.cql.unparse import unparse, unparse_expr
from ..hwdb.table import StreamTable, TS_COLUMN
from .optimize import (
    alias_normalised_key,
    and_chain,
    needed_columns,
    rewrite_where,
)
from .share import ShareCache
from .stats import OperatorStats

_WINDOW_KINDS = (W_ALL, W_NOW, W_RANGE, W_ROWS, W_SINCE)


class ExecContext:
    """Everything one plan execution needs, bundled for the operators."""

    __slots__ = ("tables", "now", "evaluator", "stats", "share", "timer")

    def __init__(
        self,
        tables: Dict[str, StreamTable],
        now: float,
        stats: OperatorStats,
        share: Optional[ShareCache] = None,
        timer: Optional[Callable[[], float]] = None,
    ):
        self.tables = tables
        self.now = now
        self.evaluator = Evaluator(now)
        self.stats = stats
        self.share = share
        self.timer = timer


class PlanNode:
    """Base operator.  ``run`` produces output; ``execute`` adds stats.

    Recorded time is cumulative — it includes the node's children,
    since each node pulls its inputs by calling ``child.execute``.
    EXPLAIN ANALYZE presents it that way.
    """

    kind = "node"

    def __init__(self, children: Tuple["PlanNode", ...] = ()):
        self.children: List[PlanNode] = list(children)
        self.node_id = -1  # assigned by Plan

    def describe(self) -> str:
        return self.kind

    def run(self, ctx: ExecContext) -> List:
        raise NotImplementedError

    def execute(self, ctx: ExecContext) -> List:
        timer = ctx.timer
        if timer is None:
            out = self.run(ctx)
            ctx.stats.record(self.node_id, len(out), 0.0)
            return out
        started = timer()
        out = self.run(ctx)
        ctx.stats.record(self.node_id, len(out), timer() - started)
        return out


def _window_text(window: Window) -> str:
    if window.kind == W_ALL:
        return ""
    if window.kind == W_NOW:
        return " [NOW]"
    if window.kind == W_RANGE:
        return f" [RANGE {window.value!r} SECONDS]"
    if window.kind == W_ROWS:
        return f" [ROWS {int(window.value)}]"
    return f" [SINCE {window.value!r}]"


class ScanOp(PlanNode):
    """Windowed table scan with an optional pushed-down predicate.

    Output rows (before binding) are published to the tick's
    :class:`ShareCache` so sibling subscriptions watching the same
    table/window/predicate reuse them.
    """

    kind = "scan"

    def __init__(
        self,
        ref: TableRef,
        predicate: Optional[Expr],
        predicate_key: Optional[str],
        needed: Tuple[str, ...],
    ):
        super().__init__()
        self.ref = ref
        self.predicate = predicate
        self.predicate_key = predicate_key
        self.needed = needed
        self.last_archive = None  # ArchiveScanInfo from the latest run

    def describe(self) -> str:
        text = f"Scan {self.ref.table}{_window_text(self.ref.window)}"
        if self.ref.alias != self.ref.table:
            text += f" AS {self.ref.alias}"
        if self.predicate is not None:
            text += f" filter=({unparse_expr(self.predicate)})"
        if self.needed:
            text += f" columns=[{', '.join(self.needed)}]"
        info = self.last_archive
        if info is not None:
            text += (
                f" archive[segments={info.segments_scanned}/{info.segments_total}"
                f" pruned={info.segments_pruned} rows={info.rows}]"
            )
        return text

    def run(self, ctx: ExecContext) -> List[Binding]:
        table = ctx.tables.get(self.ref.table)
        if table is None:
            raise QueryError(f"no such table {self.ref.table!r}")
        key = None
        if ctx.share is not None:
            key = (
                self.ref.table,
                id(table),
                self.ref.window.kind,
                self.ref.window.value,
                table.total_inserted,
                self.predicate_key,
            )
            shared = ctx.share.get(key)
            if shared is not None:
                alias = self.ref.alias
                return [Binding({alias: (table, row)}) for row in shared]
        rows, self.last_archive = apply_window_ex(table, self.ref, ctx.now)
        alias = self.ref.alias
        bindings = [Binding({alias: (table, row)}) for row in rows]
        if self.predicate is not None:
            evaluator = ctx.evaluator
            kept = [
                (row, binding)
                for row, binding in zip(rows, bindings)
                if truthy(evaluator.scalar(self.predicate, binding))
            ]
            rows = [row for row, _ in kept]
            bindings = [binding for _, binding in kept]
        if key is not None:
            ctx.share.put(key, rows)
        return bindings


class JoinOp(PlanNode):
    """Cartesian product of the children, in source order — exactly the
    join the reference executor forms (its WHERE then filters; in an
    optimized plan the single-source conjuncts already ran at the
    scans)."""

    kind = "join"

    def describe(self) -> str:
        return f"Join sources={len(self.children)}"

    def run(self, ctx: ExecContext) -> List[Binding]:
        child_outputs = [child.execute(ctx) for child in self.children]
        out = []
        for combo in itertools.product(*child_outputs):
            merged: Dict[str, tuple] = {}
            for binding in combo:
                merged.update(binding.sources)
            out.append(Binding(merged))
        return out


class FilterOp(PlanNode):
    """Residual WHERE conjuncts (multi-source or alias-free), or the
    whole WHERE clause in an unoptimized plan."""

    kind = "filter"

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__((child,))
        self.predicate = predicate

    def describe(self) -> str:
        return f"Filter ({unparse_expr(self.predicate)})"

    def run(self, ctx: ExecContext) -> List[Binding]:
        evaluator = ctx.evaluator
        return [
            binding
            for binding in self.children[0].execute(ctx)
            if truthy(evaluator.scalar(self.predicate, binding))
        ]


class AggregateOp(PlanNode):
    """Group + HAVING + aggregate projection, via the executor's own
    grouping and aggregate evaluation."""

    kind = "aggregate"

    def __init__(
        self,
        child: PlanNode,
        group_by: List[Expr],
        projections: List[Projection],
        having: Optional[Expr],
    ):
        super().__init__((child,))
        self.group_by = group_by
        self.projections = projections
        self.having = having

    def describe(self) -> str:
        text = "Aggregate"
        if self.group_by:
            keys = ", ".join(unparse_expr(e) for e in self.group_by)
            text += f" group_by=[{keys}]"
        if self.having is not None:
            text += f" having=({unparse_expr(self.having)})"
        return text

    def run(self, ctx: ExecContext) -> List[Tuple]:
        evaluator = ctx.evaluator
        bindings = self.children[0].execute(ctx)
        out: List[Tuple] = []
        for group in group_bindings(bindings, self.group_by, evaluator):
            if self.having is not None and not truthy(
                evaluator.aggregate(self.having, group)
            ):
                continue
            out.append(
                tuple(evaluator.aggregate(p.expr, group) for p in self.projections)
            )
        return out


class ProjectOp(PlanNode):
    """Row-wise projection for non-aggregated queries.  HAVING, if
    present, is dropped at compile time — the reference executor ignores
    it on this branch and the plan must match."""

    kind = "project"

    def __init__(self, child: PlanNode, projections: List[Projection]):
        super().__init__((child,))
        self.projections = projections

    def describe(self) -> str:
        exprs = ", ".join(unparse_expr(p.expr) for p in self.projections)
        return f"Project [{exprs}]"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        evaluator = ctx.evaluator
        return [
            tuple(evaluator.scalar(p.expr, binding) for p in self.projections)
            for binding in self.children[0].execute(ctx)
        ]


class DistinctOp(PlanNode):
    kind = "distinct"

    def __init__(self, child: PlanNode):
        super().__init__((child,))

    def describe(self) -> str:
        return "Distinct"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        seen = set()
        unique: List[Tuple] = []
        for row in self.children[0].execute(ctx):
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return unique


class SortOp(PlanNode):
    kind = "sort"

    def __init__(
        self,
        child: PlanNode,
        order_by: List[OrderItem],
        projections: List[Projection],
        columns: List[str],
    ):
        super().__init__((child,))
        self.order_by = order_by
        self.projections = projections
        self.columns = columns

    def describe(self) -> str:
        keys = ", ".join(
            unparse_expr(i.expr) + (" DESC" if i.descending else "")
            for i in self.order_by
        )
        return f"Sort [{keys}]"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        return order_rows(
            self.children[0].execute(ctx),
            self.order_by,
            self.projections,
            self.columns,
            ctx.evaluator,
        )


class LimitOp(PlanNode):
    kind = "limit"

    def __init__(self, child: PlanNode, limit: int):
        super().__init__((child,))
        self.limit = limit

    def describe(self) -> str:
        return f"Limit {self.limit}"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        return self.children[0].execute(ctx)[: self.limit]


class Plan:
    """A compiled SELECT: the operator tree plus everything EXPLAIN and
    the engine need (effective projections, output columns, optimizer
    notes, accumulated per-operator stats).  ``unoptimized`` is None for
    an optimized plan, else why the statement failed ``resolvable_all``."""

    def __init__(
        self,
        select: Select,
        root: PlanNode,
        projections: List[Projection],
        columns: List[str],
        aggregated: bool,
        notes: List[str],
        unoptimized: Optional[str] = None,
    ):
        self.select = select
        self.text = unparse(select)
        self.root = root
        self.projections = projections
        self.columns = columns
        self.aggregated = aggregated
        self.notes = notes
        self.unoptimized = unoptimized
        self.stats = OperatorStats()
        self.nodes: List[Tuple[int, PlanNode]] = []  # (depth, node) preorder
        self._number(root, 0)

    def _number(self, node: PlanNode, depth: int) -> None:
        node.node_id = len(self.nodes)
        self.nodes.append((depth, node))
        for child in node.children:
            self._number(child, depth + 1)

    def execute(
        self,
        tables: Dict[str, StreamTable],
        now: float,
        share: Optional[ShareCache] = None,
        timer: Optional[Callable[[], float]] = None,
    ) -> ResultSet:
        ctx = ExecContext(tables, now, self.stats, share=share, timer=timer)
        rows = self.root.execute(ctx)
        return ResultSet(self.columns, rows, executed_at=now)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def make_resolver(
    aliases: Dict[str, StreamTable],
) -> Callable[[ColumnRef], Optional[str]]:
    """Static version of ``Binding.resolve``: maps a reference to its
    owning alias, or None wherever the runtime resolution would be
    data-dependent (unknown or non-TS-ambiguous columns)."""

    def resolve(ref: ColumnRef) -> Optional[str]:
        if ref.table is not None:
            table = aliases.get(ref.table)
            if table is None:
                return None
            return ref.table if table.has_column(ref.name) else None
        matches = [a for a, t in aliases.items() if t.has_column(ref.name)]
        if not matches:
            return None
        if len(matches) > 1 and ref.name != TS_COLUMN:
            return None
        return matches[0]

    return resolve


def _problems(
    expr: Expr,
    resolve: Callable[[ColumnRef], Optional[str]],
    allow_aggregate: bool,
    inside_aggregate: bool = False,
) -> Iterator[str]:
    """Why evaluating ``expr`` could raise (or quirkily not raise) in
    the reference executor: each reason ``resolvable_all`` fails on."""
    if isinstance(expr, Literal):
        return
    if isinstance(expr, ColumnRef):
        if resolve(expr) is None:
            yield f"column {unparse_expr(expr)!r} does not resolve statically"
        return
    if isinstance(expr, Unary):
        children: List[Expr] = [expr.operand]
    elif isinstance(expr, Binary):
        children = [expr.left, expr.right]
    elif isinstance(expr, InList):
        children = [expr.needle, *expr.haystack]
    elif isinstance(expr, FunctionCall):
        children = expr.args
        if expr.name in AGGREGATE_FUNCTIONS:
            if not allow_aggregate:
                yield f"aggregate {expr.name}() in row context"
            elif inside_aggregate:
                yield f"nested aggregate {expr.name}()"
            elif not expr.args and not (expr.star and expr.name == "count"):
                yield f"{expr.name}() without an argument"
            inside_aggregate = True
        elif expr.name != "now" and expr.name not in SCALAR_FUNCTIONS:
            yield f"unknown function {expr.name!r}"
    else:
        yield f"unsupported expression {expr!r}"
        return
    for child in children:
        yield from _problems(child, resolve, allow_aggregate, inside_aggregate)


def _order_by_problems(order_by: List[OrderItem], columns: List[str]) -> Iterator[str]:
    for item in order_by:
        expr = item.expr
        if (
            isinstance(expr, ColumnRef)
            and expr.table is None
            and expr.name in columns
        ):
            continue
        if (
            isinstance(expr, Literal)
            and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)
            and 1 <= expr.value <= len(columns)
        ):
            continue
        yield "ORDER BY term not statically resolvable"


def compile_select(select: Select, tables: Dict[str, StreamTable]) -> Plan:
    """Compile ``select`` against the current schema: an optimized plan
    when it passes ``resolvable_all``, an unoptimized one otherwise.
    Raises :class:`QueryError` for an unknown table or duplicate alias."""
    aliases: Dict[str, StreamTable] = {}
    for ref in select.sources:
        table = tables.get(ref.table)
        if table is None:
            raise QueryError(f"no such table {ref.table!r}")
        if ref.alias in aliases:
            raise QueryError(f"duplicate table alias {ref.alias!r}")
        if ref.window.kind not in _WINDOW_KINDS:
            raise QueryError(f"unsupported window kind {ref.window.kind!r}")
        aliases[ref.alias] = table

    if select.star:
        projections = star_projections(
            [(alias, table, None) for alias, table in aliases.items()],
            len(aliases) > 1,
        )
    else:
        projections = select.projections
    aggregated = bool(select.group_by) or any(
        has_aggregate(p.expr) for p in projections
    )
    columns = [projection_name(p, i) for i, p in enumerate(projections)]

    resolve = make_resolver(aliases)
    problems = itertools.chain(
        _problems(select.where, resolve, False) if select.where is not None else (),
        *(_problems(expr, resolve, False) for expr in select.group_by),
        *(_problems(p.expr, resolve, aggregated) for p in projections),
        _problems(select.having, resolve, True)
        if select.having is not None and aggregated
        else (),
        _order_by_problems(select.order_by, columns),
    )
    unoptimized = next(problems, None)

    if unoptimized is not None:
        # The reference executor's evaluation order, operator for operator.
        scans = [ScanOp(ref, None, None, ()) for ref in select.sources]
        residual = select.where
        notes: List[str] = []
    else:
        rewrite = rewrite_where(select.where, select.sources, resolve)
        pruning_exprs: List[Expr] = [p.expr for p in projections]
        if select.where is not None:
            pruning_exprs.append(select.where)
        pruning_exprs.extend(select.group_by)
        if select.having is not None and aggregated:
            pruning_exprs.append(select.having)
        needed = needed_columns(pruning_exprs, list(aliases), resolve)
        scans = []
        for ref in select.sources:
            predicate = and_chain(rewrite.scan_predicates.get(ref.alias, []))
            scan_ref = TableRef(ref.table, rewrite.windows[ref.alias], ref.alias)
            scans.append(
                ScanOp(
                    scan_ref,
                    predicate,
                    alias_normalised_key(predicate, ref.alias),
                    needed.get(ref.alias, ()),
                )
            )
        residual = and_chain(rewrite.residual)
        notes = rewrite.notes

    node: PlanNode = scans[0] if len(scans) == 1 else JoinOp(tuple(scans))
    if residual is not None:
        node = FilterOp(node, residual)
    if aggregated:
        node = AggregateOp(node, select.group_by, projections, select.having)
    else:
        node = ProjectOp(node, projections)
    if select.distinct:
        node = DistinctOp(node)
    if select.order_by:
        node = SortOp(node, select.order_by, projections, columns)
    if select.limit is not None:
        node = LimitOp(node, select.limit)
    return Plan(select, node, projections, columns, aggregated, notes, unoptimized)
