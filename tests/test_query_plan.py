"""repro.query compilation: tiers, optimizer rewrites, caches, EXPLAIN.

The engine's contract is behavioural identity with the reference
executor (``repro.check.oracle``), so most correctness lives in the
differential tests (``test_query_fuzz.py``); this file pins down the
*machinery* — which tier a statement lands in, what the optimizer
rewrites, when a plan is unoptimized, how the plan and share caches
behave, and what EXPLAIN reports.
"""

import pytest

from repro.check.oracle import execute_select
from repro.core.clock import SimulatedClock
from repro.core.errors import QueryError
from repro.hwdb.cql.parser import parse
from repro.hwdb.database import HomeworkDatabase
from repro.obs.metrics import MetricsRegistry
from repro.query.engine import MODE_INCREMENTAL, MODE_PLAN, PLAN_CACHE_SIZE, QueryEngine
from repro.query.incremental import NotIncremental, build_incremental
from repro.query.plan import compile_select

SCHEMA = [("device", "varchar"), ("proto", "integer"), ("bytes", "integer")]


@pytest.fixture
def db():
    database = HomeworkDatabase(SimulatedClock())
    database.create_table("flows", SCHEMA, 64)
    return database


@pytest.fixture
def engine(db):
    return db.engine


def fill(db, rows=20):
    for i in range(rows):
        db._clock.advance(1.0)
        db.insert(
            "flows",
            {"device": f"dev{i % 3}", "proto": 6, "bytes": 100 * (i + 1)},
        )


def mode_of(engine, db, text):
    """Execute once, return the tier the (sole) cached entry landed in.

    Cache keys are the *normalised* statement text (``unparse`` output),
    so looking up by the input text would be fragile."""
    engine.execute_select(parse(text), db._tables, db.now)
    info = engine.cache_info()
    assert len(info) == 1
    return info[0][1]


class TestTierRouting:
    def test_windowed_aggregate_is_incremental(self, engine, db):
        fill(db)
        assert mode_of(
            engine,
            db,
            "SELECT device, sum(bytes) AS b FROM flows [RANGE 10 SECONDS] "
            "GROUP BY device",
        ) == MODE_INCREMENTAL

    def test_rows_window_takes_plan_tier(self, engine, db):
        fill(db)
        assert mode_of(engine, db, "SELECT device, bytes FROM flows [ROWS 5]") == MODE_PLAN

    def test_distinct_takes_plan_tier(self, engine, db):
        fill(db)
        assert mode_of(engine, db, "SELECT DISTINCT device FROM flows") == MODE_PLAN

    def test_unknown_column_compiles_unoptimized_plan(self, engine, db):
        # The reference executor only errors on unknown columns when rows
        # exist — a data-dependent behaviour the unoptimized plan keeps
        # by evaluating in the same order.
        assert mode_of(engine, db, "SELECT nosuch FROM flows") == MODE_PLAN
        fill(db)
        with pytest.raises(QueryError):
            engine.execute_select(parse("SELECT nosuch FROM flows"), db._tables, db.now)

    def test_compile_rejects_unknown_table(self, db):
        with pytest.raises(QueryError, match="no such table 'nosuch'"):
            compile_select(parse("SELECT x FROM nosuch"), db._tables)

    def test_compile_rejects_duplicate_alias(self, db):
        with pytest.raises(QueryError, match="duplicate table alias 'f'"):
            compile_select(parse("SELECT f.bytes FROM flows AS f, flows AS f"), db._tables)


def outcome(run):
    """Rows (types included) or the error a statement ends in."""
    try:
        result = run()
    except QueryError as exc:
        return ("error", type(exc).__name__, str(exc))
    rows = [tuple((type(v).__name__, v) for v in row) for row in result.rows]
    return ("ok", result.columns, rows)


class TestUnoptimizedPlans:
    """Statements that fail ``resolvable_all`` compile to unoptimized
    plans, which must end exactly like the reference executor — same
    rows, or the same error — on an empty ring and a filled one."""

    UNOPTIMIZED = [
        ("SELECT nosuch FROM flows", "column 'nosuch' does not resolve statically"),
        ("SELECT device FROM flows, leases", "column 'device' does not resolve statically"),
        ("SELECT device FROM flows ORDER BY bytes", "ORDER BY term not statically resolvable"),
        ("SELECT sum() FROM flows", "sum() without an argument"),
        # sum(*) must stay out of the incremental tier, which would
        # answer 0 where the reference executor raises.
        ("SELECT sum(*) FROM flows [RANGE 10 SECONDS]", "sum() without an argument"),
        (
            "SELECT bytes FROM flows WHERE bytes > 100 AND nosuch = 1",
            "column 'nosuch' does not resolve statically",
        ),
    ]

    @pytest.fixture
    def two_tables(self, db):
        db.create_table("leases", [("device", "varchar"), ("ip", "integer")], 16)
        return db

    @staticmethod
    def fill_leases(db):
        for i in range(3):
            db.insert("leases", {"device": f"dev{i}", "ip": i})

    def assert_matches_oracle(self, db, text):
        statement = parse(text)
        expected = outcome(lambda: execute_select(statement, db._tables, db.now))
        actual = outcome(lambda: db.engine.execute_select(statement, db._tables, db.now))
        assert actual == expected, text
        return actual

    @pytest.mark.parametrize("text, reason", UNOPTIMIZED)
    def test_matches_oracle_on_empty_and_filled_ring(self, two_tables, text, reason):
        db = two_tables
        self.assert_matches_oracle(db, text)
        fill(db)
        self.fill_leases(db)
        assert self.assert_matches_oracle(db, text)[0] == "error"
        lines = [row[0] for row in db.query("EXPLAIN " + text).rows]
        assert "Mode: plan" in lines
        assert f"Reason: unoptimized plan: {reason}" in lines

    def test_plan_keeps_the_reference_evaluation_order(self, db):
        plan = compile_select(
            parse("SELECT bytes FROM flows WHERE bytes > 100 AND nosuch = 1"), db._tables
        )
        assert plan.unoptimized == "column 'nosuch' does not resolve statically"
        # No pushdown: a bare scan, then one filter holding the whole WHERE.
        assert [node.describe() for _depth, node in plan.nodes] == [
            "Project [bytes]",
            "Filter (((bytes > 100) AND (nosuch = 1)))",
            "Scan flows",
        ]
        with pytest.raises(NotIncremental, match="unoptimized plan"):
            build_incremental(plan)

    def test_having_without_aggregation_is_ignored_like_the_oracle(self, db):
        # resolvable_all does not look at HAVING on a non-aggregated
        # query: the plan stays optimized and Project drops the HAVING,
        # as the reference executor ignores it.
        text = "SELECT device FROM flows HAVING sum(bytes) > 100"
        self.assert_matches_oracle(db, text)
        fill(db)
        assert self.assert_matches_oracle(db, text)[0] == "ok"
        assert compile_select(parse(text), db._tables).unoptimized is None
        lines = [row[0] for row in db.query("EXPLAIN " + text).rows]
        assert "Mode: plan" in lines
        assert "Reason: non-aggregated queries re-execute fully" in lines

    def test_empty_join_probe(self, two_tables):
        # With ``leases`` empty the reference join is empty and never
        # evaluates WHERE, while the optimized plan pushes the
        # comparison into the flows scan; ill-typed operands compare
        # false, so neither raises.
        db = two_tables
        text = "SELECT f.bytes FROM flows AS f, leases AS l WHERE f.bytes > 'z'"
        fill(db)
        assert self.assert_matches_oracle(db, text) == ("ok", ["bytes"], [])
        assert compile_select(parse(text), db._tables).unoptimized is None
        self.fill_leases(db)
        assert self.assert_matches_oracle(db, text) == ("ok", ["bytes"], [])


class TestOptimizer:
    def test_timestamp_predicate_tightens_window(self, db):
        fill(db)
        plan = compile_select(
            parse("SELECT device, sum(bytes) AS b FROM flows "
                  "WHERE timestamp >= 5.0 GROUP BY device"),
            db._tables,
        )
        assert any("window" in note for note in plan.notes)
        expected = execute_select(
            parse("SELECT device, sum(bytes) AS b FROM flows "
                  "WHERE timestamp >= 5.0 GROUP BY device"),
            db._tables,
            db.now,
        )
        optimized = plan.execute(db._tables, db.now)
        assert optimized.rows == expected.rows

    def test_predicate_pushdown_noted(self, db):
        plan = compile_select(
            parse("SELECT device FROM flows WHERE bytes > 100"), db._tables
        )
        assert any("pushdown" in note for note in plan.notes)

    def test_constant_folding_preserves_results(self, db):
        fill(db)
        text = "SELECT device FROM flows WHERE bytes > 100 + 200"
        plan = compile_select(parse(text), db._tables)
        expected = execute_select(parse(text), db._tables, db.now)
        assert plan.execute(db._tables, db.now).rows == expected.rows


class TestPlanCache:
    def test_cache_hit_on_equivalent_text(self, engine, db):
        fill(db)
        for _ in range(3):
            engine.execute_select(
                parse("SELECT device FROM flows"), db._tables, db.now
            )
        assert len(engine.cache_info()) == 1

    def test_invalidate_on_schema_change(self, engine, db):
        fill(db)
        engine.execute_select(parse("SELECT device FROM flows"), db._tables, db.now)
        assert engine.cache_info()
        db.create_table("other", [("x", "integer")], 8)
        assert engine.cache_info() == []

    def test_subscription_pins_survive_eviction(self, engine, db):
        fill(db)
        pinned = parse("SELECT device, sum(bytes) AS b FROM flows GROUP BY device")
        engine.attach_subscription(pinned)
        engine.execute_select(pinned, db._tables, db.now)
        for i in range(PLAN_CACHE_SIZE + 10):
            engine.execute_select(
                parse(f"SELECT device FROM flows LIMIT {i + 1}"),
                db._tables,
                db.now,
            )
        assert len(engine.cache_info()) <= PLAN_CACHE_SIZE + engine.pinned_count
        texts = [text for text, _ in engine.cache_info()]
        assert any("GROUP BY device" in text for text in texts)
        engine.detach_subscription(pinned)
        assert engine.pinned_count == 0


class TestShareCache:
    def test_same_scan_shared_across_queries(self, db):
        fill(db)
        registry = MetricsRegistry()
        engine = QueryEngine(registry)
        now = db.now
        # Two distinct non-aggregated statements over the same table,
        # window and (empty) pushed predicate, at the same tick.
        engine.execute_select(
            parse("SELECT device FROM flows [ROWS 10]"), db._tables, now
        )
        engine.execute_select(
            parse("SELECT bytes FROM flows [ROWS 10]"), db._tables, now
        )
        assert registry.counter("query.share_hit_total").value >= 1

    def test_share_cache_cleared_between_ticks(self, db):
        fill(db)
        registry = MetricsRegistry()
        engine = QueryEngine(registry)
        engine.execute_select(
            parse("SELECT device FROM flows [ROWS 10]"), db._tables, db.now
        )
        db._clock.advance(1.0)
        engine.execute_select(
            parse("SELECT bytes FROM flows [ROWS 10]"), db._tables, db.now
        )
        assert registry.counter("query.share_hit_total").value == 0


class TestExplain:
    def test_explain_reports_tier_and_tree(self, engine, db):
        fill(db)
        result = db.query(
            "EXPLAIN SELECT device, sum(bytes) AS b FROM flows "
            "[RANGE 10 SECONDS] GROUP BY device"
        )
        lines = [row[0] for row in result.rows]
        assert result.columns == ["plan"]
        assert any("Mode: incremental" in line for line in lines)
        assert any("Scan" in line for line in lines)

    def test_explain_analyze_includes_row_counts(self, engine, db):
        fill(db)
        result = db.query("EXPLAIN ANALYZE SELECT device, bytes FROM flows [ROWS 5]")
        lines = [row[0] for row in result.rows]
        assert any("rows=" in line for line in lines)

    def test_explain_without_engine(self):
        # No engine is attached by hand: every database builds its own,
        # so EXPLAIN needs no router.
        db = HomeworkDatabase(SimulatedClock())
        db.create_table("flows", SCHEMA, 8)
        result = db.query("EXPLAIN SELECT device FROM flows")
        lines = [row[0] for row in result.rows]
        assert "Mode: plan" in lines
        assert any("Scan flows" in line for line in lines)


class TestExecutedAt:
    def test_engine_results_stamped(self, engine, db):
        fill(db)
        result = db.query("SELECT device FROM flows")
        assert result.executed_at == db.now

    def test_rpc_roundtrip_preserves_stamp(self, db):
        from repro.hwdb.rpc import pack_resultset, unpack_resultset

        fill(db)
        result = db.query("SELECT device, bytes FROM flows [ROWS 3]")
        assert result.executed_at == db.now
        wire = pack_resultset(result)
        back = unpack_resultset(wire)
        assert back.executed_at == result.executed_at
        assert back.rows == result.rows


class TestMetrics:
    def test_tick_counters_move(self, db):
        fill(db)
        registry = MetricsRegistry()
        engine = QueryEngine(registry)
        engine.execute_select(
            parse("SELECT device, sum(bytes) AS b FROM flows "
                  "[RANGE 10 SECONDS] GROUP BY device"),
            db._tables,
            db.now,
        )
        engine.execute_select(
            parse("SELECT device FROM flows [ROWS 5]"), db._tables, db.now
        )
        with pytest.raises(QueryError):
            # Unresolvable column: an unoptimized plan that raises once
            # rows exist.  A failed tick counts nothing.
            engine.execute_select(
                parse("SELECT nosuch2 FROM flows"), db._tables, db.now
            )
        assert registry.counter("query.incremental_tick_total").value == 1
        assert registry.counter("query.full_tick_total").value == 1
        assert registry.get("query.fallback_total") is None

    def test_subscription_gauge_and_fire_histogram(self):
        registry = MetricsRegistry()
        db = HomeworkDatabase(SimulatedClock(), registry=registry)
        db.create_table("flows", SCHEMA, 64)
        fill(db)
        subscription = db.subscribe(
            "SELECT device, sum(bytes) AS b FROM flows GROUP BY device",
            interval=1.0,
            callback=lambda result: None,
            start=False,
        )
        assert registry.gauge("hwdb.subscriptions_active").value == 1.0
        subscription.fire()
        assert registry.histogram("hwdb.subscription_fire_seconds").count == 1
        subscription.cancel()
        assert registry.gauge("hwdb.subscriptions_active").value == 0.0
