"""Property-based regression: the query engine vs the reference executor.

Replays the differential CQL fuzzer (:mod:`repro.check.cql_fuzz`) with
fixed seeds inside the test suite — ≥500 generated queries, each
executed over several churn ticks by both the engine and the reference
executor (``repro.check.oracle``), results compared value-for-value
including Python types.
Any divergence is a hard failure with the offending query in the
message; reproduce it with
``python -m repro fuzz --cql-queries N --seed S``.
"""

import pytest

from repro.check.cql_fuzz import run_differential


def test_500_queries_seed_1():
    mismatches = run_differential(queries=500, seed=1)
    assert mismatches == [], mismatches[:3]


@pytest.mark.parametrize("seed", [2, 7])
def test_more_seeds_shallow(seed):
    """Two extra generator personalities at lower volume."""
    mismatches = run_differential(queries=150, seed=seed)
    assert mismatches == [], mismatches[:3]
