"""repro.query — incremental continuous-query engine for hwdb.

Compiles CQL SELECTs into operator-DAG plans — hwdb's one executor —
maintains windowed aggregates incrementally between subscription ticks
and shares scans across subscriptions.  See DESIGN.md §12.
"""

from .engine import QueryEngine
from .incremental import NotIncremental, build_incremental
from .plan import Plan, compile_select

__all__ = [
    "QueryEngine",
    "Plan",
    "compile_select",
    "NotIncremental",
    "build_incremental",
]
