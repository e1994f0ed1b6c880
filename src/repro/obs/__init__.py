"""obs — the router-wide telemetry subsystem.

Counters, gauges and fixed-bucket latency histograms in a
:class:`MetricsRegistry`; a :class:`MetricsFlusher` that dogfoods export
by publishing snapshots into the hwdb ``Metrics`` stream table; and the
packet-lineage :class:`Tracer`, the one tracing API.  See DESIGN.md §8
and §16.
"""

from .flush import METRICS_TABLE, MetricsFlusher
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from .trace import TRACES_TABLE, Tracer, render_context, render_lineage

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_TABLE",
    "MetricsFlusher",
    "MetricsRegistry",
    "REGISTRY",
    "TRACES_TABLE",
    "Tracer",
    "render_context",
    "render_lineage",
]
