"""Measurement harness: timed runs, traced runs and their metrics.

A timed run (``--trace 0``) sets the workload up several times, reports
the median set-up time, and then measures the last build for the given
wall seconds; times, read on the CPU clock of :mod:`perfbench.speed`, are
scaled to its reference machine.  A traced run (``--trace 1``) reports the per-layer
breakdown:

1. build the workload untraced and run the checked prefix: untraced
   realtime factor and the reference digest;
2. build it again and run the prefix under cProfile: the attribution
   baseline, self time grouped by layer (:mod:`perfbench.profile_check`);
3. install the span wrappers (:mod:`perfbench.layers`), build it a third
   time and run the prefix traced: per-layer metrics over a fixed amount
   of simulated work, coverage and tracing overhead.

The traced run times everything on the wall clock, as the spans do; timed
runs use :data:`perfbench.speed.CLOCK`.

The traced digest must equal the reference: tracing must not change
behaviour.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .layers import LAYERS, Patcher, SpanRecorder
from .profile_check import calibrate, group_self_time, median_overhead
from .speed import CLOCK, Speedometer
from .workloads import WORKLOADS, Workload

#: Set-ups per timed run; set-up time is their median.
SETUPS = {"household": 3, "flow-churn": 2, "ui-queries": 3}

#: Wall seconds between samples of the instruments' per-call cost during a
#: traced or profiled prefix.
CALIBRATE_EVERY_S = 0.25

#: Largest allowed gap between a layer's traced share and its cProfile
#: share (each a share of the time attributed to layers).
SHARE_TOLERANCE = 0.12


class Result:
    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.details: Dict[str, object] = {}

    def to_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class Scratch:
    """Per-build directories for the durable store, inside the checkout."""

    def __init__(self, root: Path, workload: str):
        self.base = root / ".perfbench_tmp"
        self.prefix = f"{workload}-{id(self)}-{time.time_ns()}"
        self.count = 0

    def next(self) -> Path:
        self.count += 1
        return self.base / f"{self.prefix}-{self.count}"

    def cleanup(self) -> None:
        for index in range(1, self.count + 1):
            shutil.rmtree(self.base / f"{self.prefix}-{index}", ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


def _build(name: str, seed: int, small: bool, scratch: Scratch) -> Tuple[Workload, float, float]:
    """Set a workload up; returns it, its raw set-up seconds and the
    machine-speed scale sampled during the set-up."""
    speed = Speedometer()
    speed.sample(3)
    workload = WORKLOADS[name](seed, small=small, scratch=scratch.next())
    workload.progress = speed.maybe_sample
    spent = speed.spent
    started = CLOCK()
    workload.setup()
    elapsed = CLOCK() - started - (speed.spent - spent)
    speed.sample(3)
    return workload, elapsed, speed.scale()


def _release(workload: Optional[Workload]) -> None:
    if workload is not None:
        workload.teardown()
    gc.collect()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _problems(result: Result, workload: Workload) -> None:
    if workload.problems:
        result.correct = False
        result.details["problems"] = workload.problems[:10]


def timed_run(
    name: str,
    seed: int,
    seconds: float,
    import_s: float,
    root: Path,
    small: bool = False,
) -> Result:
    result = Result()
    scratch = Scratch(root, name)
    workload: Optional[Workload] = None
    try:
        builds: List[float] = []
        scaled_builds: List[float] = []
        for _ in range(SETUPS[name]):
            _release(workload)
            workload, elapsed, scale = _build(name, seed, small, scratch)
            builds.append(elapsed)
            scaled_builds.append(elapsed * scale)
        assert workload is not None
        speed = Speedometer()
        speed.sample(3)
        before = workload.counters()
        steps: List[float] = []  # seconds per step
        started = time.perf_counter()
        while True:
            began = CLOCK()
            excluded = workload.excluded_s
            workload.step()
            # The step on the metrics' clock, without benchmark-only checks.
            steps.append(CLOCK() - began - (workload.excluded_s - excluded))
            speed.maybe_sample()
            wall = time.perf_counter() - started
            if workload.digest is not None and wall >= seconds:
                break
        measured = sum(steps)
        scale = speed.scale()
        after = workload.counters()
        raw = workload.metrics(measured, before, after)
        metrics = workload.metrics(measured, before, after, scale)
        result.attempted, result.failed = workload.outcome()
        _problems(result, workload)
        result.metrics["setup_s"] = (
            import_s * scaled_builds[0] / builds[0] + statistics.median(scaled_builds), "s"
        )
        for metric, value in metrics.items():
            result.metrics[metric] = (value, UNITS[metric])
        result.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        result.details.update(
            workload=name,
            seed=seed,
            digest=workload.digest,
            builds_s=builds,
            measured_wall_s=wall,
            measured_cpu_s=measured,
            steps=workload.steps,
            speed_scale=scale,
            raw_metrics=raw,
        )
        result.details["tail_quantiles"] = workload.quantiles_used
        for metric, value in metrics.items():
            if not value == value or value <= 0:  # NaN or never-zero violated
                result.correct = False
                result.details.setdefault("problems", []).append(f"{metric}={value}")
        return result
    finally:
        _release(workload)
        scratch.cleanup()


UNITS = {
    "realtime_factor": "sim_s/s",
    "pkts_per_s": "1/s",
    "flow_setups_per_s": "1/s",
    "session_sim_ms_p50": "ms",
    "session_sim_ms_p99": "ms",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "write_ms_p50": "ms",
}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _layer_counters(workload: Workload) -> Dict[str, float]:
    router = workload.router
    dp = router.datapath
    registry = router.metrics

    def counter(name: str) -> float:
        instrument = registry.get(name)
        return instrument.value if instrument is not None else 0

    nat = router.router_core.nat
    store = router.store
    return {
        "sim_time": workload.sim.now,
        "events": workload.sim.events_executed,
        "frames": dp.packets_processed,
        "cache_hits": dp.cache_hits,
        "table_hits": dp.table_hits,
        "misses": dp.misses,
        "packet_ins": dp.packet_ins_sent,
        "flow_mods": dp.flow_mods_received,
        "channel_msgs": router.channel.to_controller_count + router.channel.to_switch_count,
        "nat_binds": nat.allocations if nat is not None else 0,
        "measurement_rows": (
            router.flow_collector.rows_written
            + router.link_collector.rows_written
            + router.lease_collector.rows_written
        ),
        "metric_rows": router.metrics_flusher.rows_published,
        "wal_bytes": store.wal.bytes_written if store is not None else 0,
        "plan_hits": counter("query.plan_cache_hit_total"),
        "plan_misses": counter("query.plan_cache_miss_total"),
        "incremental": counter("query.incremental_tick_total"),
        "full": counter("query.full_tick_total"),
        "fallback": counter("query.fallback_total"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(
    rec: SpanRecorder, d: Dict[str, float], peaks: Dict[str, int], scale: float = 1.0
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics; self times scaled to the reference machine."""
    s = defaultdict(float, {k: v * scale for k, v in rec.corrected_self_s().items()})
    c, b, x = rec.calls, rec.bytes, rec.extra
    frames = d["frames"]
    per_pkt = lambda key: _ratio(c[key], frames)  # noqa: E731
    m: Dict[str, Tuple[float, str]] = {
        "net.checksum.calls": (c["net.checksum"], "count"),
        "net.checksum.bytes": (b["net.checksum"], "B"),
        "net.checksum.self_s": (s["net.checksum"], "s"),
        "net.parse.per_pkt": (per_pkt("net.parse"), "1/pkt"),
        "net.parse.self_s": (s["net.parse"], "s"),
        "net.pack.per_pkt": (per_pkt("net.pack"), "1/pkt"),
        "net.pack.self_s": (s["net.pack"], "s"),
        "net.addr.per_pkt": (per_pkt("net.addr"), "1/pkt"),
        "net.addr.self_s": (s["net.addr"], "s"),
        "sim.events": (d["events"], "count"),
        "sim.events_per_pkt": (_ratio(d["events"], frames), "1/pkt"),
        "sim.dispatch.self_s": (s["sim.dispatch"], "s"),
        "sim.queue_peak": (peaks["queue"], "count"),
        "sim.link.self_s": (s["sim.link"], "s"),
        "sim.host.self_s": (s["sim.host"], "s"),
        "openflow.frames": (frames, "count"),
        "openflow.process_frame.self_s": (s["openflow.process_frame"], "s"),
        "openflow.cache_hit_ratio": (
            _ratio(d["cache_hits"], d["cache_hits"] + d["table_hits"] + d["misses"]),
            "ratio",
        ),
        "openflow.packet_ins": (d["packet_ins"], "count"),
        "openflow.flow_mod.calls": (d["flow_mods"], "count"),
        "openflow.flow_mod.self_s": (s["openflow.flow_mod"], "s"),
        "openflow.expire.self_s": (s["openflow.expire"], "s"),
        "openflow.lookup.self_s": (s["openflow.lookup"], "s"),
        "openflow.table_peak": (peaks["table"], "count"),
        "openflow.cache_peak": (peaks["cache"], "count"),
        "openflow.stats_entries": (x["openflow.stats_entries"], "count"),
        "openflow.channel.msgs": (d["channel_msgs"], "count"),
        "nox.receive.calls": (c["nox.receive"], "count"),
        "nox.receive.self_s": (s["nox.receive"], "s"),
        "services.routing.self_s": (s["services.routing"], "s"),
        "services.dns.self_s": (s["services.dns"], "s"),
        "services.dhcp.self_s": (s["services.dhcp"], "s"),
        "services.nat.binds": (d["nat_binds"], "count"),
        "services.control_api.calls": (c["services.control_api"], "count"),
        "services.control_api.self_s": (s["services.control_api"], "s"),
        "policy.self_s": (s["policy"], "s"),
        "hwdb.insert.calls": (c["hwdb.insert"], "count"),
        "hwdb.insert.self_s": (s["hwdb.insert"], "s"),
        "hwdb.query.calls": (c["hwdb.query"], "count"),
        "hwdb.query.self_s": (s["hwdb.query"], "s"),
        "hwdb.rpc.self_s": (s["hwdb.rpc"], "s"),
        "hwdb.rpc.bytes": (b["hwdb.rpc"], "B"),
        "hwdb.sub.fires": (c["hwdb.sub"], "count"),
        "hwdb.sub.self_s": (s["hwdb.sub"], "s"),
        "query.execute.self_s": (s["query.execute"], "s"),
        "query.plan_cache_hit_ratio": (
            _ratio(d["plan_hits"], d["plan_hits"] + d["plan_misses"]), "ratio"
        ),
        "query.incremental_share": (
            _ratio(d["incremental"], d["incremental"] + d["full"] + d["fallback"]), "ratio"
        ),
        "store.append.self_s": (s["store.append"], "s"),
        "store.flush.calls": (c["store.flush"], "count"),
        "store.flush.self_s": (s["store.flush"], "s"),
        "store.wal_bytes": (d["wal_bytes"], "B"),
        "store.scan.self_s": (s["store.scan"], "s"),
        "store.segments_pruned_ratio": (
            _ratio(x["store.segments_pruned"], x["store.segments_total"]), "ratio"
        ),
        "measurement.flow_poll.self_s": (s["measurement.flow_poll"], "s"),
        "measurement.rows": (d["measurement_rows"], "count"),
        "obs.flush.self_s": (s["obs.flush"], "s"),
        "obs.metric_rows": (d["metric_rows"], "count"),
    }
    return m


def _run_prefix(
    workload: Workload,
    peaks: Optional[Dict[str, int]] = None,
    speed: Optional[Speedometer] = None,
    calibrate_now: Optional[Callable[[], None]] = None,
) -> Tuple[float, float]:
    """Run the checked prefix; returns its wall seconds without the speed
    kernel and calibration, and the seconds of those spent in
    benchmark-only checks.  ``calibrate_now`` is called every
    :data:`CALIBRATE_EVERY_S` wall seconds, between steps."""
    excluded0 = workload.excluded_s
    started = time.perf_counter()
    harness_s = 0.0
    due = 0.0
    while workload.digest is None:
        workload.step()
        if speed is not None:
            harness_s += speed.maybe_sample()
        if calibrate_now is not None and time.perf_counter() >= due:
            began = time.perf_counter()
            calibrate_now()
            due = time.perf_counter()
            harness_s += due - began
            due += CALIBRATE_EVERY_S
        if peaks is not None:
            dp = workload.router.datapath
            peaks["queue"] = max(peaks["queue"], len(workload.sim._queue))
            peaks["table"] = max(peaks["table"], len(dp.table))
            peaks["cache"] = max(peaks["cache"], dp.cache_len())
    return time.perf_counter() - started - harness_s, workload.excluded_s - excluded0


def traced_run(name: str, seed: int, root: Path, small: bool = False) -> Result:
    result = Result()
    scratch = Scratch(root, name)
    workload: Optional[Workload] = None
    patcher: Optional[Patcher] = None
    try:
        # 1. untraced reference over the checked prefix
        workload, _, _ = _build(name, seed, small, scratch)
        sim0 = workload.sim.now
        speed = Speedometer(time.perf_counter)
        speed.sample(3)
        wall_u, checks_u = _run_prefix(workload, speed=speed)
        rf_untraced = (workload.sim.now - sim0) / ((wall_u - checks_u) * speed.scale())
        reference_digest = workload.digest
        _release(workload)
        workload = None

        # 2. attribution baseline: cProfile over the same prefix
        workload, _, _ = _build(name, seed, small, scratch)
        profile = cProfile.Profile()
        samples: List[Dict[bool, Tuple[float, float]]] = []

        def calibrate_profiler() -> None:
            profile.disable()
            samples.append(calibrate())
            profile.enable()

        profile.enable()
        _run_prefix(workload, calibrate_now=calibrate_profiler)
        profile.disable()
        grouped = group_self_time(profile, median_overhead(samples))
        profiled_digest = workload.digest
        _release(workload)
        workload = None

        # 3. traced build over the same prefix
        recorder = SpanRecorder()
        patcher = Patcher(recorder)
        traced_cls = WORKLOADS[name]
        patcher.install(extra=[("bench.harness", traced_cls, attr) for attr in traced_cls.traced_callbacks])
        workload, _, _ = _build(name, seed, small, scratch)
        recorder.reset()
        before = _layer_counters(workload)
        peaks = {"queue": 0, "table": 0, "cache": 0}
        sim0 = workload.sim.now
        speed = Speedometer(time.perf_counter)
        speed.sample(3)
        wall_t, checks_t = _run_prefix(workload, peaks, speed, recorder.calibrate)
        scale = speed.scale()
        rf_traced = (workload.sim.now - sim0) / ((wall_t - checks_t) * scale)
        after = _layer_counters(workload)
        delta = {key: after[key] - before[key] for key in after}
        result.metrics.update(_per_layer(recorder, delta, peaks, scale))

        layer_s = recorder.layer_self_s()
        traced_total = sum(layer_s.values())
        traced_share = {layer: layer_s.get(layer, 0.0) / traced_total for layer in LAYERS}
        profile_total = sum(grouped.values())
        profile_share = {layer: grouped.get(layer, 0.0) / profile_total for layer in LAYERS}
        gap = max(abs(traced_share[layer] - profile_share[layer]) for layer in LAYERS)
        result.metrics["trace.coverage"] = (traced_total / (wall_t - recorder.overhead_s()), "ratio")
        result.metrics["trace.overhead"] = (rf_untraced / rf_traced, "ratio")
        result.metrics["trace.cprofile_max_share_gap"] = (gap, "ratio")
        for layer in LAYERS:
            result.metrics[f"share.{layer}"] = (traced_share[layer], "ratio")
            result.metrics[f"cprofile.{layer}"] = (profile_share[layer], "ratio")

        result.attempted, result.failed = workload.outcome()
        _problems(result, workload)
        if not workload.digest == profiled_digest == reference_digest:
            result.correct = False
            result.details.setdefault("problems", []).append("traced or profiled digest differs")
        if gap > SHARE_TOLERANCE:
            result.correct = False
            result.details.setdefault("problems", []).append(
                f"layer shares differ from cProfile by {gap:.3f} > {SHARE_TOLERANCE}"
            )
        result.details.update(
            workload=name,
            seed=seed,
            digest=workload.digest,
            traced_wall_s=wall_t,
            untraced_wall_s=wall_u,
            speed_scale=scale,
            cprofile_other_share=grouped.get("other", 0.0) / profile_total,
            share_tolerance=SHARE_TOLERANCE,
        )
        return result
    finally:
        if patcher is not None:
            patcher.uninstall()
        _release(workload)
        scratch.cleanup()
