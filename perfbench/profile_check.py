"""The attribution baseline: cProfile self time grouped by layer.

A function defined under ``src/repro/<package>/`` belongs to that
package's layer, one under ``perfbench/`` to ``bench``.  Time in the
standard library and in builtins is charged to the repro or benchmark
function that called it, following cProfile's per-caller split, so the
grouping compares like for like with the span wrappers, which charge
such time to the span that was open.

cProfile adds a fixed cost to every call it records, part inside the
callee's self time and part inside the caller's.  Both parts are measured
on a no-op (:func:`calibrate`), sampled throughout the profiled run
because the machine's speed drifts, and their medians
(:func:`median_overhead`) are taken off per call, as the span wrappers'
own cost is; otherwise layers made of many tiny calls (address
construction, expression evaluation) would look larger than they are.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .layers import call_cost

_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_MARK = os.sep + "perfbench" + os.sep


def _own_group(filename: str) -> Optional[str]:
    if _SRC_MARK in filename:
        package = filename.split(_SRC_MARK, 1)[1].split(os.sep, 1)[0]
        return "other" if package.endswith(".py") else package
    if _BENCH_MARK in filename:
        return "bench"
    return None


def _is_builtin(func) -> bool:
    return func[0] == "~"


def calibrate(calls: int = 4000, rounds: int = 2) -> Dict[bool, Tuple[float, float]]:
    """cProfile's per-call cost ``(inside the callee, inside the caller)``,
    for Python functions (key ``False``) and builtins (key ``True``).
    Call it while no other profiler is enabled."""
    probe = 1

    def noop(_a, _b) -> None:
        return None

    def loop() -> None:
        for _ in range(calls):
            noop(1, 2)

    def builtin_loop() -> None:
        for _ in range(calls):
            isinstance(probe, int)

    def builtin_cost() -> Tuple[float, float]:
        started = time.perf_counter()
        builtin_loop()
        looped = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            pass
        bare = time.perf_counter() - started
        return (looped - bare) / calls, bare

    best = {key: float("inf") for key in ("true", "in", "caller", "b_true", "b_in", "b_caller")}
    for _ in range(rounds):  # minima: noise only adds
        per_call, bare = call_cost(noop, calls, time.perf_counter)
        b_call, b_bare = builtin_cost()
        profile = cProfile.Profile()
        profile.enable()
        loop()
        builtin_loop()
        profile.disable()
        tt = {func[2]: entry[2] for func, entry in pstats.Stats(profile).stats.items()}
        for key, value in (
            ("true", per_call), ("in", tt["noop"] / calls),
            ("caller", (tt["loop"] - bare) / calls),
            ("b_true", b_call), ("b_in", tt["<built-in method builtins.isinstance>"] / calls),
            ("b_caller", (tt["builtin_loop"] - b_bare) / calls),
        ):
            best[key] = min(best[key], value)
    # A Python call's own cost belongs to its caller; a builtin's to itself.
    return {
        False: (max(0.0, best["in"]), max(0.0, best["caller"] - best["true"])),
        True: (max(0.0, best["b_in"] - best["b_true"]), max(0.0, best["b_caller"])),
    }


def median_overhead(
    samples: List[Dict[bool, Tuple[float, float]]]
) -> Dict[bool, Tuple[float, float]]:
    """Per-component medians of :func:`calibrate` samples."""
    return {
        key: (
            statistics.median(sample[key][0] for sample in samples),
            statistics.median(sample[key][1] for sample in samples),
        )
        for key in (False, True)
    }


def group_self_time(
    profile: cProfile.Profile, overhead: Dict[bool, Tuple[float, float]]
) -> Dict[str, float]:
    """Self seconds per layer, stdlib/builtin time charged to callers,
    with ``overhead`` (from :func:`calibrate`) taken off every call."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    caller_cost: Dict[tuple, float] = defaultdict(float)
    for func, entry in stats.items():
        outside = overhead[_is_builtin(func)][1]
        for caller, edge in entry[4].items():
            caller_cost[caller] += outside * edge[1]

    def own_time(func, entry) -> float:
        inside = overhead[_is_builtin(func)][0]
        return max(0.0, entry[2] - inside * entry[1] - caller_cost[func])

    def edge_time(func, edge) -> float:
        return max(0.0, edge[2] - overhead[_is_builtin(func)][0] * edge[1])

    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, depth: int = 0) -> Dict[str, float]:
        """How one second of ``func``'s self time splits over groups."""
        group = _own_group(func[0])
        if group is not None:
            return {group: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        total = sum(edge_time(func, edge) for edge in callers.values())
        if depth > 8 or total <= 0:
            return memo[func]
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            weight = edge_time(func, edge) / total
            for g, share in shares(caller, depth + 1).items():
                out[g] += weight * share
        memo[func] = dict(out)
        return memo[func]

    grouped: Dict[str, float] = defaultdict(float)
    for func, entry in stats.items():
        seconds = own_time(func, entry)
        group = _own_group(func[0])
        if group is not None:
            grouped[group] += seconds
            continue
        # Split by the callers' portions of this function's self time.
        total = sum(edge_time(func, edge) for edge in entry[4].values())
        if total <= 0:
            grouped["other"] += seconds
            continue
        for caller, edge in entry[4].items():
            for g, share in shares(caller).items():
                grouped[g] += seconds * edge_time(func, edge) / total * share
    return dict(grouped)
