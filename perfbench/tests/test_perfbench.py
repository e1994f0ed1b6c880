"""The benchmark's own tests: smoke runs, digests, seeds, self time.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import bench  # noqa: E402
from perfbench.layers import Patcher, SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def run_cli(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_timed_run_reports_every_end_to_end_metric(workload):
    details, result = result_of(
        run_cli("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", "0", "--small")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in END_TO_END}
    for metric in END_TO_END:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    assert len(details["digest"]) == 64
    assert not (ROOT / ".perfbench_tmp").exists() or not any((ROOT / ".perfbench_tmp").iterdir())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_digest_traced_or_untraced(workload):
    timed = bench.timed_run(workload, 11, 0.0, 0.0, ROOT, small=True)
    traced = bench.traced_run(workload, 11, ROOT, small=True)
    assert timed.correct and traced.correct, (timed.details, traced.details)
    assert timed.details["digest"] == traced.details["digest"]
    assert set(traced.metrics) == {m["name"] for m in PER_LAYER}
    for metric in PER_LAYER:
        assert traced.metrics[metric["name"]][1] == metric["unit"]
    assert 0.5 < traced.metrics["trace.coverage"][0] <= 1.01


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seed_gives_different_inputs(workload):
    schedules, digests = [], []
    for seed in (1, 2):
        timed = bench.timed_run(workload, seed, 0.0, 0.0, ROOT, small=True)
        digests.append(timed.details["digest"])
        scratch = bench.Scratch(ROOT, "test")
        instance = WORKLOADS[workload](seed, small=True, scratch=scratch.next())
        try:
            instance.setup()
            schedules.append([(round(s.start, 9), s.expected) for s in instance.sessions.started[:20]])
        finally:
            instance.teardown()
            scratch.cleanup()
    assert schedules[0] != schedules[1]
    assert digests[0] != digests[1]


def test_self_time_arithmetic():
    # Readings in call order: outer start, inner start, leaf start,
    # leaf end, inner end, outer end.
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    leaf = recorder.span("net.leaf", lambda: None)
    inner = recorder.span("openflow.inner", lambda: leaf())
    outer = recorder.span("sim.outer", lambda: inner())
    outer()
    assert recorder.self_s["net.leaf"] == 3.0          # 2..5
    assert recorder.self_s["openflow.inner"] == 2.0    # 1..6 minus leaf
    assert recorder.self_s["sim.outer"] == 5.0         # 0..10 minus inner
    assert sum(recorder.self_s.values()) == 10.0
    assert recorder.layer_self_s() == {"net": 3.0, "openflow": 2.0, "sim": 5.0}
    assert recorder.calls == {"net.leaf": 1, "openflow.inner": 1, "sim.outer": 1}


def test_patcher_reaches_names_bound_at_import_and_restores_them():
    from repro.net import checksum, ipv4, tcp

    original = checksum.internet_checksum
    recorder = SpanRecorder()
    patcher = Patcher(recorder, targets=[("net.checksum", "repro.net.checksum:internet_checksum")])
    patcher.install()
    try:
        assert ipv4.internet_checksum is not original
        assert tcp.internet_checksum is ipv4.internet_checksum
        ipv4.internet_checksum(b"\x01\x02\x03")
        assert recorder.calls["net.checksum"] == 1
        assert recorder.bytes["net.checksum"] == 3
    finally:
        patcher.uninstall()
    assert ipv4.internet_checksum is original and tcp.internet_checksum is original


def test_exits_nonzero_without_the_program():
    scratch = bench.Scratch(ROOT, "bare")
    tmp_path = scratch.next()
    (tmp_path / "perfbench").mkdir(parents=True)
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "household",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    scratch.cleanup()
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
