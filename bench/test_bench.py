"""Self-tests of the solve benchmark on smoke-size instances."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import harness
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Per-layer metrics that are computed, not timed, and must repeat exactly.
COUNTS = ("driver.steps", "driver.bsep_retries", "driver.unconverged",
          "decoupled.basis_cols", "decoupled.final_rank",
          "decoupled.cols_per_rank", "decoupled.kernel_mb",
          "decoupled.extend_gflop", "decoupled.gram_gflop")


def _quiet(line):
    pass


def _traced(workload):
    return harness.run(workload, 5, 0, True, True, time.perf_counter(),
                       log=_quiet)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}, spec


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = _traced(workload), _traced(workload)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    instances = harness.build_instances(workload, 5, smoke=True)
    peaks = [harness.peak_mb(harness.peak_pass(instances, workload, {}))
             for _ in range(2)]
    assert peaks[0] == peaks[1]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_self_times_add_up_to_each_solve(workload):
    tracer = tracing.Tracer()
    instances = harness.build_instances(workload, 5, smoke=True)
    with tracer.installed():
        traced = harness.run_pass(instances, workload, tracer)
    owned = [0.0] * len(traced)
    for span, own in zip(tracer.spans, tracer.self_times()):
        owned[span.solve] += own
    for own, op in zip(owned, traced):
        assert own == pytest.approx(op.wall, rel=0.05), op.line()


def test_removed_helper_reports_absent(monkeypatch):
    gone = tuple((mod, "_gone_helper" if path == "_extend_gram" else path,
                  layer) for mod, path, layer in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", gone)
    lines = []
    result = harness.run("families", 5, 0, True, True, time.perf_counter(),
                         log=lines.append)
    assert "absent: dsda.decoupled._gone_helper" in lines
    assert any(line.split() == ["decoupled.gram_gflop", "absent"]
               for line in lines)
    assert result["metrics"]["decoupled.extend_gram_s"]["value"] == 0.0
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    declared, spec = _declared()
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared[trace]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert any(line.startswith(name + " ") for line in lines[:-1]), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "families", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
