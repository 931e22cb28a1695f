"""Workloads, timed passes, answer checks and metrics of the solve benchmark.

``run.py`` imports this module after it has pinned the BLAS thread
count; the self-tests import it directly.  Load is closed-loop with a
single client: one ``dsda.solve_driver`` call at a time from this
process.  ``sda`` runs first on every instance and is the oracle that
each decoupled solve of that instance is checked against.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import scipy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import dsda  # noqa: E402

if not os.path.realpath(dsda.__file__).startswith(os.path.realpath(SRC) + os.sep):
    raise ImportError(f"dsda was imported from {dsda.__file__}, not from {SRC}")

from dsda import SolveConfig, problems, solve_driver  # noqa: E402

import heat  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("steel-care", "wide-kernel", "families")

#: Heat-operator CARE workloads: grid side, inputs m, outputs l.
HEAT = {"steel-care": (37, 7, 6), "wide-kernel": (16, 12, 12)}
FAMILIES_N = 512
SMOKE_GRID = 6
SMOKE_N = 32

#: Workloads whose dsda solve may end on the column budget.  The bases
#: double every step and the package never truncates them, so on the
#: steel-sized instance dsda stops at k = 9 by design.
BUDGET_STOP = ("steel-care",)

#: Largest gap between per-step normalized residuals of dsda and sda,
#: which run the same recursion.
RESIDUAL_GAP = 1e-12
#: Largest relative gap between the converged adda and sda solutions
#: (acceptance criterion 1).
ADDA_REL_GAP = 1e-10

#: Complete set-ups per timed run: this process's and fresh child processes'.
SETUP_REPEATS = 3
MB = 1e6

END_TO_END = {
    "decoupled_solve_s": "s",
    "sda_solve_s": "s",
    "decoupled_peak_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "problems.build_s": "s",
    "mmio.load_s": "s",
    "decoupled.init_s": "s",
    "decoupled.extend_basis_s": "s",
    "decoupled.extend_gram_s": "s",
    "decoupled.step_s": "s",
    "decoupled.eval_s": "s",
    "decoupled.dense_s": "s",
    "matkit.rank_decoupled_s": "s",
    "matkit.rank_sda_s": "s",
    "residuals.residual_decoupled_s": "s",
    "residuals.residual_sda_s": "s",
    "classical.init_s": "s",
    "classical.step_s": "s",
    "driver.self_s": "s",
    "driver.steps": "count",
    "driver.bsep_retries": "count",
    "driver.unconverged": "count",
    "driver.elapsed_ms_coverage": "ratio",
    "decoupled.basis_cols": "count",
    "decoupled.final_rank": "count",
    "decoupled.cols_per_rank": "ratio",
    "decoupled.kernel_mb": "MB",
    "decoupled.extend_gflop": "Gflop",
    "decoupled.gram_gflop": "Gflop",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}

#: Traced layer behind each per-layer metric that needs one; a metric
#: whose layer the package no longer has is reported as absent.
NEEDS_LAYER = {
    "problems.build_s": "problems.build",
    "mmio.load_s": "mmio.load",
    "decoupled.init_s": "decoupled.init",
    "decoupled.extend_basis_s": "decoupled.extend_basis",
    "decoupled.extend_gram_s": "decoupled.extend_gram",
    "decoupled.step_s": "decoupled.step",
    "decoupled.eval_s": "decoupled.eval",
    "decoupled.dense_s": "decoupled.dense",
    "matkit.rank_decoupled_s": "matkit.rank",
    "matkit.rank_sda_s": "matkit.rank",
    "residuals.residual_decoupled_s": "residuals.residual",
    "residuals.residual_sda_s": "residuals.residual",
    "classical.init_s": "classical.init",
    "classical.step_s": "classical.step",
    "decoupled.extend_gflop": "decoupled.extend_basis",
    "decoupled.gram_gflop": "decoupled.extend_gram",
    "decoupled.kernel_mb": "decoupled.step",
}


@dataclass(frozen=True)
class Instance:
    name: str
    problem: object
    methods: tuple[str, ...]    # "sda" first: it is the oracle for the rest


@dataclass
class Op:
    """One ``solve_driver`` call and what the answer check made of it."""

    instance: str
    method: str
    wall: float
    allowed: tuple[str, ...]
    status: str | None = None   # None when the call raised
    error: str | None = None
    residuals: tuple[float, ...] = ()
    ranks: tuple[int, ...] = ()
    basis_cols: int = 0
    elapsed_s: float = 0.0
    final: np.ndarray | None = None
    gap: float | None = None
    wrong: str | None = None
    peak_bytes: int | None = None

    @property
    def failed(self) -> bool:
        return (self.error is not None or self.status not in self.allowed
                or self.wrong is not None)

    def line(self) -> str:
        head = f"  {self.instance}/{self.method:<5} "
        if self.error is not None:
            return head + f"raised {self.error}"
        text = (f"{self.status:<19} k={len(self.residuals):<2} "
                f"cols={self.basis_cols:<5} {self.wall:8.3f} s")
        if self.gap is not None:
            text += f"  gap to sda {self.gap:.1e}"
        if self.peak_bytes is not None:
            text += f"  peak {self.peak_bytes / MB:.1f} MB"
        if self.wrong is not None:
            text += f"  WRONG: {self.wrong}"
        return head + text


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def build_instances(workload: str, seed: int, smoke: bool) -> list[Instance]:
    """The workload's instance set; the same seed gives the same inputs."""
    if workload in HEAT:
        grid, m, l = HEAT[workload]
        if smoke:
            grid = SMOKE_GRID
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            made = heat.write_heat_care(tmp, grid, m, l, seed)
            prob, loaded = heat.load_heat_care(tmp)
        for key, mat in made.items():
            if not np.array_equal(mat, loaded[key]):
                raise RuntimeError(f"{key}.mtx does not reload exactly")
        return [Instance("care", prob, ("sda", "dsda"))]
    n = SMOKE_N if smoke else FAMILIES_N
    return [
        Instance("care", problems.gen_random_care(n, 4, 3, seed), ("sda", "dsda")),
        Instance("dare", problems.gen_random_dare(n, 4, 3, seed), ("sda", "dsda")),
        Instance("mare", problems.gen_random_mare(n, n, 3, 2, seed),
                 ("sda", "dsda", "adda")),
        Instance("bsep", problems.gen_random_bsep(n, 4, seed), ("sda", "dsda")),
    ]


# ---------------------------------------------------------------------------
# Solves and answer checks
# ---------------------------------------------------------------------------

def allowed_statuses(workload: str, method: str) -> tuple[str, ...]:
    if workload in BUDGET_STOP and method == "dsda":
        return ("Converged", "BudgetExceeded")
    return ("Converged",)


def solve(inst: Instance, method: str, workload: str,
          tracer: Tracer | None = None) -> Op:
    cfg = SolveConfig(method=method)
    allowed = allowed_statuses(workload, method)
    started = time.perf_counter()
    try:
        if tracer is None:
            rep = solve_driver(inst.problem, cfg)
        else:
            rep = tracer.solve(solve_driver, inst.name, method, inst.problem, cfg)
    except Exception as exc:    # any raise is a failed operation, not a crash
        return Op(inst.name, method, time.perf_counter() - started, allowed,
                  error=repr(exc))
    wall = time.perf_counter() - started
    recs = rep.iterations
    return Op(inst.name, method, wall, allowed, status=rep.status,
              residuals=tuple(r.residual for r in recs),
              ranks=tuple(r.rank for r in recs),
              basis_cols=recs[-1].basis_cols if recs else 0,
              elapsed_s=sum(r.elapsed_ms for r in recs) / 1000.0,
              final=rep.final_solution)


def check_answer(op: Op, oracle: Op | None) -> None:
    """Set ``op.wrong`` when the answer disagrees with the sda oracle."""
    if op.final is not None and not np.all(np.isfinite(op.final)):
        op.wrong = "final iterate is not finite"
        return
    if op.method == "sda" or op.status is None or oracle is None \
            or oracle.status is None:
        return
    if op.method == "adda":
        # A different recursion: only the converged answers must agree.
        if op.status == oracle.status == "Converged":
            op.gap = (np.linalg.norm(op.final - oracle.final)
                      / np.linalg.norm(oracle.final))
            if not op.gap <= ADDA_REL_GAP:
                op.wrong = f"solution is {op.gap:.1e} from sda (relative)"
        return
    both = min(len(op.residuals), len(oracle.residuals))
    op.gap = max((abs(a - b) for a, b in
                  zip(op.residuals[:both], oracle.residuals[:both])),
                 default=0.0)
    if not op.gap <= RESIDUAL_GAP:
        op.wrong = f"residuals are {op.gap:.1e} from sda"


def run_pass(instances: list[Instance], workload: str,
             tracer: Tracer | None = None) -> list[Op]:
    """Every method on every instance once, each checked against sda."""
    ops = []
    for inst in instances:
        oracle = None
        for method in inst.methods:
            op = solve(inst, method, workload, tracer)
            check_answer(op, oracle)
            if method == "sda":
                oracle = op
            ops.append(op)
    return ops


def peak_pass(instances: list[Instance], workload: str,
              oracles: dict[str, Op]) -> list[Op]:
    """Decoupled solves once more, each under its own tracemalloc peak.

    tracemalloc sees numpy's buffers, but it slows allocation, so this
    pass is never the timed one.
    """
    ops = []
    tracemalloc.start()
    try:
        for inst in instances:
            for method in inst.methods[1:]:
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                op = solve(inst, method, workload)
                op.peak_bytes = tracemalloc.get_traced_memory()[1] - base
                check_answer(op, oracles.get(inst.name))
                ops.append(op)
    finally:
        tracemalloc.stop()
    return ops


def peak_mb(peaks: list[Op]) -> float:
    """Largest peak of the pass in MB.

    Python objects make the raw peak wobble by a few kB between runs;
    to 0.1 MB it repeats exactly.
    """
    return round(max(op.peak_bytes for op in peaks) / MB, 1)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    pkg = os.path.dirname(os.path.abspath(dsda.__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_record(workload: str, seed: int, seconds: int, trace: bool,
               smoke: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "environment": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")
                        or k == "NUMPY_MADVISE_HUGEPAGE"},
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, smoke: bool) -> list[Instance]:
    """Build or load every problem, then an untimed warm-up pass.

    The warm-up runs the workload's smoke-size instances through every
    method it uses, so lazy imports and BLAS start-up are paid here.
    """
    instances = build_instances(workload, seed, smoke)
    run_pass(build_instances(workload, seed, smoke=True), workload)
    return instances


def child_setup_s(workload: str, seed: int, smoke: bool) -> float:
    """One more complete set-up, import included, in a fresh process."""
    code = ("import time; started = time.perf_counter(); import harness; "
            f"harness.setup({workload!r}, {seed}, {smoke}); "
            "print(time.perf_counter() - started)")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def _summary(ops: list[Op], metrics: dict[str, float],
             units: dict[str, str]) -> dict:
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _log_ops(ops: list[Op], log) -> None:
    failed = sum(op.failed for op in ops)
    stops = sum(op.status not in (None, "Converged") and not op.failed
                for op in ops)
    log(f"operations: attempted {len(ops)}, failed {failed}")
    if stops:
        log(f"  {stops} allowed budget stop(s): dsda bases double every "
            "step and are never truncated")


def run_timed(workload: str, seed: int, seconds: int, smoke: bool,
              started: float, log=print) -> dict:
    """End-to-end metrics, measured with tracing off."""
    instances = setup(workload, seed, smoke)
    setups = [time.perf_counter() - started]
    setups += [child_setup_s(workload, seed, smoke)
               for _ in range(SETUP_REPEATS - 1)]
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(run_pass(instances, workload))
    oracles = {op.instance: op for op in passes[0] if op.method == "sda"}
    peaks = peak_pass(instances, workload, oracles)

    log(f"timed passes: {len(passes)} (first shown), then the peak pass")
    for op in passes[0] + peaks:
        log(op.line())
    metrics = {
        "decoupled_solve_s": statistics.median(
            sum(op.wall for op in ops if op.method != "sda") for ops in passes),
        "sda_solve_s": statistics.median(
            sum(op.wall for op in ops if op.method == "sda") for ops in passes),
        "decoupled_peak_mb": peak_mb(peaks),
        "setup_s": statistics.median(setups),
    }
    for name, unit in END_TO_END.items():
        log(f"{name:<20} {metrics[name]:.6g} {unit}")
    ops = [op for ops in passes for op in ops] + peaks
    _log_ops(ops, log)
    return _summary(ops, metrics, END_TO_END)


def layer_metrics(tracer: Tracer, traced: list[Op],
                  untraced: list[Op]) -> dict[str, float | None]:
    """Per-layer self times and counts of one traced pass.

    ``None`` marks a metric whose layer the package no longer has, or
    that no decoupled solve produced.
    """
    out: dict[str, float | None] = {
        k: 0.0 for k in NEEDS_LAYER if k.endswith("_s")}
    out["driver.self_s"] = 0.0
    per_solve = [0.0] * len(tracer.solves)
    init_calls = [0] * len(tracer.solves)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name == "driver":
            key = "driver.self_s"
        elif span.name in ("matkit.rank", "residuals.residual"):
            method = tracer.solves[span.solve].method
            key = f"{span.name}_{'sda' if method == 'sda' else 'decoupled'}_s"
        else:
            key = f"{span.name}_s"
        out[key] += own
        if span.solve is not None:
            per_solve[span.solve] += own
            init_calls[span.solve] += span.name.endswith(".init")

    dec = [(op, info) for op, info in zip(traced, tracer.solves)
           if op.method != "sda"]
    widest = max((op for op, _ in dec if op.ranks and op.ranks[-1]),
                 key=lambda op: op.basis_cols, default=None)
    kernel = [info.kernel_bytes for _, info in dec
              if info.kernel_bytes is not None]
    ratios = [own / op.wall for own, op in zip(per_solve, traced)]
    out.update({
        "driver.steps": sum(len(op.residuals) for op in traced),
        "driver.bsep_retries": sum(calls - 1 for calls, info in
                                   zip(init_calls, tracer.solves)
                                   if info.instance == "bsep"),
        "driver.unconverged": sum(op.status != "Converged" for op in traced),
        "driver.elapsed_ms_coverage": (sum(op.elapsed_s for op in traced)
                                       / sum(op.wall for op in traced)),
        "decoupled.basis_cols": widest and widest.basis_cols,
        "decoupled.final_rank": widest and widest.ranks[-1],
        "decoupled.cols_per_rank": widest and widest.basis_cols / widest.ranks[-1],
        "decoupled.kernel_mb": max(kernel) / MB if kernel else None,
        "decoupled.extend_gflop": sum(i.extend_flop for _, i in dec) / 1e9,
        "decoupled.gram_gflop": sum(i.gram_flop for _, i in dec) / 1e9,
        "trace.overhead_s": (sum(op.wall for op in traced)
                             - sum(op.wall for op in untraced)),
        "trace.accounted_ratio": max(ratios, key=lambda r: abs(r - 1.0)),
    })
    for name, layer in NEEDS_LAYER.items():
        if layer not in tracer.layers or (
                not name.endswith("_s") and layer in tracer.probe_failures):
            out[name] = None
    return out


def run_traced(workload: str, seed: int, smoke: bool, log=print) -> dict:
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    tracer = Tracer()
    with tracer.installed():
        instances = build_instances(workload, seed, smoke)
    run_pass(build_instances(workload, seed, smoke=True), workload)
    untraced = run_pass(instances, workload)
    with tracer.installed():
        traced = run_pass(instances, workload, tracer)

    log("traced pass:")
    for op in traced:
        log(op.line())
    for target in tracer.absent:
        log(f"absent: {target}")
    for layer, error in tracer.probe_failures.items():
        log(f"count probe failed on {layer}: {error}")
    values = layer_metrics(tracer, traced, untraced)
    for name, unit in PER_LAYER.items():
        shown = "absent" if values[name] is None else f"{values[name]:.6g} {unit}"
        log(f"{name:<32} {shown}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"solves": [vars(i) for i in tracer.solves],
                   "spans": tracer.dump()}, fh)
    log(f"spans written to {os.path.relpath(path, ROOT)}")
    ops = untraced + traced
    _log_ops(ops, log)
    metrics = {k: 0.0 if v is None else v for k, v in values.items()}
    return _summary(ops, metrics, PER_LAYER)


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool,
        started: float, log=print) -> dict:
    """One benchmark run; returns the result object run.py prints last.

    ``started`` is when the process started, for the set-up time.
    """
    if trace:
        result = run_traced(workload, seed, smoke, log)
    else:
        result = run_timed(workload, seed, seconds, smoke, started, log)
    log("run record: " + json.dumps(run_record(workload, seed, seconds,
                                                trace, smoke)))
    return result
