"""The solve driver's (family, method) table: the BSEP shift retry, the
DEBUG kernel pivot line, the kernel memory cap, a non-finite kernel
generator and the failure contract on scaled random instances."""

import dataclasses
import logging
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsda import classical, decoupled
from dsda.driver import (
    BSEP_SHIFT_RETRIES,
    METHODS,
    STATUSES,
    SolveConfig,
    solve_driver,
)
from dsda.errors import SingularMatrixError
from dsda.problems import (
    FAMILY_MATRIX_KEYS,
    BsepProblem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
    gen_scalar_suite,
)
from dsda.validate import bsep_eigen_extract

#: alpha I - A is exactly zero, so the first start is singular.
RETRY_BSEP = BsepProblem([[2.0]], [[1.0]], alpha=2.0)

#: Where each method starts a Bethe-Salpeter run.
BSEP_INITS = [(classical, "bsep_init", "sda"),
              (decoupled, "dsda_sym_init", "dsda")]


@pytest.mark.parametrize("module,name,method", BSEP_INITS)
def test_bsep_singular_start_doubles_alpha(module, name, method,
                                           monkeypatch):
    init = getattr(module, name)
    alphas = []

    def spy(p):
        alphas.append(p.alpha)
        return init(p)

    monkeypatch.setattr(module, name, spy)
    report = solve_driver(RETRY_BSEP, SolveConfig(method=method))
    assert alphas == [2.0, 4.0]
    if method == "sda":
        assert report.status == "Converged"
        eigs = bsep_eigen_extract(report.final_solution, RETRY_BSEP.a,
                                  RETRY_BSEP.b_dense())
        assert abs(eigs[0].real + math.sqrt(3.0)) <= 1e-10


@pytest.mark.parametrize("module,name,method", BSEP_INITS)
def test_bsep_start_gives_up_after_the_retries(module, name, method,
                                               monkeypatch):
    alphas = []

    def singular(p):
        alphas.append(p.alpha)
        raise SingularMatrixError("always singular")

    monkeypatch.setattr(module, name, singular)
    report = solve_driver(gen_random_bsep(4, 2, 0),
                          SolveConfig(method=method))
    assert alphas == [2.0 ** i for i in range(BSEP_SHIFT_RETRIES + 1)]
    assert report.status == "SingularEncountered"
    assert report.iterations == () and report.final_solution is None


# -- the failure contract on scaled random instances -----------------------

PAIRS = [(family, method) for family in FAMILY_MATRIX_KEYS
         for method in METHODS if method != "adda" or family == "mare"]


#: Random instance of order n with blocks of width w <= n.
GENERATORS = {
    "care": lambda n, w, seed: gen_random_care(n, w, w, seed),
    "dare": lambda n, w, seed: gen_random_dare(n, w, w, seed),
    "mare": lambda n, w, seed: gen_random_mare(n, n, w, w, seed),
    "bsep": lambda n, w, seed: gen_random_bsep(n, w, seed),
}


#: MARE factors of full column rank, a duplicated first column of B_l
#: (B_r gains a zero column, so B is unchanged), or an all-zero B_l.
MARE_FACTORS = {
    "full": lambda p: p,
    "duplicate": lambda p: dataclasses.replace(
        p, b_l=np.hstack([p.b_l, p.b_l[:, :1]]),
        b_r=np.hstack([p.b_r, np.zeros((p.n, 1))])),
    "zero": lambda p: dataclasses.replace(p, b_l=np.zeros_like(p.b_l)),
}


@pytest.mark.parametrize("family,method", PAIRS)
def test_init_ms_and_records_fit_in_the_wall_time(family, method):
    p = GENERATORS[family](24, 2, 3)
    started = time.perf_counter()
    report = solve_driver(p, SolveConfig(method=method))
    wall_ms = (time.perf_counter() - started) * 1000.0
    assert report.iterations
    assert report.init_ms > 0.0 and report.final_ms > 0.0
    for rec in report.iterations:
        phases = (rec.step_ms, rec.eval_ms, rec.measure_ms)
        assert min(phases) >= 0.0
        assert rec.elapsed_ms == sum(phases)
    assert (report.init_ms + sum(rec.elapsed_ms for rec in report.iterations)
            + report.final_ms) <= wall_ms


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), n=st.integers(1, 6),
       width=st.integers(1, 2), seed=st.integers(0, 2 ** 16),
       exponent=st.integers(-300, 300), max_iter=st.integers(1, 12),
       column_budget=st.integers(1, 256),
       factors=st.sampled_from(tuple(MARE_FACTORS)))
def test_every_run_ends_in_a_status(pair, n, width, seed, exponent, max_iter,
                                    column_budget, factors):
    # Every entry scaled by 10^exponent: the extremes overflow or
    # underflow inside the recursions, which must end the run, not
    # raise.  Equal sda and dsda status is not part of the contract:
    # the scalar BSEP converges under sda but turns singular under dsda.
    family, method = pair
    p = GENERATORS[family](n, min(width, n), seed)
    if family == "mare":
        p = MARE_FACTORS[factors](p)
    scale = 10.0 ** exponent
    with np.errstate(all="ignore"):
        p = dataclasses.replace(p, **{
            key.lower(): scale * getattr(p, key.lower())
            for key in FAMILY_MATRIX_KEYS[family]})
        report = solve_driver(p, SolveConfig(
            method=method, max_iter=max_iter, column_budget=column_budget))
    assert report.status in STATUSES
    assert all(math.isfinite(rec.residual) and rec.residual >= 0.0
               for rec in report.iterations)
    if report.final_solution is not None:
        assert np.all(np.isfinite(report.final_solution))
        if method != "sda":
            assert np.array_equal(report.final_lowrank.dense(),
                                  report.final_solution)


def _measured(report):
    return [(rec.k, rec.residual, rec.rank, rec.basis_cols)
            for rec in report.iterations]


def _pivot_lines(caplog):
    """The (k, lo, hi) of each kernel pivot line logged."""
    return [rec.args for rec in caplog.records if "kernel pivots" in rec.msg]


@pytest.mark.parametrize("family,method", PAIRS)
def test_debug_logs_the_kernel_pivots_of_every_decoupled_run(
        family, method, caplog):
    # One line per record for a dsda or adda run, and one more for the
    # Bethe-Salpeter F_0 at k = 0; none for sda, which factors no
    # kernel.  The records are those of a run without DEBUG.
    p = GENERATORS[family](24, 2, 3)
    cfg = SolveConfig(method=method)
    plain = solve_driver(p, cfg)
    with caplog.at_level(logging.DEBUG, logger="dsda.decoupled"):
        report = solve_driver(p, cfg)
    lines = _pivot_lines(caplog)
    assert _measured(report) == _measured(plain)
    assert report.status == plain.status
    if method == "sda":
        assert lines == []
        return
    ks = [rec.k for rec in report.iterations]
    assert [k for k, _, _ in lines] == ([0] + ks if family == "bsep" else ks)
    for _, lo, hi in lines:
        assert 0.0 < lo <= hi
        if family in ("care", "dare"):
            # K = I + Y^T Y >= I makes every Schur complement >= I, so
            # every pivot of its Cholesky factor is at least one.
            assert lo >= 1.0 - 1e-12


def test_debug_diagnostic_over_the_kernel_cap_leaves_the_run_as_it_is(
        monkeypatch, caplog):
    # A CARE or DARE run never forms its kernel I + Y^T Y, and the DEBUG
    # line reads the factor the evaluation forms, so DEBUG builds no
    # kernel either.  n = 16, l = 3: from k = 3 the kernel would be
    # 24 x 24 or larger, over the lowered cap; every step still logs its
    # line and the run goes on exactly as without DEBUG.
    monkeypatch.setattr(decoupled, "KERNEL_MAX_BYTES", 8 * 24 ** 2 - 1)
    kernel = decoupled._hankel_kernel
    built = []

    def spy(*args, **kwargs):
        built.append(args[0].shape)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(decoupled, "_hankel_kernel", spy)
    cfg = SolveConfig(tol=1e-30, max_iter=6)
    for p in (gen_random_care(16, 2, 3, 3), gen_random_dare(16, 2, 3, 3)):
        plain = solve_driver(p, cfg)
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            report = solve_driver(p, cfg)
        assert built == []
        assert plain.status == report.status == "MaxIter"
        assert _measured(report) == _measured(plain)
        assert [k for k, _, _ in _pivot_lines(caplog)] == [1, 2, 3, 4, 5, 6]


def test_a_kernel_over_the_memory_cap_ends_budget_exceeded(monkeypatch):
    # A MARE kernel is built (the SPD kernels of CARE and DARE never
    # are).  n = 16, m1 = 3: the k = 3 kernel I - Y Z is 24 x 24, one
    # byte over the lowered cap; the last good iterate is the k = 2 one.
    p = gen_random_mare(16, 16, 3, 3, 3)
    cfg = SolveConfig(tol=1e-30, max_iter=6)
    monkeypatch.setattr(decoupled, "KERNEL_MAX_BYTES", 8 * 24 ** 2 - 1)
    report = solve_driver(p, cfg)
    monkeypatch.undo()
    assert report.status == "BudgetExceeded"
    assert [rec.k for rec in report.iterations] == [1, 2]
    last = solve_driver(p, dataclasses.replace(cfg, max_iter=2))
    assert last.status == "MaxIter"
    assert _measured(report) == _measured(last)
    assert np.array_equal(report.final_solution, last.final_solution)


def test_a_non_finite_moment_ends_singular_without_a_warning(monkeypatch):
    # One NaN moment from k = 3 on: the generator of the k = 3 kernel is
    # refused before its Schur steps, so no warning is raised and the
    # last good iterate is the k = 2 one.
    p = gen_random_care(16, 2, 3, 3)
    cfg = SolveConfig(tol=1e-30, max_iter=6)
    step = decoupled.dsda_sym_step

    def spoil(s, **kwargs):
        s = step(s, **kwargs)
        if s.k < 3:
            return s
        moments = s.moments["Y"].copy()
        moments[0, 0, 0] = np.nan
        return dataclasses.replace(s, moments={**s.moments, "Y": moments})

    monkeypatch.setattr(decoupled, "dsda_sym_step", spoil)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_driver(p, cfg)
    monkeypatch.undo()
    assert report.status == "SingularEncountered"
    assert [rec.k for rec in report.iterations] == [1, 2]
    last = solve_driver(p, dataclasses.replace(cfg, max_iter=2))
    assert _measured(report) == _measured(last)
    assert np.array_equal(report.final_solution, last.final_solution)


@pytest.mark.xfail(strict=True, reason=(
    "dsda ends SingularEncountered after 4 steps: the pivot test rejects "
    "a 32 x 32 kernel of condition 7e29 whose F is accurate to 1e-13"))
def test_scalar_bsep_status_matches_the_oracle():
    p, _ = gen_scalar_suite()[3]
    oracle = solve_driver(p, SolveConfig(method="sda"))
    assert oracle.status == "Converged" and len(oracle.iterations) == 6
    report = solve_driver(p, SolveConfig(method="dsda"))
    assert report.status == oracle.status
