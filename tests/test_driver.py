"""The solve driver's (family, method) table: the BSEP shift retry and
the failure contract on scaled random instances."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsda import classical, decoupled
from dsda.decoupled import bsep_eigen_extract
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
)

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
