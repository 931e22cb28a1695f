"""Evaluation of decoupled iterates in the spans of their bases.

The driver measures every decoupled iterate as ``Q_l core Q_r^T``, with
``Q`` the span its state extends each step: residual, rank and
finiteness come from the core and the factored residuals, also when the
basis has more columns than the iterate's order, and no n x n array is
formed until the report asks for the final solution.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from test_residuals import RANK_ROUTE_CASES
from test_sparse_route import heat_care, heat_dare, heat_mare

from dsda import decoupled, driver
from dsda.decoupled import (
    LowRankSolution,
    bsep_eval_F,
    dsda_eval_H,
    dsda_mare_eval,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
)
from dsda.driver import SolveConfig, solve_driver
from dsda.matkit import EPS
from dsda.problems import (
    BsepProblem,
    CareProblem,
    DareProblem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
)
from dsda.residuals import (
    bsep_increment,
    bsep_increment_factored,
    care_residual,
    care_residual_factored,
    dare_residual,
    dare_residual_factored,
    mare_residual,
    mare_residual_factored,
)
from dsda.validate import chain_basis

#: Largest gap allowed between a factored and a dense residual.
GAP = 1e-12

#: Every decoupled (family, method) pair.
PAIRS = [("care", "dsda"), ("dare", "dsda"), ("mare", "dsda"),
         ("mare", "adda"), ("bsep", "dsda")]

#: Random instance of order n with blocks of width w.
GENERATORS = {
    "care": lambda n, w, seed: gen_random_care(n, w, w, seed),
    "dare": lambda n, w, seed: gen_random_dare(n, w, w, seed),
    "mare": lambda n, w, seed: gen_random_mare(n, n + 4, w, w, seed),
    "bsep": lambda n, w, seed: gen_random_bsep(n, w, seed),
}


def states(p, method, steps=5):
    """The decoupled states of ``p`` after k = 0 ... ``steps`` doublings."""
    if isinstance(p, (CareProblem, DareProblem, BsepProblem)):
        out = [dsda_sym_init(p)]
        step = dsda_sym_step
    else:
        out = [dsda_mare_init(p, mode="adda" if method == "adda" else "sda")]
        step = dsda_mare_step
    for _ in range(steps):
        out.append(step(out[-1]))
    return out


def iterates(p, method, steps=5):
    """Each decoupled iterate of ``p`` (H, or F for bsep) after
    k = 1 ... ``steps`` doublings, paired with the iterate before it."""
    if isinstance(p, BsepProblem):
        evaluate = bsep_eval_F
    elif isinstance(p, (CareProblem, DareProblem)):
        evaluate = dsda_eval_H
    else:
        def evaluate(s):
            return dsda_mare_eval(s)
    sols = [evaluate(s) for s in states(p, method, steps)]
    return list(zip(sols[1:], sols))


def factored_and_dense(p, sol, previous):
    """The driver's measure of ``sol`` from its core and dense."""
    core = sol.core
    if isinstance(p, BsepProblem):
        return (bsep_increment_factored(core, previous.core),
                bsep_increment(sol.dense(), previous.dense()))
    if isinstance(p, CareProblem):
        return (care_residual_factored(p, sol.q_left, core),
                care_residual(p, sol.dense()))
    if isinstance(p, DareProblem):
        return (dare_residual_factored(p, sol.q_left, core),
                dare_residual(p, sol.dense()))
    return (mare_residual_factored(p, sol.q_left, core, sol.q_right),
            mare_residual(p, sol.dense()))


def assert_factored_matches_dense(p, method, steps=5):
    for k, (sol, previous) in enumerate(iterates(p, method, steps), start=1):
        factored, dense = factored_and_dense(p, sol, previous)
        assert abs(factored - dense) <= GAP, (k, factored, dense)


@pytest.mark.parametrize("p,method", [
    pytest.param(gen_random_care(48, 2, 3, 11), "dsda", id="care"),
    pytest.param(gen_random_dare(48, 3, 2, 12), "dsda", id="dare"),
    pytest.param(gen_random_mare(40, 44, 2, 3, 13), "dsda", id="mare-sda"),
    pytest.param(gen_random_mare(40, 44, 2, 3, 13), "adda", id="mare-adda"),
    pytest.param(gen_random_bsep(48, 3, 14), "dsda", id="bsep"),
    # Sparse A (and D), n = 576: k = 1 ... 5 (adda's kernel turns
    # singular at k = 6).
    pytest.param(heat_care(), "dsda", id="care-sparse"),
    pytest.param(heat_dare(), "dsda", id="dare-sparse"),
    pytest.param(heat_mare(), "dsda", id="mare-sda-sparse"),
    pytest.param(heat_mare(), "adda", id="mare-adda-sparse"),
])
def test_factored_residual_matches_dense(p, method):
    assert_factored_matches_dense(p, method)


@pytest.mark.parametrize("family,method", PAIRS)
def test_family_residual_measures_a_lowrank_iterate_by_its_factored_form(
        family, method):
    p = GENERATORS[family](24, 2, 5)
    equation = {"care": care_residual, "dare": dare_residual,
                "mare": mare_residual}.get(family)
    for sol, previous in iterates(p, method, steps=3):
        factored, _ = factored_and_dense(p, sol, previous)
        got = (bsep_increment(sol, previous) if equation is None
               else equation(p, sol))
        assert got == factored
    if equation is not None:
        report = solve_driver(p, SolveConfig(method=method, max_iter=3,
                                             tol=1e-30))
        assert (equation(p, report.final_lowrank)
                == report.iterations[-1].residual)


def test_sparse_cases_take_the_sparse_form():
    assert all(scipy.sparse.issparse(p.a_op)
               for p in (heat_care(), heat_dare(), heat_mare()))
    assert scipy.sparse.issparse(heat_mare().d_op)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), n=st.integers(4, 40),
       width=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_factored_residual_matches_dense_property(pair, n, width, seed):
    family, method = pair
    p = GENERATORS[family](n, width, seed)
    assert_factored_matches_dense(p, method)


def test_bsep_increment_across_nested_bases():
    # A doubling only appends directions to the span, so F_{k-1}'s span
    # is the leading columns of F_k's, bit for bit, and the increment
    # subtracts F_{k-1}'s core from the leading block of F_k's.
    p = gen_random_bsep(40, 2, 3)
    for k, (sol, previous) in enumerate(iterates(p, "dsda"), start=1):
        a = previous.q_left.shape[1]
        assert np.array_equal(sol.q_left[:, :a], previous.q_left), k
        factored = bsep_increment_factored(sol.core, previous.core)
        dense = bsep_increment(sol.dense(), previous.dense())
        assert abs(factored - dense) <= GAP, (k, factored, dense)


def thin_problem(family):
    """An instance of order 64 whose bases grow by width-2 blocks: thin
    (32 columns) at k = 4, twice its order at k = 6."""
    return GENERATORS[family](64, 2, 3)


@pytest.mark.parametrize("family,method", PAIRS)
def test_thin_solve_forms_one_dense_iterate(family, method, monkeypatch):
    formed = []
    measured = []
    dense = LowRankSolution.dense

    def spy(self):
        formed.append(self)
        return dense(self)

    def thin_only(residual):
        def measure(*args):
            if any(isinstance(arg, np.ndarray) for arg in args):
                raise AssertionError("a decoupled step measured a dense "
                                     "iterate")
            measured.append(residual)
            return residual(*args)
        return measure

    monkeypatch.setattr(LowRankSolution, "dense", spy)
    for name in ("care_residual", "dare_residual", "mare_residual",
                 "bsep_increment"):
        monkeypatch.setattr(driver, name, thin_only(getattr(driver, name)))
    report = solve_driver(thin_problem(family),
                          SolveConfig(method=method, max_iter=6, tol=1e-30))
    assert report.status == "MaxIter"
    assert len(measured) == len(report.iterations) == 6
    order = min(report.final_solution.shape)
    cols = [rec.basis_cols for rec in report.iterations]
    assert 2 * cols[3] <= order < cols[-1]
    assert len(formed) == 1 and formed[0] is report.final_lowrank


@pytest.mark.parametrize("spoil", ["nan-entry", "norm-overflow"])
@pytest.mark.parametrize("family,method", PAIRS)
def test_nonfinite_thin_core_ends_singular_keeping_last_good(
        family, method, spoil, monkeypatch):
    p = thin_problem(family)

    def spoiling(evaluate):
        # The evaluator's iterate at k = 3 comes with a spoiled core.
        def spoiled(s, *args, **kwargs):
            sol = evaluate(s, *args, **kwargs)
            if s.k < 3:
                return sol
            core = sol.core.copy()
            if spoil == "nan-entry":
                core[0, -1] = np.nan
            else:
                # Every entry finite, but the norm of the iterate overflows.
                core[...] = np.finfo(float).max
            return dataclasses.replace(sol, core=core)
        return spoiled

    measured = []

    def counted(residual):
        def spy(*args):
            measured.append(residual)
            return residual(*args)
        return spy

    for name in ("dsda_eval_H", "bsep_eval_F", "dsda_mare_eval"):
        monkeypatch.setattr(decoupled, name,
                            spoiling(getattr(decoupled, name)))
    for name in ("care_residual", "dare_residual", "mare_residual",
                 "bsep_increment"):
        monkeypatch.setattr(driver, name, counted(getattr(driver, name)))
    report = solve_driver(p, SolveConfig(method=method, max_iter=6,
                                         tol=1e-30))
    monkeypatch.undo()
    assert report.status == "SingularEncountered"
    assert [rec.k for rec in report.iterations] == [1, 2]
    # The spoiled core is refused before its residual is computed.
    assert len(measured) == 2
    assert np.all(np.isfinite(report.final_solution))
    assert np.array_equal(report.final_solution,
                          report.final_lowrank.dense())
    last = solve_driver(p, SolveConfig(method=method, max_iter=2, tol=1e-30))
    assert np.array_equal(report.final_solution, last.final_solution)


#: One instance of each family whose bases outgrow its order within
#: five doublings, with its decoupled methods.
WIDE_CASES = [pytest.param(p, method, id=f"{family}-{method}")
              for family, p, methods in RANK_ROUTE_CASES
              for method in methods if method != "sda"]


def spans(s):
    """(basis, span) of each evaluated basis of a state."""
    return [(chain_basis(s, name), q) for name, q in s.spans.items()]


@pytest.mark.parametrize("p,method", WIDE_CASES)
def test_span_is_orthonormal_and_holds_its_basis(p, method):
    seq = states(p, method)
    assert all(basis.shape[1] > basis.shape[0] for basis, _ in spans(seq[-1]))
    for s in seq:
        for basis, q in spans(s):
            n, cols = basis.shape
            assert q.shape[1] <= min(n, cols)
            eye = np.eye(q.shape[1])
            assert np.max(np.abs(q.conj().T @ q - eye)) <= n * EPS
            # Each column lies in the span to within the deflation
            # threshold, relative to its own norm.
            outside = np.linalg.norm(basis - q @ (q.conj().T @ basis), axis=0)
            assert np.all(outside <= EPS * n
                          * np.linalg.norm(basis, axis=0))


@pytest.mark.parametrize("p,method", WIDE_CASES)
def test_span_keeps_the_previous_span_as_leading_columns(p, method):
    seq = states(p, method)
    for before, after in zip(seq, seq[1:]):
        for (_, old), (_, new) in zip(spans(before), spans(after)):
            assert np.array_equal(new[:, :old.shape[1]], old)


@pytest.mark.parametrize("p,method", WIDE_CASES)
def test_factored_residual_matches_dense_past_the_order(p, method):
    sol = iterates(p, method)[-1][0]
    assert sol.basis_cols > max(sol.shape)
    assert_factored_matches_dense(p, method)


def test_dare_residual_of_a_huge_psd_iterate_is_finite():
    # I + B B^T H has condition about 4e34 here, which a pivot floor on
    # the n x n matrix rejects; the m x m Woodbury matrix I + B^T H B is
    # nonsingular for any psd H, and both forms solve only with it.
    e_2 = np.zeros((16, 1))
    e_2[1] = 1.0
    p = DareProblem(np.diag([1e20] + [0.5] * 15), e_2, np.ones((1, 16)))
    ((sol, previous),) = iterates(p, "dsda", steps=1)
    factored, dense = factored_and_dense(p, sol, previous)
    assert np.isfinite(dense)
    assert abs(factored - dense) <= GAP
