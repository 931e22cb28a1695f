"""Evaluation of thin decoupled iterates from their compact form.

While a decoupled iterate's basis is at most half its order, the
driver measures it as ``Q_l core Q_r^T``: residual, rank and finiteness
come from the core and the factored residuals, and no n x n array is
formed until the report asks for the final solution.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sparse_route import heat_care, heat_dare, heat_mare

from dsda import driver
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


def thin_iterates(p, method, steps=5):
    """Each thin decoupled iterate of ``p`` (H, or F for bsep) after
    k = 1 ... ``steps`` doublings, paired with the iterate before it."""
    if isinstance(p, (CareProblem, DareProblem, BsepProblem)):
        s = dsda_sym_init(p)
        step = dsda_sym_step
        evaluate = bsep_eval_F if isinstance(p, BsepProblem) else dsda_eval_H
    else:
        s = dsda_mare_init(p, mode="adda" if method == "adda" else "sda")
        step = dsda_mare_step

        def evaluate(s):
            return dsda_mare_eval(s, "H")
    out, previous = [], evaluate(s)
    for _ in range(steps):
        s = step(s)
        sol = evaluate(s)
        if not sol.thin:
            break
        out.append((sol, previous))
        previous = sol
    return out


def factored_and_dense(p, sol, previous):
    """The driver's measure of ``sol`` from its compact form and dense."""
    form = sol.compact()
    if isinstance(p, BsepProblem):
        return (bsep_increment_factored(form.core, form.nested_core(previous)),
                bsep_increment(sol.dense(), previous.dense()))
    if isinstance(p, CareProblem):
        return (care_residual_factored(p, form.q_left, form.core),
                care_residual(p, sol.dense()))
    if isinstance(p, DareProblem):
        return (dare_residual_factored(p, form.q_left, form.core),
                dare_residual(p, sol.dense()))
    return (mare_residual_factored(p, form.q_left, form.core, form.q_right),
            mare_residual(p, sol.dense()))


def assert_factored_matches_dense(p, method, min_steps):
    iterates = thin_iterates(p, method)
    assert len(iterates) >= min_steps
    for k, (sol, previous) in enumerate(iterates, start=1):
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
    assert_factored_matches_dense(p, method, min_steps=3)


def test_sparse_cases_take_the_sparse_form():
    assert all(p.a_sparse is not None
               for p in (heat_care(), heat_dare(), heat_mare()))
    assert heat_mare().d_sparse is not None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), n=st.integers(4, 40),
       width=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_factored_residual_matches_dense_property(pair, n, width, seed):
    family, method = pair
    p = GENERATORS[family](n, width, seed)
    assert_factored_matches_dense(p, method, min_steps=0)


def test_bsep_increment_across_nested_bases():
    # F_{k-1} lives on the leading columns of F_k's basis; written in
    # F_k's Q, its core is the leading block.
    p = gen_random_bsep(40, 2, 3)
    for sol, previous in thin_iterates(p, "dsda"):
        form = sol.compact()
        inner = form.nested_core(previous)
        a = previous.basis_cols
        q = form.q_left[:, :a]
        rebuilt = q @ inner @ q.T
        want = previous.dense()
        assert np.max(np.abs(rebuilt - want)) <= GAP * np.abs(want).max()


def thin_problem(family):
    """An instance whose first four doublings stay thin (32 of 64)."""
    return GENERATORS[family](64, 2, 3)


@pytest.mark.parametrize("family,method", PAIRS)
def test_thin_solve_forms_one_dense_iterate(family, method, monkeypatch):
    formed = []
    dense = LowRankSolution.dense

    def spy(self):
        formed.append(self)
        return dense(self)

    def refuse(*args, **kwargs):
        raise AssertionError("a thin step called a dense residual")

    monkeypatch.setattr(LowRankSolution, "dense", spy)
    for name in ("care_residual", "dare_residual", "mare_residual",
                 "bsep_increment"):
        monkeypatch.setattr(driver, name, refuse)
    report = solve_driver(thin_problem(family),
                          SolveConfig(method=method, max_iter=4, tol=1e-30))
    assert report.status == "MaxIter"
    order = min(report.final_solution.shape)
    assert all(2 * rec.basis_cols <= order for rec in report.iterations)
    assert len(formed) == 1 and formed[0] is report.final_lowrank


@pytest.mark.parametrize("spoil", ["nan-entry", "norm-overflow"])
@pytest.mark.parametrize("family,method", PAIRS)
def test_nonfinite_thin_core_ends_singular_keeping_last_good(
        family, method, spoil, monkeypatch):
    p = thin_problem(family)
    compact = LowRankSolution.compact
    calls = []

    def spoiled(self):
        form = compact(self)
        calls.append(self)
        if len(calls) < 3:
            return form
        core = form.core.copy()
        if spoil == "nan-entry":
            core[0, -1] = np.nan
        else:
            # Every entry finite, but the norm of the iterate overflows.
            core[...] = np.finfo(float).max
        return dataclasses.replace(form, core=core)

    measured = []

    def counted(residual):
        def spy(*args):
            measured.append(residual)
            return residual(*args)
        return spy

    monkeypatch.setattr(LowRankSolution, "compact", spoiled)
    for name in ("care_residual_factored", "dare_residual_factored",
                 "mare_residual_factored", "bsep_increment_factored"):
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
