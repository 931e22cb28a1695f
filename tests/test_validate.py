"""The dense evaluations live apart from the solver.

``dsda.validate`` forms dense iterates, propagator powers and assembled
Hankel matrices to check a decoupled state against the classical
recursions.  No solve may reach it: a solve whose every call into it
raises returns what an untouched solve returns, ``dsda.decoupled``
holds nothing of it, and the package still exports every name it
exported when these evaluations lived in ``dsda.decoupled``.  The other
way round, every function of ``dsda.decoupled`` is reached by some
solve: what only a check calls lives here.
"""

import inspect
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from test_sparse_route import WIND, factors

import dsda
from dsda import decoupled, driver, validate
from dsda.driver import SolveConfig, solve_driver
from dsda.problems import BsepProblem, CareProblem, DareProblem, MareProblem

#: Orders of the one-dimensional operators below: three nonzeros a row
#: put the smaller on the dense route and the larger (0.9 % nonzero) on
#: the sparse one.
DENSE_N, SPARSE_N = 48, 320
#: Doublings per solve on the sparse route, where the dense oracle's
#: n = 320 steps would take most of the test's time.
SPARSE_STEPS = 4


def line(n: int, wind: float = 0.0) -> np.ndarray:
    """Dense tridiagonal heat operator, its symmetric part's eigenvalues
    in [-48.2, -0.2]; ``wind`` adds a transport term as in
    ``test_sparse_route.heat``."""
    return (sp.diags([12.0, -24.2, 12.0], [-1, 0, 1], shape=(n, n))
            + wind * sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n))).toarray()


def cases(n: int):
    """(family, problem, methods) of order n: every pair of the driver's
    table, on the instances of ``test_sparse_route`` with ``line`` for
    the five-point operator."""
    a = line(n, WIND)
    b, c = factors(n, 2, 2, seed=1)
    yield "care", CareProblem(a, b, c.T, gamma=1.0), ("sda", "dsda")
    b, c = factors(n, 2, 2, seed=2)
    yield "dare", DareProblem(0.01 * a, b, c.T), ("sda", "dsda")
    b_l, b_r, c_l, c_r = factors(n, 2, 2, 1, 1, seed=3)
    yield ("mare", MareProblem(-a, -2.0 * a, b_l, b_r, c_l, c_r),
           ("sda", "dsda", "adda"))
    (l_b,) = factors(n, 2, seed=4, complex_=True)
    yield ("bsep", BsepProblem(line(n).astype(complex), l_b, alpha=2.0),
           ("sda", "dsda"))


ROUTES = [("dense", family, p, methods, SolveConfig().max_iter)
          for family, p, methods in cases(DENSE_N)]
ROUTES += [("sparse", family, p, methods, SPARSE_STEPS)
           for family, p, methods in cases(SPARSE_N)]

#: The package's exports while the dense evaluations were in
#: ``dsda.decoupled``; each must still resolve from ``dsda``.
EARLIER_EXPORTS = (
    "BsepProblem", "BsepSdaState", "BudgetExceededError", "CareProblem",
    "ConfigError", "ConvergenceReport", "DEFAULT_COLUMN_BUDGET",
    "DareProblem", "DimensionMismatchError", "DsdaMareState", "DsdaSymState",
    "InvalidShiftError", "IterationRecord", "LowRankSolution", "MareProblem",
    "MareSdaState", "ParseError", "SingularMatrixError", "SolveConfig",
    "SolverError", "SymSdaState", "UnsupportedFieldError", "assemble_problem",
    "bsep_eigen_extract", "bsep_eval_F", "bsep_increment", "bsep_init",
    "bsep_sda_step", "care_init", "care_residual", "dare_init",
    "dare_residual", "dsda_assemble", "dsda_eval_A", "dsda_eval_G",
    "dsda_eval_H", "dsda_mare_eval", "dsda_mare_init", "dsda_mare_step",
    "dsda_sym_init", "dsda_sym_step", "family_of", "frobenius_norm",
    "gen_random_bsep", "gen_random_care", "gen_random_dare",
    "gen_random_mare", "gen_scalar_suite", "load_matrix_market", "mare_init",
    "mare_residual", "mare_sda_step", "numerical_rank",
    "reduce_control_weight", "save_matrix_market", "solve_driver",
    "solve_general", "subspace_angle", "sym_sda_step",
)


def _own_functions(module):
    """Names of the functions defined in ``module`` (not imported)."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__]


def _answer(problem, method, max_iter):
    """Everything a solve returns but its timings."""
    rep = solve_driver(problem, SolveConfig(method=method, max_iter=max_iter))
    return (rep.status,
            [(r.k, r.residual, r.rank, r.basis_cols) for r in rep.iterations],
            rep.final_solution)


@pytest.mark.parametrize("route,family,problem,methods,max_iter", ROUTES,
                         ids=[f"{route}-{family}"
                              for route, family, *_ in ROUTES])
def test_no_solve_calls_validate(route, family, problem, methods, max_iter,
                                 monkeypatch):
    assert sp.issparse(problem.a_op) == (route == "sparse")
    want = {m: _answer(problem, m, max_iter) for m in methods}

    def refuse(*args, **kwargs):
        raise AssertionError("a solve called into dsda.validate")

    names = _own_functions(validate)
    assert {"dsda_assemble", "dsda_eval_A", "dsda_mare_dense"} <= set(names)
    for name in names:
        monkeypatch.setattr(validate, name, refuse)
    for m in methods:
        status, records, final = _answer(problem, m, max_iter)
        assert (status, records) == want[m][:2], m
        assert np.array_equal(final, want[m][2]), m


def test_every_solver_function_is_reached_by_some_solve():
    # Counted per function object, so that an alias (one step serves
    # every family under three names) counts once.
    functions = {getattr(decoupled, name)
                 for name in _own_functions(decoupled)}
    called = set()

    def trace(frame, _event, _arg):
        # Called on entry to each Python frame; None traces no lines.
        called.add(frame.f_code)

    earlier = sys.gettrace()
    sys.settrace(trace)
    try:
        for _, _, problem, methods, max_iter in ROUTES:
            for m in methods:
                solve_driver(problem, SolveConfig(method=m, max_iter=max_iter))
    finally:
        sys.settrace(earlier)
    missed = sorted(f.__name__ for f in functions if f.__code__ not in called)
    assert missed == []


@pytest.mark.parametrize("module", [decoupled, driver])
def test_solver_holds_nothing_of_validate(module):
    held = [name for name, obj in vars(module).items()
            if obj is validate
            or getattr(obj, "__module__", None) == validate.__name__]
    assert held == []
    assert not hasattr(module, "DENSE_EVAL_MAX_DIM")


def test_exports_resolve_once_and_keep_every_earlier_name():
    assert len(dsda.__all__) == len(set(dsda.__all__))
    for name in dsda.__all__:
        assert hasattr(dsda, name), name
    assert set(EARLIER_EXPORTS) <= set(dsda.__all__)
    assert dsda.dsda_mare_dense is validate.dsda_mare_dense
