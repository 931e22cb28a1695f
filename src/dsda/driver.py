"""End-to-end solve loop: step, evaluate, measure, record, stop.

The driver runs either the classical coupled recursions (``method="sda"``,
the oracle) or the decoupled low-rank iteration (``"dsda"``, and
``"adda"`` for the two-shift variant on the four-matrix family) until
the family's convergence measure drops below tolerance, the iteration
cap or column budget is hit, or a kernel turns numerically singular.
Numerical failures never escape: they terminate the loop with the
matching report status and the last successful iterate is kept as the
final solution.  An iterate or residual with non-finite entries counts
as numerical singularity.

Family and method differ only in data: one table maps each (family,
method) pair to its init, step, iterate and residual functions, and
one loop runs them all.

A decoupled iterate ``Q_l core Q_r^T`` comes finished from its
evaluator and is measured on its small core (``LowRankSolution.core``),
in the spans its state extends each step: residual (the ``*_factored``
functions), rank and finiteness come from the core, and no n x n array
is made, whatever the basis width; the spans are nested, so the
Bethe-Salpeter increment subtracts the previous core from the leading
block of the current one.  Every ``sda`` iterate is measured dense.  The
final solution is formed dense once, from the spans and core, when the
report is built.  The evaluations log their kernel pivots at DEBUG.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import operator
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import classical, decoupled
from .decoupled import LowRankSolution
from .errors import BudgetExceededError, ConfigError, SingularMatrixError
from .matkit import EPS, frobenius_norm, numerical_rank
from .problems import FAMILY_TYPES, Problem
from .residuals import (
    bsep_increment,
    bsep_increment_factored,
    care_residual,
    care_residual_factored,
    dare_residual,
    dare_residual_factored,
    mare_residual,
    mare_residual_factored,
)

log = logging.getLogger(__name__)

METHODS = ("sda", "dsda", "adda")
STATUSES = ("Converged", "MaxIter", "BudgetExceeded", "SingularEncountered")

#: Numerical failures that end a run as ``SingularEncountered``.
_SINGULAR = (SingularMatrixError, np.linalg.LinAlgError)

#: How many times the shift is doubled when a Bethe-Salpeter
#: initialization hits a numerically singular matrix.
BSEP_SHIFT_RETRIES = 8


@dataclass(frozen=True)
class SolveConfig:
    """The four knobs of the iteration; defaults follow the benchmark
    setup (tol 1e-13, 20 iterations).

    Shifts are not knobs: they are part of the transformed problem and
    live on it (``dataclasses.replace(problem, gamma=...)``), and the
    family is the problem's type.
    """

    tol: float = 1e-13
    max_iter: int = 20
    column_budget: int = decoupled.DEFAULT_COLUMN_BUDGET
    method: str = "dsda"

    def validate(self) -> None:
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.column_budget < 1:
            raise ConfigError(
                f"column_budget must be at least 1, got {self.column_budget}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got "
                              f"'{self.method}'")


@dataclass(frozen=True)
class IterationRecord:
    """One completed doubling.

    ``elapsed_ms`` is the wall time of the record, the sum of its three
    phases: the doubling step (``step_ms``), the evaluation of the
    iterate (``eval_ms``: its kernel, factorization and, for a decoupled
    iterate, core) and its measurement (``measure_ms``: finiteness
    checks, residual and rank).  Set-up before the first step is the
    report's ``init_ms``.
    """

    k: int
    residual: float
    rank: int
    basis_cols: int
    elapsed_ms: float
    step_ms: float = 0.0
    eval_ms: float = 0.0
    measure_ms: float = 0.0


@dataclass(frozen=True)
class ConvergenceReport:
    """Records, terminal status and last good iterate of one solve.

    ``init_ms`` is the wall time of the set-up before the first step:
    the initial state, any Bethe-Salpeter shift retries and F_0.
    ``final_ms`` is the time taken to form ``final_solution``.
    """

    iterations: tuple[IterationRecord, ...]
    status: str
    final_solution: np.ndarray | None
    final_lowrank: LowRankSolution | None = None
    family: str = ""
    method: str = ""
    config: SolveConfig | None = None
    init_ms: float = 0.0
    final_ms: float = 0.0

    @property
    def converged(self) -> bool:
        return self.status == "Converged"


_FAMILY_OF_TYPE = {t: family for family, t in FAMILY_TYPES.items()}


def family_of(p: Problem) -> str:
    try:
        return _FAMILY_OF_TYPE[type(p)]
    except KeyError:
        raise ConfigError(
            f"unsupported problem type {type(p).__name__}") from None


class _Method(NamedTuple):
    """How one (family, method) pair starts, doubles, evaluates, measures."""

    init: Callable      # problem -> state
    step: Callable      # state -> state
    iterate: Callable   # state -> dense H (F for bsep) or its LowRankSolution
    residual: Callable  # (problem, iterate, previous iterate) -> float


def _methods(column_budget: int) -> dict[tuple[str, str], _Method]:
    """The (family, method) table; ``adda`` exists for ``mare`` only.

    Built per solve, so that every function is the module attribute as
    it stands when the run starts.
    """
    def equation(residual):
        return lambda p, x, _previous: residual(p, x)

    def increment(_p, f, previous):
        return bsep_increment(f, previous)

    def symmetric(residual):
        return lambda p, sol, _previous: residual(p, sol.q_left, sol.core)

    def mare_factored(p, sol, _previous):
        return mare_residual_factored(p, sol.q_left, sol.core, sol.q_right)

    def increment_factored(_p, sol, previous):
        return bsep_increment_factored(sol.core, previous.core)

    care, dare, mare = map(equation, (care_residual, dare_residual,
                                      mare_residual))
    h_k, f_k = operator.attrgetter("h_k"), operator.attrgetter("f_k")
    sym_step = functools.partial(decoupled.dsda_sym_step,
                                 column_budget=column_budget)
    mare_step = functools.partial(decoupled.dsda_mare_step,
                                  column_budget=column_budget)
    mare_h = functools.partial(decoupled.dsda_mare_eval, which="H")
    sym_sda = classical.sym_sda_step
    return {
        ("care", "sda"): _Method(classical.care_init, sym_sda, h_k, care),
        ("care", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.dsda_eval_H,
                                  symmetric(care_residual_factored)),
        ("dare", "sda"): _Method(classical.dare_init, sym_sda, h_k, dare),
        ("dare", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.dsda_eval_H,
                                  symmetric(dare_residual_factored)),
        ("mare", "sda"): _Method(classical.mare_init,
                                 classical.mare_sda_step, h_k, mare),
        ("mare", "dsda"): _Method(decoupled.dsda_mare_init, mare_step,
                                  mare_h, mare_factored),
        ("mare", "adda"): _Method(
            functools.partial(decoupled.dsda_mare_init, mode="adda"),
            mare_step, mare_h, mare_factored),
        ("bsep", "sda"): _Method(classical.bsep_init,
                                 classical.bsep_sda_step, f_k, increment),
        ("bsep", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.bsep_eval_F, increment_factored),
    }


def _measure(method: _Method, p: Problem, iterate, previous, hermitian: bool
             ) -> tuple[float, int]:
    """Residual and numerical rank of one iterate.

    A decoupled iterate is measured on its core, any other iterate
    dense.  Either way the rank counts against the cutoff of the dense
    iterate, by eigenvalue magnitudes for the real symmetric iterates
    of CARE and DARE (``hermitian``), by singular values for the others.
    ``previous`` is the last good iterate, which the Bethe-Salpeter
    increment measures against.
    """
    if isinstance(iterate, LowRankSolution):
        operand = iterate.core
        # Non-finite whenever an entry is, and also when the dense
        # iterate, whose norm this is, would overflow.
        if not np.isfinite(frobenius_norm(operand)):
            raise SingularMatrixError("iterate has a non-finite norm")
    else:
        operand = iterate
        if not np.all(np.isfinite(operand)):
            raise SingularMatrixError("iterate has non-finite entries")
    residual = method.residual(p, iterate, previous)
    if not np.isfinite(residual):
        raise SingularMatrixError(f"residual is {residual}")
    rank = numerical_rank(operand, EPS * max(iterate.shape),
                          hermitian=hermitian)
    return residual, rank


def solve_driver(p: Problem, cfg: SolveConfig | None = None) -> ConvergenceReport:
    """Run the configured doubling method on one problem.

    Returns a report with one record per completed doubling (residual,
    numerical rank of the iterate, basis width, wall time) and exactly
    one terminal status.  Budget exhaustion and numerical singularity
    terminate the loop instead of raising; the final solution is the
    last successfully evaluated iterate.
    """
    cfg = cfg or SolveConfig()
    cfg.validate()
    family = family_of(p)
    method = _methods(cfg.column_budget).get((family, cfg.method))
    if method is None:
        raise ConfigError("method 'adda' applies to the mare family only")
    records: list[IterationRecord] = []
    # The last good iterate, dense or a LowRankSolution.
    final = None

    def report(status: str) -> ConvergenceReport:
        assert status in STATUSES
        lowrank = final if isinstance(final, LowRankSolution) else None
        started = time.perf_counter()
        solution = final if lowrank is None else lowrank.dense()
        final_ms = (time.perf_counter() - started) * 1000.0
        return ConvergenceReport(tuple(records), status, solution, lowrank,
                                 family, cfg.method, cfg, init_ms, final_ms)

    # The eigenvalue family measures the increment between successive
    # iterates, so its run starts from the evaluated F_0.  An
    # inadmissible alpha surfaces in the initial state or in F_0; while
    # either is singular, alpha is doubled.
    increment = family == "bsep"
    retries = BSEP_SHIFT_RETRIES if increment else 0
    started = time.perf_counter()
    status = None
    try:
        for retry in range(retries + 1):
            try:
                state = method.init(p)
                if increment:
                    final = method.iterate(state)
                break
            except SingularMatrixError:
                if retry == retries:
                    raise
                p = dataclasses.replace(p, alpha=2.0 * p.alpha)
                log.debug("bsep init singular; retrying with alpha = %g",
                          p.alpha)
    except _SINGULAR:
        status = "SingularEncountered"
    except BudgetExceededError:
        status = "BudgetExceeded"
    init_ms = (time.perf_counter() - started) * 1000.0
    if status is not None:
        return report(status)

    for _ in range(cfg.max_iter):
        stamps = [time.perf_counter()]
        try:
            state = method.step(state)
            stamps.append(time.perf_counter())
            iterate = method.iterate(state)
            stamps.append(time.perf_counter())
            residual, rank = _measure(method, p, iterate, final,
                                      hermitian=family in ("care", "dare"))
        except BudgetExceededError:
            return report("BudgetExceeded")
        except _SINGULAR:
            return report("SingularEncountered")
        stamps.append(time.perf_counter())
        step_ms, eval_ms, measure_ms = (1000.0 * (b - a) for a, b in
                                        zip(stamps, stamps[1:]))
        final = iterate
        records.append(IterationRecord(
            k=state.k,
            residual=residual,
            rank=rank,
            basis_cols=(iterate.basis_cols
                        if isinstance(iterate, LowRankSolution)
                        else iterate.shape[1]),
            elapsed_ms=step_ms + eval_ms + measure_ms,
            step_ms=step_ms,
            eval_ms=eval_ms,
            measure_ms=measure_ms,
        ))
        if residual <= cfg.tol:
            return report("Converged")
    return report("MaxIter")
