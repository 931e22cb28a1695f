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
from .matkit import EPS, numerical_rank
from .problems import FAMILY_TYPES, Problem
from .residuals import bsep_increment, care_residual, dare_residual, mare_residual

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

    ``elapsed_ms`` is the wall time of the step, the evaluation of the
    iterate, its residual and its rank; set-up before the first step is
    not part of any record.
    """

    k: int
    residual: float
    rank: int
    basis_cols: int
    elapsed_ms: float


@dataclass(frozen=True)
class ConvergenceReport:
    iterations: tuple[IterationRecord, ...]
    status: str
    final_solution: np.ndarray | None
    final_lowrank: LowRankSolution | None = None
    family: str = ""
    method: str = ""
    config: SolveConfig | None = None

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
    residual: Callable  # (problem, dense iterate, previous one) -> float


def _methods(column_budget: int) -> dict[tuple[str, str], _Method]:
    """The (family, method) table; ``adda`` exists for ``mare`` only.

    Built per solve, so that every function is the module attribute as
    it stands when the run starts.
    """
    def equation(residual):
        return lambda p, x, _previous: residual(p, x)

    def increment(_p, f, previous):
        return bsep_increment(f, previous)

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
                                  decoupled.dsda_eval_H, care),
        ("dare", "sda"): _Method(classical.dare_init, sym_sda, h_k, dare),
        ("dare", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.dsda_eval_H, dare),
        ("mare", "sda"): _Method(classical.mare_init,
                                 classical.mare_sda_step, h_k, mare),
        ("mare", "dsda"): _Method(decoupled.dsda_mare_init, mare_step,
                                  mare_h, mare),
        ("mare", "adda"): _Method(
            functools.partial(decoupled.dsda_mare_init, mode="adda"),
            mare_step, mare_h, mare),
        ("bsep", "sda"): _Method(classical.bsep_init,
                                 classical.bsep_sda_step, f_k, increment),
        ("bsep", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.bsep_eval_F, increment),
    }


def _forms(iterate) -> tuple[LowRankSolution | None, np.ndarray]:
    """The factored form of an iterate (None for a dense one), and its
    dense form."""
    if isinstance(iterate, LowRankSolution):
        return iterate, iterate.dense()
    return None, iterate


def _rank(dense: np.ndarray, lowrank: LowRankSolution | None,
          hermitian: bool) -> int:
    """Numerical rank of the iterate at the SVD cutoff of ``dense``.

    A decoupled iterate whose basis is at most half its order is
    measured on its small factored core; any other on ``dense`` itself.
    The real symmetric iterates of CARE and DARE (``hermitian``) are
    measured by eigenvalue magnitudes, the others by singular values.
    """
    operand = dense
    if lowrank is not None and 2 * lowrank.basis_cols <= min(dense.shape):
        operand = lowrank.core()
    return numerical_rank(operand, EPS * max(dense.shape), hermitian=hermitian)


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
    final_dense: np.ndarray | None = None
    final_lowrank: LowRankSolution | None = None

    def report(status: str) -> ConvergenceReport:
        assert status in STATUSES
        return ConvergenceReport(tuple(records), status, final_dense,
                                 final_lowrank, family, cfg.method, cfg)

    # The eigenvalue family measures the increment between successive
    # iterates, so its run starts from the evaluated F_0.  An
    # inadmissible alpha surfaces in the initial state or in F_0; while
    # either is singular, alpha is doubled.
    increment = family == "bsep"
    retries = BSEP_SHIFT_RETRIES if increment else 0
    try:
        for retry in range(retries + 1):
            try:
                state = method.init(p)
                if increment:
                    final_lowrank, final_dense = _forms(method.iterate(state))
                break
            except SingularMatrixError:
                if retry == retries:
                    raise
                p = dataclasses.replace(p, alpha=2.0 * p.alpha)
                log.debug("bsep init singular; retrying with alpha = %g",
                          p.alpha)
    except _SINGULAR:
        return report("SingularEncountered")
    except BudgetExceededError:
        return report("BudgetExceeded")

    for _ in range(cfg.max_iter):
        started = time.perf_counter()
        try:
            state = method.step(state)
            lowrank, dense = _forms(method.iterate(state))
            if not np.all(np.isfinite(dense)):
                raise SingularMatrixError("iterate has non-finite entries")
            residual = method.residual(p, dense, final_dense)
            if not np.isfinite(residual):
                raise SingularMatrixError(f"residual is {residual}")
            rank = _rank(dense, lowrank, hermitian=family in ("care", "dare"))
        except BudgetExceededError:
            return report("BudgetExceeded")
        except _SINGULAR:
            return report("SingularEncountered")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        final_dense, final_lowrank = dense, lowrank
        records.append(IterationRecord(
            k=state.k,
            residual=residual,
            rank=rank,
            basis_cols=(dense.shape[1] if lowrank is None
                        else lowrank.basis_cols),
            elapsed_ms=elapsed_ms,
        ))
        if isinstance(state, decoupled.DsdaSymState) \
                and log.isEnabledFor(logging.DEBUG):
            lo, hi = decoupled.kernel_extreme_eigenvalues(state)
            log.debug("k=%d kernel eigenvalues in [%.3e, %.3e]", state.k, lo, hi)
        if residual <= cfg.tol:
            return report("Converged")
    return report("MaxIter")
