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
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import classical, decoupled
from .decoupled import LowRankSolution
from .errors import (
    BudgetExceededError,
    ConfigError,
    NotSpdError,
    SingularMatrixError,
)
from .matkit import EPS, numerical_rank
from .problems import BsepProblem, CareProblem, DareProblem, MareProblem, Problem
from .residuals import bsep_increment, care_residual, dare_residual, mare_residual

log = logging.getLogger(__name__)

FAMILIES = ("care", "dare", "mare", "bsep")
METHODS = ("sda", "dsda", "adda")
STATUSES = ("Converged", "MaxIter", "BudgetExceeded", "SingularEncountered")

#: Numerical failures that end a run as ``SingularEncountered``.
_SINGULAR = (SingularMatrixError, NotSpdError, np.linalg.LinAlgError)

#: How many times the shift is doubled when a Bethe-Salpeter
#: initialization hits a numerically singular matrix.
BSEP_SHIFT_RETRIES = 8


@dataclass(frozen=True)
class SolveConfig:
    """Driver knobs; defaults follow the benchmark setup (tol 1e-13, 20 iterations)."""

    tol: float = 1e-13
    max_iter: int = 20
    column_budget: int = decoupled.DEFAULT_COLUMN_BUDGET
    method: str = "dsda"
    family: str | None = None
    gamma: float | None = None
    alpha: float | None = None
    beta: float | None = None

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
        if self.family is not None and self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got "
                              f"'{self.family}'")


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


def family_of(p: Problem) -> str:
    if isinstance(p, CareProblem):
        return "care"
    if isinstance(p, DareProblem):
        return "dare"
    if isinstance(p, MareProblem):
        return "mare"
    if isinstance(p, BsepProblem):
        return "bsep"
    raise ConfigError(f"unsupported problem type {type(p).__name__}")


def _apply_shift_overrides(p: Problem, cfg: SolveConfig) -> Problem:
    if isinstance(p, CareProblem) and cfg.gamma is not None:
        return dataclasses.replace(p, gamma=cfg.gamma)
    if isinstance(p, MareProblem):
        updates = {}
        if cfg.gamma is not None:
            updates["gamma"] = cfg.gamma
        if cfg.alpha is not None:
            updates["alpha"] = cfg.alpha
        if cfg.beta is not None:
            updates["beta"] = cfg.beta
        return dataclasses.replace(p, **updates) if updates else p
    if isinstance(p, BsepProblem) and cfg.alpha is not None:
        return dataclasses.replace(p, alpha=cfg.alpha)
    return p


def _init_with_bsep_retry(p: BsepProblem, build):
    """Double alpha up to BSEP_SHIFT_RETRIES times while ``build`` is singular.

    ``build`` must construct the starting state and evaluate F_0, since
    an inadmissible shift can surface in either place.  Returns the
    build result together with the problem instance that succeeded.
    """
    attempt = p
    for retry in range(BSEP_SHIFT_RETRIES + 1):
        try:
            return build(attempt), attempt
        except SingularMatrixError:
            if retry == BSEP_SHIFT_RETRIES:
                raise
            attempt = dataclasses.replace(attempt, alpha=2.0 * attempt.alpha)
            log.debug("bsep init singular; retrying with alpha = %g",
                      attempt.alpha)
    raise AssertionError("unreachable")


class _Run:
    """Family/method strategy bound to one problem instance."""

    def __init__(self, p: Problem, cfg: SolveConfig):
        self.cfg = cfg
        self.family = family_of(p)
        self.problem = p
        self.prev_dense: np.ndarray | None = None
        self.lowrank: LowRankSolution | None = None
        method = cfg.method
        if method == "adda" and self.family != "mare":
            raise ConfigError("method 'adda' applies to the mare family only")
        self.decoupled = method in ("dsda", "adda")
        self.mode = "adda" if method == "adda" else "sda"

    # -- lifecycle ---------------------------------------------------------

    def init_state(self):
        p = self.problem
        if self.family == "bsep":
            init = (decoupled.dsda_sym_init if self.decoupled
                    else classical.bsep_init)

            def build(prob):
                st = init(prob)
                return st, self._evaluate(st)

            (state, f0), used = _init_with_bsep_retry(p, build)
            self.problem = used
            self.prev_dense = f0    # seeds the increment measure
            return state
        if self.family == "mare":
            if self.decoupled:
                state = decoupled.dsda_mare_init(p, mode=self.mode)
            else:
                state = classical.mare_init(p, mode=self.mode)
        elif self.decoupled:
            state = decoupled.dsda_sym_init(p)
        elif self.family == "care":
            state = classical.care_init(p)
        else:
            state = classical.dare_init(p)
        return state

    def step(self, state):
        if not self.decoupled:
            if self.family == "mare":
                return classical.mare_sda_step(state)
            if self.family == "bsep":
                return classical.bsep_sda_step(state)
            return classical.sym_sda_step(state)
        if self.family == "mare":
            return decoupled.dsda_mare_step(state, self.cfg.column_budget)
        return decoupled.dsda_sym_step(state, self.cfg.column_budget)

    def _evaluate(self, state) -> np.ndarray:
        """Dense current iterate (H, or F for the eigenvalue family)."""
        if not self.decoupled:
            return state.f_k if self.family == "bsep" else state.h_k
        if self.family == "mare":
            sol = decoupled.dsda_mare_eval(state, "H")
        elif self.family == "bsep":
            sol = decoupled.bsep_eval_F(state)
        else:
            sol = decoupled.dsda_eval_H(state)
        self.lowrank = sol
        return sol.dense()

    def measure(self, state) -> tuple[np.ndarray, float]:
        dense = self._evaluate(state)
        if not np.all(np.isfinite(dense)):
            raise SingularMatrixError("iterate has non-finite entries")
        if self.family == "care":
            res = care_residual(self.problem, dense)
        elif self.family == "dare":
            res = dare_residual(self.problem, dense)
        elif self.family == "mare":
            res = mare_residual(self.problem, dense)
        else:
            res = bsep_increment(dense, self.prev_dense)
            self.prev_dense = dense
        if not np.isfinite(res):
            raise SingularMatrixError(f"residual is {res}")
        return dense, res

    def rank(self, dense: np.ndarray) -> int:
        """Numerical rank of the iterate at the SVD cutoff of ``dense``.

        A decoupled iterate whose basis is at most half its order is
        measured on its small factored core; any other on ``dense``
        itself.  The real symmetric iterates of CARE and DARE are
        measured by eigenvalue magnitudes, the others by singular values.
        """
        sol = self.lowrank
        operand = dense
        if sol is not None and 2 * sol.basis_cols <= min(dense.shape):
            operand = sol.core()
        return numerical_rank(operand, EPS * max(dense.shape),
                              hermitian=self.family in ("care", "dare"))

    def basis_cols(self, state) -> int:
        if self.decoupled:
            return state.basis_cols
        return (state.f_k if self.family == "bsep" else state.h_k).shape[1]


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
    if cfg.family is not None and cfg.family != family_of(p):
        raise ConfigError(
            f"config family '{cfg.family}' does not match the "
            f"{family_of(p)} problem")
    p = _apply_shift_overrides(p, cfg)
    run = _Run(p, cfg)
    records: list[IterationRecord] = []
    final_dense: np.ndarray | None = None
    final_lowrank: LowRankSolution | None = None

    def report(status: str) -> ConvergenceReport:
        assert status in STATUSES
        return ConvergenceReport(tuple(records), status, final_dense,
                                 final_lowrank, run.family, cfg.method, cfg)

    try:
        state = run.init_state()
    except _SINGULAR:
        return report("SingularEncountered")
    except BudgetExceededError:
        return report("BudgetExceeded")
    if run.family == "bsep":
        final_dense, final_lowrank = run.prev_dense, run.lowrank

    for _ in range(cfg.max_iter):
        started = time.perf_counter()
        try:
            state = run.step(state)
            dense, residual = run.measure(state)
            rank = run.rank(dense)
        except BudgetExceededError:
            return report("BudgetExceeded")
        except _SINGULAR:
            return report("SingularEncountered")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        final_dense, final_lowrank = dense, run.lowrank
        records.append(IterationRecord(
            k=state.k,
            residual=residual,
            rank=rank,
            basis_cols=run.basis_cols(state),
            elapsed_ms=elapsed_ms,
        ))
        if run.decoupled and run.family != "mare" \
                and log.isEnabledFor(logging.DEBUG):
            lo, hi = decoupled.kernel_extreme_eigenvalues(state)
            log.debug("k=%d kernel eigenvalues in [%.3e, %.3e]", state.k, lo, hi)
        if residual <= cfg.tol:
            return report("Converged")
    return report("MaxIter")
