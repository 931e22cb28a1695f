"""End-to-end solve loop: step, evaluate, measure, record, stop.

The driver runs either the classical coupled recursions (``method="sda"``,
the oracle) or the decoupled low-rank iteration (``"dsda"``, and
``"adda"`` for the two-shift variant on the four-matrix family) until
the family's convergence measure drops below tolerance, the iteration
cap or column budget is hit, or a kernel turns numerically singular.
Numerical failures never escape: they terminate the loop with the
matching report status and the last successful iterate is kept as the
final solution.  An iterate whose norm is not finite (a non-finite
entry, or entries so large that the norm overflows) or a non-finite
residual counts as numerical singularity.

One table maps each (family, method) pair to its init, step, iterate
and residual functions, and one loop runs them all.  The residual is
the family's own, which measures a dense iterate or the
``LowRankSolution`` of a decoupled one.  The loop itself knows two
facts of a family: a Bethe-Salpeter run (``bsep``) starts from the
evaluated F_0, doubles alpha while its start is singular and measures
each iterate by its increment over the one before, and the rank of a
CARE or DARE iterate, real symmetric, is counted by eigenvalue
magnitudes.

Every ``sda`` iterate is measured dense.  A decoupled iterate
``Q_l core Q_r^T`` comes finished from its evaluator; its residual is
measured in the spans its state extends each step, and its rank and
finiteness come from its small core, so no n x n array is made,
whatever the basis width.  The spans are nested, so the
Bethe-Salpeter increment subtracts the previous core from the leading
block of the current one.  The final solution is formed dense once,
from the spans and core, when the report is built.  Each kernel
factorization (in the CARE and DARE steps, in the other evaluations)
logs its pivots at DEBUG.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import numbers
import operator
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import classical, decoupled
from .decoupled import LowRankSolution
from .errors import BudgetExceededError, ConfigError, SingularMatrixError
from .matkit import EPS, frobenius_norm, numerical_rank
from .problems import FAMILY_TYPES, SHIFTS, Problem
from .residuals import bsep_increment, care_residual, dare_residual, mare_residual

log = logging.getLogger(__name__)

METHODS = ("sda", "dsda", "adda")
STATUSES = ("Converged", "MaxIter", "BudgetExceeded", "SingularEncountered")

#: How many times, at most, the shift is doubled when a Bethe-Salpeter
#: initialization hits a numerically singular matrix; it is never
#: doubled past the largest finite float.
BSEP_SHIFT_RETRIES = 8


@dataclass(frozen=True)
class SolveConfig:
    """The four knobs of the iteration; defaults follow the benchmark
    setup (tol 1e-13, 20 iterations).

    A config checks itself when it is built, as every problem does:
    a ``tol`` that is not a positive finite real number, a count that
    is not an integer of at least 1 (a bool is neither) or an unknown
    ``method`` raises ``ConfigError``.  Shifts are not knobs: they are
    part of the transformed problem and live on it
    (``dataclasses.replace(problem, gamma=...)``), and the family is the
    problem's type.
    """

    tol: float = 1e-13
    max_iter: int = 20
    column_budget: int = decoupled.DEFAULT_COLUMN_BUDGET
    method: str = "dsda"

    def __post_init__(self):
        # A bool is an Integral to Python, but no count or tolerance.
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ConfigError(f"tol must be a number, got {tol!r}")
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {tol}")
        for key in ("max_iter", "column_budget"):
            value = getattr(self, key)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
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
    checks, residual and rank).  A CARE or DARE ``dsda`` step solves
    with its kernel itself, so there the kernel solve and the core count
    in ``step_ms``, and ``eval_ms`` only scales the core.  Set-up before
    the first step is the report's ``init_ms``.

    ``span_cols`` is the width of the span the iterate is held in: of
    ``q_left`` for a decoupled iterate with one basis, the wider of its
    two spans for MARE, and ``basis_cols`` for a dense iterate.  It lies
    between ``rank`` and ``basis_cols``.
    """

    k: int
    residual: float
    rank: int
    basis_cols: int
    elapsed_ms: float
    step_ms: float = 0.0
    eval_ms: float = 0.0
    measure_ms: float = 0.0
    span_cols: int = 0


@dataclass(frozen=True)
class ConvergenceReport:
    """Records, terminal status and last good iterate of one solve.

    ``init_ms`` is the wall time of the set-up before the first step:
    the initial state, any Bethe-Salpeter shift retries and F_0.
    ``final_ms`` is the time taken to form ``final_solution``.
    ``shifts`` maps each shift name to its value on the problem solved,
    after any retry (None where that problem has no such shift).
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
    shifts: dict[str, float | None] = dataclasses.field(default_factory=dict)

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
    residual: Callable  # (problem, iterate), bsep (iterate, previous) -> float


def _methods(column_budget: int) -> dict[tuple[str, str], _Method]:
    """The (family, method) table; ``adda`` exists for ``mare`` only.

    Built per solve, so that every function is the module attribute as
    it stands when the run starts.
    """
    h_k, f_k = operator.attrgetter("h_k"), operator.attrgetter("f_k")
    sym_step = functools.partial(decoupled.dsda_sym_step,
                                 column_budget=column_budget)
    mare_step = functools.partial(decoupled.dsda_mare_step,
                                  column_budget=column_budget)
    return {
        ("care", "sda"): _Method(classical.care_init, classical.sym_sda_step,
                                 h_k, care_residual),
        ("care", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.dsda_eval_H, care_residual),
        ("dare", "sda"): _Method(classical.dare_init, classical.sym_sda_step,
                                 h_k, dare_residual),
        ("dare", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.dsda_eval_H, dare_residual),
        ("mare", "sda"): _Method(classical.mare_init,
                                 classical.mare_sda_step, h_k, mare_residual),
        ("mare", "dsda"): _Method(decoupled.dsda_mare_init, mare_step,
                                  decoupled.dsda_mare_eval, mare_residual),
        ("mare", "adda"): _Method(
            functools.partial(decoupled.dsda_mare_init, mode="adda"),
            mare_step, decoupled.dsda_mare_eval, mare_residual),
        ("bsep", "sda"): _Method(classical.bsep_init,
                                 classical.bsep_sda_step, f_k, bsep_increment),
        ("bsep", "dsda"): _Method(decoupled.dsda_sym_init, sym_step,
                                  decoupled.bsep_eval_F, bsep_increment),
    }


def _measure(method: _Method, p: Problem, iterate, previous, hermitian: bool
             ) -> tuple[float, int, int, int]:
    """Residual, numerical rank, basis width and span width of one
    iterate.

    A decoupled iterate is measured on its core, any other iterate
    dense.  Either way it is non-finite, and the step singular, when
    the norm of that operand is: whenever an entry is, and also when
    the norm of the dense iterate, which is the core's, would overflow.
    The rank counts against the cutoff of the dense iterate, by
    eigenvalue magnitudes for the real symmetric iterates of CARE and
    DARE (``hermitian``), by singular values for the others.
    ``previous`` is the last good iterate for the Bethe-Salpeter
    increment, which measures against it, and None for an equation
    residual.
    """
    if isinstance(iterate, LowRankSolution):
        operand, cols = iterate.core, iterate.basis_cols
        span = max(iterate.q_left.shape[1], iterate.q_right.shape[1])
    else:
        operand, cols = iterate, iterate.shape[1]
        span = cols
    if not np.isfinite(frobenius_norm(operand)):
        raise SingularMatrixError("iterate has a non-finite norm")
    residual = (method.residual(p, iterate) if previous is None
                else method.residual(iterate, previous))
    if not np.isfinite(residual):
        raise SingularMatrixError(f"residual is {residual}")
    rank = numerical_rank(operand, EPS * max(iterate.shape),
                          hermitian=hermitian)
    return residual, rank, cols, span


def solve_driver(p: Problem, cfg: SolveConfig | None = None) -> ConvergenceReport:
    """Run the configured doubling method on one problem.

    Returns a report with one record per completed doubling (residual,
    numerical rank of the iterate, basis width, wall time) and exactly
    one terminal status.  Budget exhaustion and numerical singularity
    terminate the loop instead of raising; the final solution is the
    last successfully evaluated iterate.
    """
    cfg = cfg or SolveConfig()
    family = family_of(p)
    method = _methods(cfg.column_budget).get((family, cfg.method))
    if method is None:
        raise ConfigError("method 'adda' applies to the mare family only")
    records: list[IterationRecord] = []
    # The last good iterate, dense or a LowRankSolution.
    final = None
    # The eigenvalue family measures the increment between successive
    # iterates, so its run starts from the evaluated F_0.  An
    # inadmissible alpha surfaces in the initial state or in F_0; while
    # either is singular, alpha is doubled, as long as the double is
    # finite.
    increment = family == "bsep"
    retries = BSEP_SHIFT_RETRIES if increment else 0
    started = time.perf_counter()
    ready = None
    status = "MaxIter"
    try:
        for retry in range(retries + 1):
            try:
                state = method.init(p)
                if increment:
                    final = method.iterate(state)
                break
            except SingularMatrixError:
                if retry == retries or p.alpha > np.finfo(float).max / 2.0:
                    raise
                p = dataclasses.replace(p, alpha=2.0 * p.alpha)
                log.debug("bsep init singular; retrying with alpha = %g",
                          p.alpha)
        ready = time.perf_counter()
        for _ in range(cfg.max_iter):
            stamps = [time.perf_counter()]
            state = method.step(state)
            stamps.append(time.perf_counter())
            iterate = method.iterate(state)
            stamps.append(time.perf_counter())
            residual, rank, cols, span = _measure(
                method, p, iterate, final if increment else None,
                hermitian=family in ("care", "dare"))
            stamps.append(time.perf_counter())
            step_ms, eval_ms, measure_ms = (1000.0 * (b - a) for a, b in
                                            zip(stamps, stamps[1:]))
            final = iterate
            records.append(IterationRecord(
                k=state.k,
                residual=residual,
                rank=rank,
                basis_cols=cols,
                elapsed_ms=step_ms + eval_ms + measure_ms,
                step_ms=step_ms,
                eval_ms=eval_ms,
                measure_ms=measure_ms,
                span_cols=span,
            ))
            if residual <= cfg.tol:
                status = "Converged"
                break
    except BudgetExceededError:
        status = "BudgetExceeded"
    except (SingularMatrixError, np.linalg.LinAlgError):
        status = "SingularEncountered"
    init_ms = 1000.0 * ((time.perf_counter() if ready is None else ready)
                        - started)

    # The last state is released before the dense final solution is
    # formed, which is the largest array of a decoupled run.
    state = None
    lowrank = final if isinstance(final, LowRankSolution) else None
    started = time.perf_counter()
    solution = final if lowrank is None else lowrank.dense()
    final_ms = (time.perf_counter() - started) * 1000.0
    return ConvergenceReport(
        tuple(records), status, solution, lowrank, family, cfg.method, cfg,
        init_ms, final_ms, {name: getattr(p, name, None) for name in SHIFTS})
