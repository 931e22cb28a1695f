"""Doubling algorithms for Riccati-type matrix equations.

Four families are covered -- discrete-time and continuous-time Riccati
equations, nonsymmetric M-matrix Riccati equations (with single- and
two-shift doubling), and Bethe-Salpeter eigenvalue problems -- each in
two forms: the classical coupled recursions kept dense (the trusted
oracle) and the decoupled low-rank iteration that only grows block
bases and a small kernel.
"""

from .classical import (
    BsepSdaState,
    MareSdaState,
    SymSdaState,
    bsep_init,
    bsep_sda_step,
    care_init,
    dare_init,
    mare_init,
    mare_sda_step,
    sym_sda_step,
)
from .decoupled import (
    DEFAULT_COLUMN_BUDGET,
    DsdaState,
    LowRankSolution,
    bsep_eval_F,
    dsda_eval_H,
    dsda_mare_eval,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
)
from .driver import (
    ConvergenceReport,
    IterationRecord,
    SolveConfig,
    family_of,
    solve_driver,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    InvalidShiftError,
    NonFiniteError,
    ParseError,
    SingularMatrixError,
    SolverError,
    UnsupportedFieldError,
)
from .matkit import frobenius_norm, numerical_rank, solve_general
from .mmio import load_matrix_market, save_matrix_market
from .problems import (
    BsepProblem,
    CareProblem,
    DareProblem,
    MareProblem,
    assemble_problem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
    gen_scalar_suite,
    reduce_control_weight,
)
from .residuals import bsep_increment, care_residual, dare_residual, mare_residual
from .validate import (bsep_eigen_extract, dsda_assemble, dsda_eval_A,
                       dsda_eval_G, dsda_mare_dense, dsda_mare_eval_G,
                       subspace_angle)

#: One state type serves the one-kernel and the four-matrix families.
DsdaSymState = DsdaMareState = DsdaState

__version__ = "0.1.0"

__all__ = [
    "BsepProblem", "BsepSdaState", "BudgetExceededError", "ConfigError",
    "ConvergenceReport", "CareProblem", "DEFAULT_COLUMN_BUDGET", "DareProblem",
    "DimensionMismatchError", "DsdaMareState", "DsdaSymState",
    "InvalidShiftError", "IterationRecord", "LowRankSolution", "MareProblem",
    "MareSdaState", "NonFiniteError", "ParseError", "SingularMatrixError",
    "SolveConfig", "SolverError", "SymSdaState", "UnsupportedFieldError",
    "assemble_problem", "bsep_eigen_extract", "bsep_eval_F", "bsep_increment",
    "bsep_init", "bsep_sda_step", "care_init", "care_residual", "dare_init",
    "dare_residual", "dsda_assemble", "dsda_eval_A", "dsda_eval_G",
    "dsda_eval_H", "dsda_mare_dense", "dsda_mare_eval", "dsda_mare_eval_G",
    "dsda_mare_init", "dsda_mare_step", "dsda_sym_init", "dsda_sym_step",
    "family_of", "frobenius_norm", "gen_random_bsep", "gen_random_care",
    "gen_random_dare", "gen_random_mare", "gen_scalar_suite",
    "load_matrix_market", "mare_init", "mare_residual", "mare_sda_step",
    "numerical_rank", "reduce_control_weight", "save_matrix_market",
    "solve_driver", "solve_general", "subspace_angle", "sym_sda_step",
]
