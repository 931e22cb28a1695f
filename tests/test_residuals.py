import dataclasses
import math
import time

import numpy as np
import pytest

from dsda import driver
from dsda.driver import STATUSES, ConvergenceReport, SolveConfig, solve_driver
from dsda.errors import ConfigError
from dsda.matkit import EPS
from dsda.problems import (
    BsepProblem,
    CareProblem,
    DareProblem,
    MareProblem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
)
from dsda.residuals import (
    bsep_increment,
    care_residual,
    dare_residual,
    mare_residual,
)

SCALAR_CARE = CareProblem([[-1.0]], [[1.0]], [[1.0]], gamma=1.0)
SCALAR_DARE = DareProblem([[0.5]], [[1.0]], [[1.0]])
SCALAR_MARE = MareProblem([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]],
                          [[1.0]], gamma=3.0)


class TestCareResidual:
    def test_exact_root_scores_zero(self):
        h = np.array([[math.sqrt(2.0) - 1.0]])
        assert care_residual(SCALAR_CARE, h) <= 1e-15

    def test_zero_h_scores_one(self):
        assert care_residual(SCALAR_CARE, np.zeros((1, 1))) == pytest.approx(1.0)

    def test_zero_over_zero_convention(self):
        p = CareProblem(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)))
        assert care_residual(p, np.zeros((2, 2))) == 0.0


class TestDareResidual:
    def test_exact_fixed_point(self):
        x = (0.25 + math.sqrt(4.0625)) / 2.0
        assert dare_residual(SCALAR_DARE, np.array([[x]])) <= 1e-12

    def test_h0_exact_when_a_zero(self):
        p = DareProblem(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)))
        assert dare_residual(p, p.c.T @ p.c) == 0.0

    def test_zero_h_scores_one(self):
        assert dare_residual(SCALAR_DARE, np.zeros((1, 1))) == pytest.approx(1.0)


class TestMareResidual:
    def test_minimal_root(self):
        x = (5.0 - math.sqrt(21.0)) / 2.0
        assert mare_residual(SCALAR_MARE, np.array([[x]])) <= 1e-12

    def test_zero_x_zero_b(self):
        p = MareProblem([[2.0]], [[3.0]], np.zeros((1, 0)), np.zeros((1, 0)),
                        np.zeros((1, 0)), np.zeros((1, 0)))
        assert mare_residual(p, np.zeros((1, 1))) == 0.0

    def test_zero_x_nonzero_b(self):
        assert mare_residual(SCALAR_MARE, np.zeros((1, 1))) == pytest.approx(1.0)


class TestBsepIncrement:
    def test_identical_inputs(self):
        f = np.ones((2, 2), dtype=complex)
        assert bsep_increment(f, f) == 0.0

    def test_from_zero(self):
        f = np.ones((2, 2))
        assert bsep_increment(f, np.zeros((2, 2))) == pytest.approx(1.0)

    def test_monotone_decay_on_scalar_run(self):
        report = solve_driver(BsepProblem([[2.0]], [[1.0]]),
                              SolveConfig(method="sda"))
        residuals = [rec.residual for rec in report.iterations]
        tail = residuals[1:]
        assert all(b < a for a, b in zip(residuals, tail))
        assert residuals[-1] <= 1e-12


class TestSolveConfig:
    def test_only_the_solver_knobs(self):
        # Shifts live on the problem, and the family is its type.
        assert [f.name for f in dataclasses.fields(SolveConfig)] == \
            ["tol", "max_iter", "column_budget", "method"]

    def test_zero_max_iter_rejected(self):
        with pytest.raises(ConfigError):
            SolveConfig(max_iter=0).validate()

    def test_zero_tol_rejected(self):
        with pytest.raises(ConfigError):
            SolveConfig(tol=0.0).validate()

    def test_adda_requires_mare(self):
        for problem in (SCALAR_CARE, SCALAR_DARE,
                        BsepProblem([[2.0]], [[1.0]])):
            with pytest.raises(ConfigError,
                               match="applies to the mare family only"):
                solve_driver(problem, SolveConfig(method="adda"))


class TestSolveDriver:
    def test_scalar_care_converges_to_root(self):
        report = solve_driver(dataclasses.replace(SCALAR_CARE, gamma=2.0),
                              SolveConfig(tol=1e-12))
        assert report.status == "Converged"
        assert abs(report.final_solution[0, 0] - (math.sqrt(2.0) - 1.0)) <= 1e-11

    def test_budget_exhaustion_partial_report(self):
        p = gen_random_dare(8, 2, 2, seed=0)
        report = solve_driver(p, SolveConfig(column_budget=16, tol=1e-30))
        assert report.status == "BudgetExceeded"
        ks = [rec.k for rec in report.iterations]
        assert ks == [1, 2, 3]           # 16 columns fit, 32 do not
        assert report.final_solution is not None

    def test_max_iter_status(self):
        p = gen_random_care(8, 2, 2, seed=1)
        report = solve_driver(p, SolveConfig(tol=1e-30, max_iter=3))
        assert report.status == "MaxIter"
        assert len(report.iterations) == 3

    def test_sda_and_dsda_residuals_agree(self):
        for seed in (0, 1):
            p = gen_random_care(10, 2, 2, seed=seed)
            r_sda = solve_driver(p, SolveConfig(method="sda", max_iter=6,
                                                tol=1e-15))
            r_dsda = solve_driver(p, SolveConfig(method="dsda", max_iter=6,
                                                 tol=1e-15))
            for a, b in zip(r_sda.iterations, r_dsda.iterations):
                assert a.k == b.k
                # Relative agreement with an absolute guard at the
                # floating-point floor of the residual computation.
                assert abs(a.residual - b.residual) <= \
                    1e-9 * max(a.residual, b.residual) + 1e-14

    def test_rank_column_nondecreasing_until_plateau(self):
        p = gen_random_care(12, 2, 2, seed=5)
        report = solve_driver(p, SolveConfig())
        ranks = [rec.rank for rec in report.iterations]
        peak = ranks.index(max(ranks))
        assert all(a <= b for a, b in zip(ranks[:peak], ranks[1:peak + 1]))

    def test_basis_cols_track_doubling(self):
        p = gen_random_care(12, 2, 3, seed=6)
        report = solve_driver(p, SolveConfig(max_iter=4, tol=1e-30))
        assert [rec.basis_cols for rec in report.iterations] == [6, 12, 24, 48]

    def test_mare_adda_driver(self):
        p = gen_random_mare(5, 4, 2, 1, seed=3)
        report = solve_driver(p, SolveConfig(method="adda"))
        assert report.status == "Converged"
        assert mare_residual(p, report.final_solution) <= 1e-13

    @pytest.mark.parametrize("method", ["sda", "dsda"])
    def test_overflowing_iterate_ends_singular_keeping_last_finite(self, method):
        # Not stabilizable: the iterate grows until its dense form
        # overflows, and the residual must not see the inf entries.
        p = DareProblem(np.diag([3.0, 0.5]), [[0.0], [1.0]], [[1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_driver(p, SolveConfig(method=method, max_iter=30))
        assert report.status == "SingularEncountered"
        assert report.iterations
        last = solve_driver(p, SolveConfig(method=method,
                                           max_iter=len(report.iterations)))
        assert last.status == "MaxIter"
        assert np.array_equal(report.final_solution, last.final_solution)
        if method == "dsda":
            assert np.array_equal(report.final_lowrank.dense(),
                                  report.final_solution)

    @pytest.mark.parametrize("method", ["sda", "dsda"])
    def test_nonfinite_residual_ends_singular(self, method):
        # C^T C overflows, so the residual of dsda's first (finite)
        # iterate is NaN; sda overflows earlier, in its initial kernel.
        p = CareProblem([[-1e200]], [[1e200]], [[1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_driver(p, SolveConfig(method=method))
        assert report.status == "SingularEncountered"
        assert all(math.isfinite(rec.residual) for rec in report.iterations)
        assert (report.final_solution is None
                or np.all(np.isfinite(report.final_solution)))

    @pytest.mark.parametrize("method", ["sda", "dsda"])
    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_huge_entries_end_in_a_status(self, method, scale):
        # Squares of these entries overflow; the run must still end in a
        # status with finite residuals instead of raising.
        p = CareProblem([[-scale]], [[scale]], [[scale]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = solve_driver(p, SolveConfig(method=method,
                                                 column_budget=256))
        assert report.status in STATUSES
        assert all(math.isfinite(rec.residual) for rec in report.iterations)
        assert (report.final_solution is None
                or np.all(np.isfinite(report.final_solution)))

    def test_elapsed_ms_covers_the_rank(self, monkeypatch):
        pause_s = 0.02
        rank = driver.numerical_rank

        def slow_rank(*args, **kwargs):
            time.sleep(pause_s)
            return rank(*args, **kwargs)

        monkeypatch.setattr(driver, "numerical_rank", slow_rank)
        report = solve_driver(gen_random_care(8, 2, 2, seed=9),
                              SolveConfig(max_iter=3, tol=1e-30))
        assert len(report.iterations) == 3
        assert all(rec.elapsed_ms >= 1000.0 * pause_s
                   for rec in report.iterations)

    def test_report_is_well_formed(self):
        p = gen_random_care(8, 2, 2, seed=9)
        report = solve_driver(p, SolveConfig())
        assert isinstance(report, ConvergenceReport)
        assert all(rec.residual >= 0.0 for rec in report.iterations)
        assert all(rec.elapsed_ms >= 0.0 for rec in report.iterations)
        cols = [rec.basis_cols for rec in report.iterations]
        assert all(a <= b for a, b in zip(cols, cols[1:]))
        assert report.status in ("Converged", "MaxIter", "BudgetExceeded",
                                 "SingularEncountered")


# (family, instance, methods).  Each decoupled run has steps whose basis
# is at most half the iterate's order (rank from the factored core) and
# steps whose basis is wider (rank from the dense iterate).  Under sda
# the care instance has a singular value 1.0019 times the cutoff at
# k = 4, which eigvalsh puts just below it.
RANK_ROUTE_CASES = [
    ("care", gen_random_care(40, 4, 3, 5), ("sda", "dsda")),
    ("dare", gen_random_dare(40, 3, 3, 2), ("sda", "dsda")),
    ("mare", gen_random_mare(30, 36, 2, 3, 1), ("sda", "dsda", "adda")),
    ("bsep", gen_random_bsep(30, 2, 4), ("sda", "dsda")),
]


@pytest.mark.parametrize("problem,method", [
    pytest.param(p, method, id=f"{family}-{method}")
    for family, p, methods in RANK_ROUTE_CASES for method in methods])
def test_rank_matches_svd_of_dense_iterate(problem, method, monkeypatch):
    calls = []
    rank = driver.numerical_rank

    def spy(operand, rel_tol=None, **kwargs):
        calls.append((operand.shape, rel_tol))
        return rank(operand, rel_tol, **kwargs)

    monkeypatch.setattr(driver, "numerical_rank", spy)
    report = solve_driver(problem, SolveConfig(method=method))
    monkeypatch.undo()
    assert report.iterations
    assert len(calls) == len(report.iterations)
    factored = set()
    for i, (rec, (operand_shape, rel_tol)) in enumerate(
            zip(report.iterations, calls)):
        dense = solve_driver(problem, SolveConfig(
            method=method, max_iter=i + 1)).final_solution
        # Either route counts against the cutoff of the dense iterate.
        assert rel_tol == EPS * max(dense.shape)
        small = method != "sda" and 2 * rec.basis_cols <= min(dense.shape)
        assert (operand_shape != dense.shape) == small
        factored.add(small)
        sigma = np.linalg.svd(dense, compute_uv=False)
        cutoff = EPS * max(dense.shape) * sigma[0]
        svd_rank = int(np.count_nonzero(sigma > cutoff))
        # The two routes may round a singular value at the cutoff
        # differently; any other disagreement is an error.
        assert rec.rank == svd_rank or np.any(
            np.abs(sigma / cutoff - 1.0) < 0.01), (rec.k, rec.rank, svd_rank)
    if method != "sda":
        assert factored == {True, False}
