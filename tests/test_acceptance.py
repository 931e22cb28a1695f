"""Acceptance suite.

One test per criterion; each prints a PASS line on success (run pytest
with ``-s`` or ``-rA`` to see them).  Criterion 6 needs the external
steel-profile dataset and is skipped when it is not available: point
``RICCATI_STEEL_DIR`` at a directory holding A.mtx, B.mtx and C.mtx
(``RICCATI_STEEL_GAMMA`` optionally fixes the doubling shift).
"""

import math
import os

import numpy as np
import pytest

from dsda.classical import (
    bsep_init,
    bsep_sda_step,
    care_init,
    dare_init,
    mare_init,
    mare_sda_step,
    sym_sda_step,
)
from dsda.decoupled import (
    bsep_eval_F,
    dsda_eval_G,
    dsda_eval_H,
    dsda_mare_eval,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
)
from dsda.driver import SolveConfig, solve_driver
from dsda.mmio import load_matrix_market
from dsda.problems import (
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
)
from dsda.validate import bsep_eigen_extract, dsda_eval_A, dsda_mare_dense

N_INSTANCES = 20
EQUIV_TOL = 1e-10


def sym_dims(seed, lo=4, hi=16, wmax=3):
    """Deterministic per-seed sizes: n <= 16, block widths <= 3."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(lo, hi + 1))
    m = int(rng.integers(1, wmax + 1))
    l = int(rng.integers(1, wmax + 1))
    return n, m, l


def mare_instance(seed):
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(4, 17))
    m1 = int(rng.integers(1, 4))
    n1 = int(rng.integers(1, 4))
    n = int(np.random.default_rng(1050 + seed).integers(4, 17))
    return gen_random_mare(m, n, min(m1, m, n), min(n1, m, n), seed)


def rel_err(got, want):
    denom = np.linalg.norm(want)
    gap = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return gap / denom if denom > 0 else gap


def test_criterion_1_oracle_equivalence():
    """Decoupled evaluations equal the classical iterates for k = 1..4."""
    worst = 0.0
    for seed in range(N_INSTANCES):
        n, m, l = sym_dims(seed)

        p = gen_random_dare(n, m, l, seed)
        oracle, state = dare_init(p), dsda_sym_init(p)
        for _ in range(4):
            oracle, state = sym_sda_step(oracle), dsda_sym_step(state)
            worst = max(worst,
                        rel_err(dsda_eval_H(state).dense(), oracle.h_k),
                        rel_err(dsda_eval_G(state).dense(), oracle.g_k),
                        rel_err(dsda_eval_A(state), oracle.a_k))

        p = gen_random_care(n, m, l, seed)
        oracle, state = care_init(p), dsda_sym_init(p)
        for _ in range(4):
            oracle, state = sym_sda_step(oracle), dsda_sym_step(state)
            worst = max(worst,
                        rel_err(dsda_eval_H(state).dense(), oracle.h_k),
                        rel_err(dsda_eval_G(state).dense(), oracle.g_k),
                        rel_err(dsda_eval_A(state), oracle.a_k))

        p = mare_instance(seed)
        for mode in ("sda", "adda"):
            oracle, state = mare_init(p, mode), dsda_mare_init(p, mode)
            for _ in range(4):
                oracle = mare_sda_step(oracle)
                state = dsda_mare_step(state)
                worst = max(
                    worst,
                    rel_err(dsda_mare_eval(state, "H").dense(), oracle.h_k),
                    rel_err(dsda_mare_eval(state, "G").dense(), oracle.g_k),
                    rel_err(dsda_mare_dense(state, "F"), oracle.f_k),
                    rel_err(dsda_mare_dense(state, "E"), oracle.e_k))

        p = gen_random_bsep(n, min(m, n), seed)
        oracle, state = bsep_init(p), dsda_sym_init(p)
        for _ in range(4):
            oracle, state = bsep_sda_step(oracle), dsda_sym_step(state)
            worst = max(worst,
                        rel_err(bsep_eval_F(state).dense(), oracle.f_k),
                        rel_err(dsda_eval_A(state), oracle.e_k))

    assert worst <= EQUIV_TOL, f"worst relative gap {worst:.3e}"
    print(f"\nACCEPTANCE 1: PASS - oracle equivalence over "
          f"{N_INSTANCES} instances x 5 families, k=1..4 "
          f"(worst rel err {worst:.2e} <= {EQUIV_TOL:.0e})")


def test_criterion_2_scalar_closed_forms():
    """Driver reaches the analytic scalar answers."""
    suite = dict()
    for problem, target in gen_scalar_suite():
        suite[type(problem).__name__] = (problem, target)

    for name in ("CareProblem", "DareProblem", "MareProblem"):
        problem, target = suite[name]
        for method in ("sda", "dsda"):
            report = solve_driver(problem, SolveConfig(method=method,
                                                       max_iter=8))
            assert report.status == "Converged", (name, method, report.status)
            got = report.final_solution[0, 0]
            assert abs(got - target) <= 1e-11, (name, method, got, target)

    problem, target = suite["BsepProblem"]
    for method in ("sda", "dsda"):
        report = solve_driver(problem, SolveConfig(method=method, max_iter=8))
        f = report.final_solution
        assert f is not None
        eig = bsep_eigen_extract(f, problem.a, problem.b_dense())[0]
        assert abs(eig - target) <= 1e-8, (method, eig, target)

    print("\nACCEPTANCE 2: PASS - scalar closed forms: sqrt(2)-1, "
          "(0.25+sqrt(4.0625))/2, (5-sqrt(21))/2 within 1e-11 in <= 8 "
          "doublings; 1x1 eigenvalue -sqrt(3) within 1e-8")


def test_criterion_3_quadratic_convergence_shape():
    """Once rho_k < 1e-2, rho_{k+1} <= max(10 rho_k^2, 1e-14).

    Applies to the residual-bearing families of criterion 1 (the
    eigenvalue family is monitored by increments, not residuals).
    """
    checked_pairs = 0
    for seed in range(N_INSTANCES):
        n, m, l = sym_dims(seed)
        runs = [
            (gen_random_dare(n, m, l, seed), "dsda"),
            (gen_random_care(n, m, l, seed), "dsda"),
            (mare_instance(seed), "dsda"),
            (mare_instance(seed), "adda"),
        ]
        for problem, method in runs:
            report = solve_driver(problem, SolveConfig(
                tol=1e-15, max_iter=14, method=method))
            rho = [rec.residual for rec in report.iterations]
            for a, b in zip(rho, rho[1:]):
                if a < 1e-2:
                    checked_pairs += 1
                    assert b <= max(10.0 * a * a, 1e-14), \
                        f"seed {seed} {method}: {a:.3e} -> {b:.3e}"
    assert checked_pairs > 100
    print(f"\nACCEPTANCE 3: PASS - quadratic decay shape held on "
          f"{checked_pairs} consecutive residual pairs")


def test_criterion_4_derivation_identities():
    """(M2_G)^-1 - Y2 Y2^T = I and (M2_H)^-1 - Y2^T Y2 = I, n <= 8."""
    rng = np.random.default_rng(2024)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n)) * 0.5
        b = rng.standard_normal((n, m)) / math.sqrt(n)
        c = rng.standard_normal((l, n)) / math.sqrt(n)
        y0 = b.T @ c.T
        e0 = np.eye(m) + y0 @ y0.T
        f0 = np.eye(l) + y0.T @ y0
        k0 = np.linalg.solve(e0, y0)
        m1_a = np.zeros((2 * m, 2 * l)); m1_a[m:, l:] = k0
        m1_g = np.zeros((2 * m, 2 * m))
        m1_g[:m, :m] = np.eye(m); m1_g[m:, m:] = np.linalg.inv(e0)
        m1_h = np.zeros((2 * l, 2 * l))
        m1_h[:l, :l] = np.eye(l); m1_h[l:, l:] = np.linalg.inv(f0)
        u1 = np.hstack([b, a @ b])
        v1 = np.hstack([c.T, a.T @ c.T])
        t1 = u1.T @ v1
        e1 = np.linalg.inv(m1_g) + t1 @ m1_h @ t1.T
        f1 = np.linalg.inv(m1_h) + t1.T @ m1_g @ t1
        i2m, i2l = np.eye(2 * m), np.eye(2 * l)
        z2m, z2l = np.zeros((2 * m, 2 * m)), np.zeros((2 * l, 2 * l))
        m2_g = (np.block([[i2m, -m1_a @ t1.T], [z2m, i2m]])
                @ np.block([[m1_g, z2m], [z2m, np.linalg.inv(e1)]])
                @ np.block([[i2m, z2m], [-t1 @ m1_a.T, i2m]]))
        m2_h = (np.block([[i2l, -m1_a.T @ t1], [z2l, i2l]])
                @ np.block([[m1_h, z2l], [z2l, np.linalg.inv(f1)]])
                @ np.block([[i2l, z2l], [-t1.T @ m1_a, i2l]]))
        y1 = np.zeros((2 * m, 2 * l)); y1[m:, l:] = y0
        y2 = np.block([[np.zeros_like(y1), y1], [y1, t1]])
        gap_g = np.linalg.inv(m2_g) - y2 @ y2.T - np.eye(4 * m)
        gap_h = np.linalg.inv(m2_h) - y2.T @ y2 - np.eye(4 * l)
        assert np.linalg.norm(gap_g) <= 1e-12, trial
        assert np.linalg.norm(gap_h) <= 1e-12, trial
    print("\nACCEPTANCE 4: PASS - second-step kernel identities within "
          "1e-12 on 10 random instances, n <= 8")


def test_criterion_5_krylov_span():
    """Column space of Vhat_k is the block Krylov space of (A^T, C^T)."""
    for seed in range(5):
        n, m, l = sym_dims(seed, lo=6, hi=12)
        p = gen_random_dare(n, m, l, seed)
        state = dsda_sym_init(p)
        for k in (1, 2, 3):
            state = dsda_sym_step(state)
            krylov = np.hstack([np.linalg.matrix_power(p.a.T, j) @ p.c.T
                                for j in range(2 ** k)])
            vhat = state.chains["v"].basis(state.k)
            rank_v = np.linalg.matrix_rank(vhat)
            rank_joint = np.linalg.matrix_rank(np.hstack([vhat, krylov]))
            assert rank_joint == rank_v, (seed, k)
            assert np.linalg.matrix_rank(krylov) == rank_v, (seed, k)
    print("\nACCEPTANCE 5: PASS - basis span equals the block Krylov "
          "space for k <= 3 on 5 random instances")


TABLE_RESIDUALS = (3.287e-2, 9.694e-4, 2.635e-5, 6.852e-7, 1.759e-8,
                   4.513e-10, 1.157e-11, 2.969e-13, 7.614e-15)


def test_criterion_6_steel_profile_benchmark():
    """Semidiscretized rail-cooling benchmark (n = 1357), dataset-gated."""
    steel_dir = os.environ.get("RICCATI_STEEL_DIR")
    if not steel_dir:
        print("\nACCEPTANCE 6: SKIP - set RICCATI_STEEL_DIR to the "
              "directory holding the n=1357 A.mtx/B.mtx/C.mtx")
        pytest.skip("steel-profile dataset not supplied")
    paths = {k: os.path.join(steel_dir, f"{k}.mtx") for k in ("A", "B", "C")}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        print(f"\nACCEPTANCE 6: SKIP - missing files: {missing}")
        pytest.skip(f"steel-profile files missing: {missing}")
    gamma = float(os.environ.get("RICCATI_STEEL_GAMMA", "1.0"))
    matrices = {k: load_matrix_market(p) for k, p in paths.items()}
    problem = assemble_problem("care", matrices, gamma=gamma)
    report = solve_driver(problem, SolveConfig(tol=1e-13, max_iter=20,
                                               method="dsda"))
    assert report.status == "Converged"
    assert len(report.iterations) <= 10
    final = report.iterations[-1]
    assert final.residual <= 1e-13
    assert abs(final.rank - 191) <= 15
    for rec, expected in zip(report.iterations, TABLE_RESIDUALS):
        ratio = rec.residual / expected
        assert 0.1 <= ratio <= 10.0, (rec.k, rec.residual, expected)
    print(f"\nACCEPTANCE 6: PASS - steel profile converged in "
          f"{len(report.iterations)} iterations, final rho "
          f"{final.residual:.3e}, rank {final.rank}")


def test_criterion_7_mare_nonnegative_monotone():
    """Minimal-solution iterates stay entrywise nonnegative and nondecreasing."""
    for seed in range(N_INSTANCES):
        p = mare_instance(seed)
        state = dsda_mare_init(p)
        prev = np.zeros((p.m, p.n))
        for _ in range(5):
            state = dsda_mare_step(state)
            h = dsda_mare_eval(state, "H").dense()
            assert np.min(h) >= -1e-12, seed
            assert np.min(h - prev) >= -1e-12, seed
            prev = h
    print(f"\nACCEPTANCE 7: PASS - H_k entrywise >= -1e-12 and "
          f"nondecreasing on {N_INSTANCES} M-matrix instances")


def test_criterion_8_budget_behavior():
    """A budget below 2^k * m stops the driver cleanly mid-run."""
    p = gen_random_dare(8, 2, 2, seed=0)
    # Budget below 2^3 * 2 = 16 columns: the step to k = 3 must be refused.
    report = solve_driver(p, SolveConfig(column_budget=15, tol=1e-30))
    assert report.status == "BudgetExceeded"
    assert [rec.k for rec in report.iterations] == [1, 2]
    assert report.final_solution is not None
    assert all(rec.residual >= 0.0 for rec in report.iterations)
    cols = [rec.basis_cols for rec in report.iterations]
    assert cols == [4, 8]

    p_mare = mare_instance(0)
    report = solve_driver(p_mare, SolveConfig(column_budget=3, tol=1e-30,
                                              method="dsda"))
    assert report.status == "BudgetExceeded"
    print("\nACCEPTANCE 8: PASS - column budgets below the doubling "
          "width end in BudgetExceeded with a well-formed partial report")
