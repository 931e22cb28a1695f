import math

import numpy as np
import pytest

from dsda.classical import (
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
from dsda.errors import InvalidShiftError, SingularMatrixError
from dsda.matkit import solve_general
from dsda.problems import (
    BsepProblem,
    CareProblem,
    DareProblem,
    MareProblem,
    gen_random_care,
    gen_random_mare,
)


def empty_mare(a, d):
    """MARE problem with B = C = 0 expressed through zero-width factors."""
    m = np.atleast_2d(np.asarray(a, dtype=float)).shape[0]
    n = np.atleast_2d(np.asarray(d, dtype=float)).shape[0]
    return MareProblem(a, d, np.zeros((m, 0)), np.zeros((n, 0)),
                       np.zeros((n, 0)), np.zeros((m, 0)))


class TestDareInit:
    def test_scalar(self):
        s = dare_init(DareProblem([[0.5]], [[1.0]], [[1.0]]))
        assert s.a_k == pytest.approx(np.array([[0.5]]))
        assert s.g_k == pytest.approx(np.array([[1.0]]))
        assert s.h_k == pytest.approx(np.array([[1.0]]))
        assert s.k == 0

    def test_zero_b(self):
        s = dare_init(DareProblem(np.eye(3) * 0.5, np.zeros((3, 2)),
                                  np.ones((1, 3))))
        assert np.array_equal(s.g_k, np.zeros((3, 3)))

    def test_h0_psd_and_low_rank(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((2, 3))
        s = dare_init(DareProblem(rng.standard_normal((3, 3)) * 0.1,
                                  rng.standard_normal((3, 1)), c))
        eigs = np.linalg.eigvalsh(s.h_k)
        assert np.min(eigs) >= -1e-12
        assert np.linalg.matrix_rank(s.h_k) <= 2


class TestCareInit:
    def test_scalar_h0(self):
        s = care_init(CareProblem([[-1.0]], [[1.0]], [[1.0]], gamma=1.0))
        # V0 = -0.5, F0 = 1.25, H0 = 2*0.25/1.25 = 0.4
        assert s.h_k == pytest.approx(np.array([[0.4]]))
        # A0 = I + 2 gamma K^-T with K = -2.5, so A0 = 0.2
        assert s.a_k == pytest.approx(np.array([[0.2]]))
        assert s.g_k == pytest.approx(np.array([[0.4]]))

    def test_zero_c(self):
        s = care_init(CareProblem(-np.eye(3), np.ones((3, 1)),
                                  np.zeros((1, 3)), gamma=1.0))
        assert np.allclose(s.h_k, 0.0)

    def test_routes_agree(self):
        # The low-rank start against the direct Cayley formulas
        # A_0 = I + 2 gamma K^-T, G_0 = 2 gamma A_g^-1 G K^-1 and
        # H_0 = 2 gamma K^-1 H A_g^-1 with K = A_g^T + H A_g^-1 G.
        p = gen_random_care(6, 2, 2, seed=42)
        n, gamma = p.n, p.gamma
        eye = np.eye(n)
        a_g = p.a - gamma * eye
        g, h = p.b @ p.b.T, p.c.T @ p.c
        ag_inv = solve_general(a_g, eye)
        k_inv = solve_general(a_g.T + h @ ag_inv @ g, eye)
        g0 = 2.0 * gamma * ag_inv @ g @ k_inv
        h0 = 2.0 * gamma * k_inv @ h @ ag_inv
        s = care_init(p)
        for x, y in ((s.a_k, eye + 2.0 * gamma * k_inv.T),
                     (s.g_k, (g0 + g0.T) / 2.0), (s.h_k, (h0 + h0.T) / 2.0)):
            assert np.linalg.norm(x - y) <= 1e-12 * max(1.0, np.linalg.norm(y))

    def test_invalid_shift(self):
        with pytest.raises(InvalidShiftError):
            CareProblem([[-1.0]], [[1.0]], [[1.0]], gamma=-2.0)

    def test_singular_cayley_shift(self):
        # gamma equal to an eigenvalue of A makes A - gamma I singular
        with pytest.raises(SingularMatrixError):
            care_init(CareProblem([[2.0]], [[1.0]], [[1.0]], gamma=2.0))


class TestSymStep:
    def test_scalar_dare_one_step(self):
        s = sym_sda_step(dare_init(DareProblem([[0.5]], [[1.0]], [[1.0]])))
        assert s.a_k == pytest.approx(np.array([[0.125]]))
        assert s.g_k == pytest.approx(np.array([[1.125]]))
        assert s.h_k == pytest.approx(np.array([[1.125]]))
        assert s.k == 1

    def test_zero_g_gives_stein_partial_sums(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5)) * 0.3
        c = rng.standard_normal((2, 5))
        s = dare_init(DareProblem(a, np.zeros((5, 1)), c))
        h0 = s.h_k
        for k in (1, 2, 3, 4):
            s = sym_sda_step(s)
            direct = sum(np.linalg.matrix_power(a.T, j) @ h0
                         @ np.linalg.matrix_power(a, j) for j in range(2 ** k))
            assert np.allclose(s.a_k, np.linalg.matrix_power(a, 2 ** k))
            assert np.linalg.norm(s.h_k - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_scalar_care_converges(self):
        s = care_init(CareProblem([[-1.0]], [[1.0]], [[1.0]], gamma=1.0))
        for _ in range(4):
            s = sym_sda_step(s)
        assert abs(s.h_k[0, 0] - (math.sqrt(2.0) - 1.0)) <= 1e-10

    def test_h_monotone_psd(self):
        p = gen_random_care(8, 2, 2, seed=3)
        s = care_init(p)
        for _ in range(4):
            nxt = sym_sda_step(s)
            incr = np.linalg.eigvalsh(nxt.h_k - s.h_k)
            assert np.min(incr) >= -1e-10
            s = nxt

    def test_symmetry_enforced(self):
        p = gen_random_care(8, 2, 2, seed=5)
        s = care_init(p)
        for _ in range(5):
            s = sym_sda_step(s)
            assert np.array_equal(s.g_k, s.g_k.T)
            assert np.array_equal(s.h_k, s.h_k.T)

    def test_zero_c_stays_zero(self):
        s = care_init(CareProblem(-np.eye(4), np.ones((4, 2)),
                                  np.zeros((1, 4)), gamma=1.0))
        for _ in range(3):
            s = sym_sda_step(s)
            assert np.array_equal(s.h_k, np.zeros((4, 4)))


SCALAR_MARE = MareProblem([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]],
                          [[1.0]], gamma=3.0)


class TestMareInit:
    def test_scalar(self):
        s = mare_init(SCALAR_MARE)
        # W_gamma = 5 - 1/6 = 29/6, H0 = 6 * (6/29) * (1/6) = 6/29
        assert s.h_k == pytest.approx(np.array([[6.0 / 29.0]]))

    def test_zero_b_and_c(self):
        a = np.array([[2.0, -0.5], [-0.25, 3.0]])
        d = np.array([[4.0, -1.0], [0.0, 5.0]])
        p = empty_mare(a, d)
        s = mare_init(p)
        gamma = 5.0  # max diagonal
        assert np.array_equal(s.h_k, np.zeros((2, 2)))
        assert np.array_equal(s.g_k, np.zeros((2, 2)))
        assert np.allclose(
            s.e_k, np.eye(2) - 2 * gamma * np.linalg.inv(d + gamma * np.eye(2)))
        assert np.allclose(
            s.f_k, np.eye(2) - 2 * gamma * np.linalg.inv(a + gamma * np.eye(2)))

    def test_adda_with_equal_shifts_matches_sda(self):
        p = gen_random_mare(4, 3, 2, 1, seed=1)
        gamma = float(max(np.max(np.diag(p.a)), np.max(np.diag(p.d))))
        p_g = MareProblem(p.a, p.d, p.b_l, p.b_r, p.c_l, p.c_r, gamma=gamma,
                          alpha=gamma, beta=gamma)
        s_sda = mare_init(p_g, mode="sda")
        s_adda = mare_init(p_g, mode="adda")
        for x, y in ((s_sda.e_k, s_adda.e_k), (s_sda.f_k, s_adda.f_k),
                     (s_sda.g_k, s_adda.g_k), (s_sda.h_k, s_adda.h_k)):
            assert np.array_equal(x, y)

    def test_shift_below_diagonal_rejected(self):
        # The problem checks its explicit shifts when it is built.
        with pytest.raises(InvalidShiftError):
            MareProblem([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                        gamma=1.0)


class TestMareStep:
    def test_scalar_converges_to_minimal_root(self):
        s = mare_init(SCALAR_MARE)
        for _ in range(8):
            s = mare_sda_step(s)
        target = (5.0 - math.sqrt(21.0)) / 2.0
        assert abs(s.h_k[0, 0] - target) <= 1e-12

    def test_zero_coupling_squares_e_f(self):
        a = np.array([[2.0, -0.5], [-0.25, 3.0]])
        d = np.array([[4.0, -1.0], [0.0, 5.0]])
        s = mare_init(empty_mare(a, d))
        e0, f0 = s.e_k, s.f_k
        for k in (1, 2, 3):
            s = mare_sda_step(s)
            assert np.array_equal(s.h_k, np.zeros((2, 2)))
            assert np.allclose(s.e_k, np.linalg.matrix_power(e0, 2 ** k))
            assert np.allclose(s.f_k, np.linalg.matrix_power(f0, 2 ** k))

    def test_e_f_decay_on_scalar_example(self):
        s = mare_init(SCALAR_MARE)
        for _ in range(6):
            s = mare_sda_step(s)
        assert abs(s.e_k[0, 0]) < 1e-8
        assert abs(s.f_k[0, 0]) < 1e-8

    def test_nonnegative_and_monotone_on_m_matrix_instances(self):
        for seed in (0, 1, 2):
            p = gen_random_mare(4, 5, 2, 2, seed=seed)
            s = mare_init(p)
            prev_h = np.zeros_like(s.h_k)
            prev_g = np.zeros_like(s.g_k)
            for _ in range(5):
                s = mare_sda_step(s)
                assert np.min(s.h_k) >= -1e-12
                assert np.min(s.g_k) >= -1e-12
                assert np.min(s.h_k - prev_h) >= -1e-12
                assert np.min(s.g_k - prev_g) >= -1e-12
                prev_h, prev_g = s.h_k, s.g_k


class TestBsepInit:
    def test_zero_b(self):
        a = np.diag([-1.0, -2.0]).astype(complex)
        p = BsepProblem(a, np.zeros((2, 0)), alpha=1.0)
        s = bsep_init(p)
        assert np.array_equal(s.f_k, np.zeros((2, 2), dtype=complex))
        expected = np.eye(2) - 2.0 * np.linalg.inv(np.eye(2) - a)
        assert np.allclose(s.e_k, expected)

    def test_scalar_singular_r(self):
        # R = 1 - 1/(alpha - a)^2 vanishes at alpha = 1, a = 2
        with pytest.raises(SingularMatrixError):
            bsep_init(BsepProblem([[2.0]], [[1.0]], alpha=1.0))

    def test_scalar_alpha4(self):
        s = bsep_init(BsepProblem([[2.0]], [[1.0]], alpha=4.0))
        # R = 3/4; hand evaluation gives E0 = -13/3, F0 = -8/3
        assert s.e_k[0, 0] == pytest.approx(-13.0 / 3.0)
        assert s.f_k[0, 0] == pytest.approx(-8.0 / 3.0)


class TestBsepStep:
    def test_zero_f_squares_e(self):
        a = np.diag([-1.0, -2.0]).astype(complex)
        s = bsep_init(BsepProblem(a, np.zeros((2, 0)), alpha=1.0))
        e0 = s.e_k
        s = bsep_sda_step(s)
        assert np.array_equal(s.f_k, np.zeros((2, 2), dtype=complex))
        assert np.allclose(s.e_k, e0 @ e0)

    def test_scalar_limit_matches_eigen_oracle(self):
        p = BsepProblem([[2.0]], [[1.0]], alpha=4.0)
        s = bsep_init(p)
        for _ in range(8):
            s = bsep_sda_step(s)
        # Stable eigenvector of [[2, 1], [-1, -2]]: limit F = -x2/x1
        ham = p.hamiltonian()
        w, v = np.linalg.eig(ham)
        stable = v[:, np.argmin(w.real)]
        target = -stable[1] / stable[0]
        assert abs(s.f_k[0, 0] - target) <= 1e-10
        assert abs(s.e_k[0, 0]) <= 1e-10

    def test_f_stays_complex_symmetric(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = -(w @ w.conj().T / 8.0 + np.eye(4))
        l_b = 0.3 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        s = bsep_init(BsepProblem(a, l_b, alpha=1.0))
        for _ in range(4):
            s = bsep_sda_step(s)
            gap = np.linalg.norm(s.f_k - s.f_k.T)
            assert gap <= 1e-10 * max(1.0, np.linalg.norm(s.f_k))
