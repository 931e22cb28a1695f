import numpy as np
import pytest

from dsda.errors import NotSpdError, SingularMatrixError
from dsda.matkit import frobenius_norm, numerical_rank, solve_general, solve_spd


class TestSolveSpd:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(solve_spd(np.eye(3), b), b)

    def test_2x2_closed_form(self):
        k = np.array([[1.25, -0.25], [-0.25, 1.5]])
        # det = 1.25*1.5 - 0.0625 = 1.8125, adjugate inverse by hand
        det = 1.8125
        expected = np.array([[1.5, 0.25], [0.25, 1.25]]) / det
        assert np.allclose(solve_spd(k, np.eye(2)), expected, atol=1e-15)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
        assert np.allclose(x, np.ones((2, 1)))

    def test_not_spd(self):
        with pytest.raises(NotSpdError):
            solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


class TestSolveGeneral:
    def test_identity(self):
        b = np.arange(4.0).reshape(2, 2)
        assert np.allclose(solve_general(np.eye(2), b), b)

    def test_permutation(self):
        k = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(solve_general(k, np.eye(2)), k)

    def test_singular_rank_one(self):
        k = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_general(k, np.eye(2))

    def test_agrees_with_spd_on_spd_input(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            w = rng.standard_normal((4, 4))
            k = w @ w.T + np.eye(4)
            b = rng.standard_normal((4, 3))
            x1 = solve_spd(k, b)
            x2 = solve_general(k, b)
            assert np.linalg.norm(x1 - x2) <= 1e-12 * np.linalg.norm(x1)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity4(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_3_4_5(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 6))
        for alpha in (-2.5, 0.0, 0.125, 7.0):
            assert frobenius_norm(alpha * m) == pytest.approx(
                abs(alpha) * frobenius_norm(m), rel=4 * np.finfo(float).eps)

    def test_complex(self):
        assert frobenius_norm(np.array([[3.0 + 4.0j]])) == pytest.approx(5.0)


class TestNumericalRank:
    def test_tiny_singular_value_dropped(self):
        assert numerical_rank(np.diag([1.0, 1e-20])) == 1

    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_outer_product(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(6) + 0.1
        v = rng.standard_normal(4) + 0.1
        assert numerical_rank(np.outer(u, v)) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((6, 6))
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank 5
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert numerical_rank(q @ m) == numerical_rank(m)
        assert numerical_rank(m @ q) == numerical_rank(m)

    def test_rel_tol_validation(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), rel_tol=1.5)
