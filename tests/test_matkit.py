import numpy as np
import pytest
import scipy.linalg

from dsda.errors import SingularMatrixError
from dsda.matkit import (
    frobenius_norm,
    lu_factor_checked,
    numerical_rank,
    solve_general,
)


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
            x1 = scipy.linalg.solve(k, b, assume_a="pos")
            x2 = solve_general(k, b)
            assert np.linalg.norm(x1 - x2) <= 1e-12 * np.linalg.norm(x1)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_its_arguments_untouched(self, order):
        rng = np.random.default_rng(3)
        k = np.array(rng.standard_normal((5, 5)) + 5.0 * np.eye(5), order=order)
        b = np.array(rng.standard_normal((5, 2)), order=order)
        k_before, b_before = k.copy(), b.copy()
        solve_general(k, b)
        lu_factor_checked(k)
        assert np.array_equal(k, k_before)
        assert np.array_equal(b, b_before)

    def test_overwrite_factors_a_fortran_array_in_place(self):
        k = np.asfortranarray(np.random.default_rng(4).standard_normal((5, 5))
                              + 5.0 * np.eye(5))
        want = lu_factor_checked(k)
        lu, piv = lu_factor_checked(k, overwrite_a=True)
        assert np.shares_memory(lu, k)
        assert np.array_equal(lu, want[0]) and np.array_equal(piv, want[1])


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

    @pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300])
    def test_no_overflow_or_underflow(self, scale):
        m = scale * np.array([[3.0, 0.0], [0.0, 4.0]])
        assert frobenius_norm(m) == pytest.approx(5.0 * scale)

    def test_nonfinite_propagates(self):
        assert np.isnan(frobenius_norm(np.array([[1.0, np.nan]])))
        assert frobenius_norm(np.array([[1.0, np.inf]])) == np.inf


class TestHugeEntries:
    def test_solve_above_square_overflow(self):
        # The pivot floor scales with ||K||_F, whose square overflows here.
        assert solve_general([[-1e160]], [[1.0]])[0, 0] == pytest.approx(-1e-160)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_k_is_singular(self, bad):
        with pytest.raises(SingularMatrixError):
            solve_general([[1.0, 0.0], [0.0, bad]], np.eye(2))


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


class TestHermitianRank:
    """``hermitian=True`` counts |eigenvalues| against the same cutoff."""

    @staticmethod
    def sym_with_spectrum(eigs, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
        m = (q * eigs) @ q.T
        return (m + m.T) / 2.0

    @pytest.mark.parametrize("eigs", [
        [3.0, 1.0, 1e-3, 0.0, 0.0, 0.0],           # psd, rank 3
        [5.0, -2.0, 1e-8, -1e-9, 0.0, 0.0],        # indefinite, rank 4
        [1.0, -1.0, 1e-17, -1e-18, 0.0, 0.0],      # indefinite, rank 2
        [-4.0, -1.0, -0.5, -0.25, -0.1, -0.01],    # negative definite
    ])
    def test_matches_svd_rank(self, eigs):
        m = self.sym_with_spectrum(np.array(eigs), seed=len(eigs))
        assert numerical_rank(m, hermitian=True) == numerical_rank(m)

    def test_random_symmetric_low_rank(self):
        rng = np.random.default_rng(4)
        for rank in (1, 3, 7):
            f = rng.standard_normal((12, rank))
            signs = np.where(np.arange(rank) % 2, -1.0, 1.0)
            m = (f * signs) @ f.T
            assert numerical_rank(m, hermitian=True) == numerical_rank(m) == rank

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((5, 5)), hermitian=True) == 0

    def test_explicit_rel_tol(self):
        m = self.sym_with_spectrum(np.array([-1.0, 1e-4, 1e-7, 0.0]), seed=2)
        for rel_tol, want in ((1e-3, 1), (1e-5, 2), (1e-9, 3)):
            assert numerical_rank(m, rel_tol, hermitian=True) == want
            assert numerical_rank(m, rel_tol) == want

    def test_complex_hermitian(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        m = f @ f.conj().T
        assert numerical_rank(m, hermitian=True) == numerical_rank(m) == 2
