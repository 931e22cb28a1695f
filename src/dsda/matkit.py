"""Linear-algebra kernel.

Small-matrix primitives the doubling iterations are built from: the
pivoted general solve with its one singularity test (applied to dense
and to sparse LU factors alike), the density below which a problem
keeps its operator in sparse form (``SPARSE_MAX_DENSITY``, read by
:mod:`dsda.problems`), an overflow-safe Frobenius norm and the
numerical rank.  The rank counts the singular values above
``eps * max(rows, cols)`` times the largest one; for a Hermitian matrix
they are the eigenvalue magnitudes, which ``eigvalsh`` finds several
times faster than an SVD.  SPD kernels are factored from their
generators (``decoupled._schur_solve``).  Everything works on plain 2-D
numpy arrays (real float64, or complex128 where noted) and raises the
package exceptions on failure instead of letting numpy/scipy errors
escape.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError

EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

#: Relative pivot threshold below which a pivoted elimination is declared
#: singular.  The underlying theory only assumes nonsingularity, so a
#: concrete detection threshold has to be fixed somewhere; this is it.
SINGULARITY_RTOL = 1e-14

#: Largest share of nonzero entries for which a problem applies and
#: factors its operator in sparse form (``problems._operator_of``).
#: Measured on five-point heat operators (2 CPUs, OpenBLAS): one
#: propagator application to an n x w block costs, as a dense GEMM
#: against a solve with a sparse LU of the shifted operator, 1.7-3.2 ms
#: against 0.72 ms at n = 1369 (0.36 % nonzero, w = 7), 0.19-0.23 ms
#: against 0.13 ms at n = 576 (0.84 %, w = 3), 0.04 ms against 0.11 ms
#: at n = 400 (1.2 %, w = 4) and 0.05 ms against 0.15-0.21 ms at
#: n = 256 (1.9 %, w = 12); the range is one to two BLAS threads.  The
#: crossover lies between 0.84 % and 1.2 %.
SPARSE_MAX_DENSITY = 0.01


def as_matrix(a, name: str = "matrix", *, finite: bool = True) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64/complex128 array.

    Scalars become 1 x 1 and 1-D arrays of length n become 1 x n rows,
    so the scalar worked examples need no ceremony.  Non-finite entries
    raise :class:`dsda.errors.NonFiniteError` (a ``ValueError``) unless
    ``finite`` is false.
    """
    arr = np.atleast_2d(np.asarray(a))
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got {arr.ndim}-D")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if finite and arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(m) -> float:
    """Frobenius norm: sqrt of the sum of squared entry magnitudes.

    The plain sum of squares overflows for entries above about 1e154
    and loses accuracy when the squares underflow; outside its safe
    range the BLAS ``nrm2`` kernel, which rescales as it sums, takes
    over.  Non-finite entries propagate.
    """
    arr = np.atleast_2d(np.asarray(m))
    if arr.size == 0:
        return 0.0
    flat = np.ravel(arr, order="K")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(flat))
    if np.sqrt(flat.size * _TINY) <= norm < np.inf:
        return norm
    (nrm2,) = scipy.linalg.blas.get_blas_funcs(("nrm2",), (flat,))
    return float(nrm2(flat))


def numerical_rank(m, rel_tol: float | None = None, *,
                   hermitian: bool = False) -> int:
    """Number of singular values above ``rel_tol`` times the largest one.

    ``rel_tol`` defaults to ``eps * max(rows, cols)``, the conventional
    spectral threshold.  The zero matrix has rank 0.  With ``hermitian``
    the matrix is taken to be Hermitian (only its lower triangle is
    read) and the singular values are the magnitudes of its eigenvalues.
    """
    arr = np.atleast_2d(np.asarray(m))
    if arr.size == 0:
        return 0
    if rel_tol is None:
        rel_tol = EPS * max(arr.shape)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if hermitian:
        sigma = np.abs(np.linalg.eigvalsh(arr))
    else:
        sigma = np.linalg.svd(arr, compute_uv=False)
    smax = sigma.max()
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * smax))


def _factor_checked(factor, norm: float, shape: tuple, what: str):
    """The factors ``factor()`` returns with their pivots, under the one
    singularity test: a non-finite ``norm`` (tested before factoring) or
    a pivot below ``SINGULARITY_RTOL * norm`` is a ``SingularMatrixError``."""
    size = f"{shape[0]}x{shape[1]} {what}"
    if not np.isfinite(norm):
        raise SingularMatrixError(f"non-finite entries in {size}")
    factors, pivots = factor()
    pivot_floor = SINGULARITY_RTOL * norm
    if not np.min(np.abs(pivots)) > pivot_floor:
        raise SingularMatrixError(f"pivot below {pivot_floor:.3e} in {size}")
    return factors


def lu_factor_checked(k: np.ndarray, *,
                      overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted LU factors ``(lu, piv)`` of a square array.

    With ``overwrite_a`` the factors may be written over K (they are
    when K is Fortran-ordered); otherwise K is left untouched.

    Raises
    ------
    SingularMatrixError
        If K has non-finite entries, or any pivot falls below
        ``SINGULARITY_RTOL * ||K||_F`` or is NaN, which signals a
        violation of the standing nonsingularity assumptions of the
        doubling recursions.
    """
    if k.shape[0] == 0:
        return k, np.zeros(0, dtype=np.int32)

    def factor():
        with warnings.catch_warnings():
            # Exactly-zero pivots are reported by the threshold check.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(k, overwrite_a=overwrite_a,
                                             check_finite=False)
        return (lu, piv), np.diag(lu)

    return _factor_checked(factor, frobenius_norm(k), k.shape, "matrix")


def splu_shifted(a, shift: complex):
    """Sparse LU (``scipy.sparse.linalg.SuperLU``) of M = ``a + shift * I``
    for a square sparse ``a``.

    A structurally symmetric M is ordered by minimum degree on its own
    graph (``MMD_AT_PLUS_A``), which on the five-point heat operators
    leaves 37-43 % less fill than the default column order (COLAMD; X.
    S. Li, ACM TOMS 31, 2005); any other M keeps COLAMD.  Both keep
    partial pivoting.

    Raises ``SingularMatrixError`` when the shifted matrix has
    non-finite entries, when ``splu`` finds it exactly singular, or when
    a diagonal entry of U falls below the ``SINGULARITY_RTOL * ||M||_F``
    floor of :func:`lu_factor_checked`.
    """
    import scipy.sparse
    from scipy.sparse.linalg import splu

    m = scipy.sparse.csc_array(a + shift * scipy.sparse.identity(
        a.shape[0], dtype=a.dtype, format="csc"))
    m.sort_indices()
    # The rows of M, in sorted order, are the columns of M^T.
    rows = m.tocsr()
    structural = (np.array_equal(m.indptr, rows.indptr)
                  and np.array_equal(m.indices, rows.indices))

    def factor():
        try:
            lu = splu(m, permc_spec="MMD_AT_PLUS_A" if structural
                      else "COLAMD")
        except RuntimeError as exc:
            raise SingularMatrixError(
                f"{exc} ({m.shape[0]}x{m.shape[1]} sparse matrix)") from exc
        return lu, lu.U.diagonal()

    return _factor_checked(factor, frobenius_norm(m.data), m.shape,
                           "sparse matrix")


def solve_general(k, b) -> np.ndarray:
    """Solve ``K X = B`` for square K by pivoted LU elimination.

    Raises ``SingularMatrixError`` as :func:`lu_factor_checked` does, so
    a K that overflowed inside a recursion ends it as singular;
    non-finite entries of B carry over into X.
    """
    kk = as_matrix(k, "K", finite=False)
    bb = as_matrix(b, "B", finite=False)
    if kk.shape[0] != kk.shape[1]:
        raise DimensionMismatchError(f"K must be square, got {kk.shape}")
    if bb.shape[0] != kk.shape[0]:
        raise DimensionMismatchError(
            f"K has {kk.shape[0]} rows but B has {bb.shape[0]}")
    if kk.shape[0] == 0:
        return np.zeros_like(bb)
    return scipy.linalg.lu_solve(lu_factor_checked(kk), bb, check_finite=False)

