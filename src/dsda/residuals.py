"""Normalized residual metrics for each equation family.

Each residual divides the Frobenius norm of the equation residual by
the sum of the norms of the equation's constituent terms, so an exact
solution scores 0 and the zero matrix scores 1 whenever the constant
term is nonzero.  The Bethe-Salpeter family has no residual functional
(the target is an invariant subspace), so a relative increment between
consecutive iterates stands in.

Products with A (and D) use the problem's sparse form when it has one.
"""

from __future__ import annotations

import numpy as np

from .matkit import frobenius_norm, solve_general
from .problems import CareProblem, DareProblem, MareProblem


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def _operator(dense: np.ndarray, sparse):
    """The form a product with the matrix should use."""
    return dense if sparse is None else sparse


def care_residual(p: CareProblem, h: np.ndarray) -> float:
    """rho(H) = ||A^T H + H A - H B B^T H + C^T C||_F
    / (2 ||A^T H||_F + ||H B B^T H||_F + ||C^T C||_F)."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    at_h = _operator(p.a, p.a_sparse).T @ h
    hbb_h = h @ p.b @ (p.b.T @ h)
    ctc = p.c.T @ p.c
    num = frobenius_norm(at_h + at_h.T - hbb_h + ctc)
    den = 2.0 * frobenius_norm(at_h) + frobenius_norm(hbb_h) + frobenius_norm(ctc)
    return _ratio(num, den)


def dare_residual(p: DareProblem, h: np.ndarray) -> float:
    """Same normalization pattern for -H + A^T H (I + B B^T H)^-1 A + C^T C."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    n = p.n
    g = p.b @ p.b.T
    h0 = p.c.T @ p.c
    middle = (_operator(p.a, p.a_sparse).T @ h
              @ solve_general(np.eye(n) + g @ h, p.a))
    num = frobenius_norm(-h + middle + h0)
    den = frobenius_norm(h) + frobenius_norm(middle) + frobenius_norm(h0)
    return _ratio(num, den)


def mare_residual(p: MareProblem, x: np.ndarray) -> float:
    """Same pattern for X C X - X D - A X + B with X of shape m x n."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b = p.b_dense()
    xcx = x @ p.c_dense() @ x
    xd = x @ _operator(p.d, p.d_sparse)
    ax = _operator(p.a, p.a_sparse) @ x
    num = frobenius_norm(xcx - xd - ax + b)
    den = (frobenius_norm(xcx) + frobenius_norm(xd) + frobenius_norm(ax)
           + frobenius_norm(b))
    return _ratio(num, den)


def bsep_increment(f_new: np.ndarray, f_old: np.ndarray) -> float:
    """||F_new - F_old||_F / max(||F_new||_F, tiny)."""
    f_new = np.atleast_2d(np.asarray(f_new))
    f_old = np.atleast_2d(np.asarray(f_old))
    return frobenius_norm(f_new - f_old) / max(frobenius_norm(f_new), 1e-300)
