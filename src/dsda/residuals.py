"""Normalized residual metrics for each equation family.

Each residual divides the Frobenius norm of the equation residual by
the sum of the norms of the equation's constituent terms, so an exact
solution scores 0 and the zero matrix scores 1 whenever the constant
term is nonzero.  The Bethe-Salpeter family has no residual functional
(the target is an invariant subspace), so a relative increment between
consecutive iterates stands in.

Every metric takes a dense iterate (the ``sda`` route) or the
:class:`dsda.decoupled.LowRankSolution` ``Q_l core Q_r^T``, with
orthonormal ``Q_l`` and ``Q_r``, of a decoupled evaluator, and holds
the formula for each: a dense iterate is measured dense, a low-rank
one from its spans and core, and the two forms share the norms and
ratio they end with.  The low-rank form never makes an n x n array:
every term of a residual lies in the span of Q and of a few thin
products, so its norms are those of small coefficient matrices in an
orthonormal basis of that span (low-rank residual norms as in Benner &
Saak, GAMM-Mitt. 36, 2013).  The DARE inverse is taken in the same
Woodbury form, one m x m solve, by both.

Products with A (and D) use the problem's operator form, ``a_op`` (and
``d_op``): its CSR copy when it is sparse, else the dense array.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .decoupled import LowRankSolution
from .matkit import frobenius_norm
from .problems import CareProblem, DareProblem, MareProblem


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def _coordinates(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Coefficients of the columns of ``z`` in an orthonormal basis
    ``[Q, Q2]`` of their span together with the orthonormal ``q``.

    Q2 is the Q factor of a thin QR of the part of ``z`` outside Q,
    projected out twice so that it is orthogonal to Q to roundoff.
    ``z = Q top + Q2 bottom`` gives the coefficients ``[top; bottom]``,
    so Q2 itself is never formed.  Q's own coefficients are the leading
    identity columns.  A square Q spans everything, and Q2 is empty.

    The projections are made in place: ``z`` is overwritten with its
    part outside Q, so callers pass a buffer of their own.
    """
    top = q.T @ z
    if q.shape[1] == q.shape[0]:
        return top
    z -= q @ top
    again = q.T @ z
    z -= q @ again
    top += again
    return np.vstack([top, np.linalg.qr(z, mode="r")])


def care_residual(p: CareProblem, h: np.ndarray | LowRankSolution) -> float:
    """rho(H) = ||A^T H + H A - H B B^T H + C^T C||_F
    / (2 ||A^T H||_F + ||H B B^T H||_F + ||C^T C||_F) for symmetric H.

    Dense, with X = [H B, C^T] and S = diag(-I, I), the last two terms
    are X S X^T, one thin product added into A^T H + (A^T H)^T; their
    norms come from the small Gram matrices (H B)^T H B and C C^T.

    For ``H = Q core Q^T`` every term lies in the span of Q, A^T Q and
    C^T: A^T H is (A^T Q) core Q^T and H B B^T H is
    Q (core Q^T B)(core Q^T B)^T Q^T.
    """
    if isinstance(h, LowRankSolution):
        q, core = h.q_left, h.core
        r = q.shape[1]
        coords = _coordinates(q, np.hstack([p.a_op.T @ q, p.c.T]))
        at_h = coords[:, :r] @ core
        hb = core @ (q.T @ p.b)
        hbb_h = hb @ hb.T
        ct = coords[:, r:]
        num = ct @ ct.T
        num[:, :r] += at_h
        num[:r] += at_h.T
        num[:r, :r] -= hbb_h
    else:
        h = np.atleast_2d(np.asarray(h, dtype=float))
        at_h = p.a_op.T @ h
        hb = h @ p.b
        m = hb.shape[1]
        x = np.hstack([hb, p.c.T])
        signed = x.copy()
        signed[:, :m] *= -1.0
        hbb_h = hb.T @ hb
        # Fortran order lets gemm add X S X^T into the buffer in place.
        num = np.add(at_h, at_h.T, order="F")
        gemm = scipy.linalg.get_blas_funcs("gemm", (num, x))
        num = gemm(1.0, signed, x, beta=1.0, c=num, trans_b=True,
                   overwrite_c=True)
    den = (2.0 * frobenius_norm(at_h) + frobenius_norm(hbb_h)
           + frobenius_norm(p.c @ p.c.T))
    return _ratio(frobenius_norm(num), den)


def _absorbed(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``H (I + B B^T H)^-1`` in the Woodbury form
    ``H - H B (I + B^T H B)^-1 B^T H``: one solve with the m x m matrix
    ``I + B^T H B``, which is nonsingular for any symmetric positive
    semidefinite H (no pivot floor is applied to it)."""
    hb = h @ b
    gram = b.T @ hb
    gram[np.diag_indices_from(gram)] += 1.0
    return h - hb @ np.linalg.solve(gram, b.T @ h)


def dare_residual(p: DareProblem, h: np.ndarray | LowRankSolution) -> float:
    """Same normalization pattern for -H + A^T H (I + B B^T H)^-1 A + C^T C.

    The middle term is A^T (H - H B (I + B^T H B)^-1 B^T H) A, with one
    m x m solve (:func:`_absorbed`).  For ``H = Q core Q^T`` and
    W = Q^T B, H (I + B B^T H)^-1 = Q s Q^T with
    s = core (I + W W^T core)^-1, the same solve, after which the middle
    term is (A^T Q) s (A^T Q)^T.
    """
    if isinstance(h, LowRankSolution):
        q, h = h.q_left, h.core
        r = q.shape[1]
        coords = _coordinates(q, np.hstack([p.a_op.T @ q, p.c.T]))
        s = _absorbed(h, q.T @ p.b)
        at_q, ct = coords[:, :r], coords[:, r:]
        middle = at_q @ s @ at_q.T
        num = middle + ct @ ct.T
        num[:r, :r] -= h
        h0 = p.c @ p.c.T
    else:
        h = np.atleast_2d(np.asarray(h, dtype=float))
        h0 = p.c.T @ p.c
        middle = p.a_op.T @ (_absorbed(h, p.b) @ p.a_op)
        num = -h + middle + h0
    den = frobenius_norm(h) + frobenius_norm(middle) + frobenius_norm(h0)
    return _ratio(frobenius_norm(num), den)


def mare_residual(p: MareProblem, x: np.ndarray | LowRankSolution) -> float:
    """Same pattern for X C X - X D - A X + B with X of shape m x n.

    For ``X = Q_l core Q_r^T`` column spaces lie in the span of Q_l,
    A Q_l and B_l, row spaces in that of Q_r, D^T Q_r and B_r.
    """
    if isinstance(x, LowRankSolution):
        q_left, core, q_right = x.q_left, x.core, x.q_right
        rl, rr = core.shape
        left = _coordinates(q_left, np.hstack([p.a_op @ q_left, p.b_l]))
        right = _coordinates(q_right, np.hstack([p.d_op.T @ q_right, p.b_r]))
        xcx = core @ (q_right.T @ p.c_l) @ (p.c_r.T @ q_left) @ core
        xd = core @ right[:, :rr].T
        ax = left[:, :rl] @ core
        b = left[:, rl:] @ right[:, rr:].T
        num = b.copy()
        num[:rl, :rr] += xcx
        num[:rl] -= xd
        num[:, :rr] -= ax
    else:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        b = p.b_dense()
        xcx = x @ p.c_dense() @ x
        xd = x @ p.d_op
        ax = p.a_op @ x
        num = xcx - xd - ax + b
    den = (frobenius_norm(xcx) + frobenius_norm(xd) + frobenius_norm(ax)
           + frobenius_norm(b))
    return _ratio(frobenius_norm(num), den)


def bsep_increment(f_new: np.ndarray | LowRankSolution,
                   f_old: np.ndarray | LowRankSolution) -> float:
    """||F_new - F_old||_F / max(||F_new||_F, tiny).

    For ``F_new = Q core_new Q^T`` and ``F_old = Q[:, :a] core_old
    Q[:, :a]^T``, whose basis leads F_new's, the difference is that of
    the cores, with core_old subtracted from the leading block.
    """
    if isinstance(f_new, LowRankSolution):
        f_new, f_old = f_new.core, f_old.core
        diff = f_new.copy()
        a, b = f_old.shape
        diff[:a, :b] -= f_old
    else:
        f_new = np.atleast_2d(np.asarray(f_new))
        diff = f_new - np.atleast_2d(np.asarray(f_old))
    return frobenius_norm(diff) / max(frobenius_norm(f_new), 1e-300)
