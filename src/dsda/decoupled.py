"""Decoupled doubling with growing block bases and block Hankel kernels.

Instead of iterating two to four coupled dense matrices, each doubling
step only extends block bases, one propagator product per new block.
The bases span block Krylov spaces, u_i = P^i u_0 and v_j = (P^T)^j v_0,
so block (i, j) of T_k = Uhat_k^T Vhat_k is the moment
M_{i+j} = u_0^T (P^T)^(i+j) v_0, and the kernel recursion

    Y_k = [[0, Y_{k-1}], [Y_{k-1}, mu * T_{k-1}]]

makes Y_k block Hankel too: block (i, j) is 0 when i + j < 2^k - 1, the
seed Y_0 when i + j = 2^k - 1 and mu * M_{i+j-2^k} beyond.  A state
keeps only Y_0 and the moments M_0 ... M_{2^(k+1)-2}; each step appends
the new ones with one product of the last new left block and the new
right basis, and :func:`dsda_assemble` builds Y or T on demand for
validation.  All iterates of the classical recursions then follow:

    H_k = c * Vhat (I + sigma Y^T Y)^-1 Vhat^T
    G_k = c * Uhat (I + sigma Y Y^T)^-1 Uhat^T
    A_k = P^(2^k) - c * Uhat (I + sigma Y Y^T)^-1 Y Vhat^T

with family parameters (c, mu, sigma) = (1, 1, +1) for DARE,
(2g, 2g, +1) for CARE and (2a, -2a, -1) for the Bethe-Salpeter problem,
whose F_k carries an extra minus sign.  The four-matrix family keeps
two kernels Y, Z (seeds plus moments of Qhat^T What and Vhat^T Uhat,
with mu = -s) and four bases (Uhat, Vhat, What, Qhat) with

    H_k = s * Uhat (I - Y Z)^-1 Qhat^T,   G_k = s * What (I - Z Y)^-1 Vhat^T,

where the shift sum s is 2g for plain doubling and alpha + beta for the
alternating-directional variant.

The evaluators never assemble Y or Z.  With b = 2^k, the last block row
and column of Y both hold the tail h_{b-1} ... h_{2b-2} of its sequence
(the seed and the first b - 1 scaled moments).  For block-Hankel X and W
whose sequences vanish below index b - 1, as Y and Z do, block (i, j)
of XW is sum_p x_{i+p} w_{p+j}, so

    (XW)_{i+1,j+1} = (XW)_{i,j} + x_{b+i} w_{b+j}

and XW is the block-diagonal prefix sum of the product of X's last
block column and W's last block row.  Each of Y^T Y, Y Y^T, Y Z and
Z Y is thus one thin product, O(cols^2 width) instead of O(cols^3);
only the factorization of the cols x cols kernel stays cubic.

The closed-form statements for the one-kernel families are usually
quoted for k >= 2 with the first step written out separately; here the
k = 0 state is arranged so the same recursion covers every step (the
discrete-time family is seeded with a zero kernel, which makes the
first rebuilt kernel come out right).  The growing bases follow Li, Chu,
Lin & Weng, J. Comput. Appl. Math. 237 (2013).

The classical module computes identical matrices by the coupled dense
recursions; the test suite holds the two against each other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.linalg

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    SingularMatrixError,
)
from .matkit import lu_factor_checked, solve_general
from .problems import BsepProblem, CareProblem, DareProblem, MareProblem

#: Default cap on basis columns; the bases double every step and no
#: truncation is performed, so runaway growth must fail cleanly.
DEFAULT_COLUMN_BUDGET = 4096

#: Dense evaluation of A_k / E_k / F_k is for validation only.
DENSE_EVAL_MAX_DIM = 512


@dataclass(frozen=True)
class LowRankSolution:
    """Factored iterate ``scale * left @ kernel^-1 @ right.T``.

    Only the kernel's factorization is kept (Cholesky for the SPD
    kernels of the symmetric families, pivoted LU otherwise), so
    repeated evaluation does not refactor.
    """

    scale: float
    left: np.ndarray
    right: np.ndarray
    factor: tuple
    factor_kind: Literal["cholesky", "lu"]

    @property
    def basis_cols(self) -> int:
        return self.left.shape[1]

    def solve_kernel(self, rhs: np.ndarray) -> np.ndarray:
        if self.factor_kind == "cholesky":
            return scipy.linalg.cho_solve(self.factor, rhs, check_finite=False)
        return scipy.linalg.lu_solve(self.factor, rhs, check_finite=False)

    def dense(self) -> np.ndarray:
        """Materialize the iterate as a full matrix.

        A symmetric iterate with a Cholesky factor ``L L^T`` is formed as
        ``W^T W`` with ``W = L^-1 left^T``: one triangular solve and a
        symmetric rank-k product, whose result is exactly symmetric.
        """
        if self.factor_kind == "cholesky" and self.right is self.left:
            c, lower = self.factor
            w = scipy.linalg.solve_triangular(c, self.left.T, lower=lower,
                                              check_finite=False)
            return self.scale * (w.T @ w)
        return self.scale * (self.left @ self.solve_kernel(self.right.T))

    def core(self) -> np.ndarray:
        """``scale * R_l kernel^-1 R_r^T`` with the triangular factors of
        thin QRs ``left = Q_l R_l`` and ``right = Q_r R_r``.

        The iterate is ``Q_l core conj(Q_r)^H`` with orthonormal columns
        on both sides, so the core has its nonzero singular values (and,
        for a real iterate with ``right is left`` and a symmetric kernel,
        its nonzero eigenvalues) at the cost of QRs of the bases, not of
        an n x n decomposition.
        """
        r_left = np.linalg.qr(self.left, mode="r")
        r_right = (r_left if self.right is self.left
                   else np.linalg.qr(self.right, mode="r"))
        return self.scale * (r_left @ self.solve_kernel(r_right.T))


def _factor_spd(kern: np.ndarray) -> tuple:
    """Cholesky factor of an evaluator-owned kernel, written over it."""
    try:
        return scipy.linalg.cho_factor(kern, lower=True, overwrite_a=True,
                                       check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        # Cannot happen in exact arithmetic for I + Y^T Y; reaching this
        # signals severe ill-conditioning of the untruncated kernel.
        raise SingularMatrixError(
            f"kernel is not positive definite: {exc}") from exc


def _pow2k(m: np.ndarray, k: int) -> np.ndarray:
    """m raised to the power 2^k by repeated squaring."""
    out = m.copy()
    for _ in range(k):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# Symmetric-kernel families: DARE, CARE, BSEP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DsdaSymState:
    """Growing bases, kernel seed and Gram moments for one-kernel families.

    ``uhat`` is n x (2^k m), ``vhat`` n x (2^k l) and ``y0`` m x l.
    ``t_moments[i + j]`` is block (i, j) of ``uhat.T @ vhat``, 2^(k+1) - 1
    blocks in all.  For the Bethe-Salpeter family ``uhat`` is the
    entrywise conjugate of ``vhat``, so these are blocks of ``vhat^H vhat``.
    """

    family: Literal["dare", "care", "bsep"]
    uhat: np.ndarray
    vhat: np.ndarray
    y0: np.ndarray
    t_moments: np.ndarray
    propagator: np.ndarray
    scale: float
    multiplier: float
    sigma: int
    k: int = 0

    @property
    def basis_cols(self) -> int:
        return self.vhat.shape[1]


def dsda_sym_init(p: CareProblem | DareProblem | BsepProblem) -> DsdaSymState:
    """Width-one starting state for the one-kernel families."""
    if isinstance(p, DareProblem):
        u0 = p.b.copy()
        v0 = p.c.T.copy()
        # Zero seed: the generic recursion then reproduces
        # Y_1 = [[0, 0], [0, B^T C^T]] because T_0 = B^T C^T.
        y0 = np.zeros((u0.shape[1], v0.shape[1]))
        family, prop, c, mu, sigma = "dare", p.a.copy(), 1.0, 1.0, +1
    elif isinstance(p, CareProblem):
        n = p.n
        gamma = p.gamma
        a_g = p.a - gamma * np.eye(n)
        u0 = solve_general(a_g, p.b)
        v0 = solve_general(a_g.T, p.c.T)
        y0 = p.b.T @ v0
        prop = np.eye(n) + 2.0 * gamma * solve_general(a_g, np.eye(n))
        family, c, mu, sigma = "care", 2.0 * gamma, 2.0 * gamma, +1
    elif isinstance(p, BsepProblem):
        n = p.n
        alpha = p.alpha
        s_a = alpha * np.eye(n) - p.a
        sa_inv = solve_general(s_a, np.eye(n, dtype=np.complex128))
        v0 = (sa_inv @ p.l_b).conj()        # (alpha I - conj(A))^-1 conj(L_B)
        y0 = p.l_b.T @ v0
        a_alpha = np.eye(n) - 2.0 * alpha * sa_inv
        prop = a_alpha.conj()               # V grows with conj(A_alpha)
        u0 = v0.conj()
        family, c, mu, sigma = "bsep", 2.0 * alpha, -2.0 * alpha, -1
    else:
        raise TypeError(f"unsupported problem type {type(p).__name__}")
    return DsdaSymState(family, u0, v0, y0, (u0.T @ v0)[None], prop,
                        scale=c, multiplier=mu, sigma=sigma, k=0)


def dsda_sym_step(s: DsdaSymState,
                  column_budget: int = DEFAULT_COLUMN_BUDGET) -> DsdaSymState:
    """Double the bases and append the new Gram moments."""
    m, l = s.y0.shape

    def grow(blocks):
        if s.family == "bsep":
            v_new = _extend_basis(s.vhat, s.propagator, blocks, l)
            return v_new.conj(), v_new
        return (_extend_basis(s.uhat, s.propagator, blocks, m),
                _extend_basis(s.vhat, s.propagator.T, blocks, l))

    (u_new, v_new), (t_new,) = _double(s.k, column_budget, grow,
                                       ((s.t_moments, 0, 1),))
    return dataclasses.replace(s, uhat=u_new, vhat=v_new, t_moments=t_new,
                               k=s.k + 1)


def _double(k: int, column_budget: int, grow, products):
    """Budget check, basis growth and moment append shared by all families.

    ``grow(blocks)`` returns the bases with ``blocks = b = 2^k`` new
    blocks appended.  ``products`` lists each moment stack with the
    positions of its left and right basis in that tuple.  The last left
    block of the doubled bases is u_{2b-1}, so its products with
    v_0 ... v_{2b-1} are exactly the new moments M_{2b-1} ... M_{4b-2}.
    """
    blocks = 2 ** k
    width = max(max(moments.shape[1:]) for moments, _, _ in products)
    if 2 * blocks * width > column_budget:
        raise BudgetExceededError(
            f"doubling to {2 * blocks * width} columns exceeds the "
            f"budget of {column_budget}")
    bases = grow(blocks)
    stacks = []
    for moments, i, j in products:
        _, wl, wr = moments.shape
        last = bases[i][:, bases[i].shape[1] - wl:]
        new = last.T @ bases[j]
        stacks.append(np.concatenate(
            [moments, new.reshape(wl, 2 * blocks, wr).transpose(1, 0, 2)]))
    return bases, stacks


def _extend_basis(basis: np.ndarray, prop: np.ndarray, blocks: int,
                  width: int) -> np.ndarray:
    """Append ``blocks`` new blocks, each the propagator times the last."""
    new = []
    last = basis[:, -width:]
    for _ in range(blocks):
        last = prop @ last
        new.append(last)
    return np.hstack([basis] + new)


def dsda_assemble(s: DsdaSymState | DsdaMareState, which: str) -> np.ndarray:
    """Kernel ``"Y"`` or ``"Z"``, or Gram block ``"T"`` or ``"S"``, of a state.

    T is ``uhat.T @ vhat`` for the one-kernel families and
    ``qhat.T @ what`` for the four-matrix family, whose Z and S
    (``vhat.T @ uhat``) complete the set.  Each is block Hankel: block
    (i, j) is entry i + j of a sequence built from the state's seed and
    moments, gathered in one vectorised copy that keeps the dtype.
    """
    if which in ("Y", "T"):
        seed, seq = s.y0, s.t_moments
    elif which in ("Z", "S") and isinstance(s, DsdaMareState):
        seed, seq = s.z0, s.s_moments
    else:
        raise ValueError(f"which must name a matrix of the state; got {which!r}")
    b = 2 ** s.k
    if which in ("Y", "Z"):
        pad = np.zeros((b - 1,) + seed.shape, dtype=np.result_type(seed, seq))
        seq = np.concatenate([pad, seed[None], s.multiplier * seq[:b - 1]])
    _, r, c = seq.shape
    windows = np.lib.stride_tricks.sliding_window_view(seq, b, axis=0)
    return windows.transpose(0, 1, 3, 2).reshape(b * r, b * c)


def _edges(s: DsdaSymState | DsdaMareState,
           which: str) -> tuple[np.ndarray, np.ndarray]:
    """Last block column and last block row of kernel ``"Y"`` or ``"Z"``.

    Both hold the tail h_{b-1} ... h_{2b-2} of the kernel's sequence,
    the seed followed by the first b - 1 scaled moments: stacked
    vertically (b r x c) and side by side (r x b c).
    """
    seed, seq = (s.y0, s.t_moments) if which == "Y" else (s.z0, s.s_moments)
    b = 2 ** s.k
    tail = np.concatenate([seed[None], s.multiplier * seq[:b - 1]])
    _, r, c = tail.shape
    return tail.reshape(b * r, c), tail.transpose(1, 0, 2).reshape(r, b * c)


def _hankel_kernel(col: np.ndarray, row: np.ndarray, blocks: int,
                   sigma: int) -> np.ndarray:
    """``I + sigma X W`` from X's last block column and W's last block row.

    X and W are block Hankel with ``blocks`` block rows and sequences
    that vanish below index ``blocks - 1``, so XW is the block-diagonal
    prefix sum of ``col @ row`` (see the module docstring).  The sums
    run on the product's own buffer, built transposed so the returned
    kernel is Fortran-ordered and a factorization can overwrite it; a
    ``col`` that is ``row.T`` (or the reverse) gives an exactly
    symmetric kernel.
    """
    out_t = row.T @ col.T
    g = out_t.reshape(blocks, out_t.shape[0] // blocks,
                      blocks, out_t.shape[1] // blocks)
    for i in range(1, blocks):
        g[i, :, 1:] += g[i - 1, :, :-1]
    if sigma < 0:
        np.negative(out_t, out=out_t)
    out_t.reshape(-1)[::out_t.shape[0] + 1] += 1.0
    return out_t.T


def _sym_solution(s: DsdaSymState, side: str) -> LowRankSolution:
    """``sigma c * B (I + sigma K)^-1 B^T``: B = Vhat, K = Y^T Y on the
    right side, B = Uhat, K = Y Y^T on the left; factored by kernel kind."""
    col, row = _edges(s, "Y")
    basis, x = (s.vhat, row.T) if side == "right" else (s.uhat, col)
    kern = _hankel_kernel(x, x.T, 2 ** s.k, s.sigma)
    if s.sigma == +1:
        return LowRankSolution(s.scale, basis, basis, _factor_spd(kern),
                               "cholesky")
    return LowRankSolution(-s.scale, basis, basis,
                           lu_factor_checked(kern, overwrite_a=True), "lu")


def dsda_eval_H(s: DsdaSymState) -> LowRankSolution:
    """H_k = c * Vhat (I + Y^T Y)^-1 Vhat^T for the psd-kernel families."""
    if s.sigma != +1:
        raise DimensionMismatchError(
            "H evaluation applies to the DARE/CARE kernel; use bsep_eval_F")
    return _sym_solution(s, "right")


def dsda_eval_G(s: DsdaSymState) -> LowRankSolution:
    """G_k = c * Uhat (I + Y Y^T)^-1 Uhat^T, mirror of :func:`dsda_eval_H`."""
    if s.sigma != +1:
        raise DimensionMismatchError(
            "G evaluation applies to the DARE/CARE kernel")
    return _sym_solution(s, "left")


def bsep_eval_F(s: DsdaSymState) -> LowRankSolution:
    """F_k = -2 alpha Vhat (I - Y^T Y)^-1 Vhat^T (plain transposes)."""
    if s.family != "bsep":
        raise DimensionMismatchError("F evaluation applies to the BSEP family")
    return _sym_solution(s, "right")


def dsda_eval_A(s: DsdaSymState) -> np.ndarray:
    """Dense A_k (E_k for the BSEP family), for validation at small sizes.

    ``A_k = P^(2^k) - c * Uhat (I + sigma Y Y^T)^-1 Y Vhat^T`` with the
    propagator power formed by repeated squaring.
    """
    n = s.propagator.shape[0]
    if n > DENSE_EVAL_MAX_DIM:
        raise BudgetExceededError(
            f"dense propagator-power evaluation is guarded to "
            f"n <= {DENSE_EVAL_MAX_DIM}, got n = {n}")
    base = s.propagator.conj() if s.family == "bsep" else s.propagator
    power = _pow2k(base, s.k)
    rhs = dsda_assemble(s, "Y") @ s.vhat.T
    corr = _sym_solution(s, "left").solve_kernel(rhs)
    return power - s.scale * (s.uhat @ corr)


def kernel_extreme_eigenvalues(s: DsdaSymState) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the solution kernel.

    Conditioning diagnostic: without truncation the kernel degrades as k
    grows, and this is the number to watch.
    """
    row = _edges(s, "Y")[1]
    kern = _hankel_kernel(row.T, row, 2 ** s.k, s.sigma)
    if s.family == "bsep":
        w = np.linalg.eigvals(kern)
        mags = np.abs(w)
        return float(mags.min()), float(mags.max())
    w = np.linalg.eigvalsh(kern)
    return float(w[0]), float(w[-1])


# ---------------------------------------------------------------------------
# Bethe-Salpeter post-processing
# ---------------------------------------------------------------------------

def bsep_eigen_extract(f: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable eigenvalues from a converged F.

    Compresses the 2n x 2n problem to the n x n matrix
    ``[I, -F^H] M [I; -F] (I + F^H F)^-1`` built from the blocks A, B
    and returns its eigenvalues sorted by ascending real part.
    """
    f = np.atleast_2d(np.asarray(f, dtype=np.complex128))
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    n = a.shape[0]
    if f.shape != (n, n) or b.shape != (n, n):
        raise DimensionMismatchError("F, A, B must all be n x n")
    ham = np.block([[a, b], [-b.conj(), -a.conj()]])
    row = np.hstack([np.eye(n), -f.conj().T])
    col = np.vstack([np.eye(n), -f])
    core = row @ ham @ col
    gram = np.eye(n) + f.conj().T @ f
    compressed = solve_general(gram.T, core.T).T
    eigs = np.linalg.eigvals(compressed)
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def subspace_angle(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Principal-angle matrix between the graph subspaces tagged by W and Z.

    Evaluates ``arccos of the square root`` of

        (I + conj(Z) Z)^-1/2 (I - conj(Z) W) (I + conj(W) W)^-1
        (I - conj(W) Z) (I + conj(Z) Z)^-1/2,

    which is zero exactly when Z = -W; the doubling iterate F_k drives
    this to zero against W = X2 X1^-1.  Diagnostic only, intended for
    complex-symmetric arguments (the iterates are).
    """
    w = np.atleast_2d(np.asarray(w, dtype=np.complex128))
    z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    if w.shape != z.shape or w.shape[0] != w.shape[1]:
        raise DimensionMismatchError("W and Z must be square with equal shape")
    n = w.shape[0]
    gram_z = np.eye(n) + z.conj() @ z
    gram_w = np.eye(n) + w.conj() @ w
    vals, vecs = np.linalg.eigh((gram_z + gram_z.conj().T) / 2.0)
    if np.min(vals) <= 0.0:
        raise SingularMatrixError("I + conj(Z) Z is not positive definite")
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    mid = solve_general(gram_w, np.eye(n) - w.conj() @ z)
    cos2 = inv_sqrt @ (np.eye(n) - z.conj() @ w) @ mid @ inv_sqrt
    cos2 = (cos2 + cos2.conj().T) / 2.0
    lam, q = np.linalg.eigh(cos2)
    theta = np.arccos(np.sqrt(np.clip(lam, 0.0, 1.0)))
    out = (q * theta) @ q.conj().T
    out = (out + out.conj().T) / 2.0
    return out.real if np.max(np.abs(out.imag)) < 1e-14 else out


# ---------------------------------------------------------------------------
# Four-matrix family: MARE (plain and alternating-directional shifts)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DsdaMareState:
    """Four growing bases, kernel seeds and Gram moments for the MARE family.

    The kernels Y and Z follow from the seeds and the moments, as for
    the one-kernel families, with multiplier -s.
    """

    uhat: np.ndarray       # m x (2^k m1)
    vhat: np.ndarray       # m x (2^k n1)
    what: np.ndarray       # n x (2^k n1)
    qhat: np.ndarray       # n x (2^k m1)
    y0: np.ndarray         # m1 x n1
    z0: np.ndarray         # n1 x m1
    t_moments: np.ndarray  # (2^(k+1) - 1) x m1 x n1 blocks of qhat.T @ what
    s_moments: np.ndarray  # (2^(k+1) - 1) x n1 x m1 blocks of vhat.T @ uhat
    prop_a: np.ndarray     # m x m
    prop_d: np.ndarray     # n x n
    shift_sum: float
    k: int = 0

    @property
    def basis_cols(self) -> int:
        return self.uhat.shape[1]

    @property
    def multiplier(self) -> float:
        return -self.shift_sum


def dsda_mare_init(p: MareProblem, mode: str = "sda") -> DsdaMareState:
    """Width-one starting state for the four-basis family.

    ``mode="sda"`` uses the single shift gamma twice; ``mode="adda"``
    uses alpha for the D side and beta for the A side.  Low-rank factors
    need not have full column rank: a deficient factor only adds zero
    eigenvalues to Y Z, so I - Y Z stays nonsingular.  Zero-width
    factors (an all-zero B or C) degrade every formula gracefully.
    """
    from .classical import resolve_mare_shifts

    alpha, beta = resolve_mare_shifts(p, mode)
    m, n = p.m, p.n
    s = alpha + beta
    a_b = p.a + beta * np.eye(m)
    d_a = p.d + alpha * np.eye(n)
    u0 = solve_general(a_b, p.b_l)
    v0 = solve_general(a_b.T, p.c_r)
    w0 = solve_general(d_a, p.c_l)
    q0 = solve_general(d_a.T, p.b_r)
    y0 = p.b_r.T @ w0                    # B_r^T D_a^-1 C_l
    z0 = p.c_r.T @ u0                    # C_r^T A_b^-1 B_l
    prop_a = np.eye(m) - s * solve_general(a_b, np.eye(m))
    prop_d = np.eye(n) - s * solve_general(d_a, np.eye(n))
    return DsdaMareState(u0, v0, w0, q0, y0, z0,
                         t_moments=(q0.T @ w0)[None],
                         s_moments=(v0.T @ u0)[None],
                         prop_a=prop_a, prop_d=prop_d, shift_sum=s, k=0)


def dsda_mare_step(s: DsdaMareState,
                   column_budget: int = DEFAULT_COLUMN_BUDGET) -> DsdaMareState:
    """Double the four bases and append the new moments of both Gram blocks."""
    m1, n1 = s.y0.shape

    def grow(blocks):
        return (_extend_basis(s.uhat, s.prop_a, blocks, m1),
                _extend_basis(s.vhat, s.prop_a.T, blocks, n1),
                _extend_basis(s.what, s.prop_d, blocks, n1),
                _extend_basis(s.qhat, s.prop_d.T, blocks, m1))

    # T pairs (qhat, what), S pairs (vhat, uhat).
    (u_new, v_new, w_new, q_new), (t_new, s_new) = _double(
        s.k, column_budget, grow,
        ((s.t_moments, 3, 2), (s.s_moments, 1, 0)))
    return dataclasses.replace(s, uhat=u_new, vhat=v_new, what=w_new,
                               qhat=q_new, t_moments=t_new, s_moments=s_new,
                               k=s.k + 1)


def dsda_mare_eval(s: DsdaMareState, which: str):
    """Evaluate one of the four iterates.

    ``"H"`` and ``"G"`` return :class:`LowRankSolution`; ``"F"`` and
    ``"E"`` return dense matrices (validation-guarded like
    :func:`dsda_eval_A`).
    """
    if which not in ("H", "G", "F", "E"):
        raise ValueError(f"which must be one of H, G, F, E; got {which!r}")
    if which in ("F", "E") and max(s.prop_a.shape[0],
                                   s.prop_d.shape[0]) > DENSE_EVAL_MAX_DIM:
        raise BudgetExceededError(
            f"dense propagator-power evaluation is guarded to "
            f"n <= {DENSE_EVAL_MAX_DIM}")
    first, second = ("Y", "Z") if which in ("H", "F") else ("Z", "Y")
    kern = _hankel_kernel(_edges(s, first)[0], _edges(s, second)[1],
                          2 ** s.k, -1)
    factor = lu_factor_checked(kern, overwrite_a=True)
    if which == "H":
        return LowRankSolution(s.shift_sum, s.uhat, s.qhat, factor, "lu")
    if which == "G":
        return LowRankSolution(s.shift_sum, s.what, s.vhat, factor, "lu")
    prop, basis, other = ((s.prop_a, s.uhat, s.vhat) if which == "F"
                          else (s.prop_d, s.what, s.qhat))
    rhs = dsda_assemble(s, first) @ other.T
    corr = scipy.linalg.lu_solve(factor, rhs, check_finite=False)
    return _pow2k(prop, s.k) - s.shift_sum * (basis @ corr)
