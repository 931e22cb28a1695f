"""Evaluations that check decoupled states against the oracle.

No solve runs this module: :func:`dsda.solve_driver` calls none of it,
and :mod:`dsda.decoupled` does not import it.  It holds what a solve
never reads: bases replayed from each chain's first block, their
spans (:func:`span_of`), the G_k iterates in those spans, and dense
arrays (assembled Hankel matrices, n x n iterates, the BSEP
diagnostics).  An evaluation that raises a propagator to the 2^k is
refused above order ``DENSE_EVAL_MAX_DIM``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import decoupled
from .decoupled import (_LAYOUT, DsdaState, LowRankSolution, _edges,
                        _evaluate, _extend_basis, _hankel_kernel,
                        _schur_solve, _stack_coordinates, _tail, extend_span)
from .errors import BudgetExceededError, DimensionMismatchError, SingularMatrixError
from .matkit import lu_factor_checked, solve_general

#: Largest propagator order whose dense power is formed.
DENSE_EVAL_MAX_DIM = 512

#: The kernel whose moments make up each Gram block.
_GRAM_OF = {"T": "Y", "S": "Z"}


def span_of(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The span and coordinates of a whole basis, which is streamed
    through :func:`dsda.decoupled.extend_span` ``STREAM_COLS`` columns
    at a time (read on each call), as a step streams its chunks, and at
    the same threshold."""
    q, parts = np.zeros((basis.shape[0], 0), dtype=basis.dtype), []
    # One call also for no columns, so that the coordinates are 0 x 0.
    for j in range(0, max(1, basis.shape[1]), decoupled.STREAM_COLS):
        q, part = extend_span(q, basis[:, j:j + decoupled.STREAM_COLS])
        parts.append(part)
    return q, _stack_coordinates(parts, q.shape[1])


def chain_basis(s: DsdaState, name: str) -> np.ndarray:
    """The first 2^k blocks of the chain ``name``, replayed from its
    first block as a step grows it, bit for bit; formed on each call."""
    chain = s.chains[name]
    return _extend_basis(chain.first, chain.op, 2 ** s.k - 1,
                         chain.first.shape[1])


def gram_bases(s: DsdaState, kernel: str) -> tuple[np.ndarray, np.ndarray]:
    """The replayed bases whose product the moments of ``kernel`` hold,
    left and right."""
    left, right, conj = _LAYOUT[s.family][0][kernel]
    u = chain_basis(s, left)
    return (u.conj() if conj else u), chain_basis(s, right)


def dsda_eval_G(s: DsdaState) -> LowRankSolution:
    """G_k = c * Uhat (I + Y Y^T)^-1 Uhat^T of CARE and DARE in the span
    of the replayed Uhat: ``c * w^T w`` with ``w = L^-1 R^T``, the kernel
    never formed (:func:`dsda.decoupled._schur_solve`)."""
    if s.sigma != +1:
        raise DimensionMismatchError(
            "G evaluation applies to the DARE/CARE kernel")
    q, r = span_of(chain_basis(s, "u"))
    w = _schur_solve(_edges(s, "Y")[0], 2 ** s.k, r.T.copy())
    return LowRankSolution(q, s.multiplier * (w.T @ w), q, r.shape[1])


def dsda_mare_eval_G(s: DsdaState) -> LowRankSolution:
    """G_k = s * What (I - Z Y)^-1 Vhat^T of MARE, in the spans of the
    replayed What and Vhat."""
    if s.family != "mare":
        raise DimensionMismatchError("G evaluation needs a MARE state")
    return _evaluate(s.scale, _edges(s, "Z")[0], _edges(s, "Y")[1], 2 ** s.k,
                     *span_of(chain_basis(s, "w")),
                     *span_of(chain_basis(s, "v")))


def dsda_assemble(s: DsdaState, which: str) -> np.ndarray:
    """Kernel ``"Y"`` or ``"Z"``, or Gram block ``"T"`` or ``"S"``, of a state.

    T is ``uhat.T @ vhat`` for the one-kernel families and
    ``qhat.T @ what`` for the four-matrix family, whose Z and S
    (``vhat.T @ uhat``) complete the set.  Each is block Hankel: block
    (i, j) is entry i + j of a sequence built from the state's seed and
    moments, gathered in one vectorised copy that keeps the dtype.
    """
    b = 2 ** s.k
    if which in s.moments:
        tail = _tail(s, which)
        seq = np.concatenate(
            [np.zeros((b - 1,) + tail.shape[1:], dtype=tail.dtype), tail])
    elif _GRAM_OF.get(which) in s.moments:
        seq = s.moments[_GRAM_OF[which]]
    else:
        raise ValueError(f"which must name a matrix of the state; got {which!r}")
    _, r, c = seq.shape
    windows = np.lib.stride_tricks.sliding_window_view(seq, b, axis=0)
    return windows.transpose(0, 1, 3, 2).reshape(b * r, b * c)


def _dense_transfer(s, prop, conj, kernel, which, scale, basis, other):
    """``P^(2^k) - scale * basis K^-1 X other^T``, P the dense ``prop``
    (conjugated with ``conj``) squared k times, K the kernel
    ``I - X W`` of the :func:`dsda.decoupled._hankel_kernel` arguments
    ``kernel`` and X the assembled ``which``.  Refused when any
    propagator of the state has order above ``DENSE_EVAL_MAX_DIM``."""
    n = max(chain.op.shape[0] for chain in s.chains.values())
    if n > DENSE_EVAL_MAX_DIM:
        raise BudgetExceededError(
            f"dense propagator-power evaluation is guarded to "
            f"n <= {DENSE_EVAL_MAX_DIM}, got n = {n}")
    power = prop @ np.eye(prop.shape[0], dtype=prop.dtype)
    if conj:
        power = power.conj()
    for _ in range(s.k):
        power = power @ power
    rhs = dsda_assemble(s, which) @ other.T
    factor = lu_factor_checked(_hankel_kernel(*kernel), overwrite_a=True)
    corr = scipy.linalg.lu_solve(factor, rhs, check_finite=False)
    return power - scale * (basis @ corr)


def dsda_eval_A(s: DsdaState) -> np.ndarray:
    """Dense A_k (E_k for the BSEP family):
    ``P^(2^k) - c * Uhat (I + sigma Y Y^T)^-1 Y Vhat^T``, P the operator
    of the chain that grows by it untransposed: u, or v for BSEP.  The
    kernel is built as ``I - (-sigma Y) Y^T``; negation is exact."""
    if s.family == "mare":
        raise DimensionMismatchError(
            "A evaluation applies to the one-kernel families; use "
            "dsda_mare_dense")
    col = _edges(s, "Y")[0]
    bsep = s.family == "bsep"
    return _dense_transfer(s, s.chains["v" if bsep else "u"].op, bsep,
                           (-s.sigma * col, col.T, 2 ** s.k), "Y", s.scale,
                           *gram_bases(s, "Y"))


def dsda_mare_dense(s: DsdaState, which: str) -> np.ndarray:
    """Dense F_k (``which="F"``) or E_k (``"E"``) of the MARE family:
    ``F_k = P_A^(2^k) - s * Uhat (I - Y Z)^-1 Y Vhat^T`` and
    ``E_k = P_D^(2^k) - s * What (I - Z Y)^-1 Z Qhat^T``."""
    if s.family != "mare":
        raise DimensionMismatchError("F/E evaluation needs a MARE state")
    if which not in ("F", "E"):
        raise ValueError(f"which must be one of F, E; got {which!r}")
    first, second = ("Y", "Z") if which == "F" else ("Z", "Y")
    left, right = ("u", "v") if which == "F" else ("w", "q")
    kernel = (_edges(s, first)[0], _edges(s, second)[1], 2 ** s.k)
    return _dense_transfer(s, s.chains[left].op, False, kernel, first,
                           s.scale, chain_basis(s, left),
                           chain_basis(s, right))


def bsep_eigen_extract(f: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable eigenvalues from a converged F.

    Compresses the 2n x 2n problem to the n x n matrix
    ``[I, -F^H] M [I; -F] (I + F^H F)^-1`` built from the blocks A, B
    and returns its eigenvalues sorted by ascending real part.
    """
    f, a, b = (np.atleast_2d(np.asarray(x, dtype=np.complex128))
               for x in (f, a, b))
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
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def subspace_angle(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Principal-angle matrix between the graph subspaces tagged by W and Z.

    Evaluates ``arccos of the square root`` of

        (I + conj(Z) Z)^-1/2 (I - conj(Z) W) (I + conj(W) W)^-1
        (I - conj(W) Z) (I + conj(Z) Z)^-1/2,

    which is zero exactly when Z = -W; the doubling iterate F_k drives
    this to zero against W = X2 X1^-1.  Diagnostic only, intended for
    complex-symmetric arguments (the iterates are).
    """
    w, z = (np.atleast_2d(np.asarray(x, dtype=np.complex128)) for x in (w, z))
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
