"""Decoupled doubling with growing block bases and block Hankel kernels.

Instead of iterating two to four coupled dense matrices, each doubling
step only extends block bases, one operator application per new block.
The bases span block Krylov spaces, u_i = P^i u_0 and v_j = (P^T)^j v_0,
so block (i, j) of T_k = Uhat_k^T Vhat_k is the moment
M_{i+j} = u_0^T (P^T)^(i+j) v_0, and the kernel recursion

    Y_k = [[0, Y_{k-1}], [Y_{k-1}, mu * T_{k-1}]]

makes Y_k block Hankel too: block (i, j) is 0 when i + j < 2^k - 1, the
seed Y_0 when i + j = 2^k - 1 and mu * M_{i+j-2^k} beyond.  A state
keeps only Y_0 and the moments M_0 ... M_{2^(k+1)-2}.  With b = 2^k, a
step grows each chain by the blocks i = b ... 2b - 1 and appends the
new moments from pairs of fresh blocks, M_{2i-1} = u_i^T v_{i-1} and
M_{2i} = u_i^T v_i.  The iterates of the classical recursions follow:

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
Z Y is thus one thin product, O(cols^2 width) instead of O(cols^3).
The same sum gives a symmetric kernel K = I + X X^T, with blocks of d
rows and X's last block column x, displacement rank d + width: with J
the down-shift by one block, K - J K J^T = G G^T for the generator
G = [E_0, x], E_0 the identity on the first block.  The SPD kernels of
CARE and DARE are therefore never formed: the generalized Schur
algorithm factors them from G in O(cols^2 (d + width)^2 / d) flops and
O(cols (d + width)) memory (:func:`_schur_solve`).  The indefinite
BSEP and non-symmetric MARE kernels are built and LU-factored, which
stays cubic.

The propagator P is built once per solve by the init.  For DARE it is
A itself, dense or in the problem's sparse form.  For the other
families one checked factorization of the shifted operator M
(A - gamma I, alpha I - conj(A), A + beta I or D + alpha I) gives both
the first blocks, M^-1 B and M^-T C^T, and P = I + c M^-1.  A dense LU
forms P as the explicit n x n :class:`MatrixPropagator`, applied by
GEMM.  When the problem's operator is sparse (``a_sparse``, see
``matkit.SPARSE_MAX_DENSITY``) the sparse LU of M is kept as a
:class:`ResolventPropagator` and applied as x + c M^-1 x.

Every family's state is one :class:`DsdaState`, laid out by one table
(``_LAYOUT``):

    family       chains (grown by)      moments of         spans of
    care, dare   u (P), v (P^T)         Y: (u, v)          v
    bsep         v (P)                  Y: (conj v, v)     v
    mare         u (P_A), v (P_A^T),    Y: (q, w)          u, q
                 w (P_D), q (P_D^T)     Z: (v, u)

A state holds no basis.  Of each Krylov chain it keeps a :class:`Chain`,
the first and the last block and the propagator that grows it; the
BSEP left basis is conj(vhat) and has no chain.  A step grows each
chain from its last block, and :meth:`Chain.basis` replays the
recursion from the first, bit for bit, for validation.  Each kernel
keeps its seed and its moments.  For every basis an evaluated iterate
is built on, the state keeps an orthonormal basis Q of its numerical
span and its coordinates ``R = Q^H basis`` (:func:`extend_span`).  The
Krylov spaces are nested, so one step for every family
(:func:`dsda_step`) streams the new blocks of each chain into the
moments and spans a chunk at a time, deflating the columns that lie in
a span to roundoff.  This is not truncation: deflation drops only
directions within roundoff of the span, and the moments and kernels
never read the span.  The moments are formed from pairs of blocks in
place of one product with the whole right basis, so they agree with the
explicit products ``Uhat^T Vhat`` to roundoff, not bit for bit.
Memory is O(n r + r cols) per evaluated basis.

An evaluator factors the kernel and returns the finished iterate, a
:class:`LowRankSolution` ``Q_l core Q_r^T`` with the small core
``scale * R_l K^-1 R_r^T``, formed once (:func:`_evaluate`).  The
driver measures it from the spans and core at every step without
forming the n x n matrix, also when the basis has more columns than
the iterate's order.  An iterate of every family holds its spans and
core and nothing of its kernel: the BSEP increment compares two cores,
the earlier one on the leading directions of the later span, and
``dense()`` is ``Q_l core Q_r^T`` (see :class:`LowRankSolution`).  A
kernel to be built (BSEP, MARE) over ``KERNEL_MAX_BYTES`` is refused
before it is built.  Each factor an evaluation forms logs its pivot
range at DEBUG (:func:`_log_pivots`).

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
import logging
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.linalg

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    SingularMatrixError,
)
from .matkit import EPS, lu_factor_checked, splu_shifted
from .problems import BsepProblem, CareProblem, DareProblem, MareProblem

log = logging.getLogger(__name__)

#: Default cap on basis columns; the bases double every step and no
#: truncation is performed, so runaway growth must fail cleanly.
DEFAULT_COLUMN_BUDGET = 4096

#: Largest kernel, in bytes, that is built: 2 GiB, a quarter of an
#: 8 GB machine's memory.  A BSEP or MARE kernel has cols^2 entries
#: (4.8 GB at 24 576 columns); a larger one ends the run
#: ``BudgetExceeded``.  The SPD kernels of CARE and DARE are never
#: built (:func:`_schur_solve`).
KERNEL_MAX_BYTES = 2 * 2 ** 30

#: Columns swept together when a span is extended (:func:`extend_span`).
SWEEP_COLS = 32

#: Columns of a panel: of an SPD kernel's Cholesky factor formed and
#: applied together (:func:`_schur_solve`), and of a one-basis iterate
#: made exactly symmetric together (:meth:`LowRankSolution.dense`).
PANEL_COLS = 256

#: Columns of each Krylov chain a doubling grows, pairs into moments and
#: streams into its span together (:func:`dsda_step`).  Narrower chunks
#: cost more small BLAS calls (64 columns was about 30 % slower on the
#: steel-sized CARE); wider ones only hold more columns at once.
STREAM_COLS = 256


def extend_span(q: np.ndarray, new: np.ndarray, cols: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (``Q^H Q = I``) of the numerical span of ``q``
    and the columns ``new`` of a basis with ``cols`` columns, and the
    coordinates ``Q^H new`` of those columns in it.

    The block Krylov spaces are nested, so each doubling extends the
    span by the part of its new columns outside it only, chunk by chunk
    (:func:`dsda_step`), and the leading columns of the result are ``q``
    itself.  A column whose part outside the span is at most
    ``EPS * max(n, cols)`` times its own norm (the rank cutoff of the
    driver, with ``cols`` the width of the whole basis) lies in the
    span to roundoff and is deflated; measuring against each column's
    own norm keeps the directions of small columns that meet large ones
    of the other basis in a two-sided iterate.

    The new columns, scaled to unit norm, are projected out of ``q`` in
    one product, which leaves each remainder accurate to well within
    the threshold, and then swept ``SWEEP_COLS`` at a time.  A sweep's
    part outside the directions added so far is pivoted greedily: the
    largest remainder above the threshold becomes a direction and is
    projected out of the others, until none is left.  The directions
    kept are projected out of ``q`` and the added ones a second time
    and orthonormalized again (two passes are enough; Björck, LAA
    197-198, 1994).

    Besides the scaled copy of the new columns, the coordinates and the
    result, a call allocates only room for the directions its sweeps
    add.  That room starts at one sweep and doubles when a sweep could
    outgrow it.  It starts narrower only when the whole extended span
    is, so a direction is a strided column unless the span has one
    column: numpy's BLAS calls may round a contiguous one-column operand
    differently, and the span must not depend on the room.
    """
    n = q.shape[0]
    room = n - q.shape[1]
    if not (room and new.size):
        return q, q.conj().T @ new
    scale = np.linalg.norm(new, axis=0)
    rest = new / np.where(scale > 0.0, scale, 1.0)
    q_h = q.conj().T
    top = q_h @ rest
    rest -= q @ top
    # The coordinates on q are those of the scaled columns, scaled back.
    top *= scale
    tol = EPS * max(n, cols)
    limit = min(room, rest.shape[1])
    out = np.empty((n, min(SWEEP_COLS, q.shape[1] + limit)), dtype=q.dtype)
    r = 0
    for j in range(0, rest.shape[1], SWEEP_COLS):
        if r == limit:
            break
        block = rest[:, j:j + SWEEP_COLS]
        stop = min(limit, r + block.shape[1])
        if stop > out.shape[1]:
            wider = np.empty((n, min(limit, max(stop, 2 * out.shape[1]))),
                             dtype=q.dtype)
            wider[:, :r] = out[:, :r]
            out = wider
        added = out[:, :r]
        block = block - added @ (added.conj().T @ block)
        first = r
        norms = np.linalg.norm(block, axis=0)
        while r < stop:
            pivot = int(np.argmax(norms))
            if not norms[pivot] > tol:
                break
            out[:, r] = block[:, pivot] / norms[pivot]
            block -= np.outer(out[:, r], out[:, r].conj() @ block)
            norms = np.linalg.norm(block, axis=0)
            r += 1
        if r > first:
            dirs = out[:, first:r]
            dirs -= q @ (q_h @ dirs)
            dirs -= added @ (added.conj().T @ dirs)
            dirs[...] = np.linalg.qr(dirs)[0]
    if not r:
        return q, top
    added = out[:, :r]
    return np.hstack([q, added]), np.vstack([top, added.conj().T @ new])


def span_of(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`extend_span` of a whole basis: its span and coordinates."""
    return extend_span(np.zeros((basis.shape[0], 0), dtype=basis.dtype),
                       basis, basis.shape[1])


@dataclass(frozen=True)
class LowRankSolution:
    """A finished iterate ``q_left @ core @ q_right.T`` (plain transpose).

    ``q_left`` and ``q_right`` are orthonormal bases of the numerical
    spans of the iterate's bases (:func:`extend_span`), the same array
    when the iterate has one basis, and the small ``core`` is
    ``scale * R_l K^-1 R_r^T`` with the coordinates ``R = Q^H basis``
    and the kernel K.  The core has the iterate's nonzero singular
    values and Frobenius norm (and, for a real iterate with one basis
    and a symmetric kernel, its nonzero eigenvalues).  The evaluator
    forms it once, right after factoring the kernel (:func:`_evaluate`),
    so a singular kernel fails there.

    An iterate of any family holds its spans, its core and the width
    ``basis_cols`` of its bases, and nothing else: every later read
    (residual, rank, the BSEP increment, :meth:`dense`) is made from the
    spans and core.
    """

    q_left: np.ndarray
    core: np.ndarray
    q_right: np.ndarray
    basis_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the iterate."""
        return self.q_left.shape[0], self.q_right.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize the iterate as a full matrix.

        A two-sided (MARE) iterate is ``q_left @ core @ q_right.T``.  An
        iterate with one basis is symmetric (plain transpose).  It is
        formed as ``Q core Q^T`` at n^2 r flops and made exactly
        symmetric as the sum of the product and its transpose, each
        halved first so that the sum cannot overflow.  The sum runs
        panel by panel on the product's own buffer, so it needs no
        n x n temporary.
        """
        if self.q_right is not self.q_left:
            return self.q_left @ (self.core @ self.q_right.T)
        out = self.q_left @ (self.core @ self.q_left.T)
        out *= 0.5
        n = out.shape[0]
        for start in range(0, n, PANEL_COLS):
            stop = min(n, start + PANEL_COLS)
            # The diagonal block overlaps its transpose, so numpy adds
            # from a panel-sized copy; the rest of the panel's rows meet
            # their mirror image, not yet touched, and overwrite it.
            diag = out[start:stop, start:stop]
            diag += diag.T
            upper = out[start:stop, stop:]
            upper += out[stop:, start:stop].T
            out[stop:, start:stop] = upper.T
        return out


@dataclass(frozen=True)
class MatrixPropagator:
    """Propagator held as a matrix: dense, or scipy sparse for a sparse DARE."""

    matrix: np.ndarray      # or a scipy sparse array

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.T @ x


@dataclass(frozen=True)
class ResolventPropagator:
    """Propagator ``I + scale * M^-1`` applied through a sparse LU of M.

    ``apply_t`` uses the plain transpose, also for complex M.
    """

    lu: object          # scipy.sparse.linalg.SuperLU of M
    scale: float
    dtype: np.dtype

    @property
    def shape(self) -> tuple[int, int]:
        return self.lu.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x + self.scale * self.lu.solve(x)

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        return x + self.scale * self.lu.solve(x, trans="T")


Propagator = MatrixPropagator | ResolventPropagator


def _shifted(a, a_sparse, shift: float, scale: float, form=lambda x: x):
    """Solve with, and propagator ``I + scale * M^-1`` of, the shifted
    operator ``M = form(A) + shift * I``, from one checked factorization.

    ``a_sparse`` (the problem's sparse A, or None) picks the route: a
    sparse LU of M applied as a :class:`ResolventPropagator`, or a dense
    LU that forms the explicit :class:`MatrixPropagator`.  The sparse LU
    is ordered for M's structure (:func:`matkit.splu_shifted`).
    ``solve(x, trans)`` solves with M (``trans="N"``) or its plain
    transpose (``"T"``) through the same factor.
    """
    if a_sparse is not None:
        op = form(a_sparse)
        lu = splu_shifted(op, shift)
        return lu.solve, ResolventPropagator(lu, scale, op.dtype)
    m = np.array(form(a), order="F")
    m[np.diag_indices_from(m)] += shift
    factor = lu_factor_checked(m, overwrite_a=True)

    def solve(x, trans="N"):
        return scipy.linalg.lu_solve(factor, x, trans={"N": 0, "T": 1}[trans],
                                     check_finite=False)

    eye = np.eye(m.shape[0], dtype=m.dtype)
    return solve, MatrixPropagator(eye + scale * solve(eye))


# ---------------------------------------------------------------------------
# The decoupled state of every family
# ---------------------------------------------------------------------------

#: Per family: each Krylov chain, named for its basis, and whether it
#: grows by the transpose of its propagator; for each kernel, the chains
#: whose blocks pair into its moments (left, right) and whether the left
#: one enters conjugated; and the chains with a span.
_LAYOUT = {
    "care": ({"u": False, "v": True}, {"Y": ("u", "v", False)}, ("v",)),
    "dare": ({"u": False, "v": True}, {"Y": ("u", "v", False)}, ("v",)),
    "bsep": ({"v": False}, {"Y": ("v", "v", True)}, ("v",)),
    "mare": ({"u": False, "v": True, "w": False, "q": True},
             {"Y": ("q", "w", False), "Z": ("v", "u", False)}, ("u", "q")),
}


@dataclass(frozen=True)
class Chain:
    """A block Krylov chain: its first and last blocks and the
    propagator it grows by (its plain transpose with ``transpose``).

    A step grows the chain from ``last``; :meth:`basis` replays it from
    ``first``, bit for bit.
    """

    first: np.ndarray
    last: np.ndarray
    op: Propagator
    transpose: bool

    def basis(self, k: int) -> np.ndarray:
        """The first 2^k blocks, formed again on each call (validation
        only)."""
        return _extend_basis(self.first, self.op, 2 ** k - 1,
                             self.first.shape[1], transpose=self.transpose)


@dataclass(frozen=True)
class DsdaState:
    """Krylov chains, kernel seeds and moments, and spans of a decoupled
    run of any family, laid out as ``_LAYOUT`` says.

    ``chains`` holds each :class:`Chain` by basis name.  ``seeds`` and
    ``moments`` hold, by kernel name, its seed and the stack of its
    2^(k+1) - 1 moments: entry i + j is block (i, j) of the product of
    the kernel's left and right bases (:meth:`gram_bases`).  ``spans``
    holds, by chain name, the span of its basis (:func:`extend_span`)
    and the coordinates ``span^H basis``.  ``scale`` is c for the
    one-kernel families and the shift sum s for MARE.
    """

    family: Literal["dare", "care", "bsep", "mare"]
    chains: dict[str, Chain]
    seeds: dict[str, np.ndarray]
    moments: dict[str, np.ndarray]
    spans: dict[str, tuple[np.ndarray, np.ndarray]]
    scale: float
    k: int = 0

    @property
    def basis_cols(self) -> int:
        return next(iter(self.spans.values()))[1].shape[1]

    @property
    def sigma(self) -> int:
        """Sign in the kernels: +1 for ``I + Y^T Y`` (CARE, DARE), -1 for
        ``I - Y^T Y`` (BSEP) and ``I - Y Z`` (MARE)."""
        return +1 if self.family in ("care", "dare") else -1

    @property
    def multiplier(self) -> float:
        """Factor on the moments in the kernel sequence: sigma * scale."""
        return self.sigma * self.scale

    def gram_bases(self, kernel: str) -> tuple[np.ndarray, np.ndarray]:
        """The replayed bases whose product the moments of ``kernel``
        hold, left and right (validation only)."""
        left, right, conj = _LAYOUT[self.family][1][kernel]
        u = self.chains[left].basis(self.k)
        return (u.conj() if conj else u), self.chains[right].basis(self.k)


#: One state type serves the one-kernel and the four-matrix families.
DsdaSymState = DsdaMareState = DsdaState


def _start(family: str, firsts: dict, seeds: dict, scale: float
           ) -> DsdaState:
    """The k = 0 state of ``family`` from each chain's first block and
    propagator, ``firsts[name] = (block, op)``: each kernel's first
    moment and each span, as the layout pairs and spans the chains."""
    grows, pairs, spanned = _LAYOUT[family]
    chains = {name: Chain(block, block, op, grows[name])
              for name, (block, op) in firsts.items()}
    moments = {}
    for kernel, (left, right, conj) in pairs.items():
        u = chains[left].first
        moments[kernel] = ((u.conj() if conj else u).T
                           @ chains[right].first)[None]
    return DsdaState(family, chains, seeds, moments,
                     {name: span_of(chains[name].first) for name in spanned},
                     scale)


def dsda_sym_init(p: CareProblem | DareProblem | BsepProblem) -> DsdaState:
    """Width-one starting state for the one-kernel families."""
    if isinstance(p, DareProblem):
        u0 = p.b.copy()
        v0 = p.c.T.copy()
        # Zero seed: the generic recursion then reproduces
        # Y_1 = [[0, 0], [0, B^T C^T]] because T_0 = B^T C^T.
        y0 = np.zeros((u0.shape[1], v0.shape[1]))
        prop = MatrixPropagator(p.a.copy() if p.a_sparse is None
                                else p.a_sparse)
        family, c, blocks = "dare", 1.0, {"u": u0, "v": v0}
    elif isinstance(p, CareProblem):
        gamma = p.gamma
        solve, prop = _shifted(p.a, p.a_sparse, -gamma, 2.0 * gamma)
        u0, v0 = solve(p.b), solve(p.c.T, "T")
        y0 = p.b.T @ v0
        family, c, blocks = "care", 2.0 * gamma, {"u": u0, "v": v0}
    elif isinstance(p, BsepProblem):
        alpha = p.alpha
        # V grows with the propagator of M = alpha I - conj(A); the left
        # basis is conj(vhat) and has no chain of its own.
        solve, prop = _shifted(p.a, p.a_sparse, alpha, -2.0 * alpha,
                               lambda x: -x.conj())
        v0 = solve(p.l_b.conj())
        y0 = p.l_b.T @ v0
        family, c, blocks = "bsep", 2.0 * alpha, {"v": v0}
    else:
        raise TypeError(f"unsupported problem type {type(p).__name__}")
    return _start(family, {name: (block, prop)
                           for name, block in blocks.items()}, {"Y": y0}, c)


def dsda_mare_init(p: MareProblem, mode: str = "sda") -> DsdaState:
    """Width-one starting state for the four-basis family.

    ``mode="sda"`` uses the single shift gamma twice; ``mode="adda"``
    uses alpha for the D side and beta for the A side.  Low-rank factors
    need not have full column rank: a deficient factor only adds zero
    eigenvalues to Y Z, so I - Y Z stays nonsingular.  Zero-width
    factors (an all-zero B or C) degrade every formula gracefully.
    """
    alpha, beta = p.shifts(mode)
    s = alpha + beta
    solve_a, prop_a = _shifted(p.a, p.a_sparse, beta, -s)
    solve_d, prop_d = _shifted(p.d, p.d_sparse, alpha, -s)
    u0, w0 = solve_a(p.b_l), solve_d(p.c_l)
    firsts = {"u": (u0, prop_a), "v": (solve_a(p.c_r, "T"), prop_a),
              "w": (w0, prop_d), "q": (solve_d(p.b_r, "T"), prop_d)}
    # Y = B_r^T D_a^-1 C_l, Z = C_r^T A_b^-1 B_l.
    return _start("mare", firsts, {"Y": p.b_r.T @ w0, "Z": p.c_r.T @ u0}, s)


def dsda_step(s: DsdaState,
              column_budget: int = DEFAULT_COLUMN_BUDGET) -> DsdaState:
    """Double the state: grow each chain by 2^k blocks, append each
    kernel's new moments and extend each span and its coordinates,
    ``STREAM_COLS`` columns of each chain at a time.

    A chunk of a chain is its last block followed by the next ones
    (:func:`_extend_basis`), a new array that only a copy of its last
    block outlives.  With b = 2^k the new blocks are i = b ... 2b - 1,
    so the new moments M_{2b-1} ... M_{4b-2} of a kernel whose moments
    pair the chains u and v are M_{2i-1} = u_i^T v_{i-1} and
    M_{2i} = u_i^T v_i (:func:`_pair_moments`).  Each chunk's new
    columns extend their span at the threshold of the doubled basis
    (:func:`extend_span`) and append their coordinates.  The columns
    before them get zero coordinates on the directions a chunk adds:
    they lay within that threshold of the span when they were deflated.
    """
    blocks = 2 ** s.k
    lasts = {name: chain.last for name, chain in s.chains.items()}
    widths = {name: last.shape[1] for name, last in lasts.items()}
    widest = max(widths.values())
    if 2 * blocks * widest > column_budget:
        raise BudgetExceededError(
            f"doubling to {2 * blocks * widest} columns exceeds the "
            f"budget of {column_budget}")
    per = max(1, STREAM_COLS // max(1, widest))
    pairs = _LAYOUT[s.family][1]
    stacks = {kernel: [moments] for kernel, moments in s.moments.items()}
    qs = {name: q for name, (q, _) in s.spans.items()}
    coords = {name: [r] for name, (_, r) in s.spans.items()}
    for first in range(0, blocks, per):
        count = min(per, blocks - first)
        chunks = {name: _extend_basis(lasts[name], chain.op, count,
                                      widths[name], transpose=chain.transpose)
                  for name, chain in s.chains.items()}
        # Copied: a view would keep its whole chunk alive.
        lasts = {name: chunk[:, chunk.shape[1] - widths[name]:].copy()
                 for name, chunk in chunks.items()}
        for kernel, (left, right, conj) in pairs.items():
            stacks[kernel].append(_pair_moments(chunks[left], chunks[right],
                                                count, conj))
        for name, q in qs.items():
            w = widths[name]
            qs[name], part = extend_span(q, chunks[name][:, w:],
                                         2 * blocks * w)
            coords[name].append(part)
    return dataclasses.replace(
        s, chains={name: dataclasses.replace(chain, last=lasts[name])
                   for name, chain in s.chains.items()},
        moments={kernel: np.concatenate(stack)
                 for kernel, stack in stacks.items()},
        spans={name: (q, _stack_coordinates(coords[name], q.shape[1]))
               for name, q in qs.items()},
        k=s.k + 1)


#: One step doubles the state of every family.
dsda_sym_step = dsda_mare_step = dsda_step


def _pair_moments(left: np.ndarray, right: np.ndarray, count: int,
                  conj: bool = False) -> np.ndarray:
    """The moments of chunks ``[u_{i-1}, u_i, ..., u_{i+count-1}]`` and
    ``[v_{i-1}, v_i, ...]``: u_j^T v_{j-1} and u_j^T v_j for each new
    block j, in that order, from ``2 count`` small products; with
    ``conj``, of ``conj(u_j)`` in place of u_j."""
    n = left.shape[0]
    wl, wr = left.shape[1] // (count + 1), right.shape[1] // (count + 1)
    u = left[:, wl:].reshape(n, count, wl).transpose(1, 2, 0)
    if conj:
        u = u.conj()
    v = right.reshape(n, count + 1, wr).transpose(1, 0, 2)
    out = np.empty((count, 2, wl, wr), dtype=np.result_type(u, v))
    np.matmul(u, v[:-1], out=out[:, 0])
    np.matmul(u, v[1:], out=out[:, 1])
    return out.reshape(2 * count, wl, wr)


def _stack_coordinates(parts: list[np.ndarray], rows: int) -> np.ndarray:
    """The coordinate blocks ``parts`` side by side, each padded with
    zero rows to ``rows``."""
    out = np.zeros((rows, sum(p.shape[1] for p in parts)),
                   dtype=np.result_type(*parts))
    start = 0
    for part in parts:
        out[:part.shape[0], start:start + part.shape[1]] = part
        start += part.shape[1]
    return out


def _extend_basis(basis: np.ndarray, op: Propagator, blocks: int,
                  width: int, *, transpose: bool = False) -> np.ndarray:
    """``basis`` with ``blocks`` new blocks appended, each the
    propagator (its transpose with ``transpose``) applied to the last.

    ``basis`` may be just a chain's last block: a step grows its chains
    a chunk at a time, and a replayed basis grows from the first.  Each
    block is applied to as its own array, so a chain's blocks are the
    same either way.
    """
    apply = op.apply_t if transpose else op.apply
    new = []
    last = basis[:, -width:]
    for _ in range(blocks):
        last = apply(last)
        new.append(last)
    return np.concatenate([basis] + new, axis=1)


def _tail(s: DsdaState, which: str) -> np.ndarray:
    """The entries h_{b-1} ... h_{2b-2} of the sequence of kernel ``"Y"``
    or ``"Z"``, the seed followed by the first b - 1 scaled moments;
    the entries below b - 1 vanish."""
    return np.concatenate([s.seeds[which][None],
                           s.multiplier * s.moments[which][:2 ** s.k - 1]])


def _edges(s: DsdaState, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Last block column and last block row of kernel ``"Y"`` or ``"Z"``.

    Both hold the :func:`_tail` of the kernel's sequence: stacked
    vertically (b r x c) and side by side (r x b c).
    """
    tail = _tail(s, which)
    b, r, c = tail.shape
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
    symmetric kernel.  A kernel larger than ``KERNEL_MAX_BYTES`` is
    refused before its product is formed.
    """
    size = row.shape[1] * col.shape[0] * np.result_type(row, col).itemsize
    if size > KERNEL_MAX_BYTES:
        raise BudgetExceededError(
            f"a {col.shape[0]} x {row.shape[1]} kernel takes {size} bytes, "
            f"over the cap of {KERNEL_MAX_BYTES}")
    out_t = row.T @ col.T
    g = out_t.reshape(blocks, out_t.shape[0] // blocks,
                      blocks, out_t.shape[1] // blocks)
    for i in range(1, blocks):
        g[i, :, 1:] += g[i - 1, :, :-1]
    if sigma < 0:
        np.negative(out_t, out=out_t)
    out_t.reshape(-1)[::out_t.shape[0] + 1] += 1.0
    return out_t.T


def _kernel_factor(col: np.ndarray, row: np.ndarray, blocks: int,
                   sigma: int) -> tuple:
    """Pivoted LU ``(lu, piv)`` of the kernel ``I + sigma X W``
    (:func:`_hankel_kernel`), written over it."""
    return lu_factor_checked(_hankel_kernel(col, row, blocks, sigma),
                             overwrite_a=True)


def _schur_solve(x: np.ndarray, blocks: int, rhs: np.ndarray) -> np.ndarray:
    """``L^-1 rhs``, written over ``rhs``, with ``L L^T`` the Cholesky
    factorization of the kernel ``I + X X^T`` whose X has the last block
    column ``x`` (:func:`_hankel_kernel` of ``x`` and ``x.T``; real
    ``x``), without forming the kernel.

    With ``d = cols / blocks`` rows per block, ``a = d + x.shape[1]``
    and J the down-shift by one block, the prefix-sum form of X X^T
    (module docstring) gives ``K - J K J^T = G G^T`` with the cols x a
    generator ``G = [E_0, x]``, E_0 the identity on the first block.
    The generalized Schur algorithm (Kailath & Sayed, SIAM Rev. 37,
    1995) reads L off G one block column per step: the a x a orthogonal
    Q of a QR of G's top block transposed turns that block into
    ``[L_00, 0]``, the first d columns of G Q are the next block column
    of L, and those columns shifted down one block beside the other a - d
    columns, top block dropped, generate the Schur complement.  The
    generator is positive, so no step needs a hyperbolic transform
    (Chandrasekaran & Sayed, SIAM J. Matrix Anal. Appl. 17, 1996).  L
    costs cols^2 a^2 / d flops instead of the kernel's cols^3 / 3.

    The block columns are gathered ``PANEL_COLS`` columns at a time, and
    each panel is applied to ``rhs`` at once: a triangular solve with its
    diagonal block and one product for the rows below it, both BLAS
    calls that write over ``rhs`` in place (``rhs`` is C-ordered, or
    copied so).  Besides ``rhs`` a call holds the generator, its product
    with Q and one panel, ``cols * (2 a + PANEL_COLS)`` entries.  A
    non-finite ``x`` is refused before the first step.  The pivots
    ``|diag L|`` are logged; K >= I makes each at least one.
    """
    cols, m = x.shape
    if not cols:
        return rhs
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("kernel generator has non-finite entries")
    rhs = np.ascontiguousarray(rhs)
    d = cols // blocks
    a = d + m
    gen = np.zeros((cols, a), order="F")
    gen[:d, :d] = np.eye(d)
    gen[:, d:] = x
    turned = np.empty_like(gen, order="F")
    top = np.empty((a, a), order="F")
    geqrf, orgqr = scipy.linalg.lapack.get_lapack_funcs(("geqrf", "orgqr"),
                                                        (gen,))
    per = max(1, PANEL_COLS // d)
    # Each panel is a C-ordered view of one buffer, so that its diagonal
    # block and the rows below it are contiguous operands.
    buffer = np.empty(cols * min(blocks, per) * d)
    gemm, trsm = scipy.linalg.blas.get_blas_funcs(("gemm", "trsm"),
                                                  (buffer, rhs))
    pivots = []
    for first in range(0, blocks, per):
        start, stop = first * d, min(blocks, first + per) * d
        lower = buffer[:(cols - start) * (stop - start)].reshape(
            cols - start, stop - start)
        for i in range(start, stop, d):
            # The a x a Q of [top^T, 0]: its last a - d reflectors are
            # the identity.
            top[:, :d] = gen[i:i + d].T
            top[:, d:] = 0.0
            q = orgqr(*geqrf(top, overwrite_a=True)[:2], overwrite_a=True)[0]
            out = np.matmul(gen[i:], q, out=turned[:cols - i])
            j = i - start
            lower[j:, j:j + d] = out[:, :d]
            gen[i + d:, :d] = out[:cols - i - d, :d]
            gen[i + d:, d:] = out[d:, d:]
        pivots.append(np.abs(np.diagonal(lower[:stop - start])))
        if not rhs.shape[1]:
            continue
        # w = L_00^-1 rhs[start:stop], then rhs[stop:] -= lower[...] @ w,
        # both written over rhs through the transposes, Fortran-ordered.
        w_t = rhs[start:stop].T
        trsm(1.0, lower[:stop - start].T, w_t, side=1, overwrite_b=1)
        if stop < cols:
            gemm(-1.0, w_t, lower[stop - start:].T, 1.0, rhs[stop:].T,
                 overwrite_c=1)
    _log_pivots(blocks, np.concatenate(pivots))
    return rhs


def _log_pivots(blocks: int, pivots: np.ndarray) -> None:
    """DEBUG line of the pivot magnitudes of a kernel of 2^k ``blocks``."""
    if pivots.size:
        log.debug("k=%d kernel pivots in [%.3e, %.3e]",
                  blocks.bit_length() - 1, pivots.min(), pivots.max())


def _evaluate(scale: float, col: np.ndarray, row: np.ndarray, blocks: int,
              sigma: int, q_left: np.ndarray, r_left: np.ndarray,
              q_right: np.ndarray, r_right: np.ndarray) -> LowRankSolution:
    """The finished iterate ``scale * left K^-1 right^T``, K the kernel
    ``I + sigma X W`` (:func:`_hankel_kernel`), in the spans ``q_left``
    and ``q_right`` of its bases, whose coordinates are ``r_left`` and
    ``r_right`` (``R = Q^H basis``; the same arrays for one basis).

    Its core is ``scale * R_l K^-1 R_r^T``.  The SPD kernels
    (``sigma = +1``: CARE, DARE, one basis, ``row`` is ``col.T``) are
    never formed: their core is ``scale * w^T w``, exactly symmetric,
    with ``w = L^-1 R^T`` from the displacement generator of K
    (:func:`_schur_solve`).  The other kernels (BSEP, MARE) are built
    and LU-factored (:func:`_kernel_factor`).  Either way the pivots are
    logged, and the iterate keeps only its spans and core.
    """
    cols = r_left.shape[1]
    if sigma == +1:
        w = _schur_solve(col, blocks, r_left.T.copy())
        return LowRankSolution(q_left, scale * (w.T @ w), q_left, cols)
    factor = _kernel_factor(col, row, blocks, sigma)
    _log_pivots(blocks, np.abs(np.diagonal(factor[0])))
    core = scale * (r_left @ scipy.linalg.lu_solve(factor, r_right.T,
                                                   check_finite=False))
    return LowRankSolution(q_left, core, q_right, cols)


def _sym_solution(s: DsdaState, side: str) -> LowRankSolution:
    """``sigma c * B (I + sigma K)^-1 B^T``: B = Vhat, K = Y^T Y on the
    right side, in the state's span; B = Uhat (replayed), K = Y Y^T on
    the left, whose span is found here."""
    col, row = _edges(s, "Y")
    if side == "right":
        x, span = row.T, s.spans["v"]
    else:
        x, span = col, span_of(s.chains["u"].basis(s.k))
    return _evaluate(s.multiplier, x, x.T, 2 ** s.k, s.sigma, *span, *span)


def dsda_eval_H(s: DsdaState) -> LowRankSolution:
    """H_k = c * Vhat (I + Y^T Y)^-1 Vhat^T for the psd-kernel families."""
    if s.sigma != +1:
        raise DimensionMismatchError(
            "H evaluation applies to the DARE/CARE kernel; use bsep_eval_F")
    return _sym_solution(s, "right")


def dsda_eval_G(s: DsdaState) -> LowRankSolution:
    """G_k = c * Uhat (I + Y Y^T)^-1 Uhat^T, mirror of :func:`dsda_eval_H`."""
    if s.sigma != +1:
        raise DimensionMismatchError(
            "G evaluation applies to the DARE/CARE kernel")
    return _sym_solution(s, "left")


def bsep_eval_F(s: DsdaState) -> LowRankSolution:
    """F_k = -2 alpha Vhat (I - Y^T Y)^-1 Vhat^T (plain transposes)."""
    if s.family != "bsep":
        raise DimensionMismatchError("F evaluation applies to the BSEP family")
    return _sym_solution(s, "right")


def dsda_mare_eval(s: DsdaState, which: str) -> LowRankSolution:
    """H_k = s * Uhat (I - Y Z)^-1 Qhat^T (``which="H"``) or
    G_k = s * What (I - Z Y)^-1 Vhat^T (``"G"``); the dense F_k and E_k
    are :func:`dsda.validate.dsda_mare_dense`."""
    if which not in ("H", "G"):
        raise ValueError(f"which must be one of H, G; got {which!r}")
    first, second = ("Y", "Z") if which == "H" else ("Z", "Y")
    spans = ((*s.spans["u"], *s.spans["q"]) if which == "H"
             else (*span_of(s.chains["w"].basis(s.k)),
                   *span_of(s.chains["v"].basis(s.k))))
    return _evaluate(s.scale, _edges(s, first)[0], _edges(s, second)[1],
                     2 ** s.k, s.sigma, *spans)
