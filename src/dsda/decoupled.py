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
M_{2i} = u_i^T v_i.  The iterate a solve reads follows:

    H_k = c * Vhat (I + sigma Y^T Y)^-1 Vhat^T

with family parameters (c, mu, sigma) = (1, 1, +1) for DARE,
(2g, 2g, +1) for CARE and (2a, -2a, -1) for the Bethe-Salpeter problem,
whose F_k carries an extra minus sign.  The four-matrix family keeps
two kernels Y, Z (seeds plus moments of Qhat^T What and Vhat^T Uhat,
with mu = -s) and four bases (Uhat, Vhat, What, Qhat) with

    H_k = s * Uhat (I - Y Z)^-1 Qhat^T,

where the shift sum s is 2g for plain doubling and alpha + beta for the
alternating-directional variant.  The other iterates of the classical
recursions (G_k, A_k, and the MARE G_k, F_k and E_k) are evaluated for
validation only, by :mod:`dsda.validate`.

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
O(cols (d + width)) memory (:func:`_schur_solve`), and its panel
solves and products run on numpy's BLAS alone, so that a solve keeps
to one of the two OpenBLAS thread pools that numpy and scipy each
bundle.  The kernel before a doubling is the leading principal block
of the doubled one (the doubled X's leading block rows are [0, X]), so
its Cholesky factor is the leading block of the new one.  The
indefinite BSEP and non-symmetric MARE kernels are built and
LU-factored, which stays cubic.

The propagator P is built once per solve by the init, from the one
form of the operator that the problem decides on (``a_op``, ``d_op``;
see ``matkit.SPARSE_MAX_DENSITY``).  For DARE it is A itself, dense or
in CSR form.  For the other families one checked factorization of the
shifted operator M (A - gamma I, alpha I - conj(A), A + beta I or
D + alpha I) gives both the first blocks, M^-1 B and M^-T C^T, and
P = I + c M^-1.  For a dense operator the LU solves M^-1 into a
Fortran-ordered identity and P is finished in that same buffer, one
Fortran-ordered n x n array applied by GEMM.  For a sparse one the
sparse LU of M is kept as a :class:`ResolventPropagator`, applied as
x + c M^-1 x.  The init fixes each chain's operator: P or its
transpose view ``P.T``, so a chain grows by ``op @ last`` and the two
chains of one P share its memory.

Every family's state is one :class:`DsdaState`.  The inits give each
chain its operator, and one table (``_LAYOUT``) pairs and spans them:

    family       chains (grown by)      moments of         spans of
    care, dare   u (P), v (P^T)         Y: (u, v)          v
    bsep         v (P)                  Y: (conj v, v)     v
    mare         u (P_A), v (P_A^T),    Y: (q, w)          u, q
                 w (P_D), q (P_D^T)     Z: (v, u)

A state holds no basis.  Of each Krylov chain it keeps a :class:`Chain`,
the first and the last block and the operator that grows it; the
BSEP left basis is conj(vhat) and has no chain.  A step grows each
chain from its last block; :func:`dsda.validate.chain_basis` replays
the recursion from the first, bit for bit.  Each kernel
keeps its seed and its moments.  For every basis an evaluated iterate
is built on, the state keeps an orthonormal basis Q of its numerical
span (:func:`extend_span`) and a tuple of blocks, one per chunk the
span was extended by: for BSEP and MARE the chunk's coordinates
``Q^H chunk`` as they were found, stacked into ``R = Q^H basis`` when
the iterate is evaluated, and for CARE and DARE the rows of w they
were solved into (below).  The Krylov spaces are nested, so one step
for every family (:func:`dsda_step`) streams the new blocks of each
chain into the moments and spans a chunk at a time, deflating the
columns that lie within ``EPS * n`` of a span, relative to their own
norms, and the init and every step append their coordinates in one
tail (:func:`_append`).  Each chunk is pivoted as a whole, in rounds:
in each, LAPACK's pivoted Cholesky factorization ``?pstrf`` of the Gram
matrix of the chunk's remainders picks the directions, which are
orthonormalized as one block, until every column of the chunk lies
within that threshold of the span.  On the steel-sized CARE (seed 7)
the span ends with 295 directions for an iterate of rank 101.  This is
not truncation: deflation drops only directions within the rank cutoff
of order n, and the moments and kernels never read the span.  The
moments are formed from pairs of blocks in place of one product with
the whole right basis, so they agree with the explicit products
``Uhat^T Vhat`` to roundoff, not bit for bit.

An iterate is a :class:`LowRankSolution` ``Q_l core Q_r^T`` with the
small core ``scale * R_l K^-1 R_r^T``.  For BSEP and MARE the evaluator
builds and factors the kernel and forms the core once
(:func:`_evaluate`).  For CARE and DARE the core is ``scale * w^T w``
with ``w = L^-1 R^T``, L the Cholesky factor, and the step forms it: as
L's leading block is the factor before the doubling and the earlier
columns' coordinates are zero on the directions added since, the rows
of w solved before stay, and the step solves only the rows its new
columns add and adds their product to the core (:func:`_add_rows`).
The state carries those row blocks and the core in place of R, each
block as wide as the span was when it was solved, so the H evaluator
solves nothing.  Memory is O(n r + r cols) per evaluated basis: Q and
the blocks of R or of w, which hold no zero padding; on the
steel-sized CARE a decoupled solve peaks at 25.0 MB and on the
wide-kernel CARE (n = 256, 3072 columns) at 14.2 MB.  The driver
measures an iterate from the spans and core at every step without
forming the n x n matrix, also when the basis has more columns than
the iterate's order.  An iterate of every family holds its spans and
core and nothing of its kernel: the BSEP increment compares two cores,
the earlier one on the leading directions of the later span, and
``dense()`` is ``Q_l core Q_r^T`` (see :class:`LowRankSolution`).  A
kernel to be built (BSEP, MARE) over ``KERNEL_MAX_BYTES`` is refused
before it is built.  Each factor an init, step or evaluation forms logs
its pivot range at DEBUG (:func:`_log_pivots`).

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

#: Default cap on a Krylov chain's columns, which double every step with
#: no truncation.  No state holds a basis, but the columns set a step's
#: operator applications, solved rows (CARE, DARE) or coordinates (BSEP,
#: MARE), and the order of a BSEP or MARE kernel: growth must fail cleanly.
DEFAULT_COLUMN_BUDGET = 4096

#: Largest kernel, in bytes, that is built: 2 GiB, a quarter of an
#: 8 GB machine's memory.  A BSEP or MARE kernel has cols^2 entries
#: (4.8 GB at 24 576 columns); a larger one ends the run
#: ``BudgetExceeded``.  The SPD kernels of CARE and DARE are never
#: built (:func:`_schur_solve`).
KERNEL_MAX_BYTES = 2 * 2 ** 30

#: Columns of a panel: of an SPD kernel's Cholesky factor formed and
#: applied together (:func:`_schur_solve`), and of a one-basis iterate
#: made exactly symmetric together (:meth:`LowRankSolution.dense`).
PANEL_COLS = 256

#: Most rows of a diagonal block of a panel that :func:`_forward_solve`
#: solves by its inverse.
LEAF_ROWS = 32

#: Columns of each Krylov chain a doubling grows, pairs into moments and
#: streams into its span together (:func:`dsda_step`), one block at
#: least, and of a whole replayed basis :func:`dsda.validate.span_of`
#: streams.  Narrower chunks cost more small BLAS calls (64 columns was
#: about 30 % slower on the steel-sized CARE); wider ones only hold more
#: columns at once.  The deflation threshold does not depend on it.
STREAM_COLS = 256


def extend_span(q: np.ndarray, new: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (``Q^H Q = I``) of the numerical span of ``q``
    and the chunk ``new``, and the coordinates ``Q^H new`` of the chunk
    in it.

    The block Krylov spaces are nested, so each doubling extends the
    span by the part of its new columns outside it only, chunk by chunk
    (:func:`dsda_step`), and the leading columns of the result are ``q``
    itself.  A column whose part outside the span is at most
    ``tol = EPS * n`` times its own norm, n the order ``q.shape[0]``, is
    deflated: that is the cutoff :func:`dsda.matkit.numerical_rank`
    applies to a matrix of order n, the same for every chunk of every
    basis, however wide the basis has grown.  Measuring against each
    column's own norm keeps the directions of small columns that meet
    large ones of the other basis in a two-sided iterate.

    The new columns, scaled to unit norm, are projected out of ``q`` in
    one product, which leaves each remainder accurate to well within
    the threshold: after both projections (this one and the one out of
    the added directions, below) the roundoff in a remainder measured at
    most 9.6 EPS of its column's norm on the steel-sized CARE and the
    grid-37 heat MARE, under 1 % of ``tol`` at n = 1369.  The chunk is
    then pivoted as a whole, in rounds.  A round forms the Gram matrix
    of the remainders and picks the directions by one call of LAPACK's
    pivoted Cholesky factorization ``?pstrf`` on it, largest remainder
    first, down to a floor that follows from EPS (:func:`_pivots`).  The
    picks are orthonormalized as one block: a QR, a projection out of
    ``q`` and the directions added before, and a QR again (two passes
    are enough; Björck, LAA 197-198, 1994).  The QR comes first because
    a pick may be small next to the roundoff the first projection left
    along ``q``; a QR after the projection would scale that roundoff by
    the picks' condition, and in that order the span of the steel-sized
    CARE grew to all n = 1369 directions.  Every remainder is then
    projected out of the new directions, and the rounds repeat until
    none is above ``tol``: the per-column test alone decides what is
    deflated, the Gram matrix only the order of the picks.  A round
    that would pick nothing is not run: that is exactly when no
    remainder's squared norm is above ``tol**2``, which the squared
    column norms show without the Gram matrix.

    Besides the scaled copy of the chunk, the coordinates and the
    result, a call holds the chunk's Gram matrix and one round's
    directions at a time.
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
    tol = EPS * n
    added = []
    r = 0
    while r < room and _squared_norms(rest).max() > tol * tol:
        picks = _pivots(rest.conj().T @ rest, tol, room - r)
        if not picks:
            break
        dirs = np.linalg.qr(rest[:, picks])[0]
        dirs -= q @ (q_h @ dirs)
        for done in added:
            dirs -= done @ (done.conj().T @ dirs)
        dirs = np.linalg.qr(dirs)[0]
        rest -= dirs @ (dirs.conj().T @ rest)
        added.append(dirs)
        r += dirs.shape[1]
    if not added:
        return q, top
    return (np.hstack([q] + added),
            np.vstack([top] + [dirs.conj().T @ new for dirs in added]))


def _pivots(gram: np.ndarray, tol: float, most: int) -> list[int]:
    """The leading pivots, at most ``most`` of them and 0-based, of
    LAPACK's pivoted Cholesky factorization ``?pstrf`` of the Gram matrix
    ``gram`` of some columns: each step picks the column with the
    largest diagonal entry of the Schur complement, the squared norm of
    its part outside the columns picked before.

    Picking stops at an entry of at most ``tol`` times the largest
    diagonal entry of ``gram``: the entries of a Gram matrix, inner
    products of length n, carry roundoff of about EPS n times that
    entry, which the ``tol = EPS * n`` of :func:`extend_span` covers, so
    no pick is decided by it.  This floor is the Gram matrix's own and
    only orders the picks; the per-column test of :func:`extend_span`
    decides what is deflated.  An entry of at most ``tol**2`` is never
    picked: for columns of unit norm it is one within the threshold.
    ``?pstrf`` tests its first pivot against zero only, so a diagonal
    all at or below the floor is refused here.
    """
    top = gram.diagonal().real.max()
    floor = max(tol * top, tol * tol)
    if not top > floor:
        return []
    pstrf, = scipy.linalg.lapack.get_lapack_funcs(("pstrf",), (gram,))
    _, piv, rank, _ = pstrf(gram, tol=floor, lower=1)
    return (piv[:min(rank, most)] - 1).tolist()


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """Squared column norms of ``a``, with no temporary of its size."""
    d = np.einsum("ij,ij->j", a.real, a.real)
    if np.iscomplexobj(a):
        d += np.einsum("ij,ij->j", a.imag, a.imag)
    return d


@dataclass(frozen=True)
class LowRankSolution:
    """A finished iterate ``q_left @ core @ q_right.T`` (plain transpose).

    ``q_left`` and ``q_right`` are orthonormal bases of the numerical
    spans of the iterate's bases (:func:`extend_span`), the same array
    when the iterate has one basis, and the small ``core`` is
    ``scale * R_l K^-1 R_r^T`` with the coordinates ``R = Q^H basis``
    and the kernel K.  The core has the iterate's nonzero singular
    values and Frobenius norm (and, for a real iterate with one basis
    and a symmetric kernel, its nonzero eigenvalues).  It is formed
    once, right after the kernel is factored: by the evaluator for BSEP
    and MARE (:func:`_evaluate`), by the step for CARE and DARE
    (:func:`_add_rows`), so a singular kernel fails there.

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
class ResolventPropagator:
    """Propagator ``I + scale * M^-1`` applied through a sparse LU of M,
    used as a matrix: ``op @ x`` applies it, and ``op.T`` is its plain
    transpose (also for complex M), solved through the same factor.
    """

    lu: object          # scipy.sparse.linalg.SuperLU of M
    scale: float
    dtype: np.dtype
    trans: Literal["N", "T"] = "N"

    @property
    def shape(self) -> tuple[int, int]:
        return self.lu.shape

    @property
    def T(self) -> ResolventPropagator:
        return dataclasses.replace(self, trans="T" if self.trans == "N"
                                   else "N")

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return x + self.scale * self.lu.solve(x, trans=self.trans)


def _shifted(op, shift: float, scale: float, form=lambda x: x):
    """Solve with, and propagator ``I + scale * M^-1`` of, the shifted
    operator ``M = form(op) + shift * I``, from one checked factorization.

    ``op`` is the problem's operator form (``a_op`` or ``d_op``), and its
    type picks the route: a sparse LU of M applied as a
    :class:`ResolventPropagator`, or, for a dense array, a dense LU that
    forms the propagator as an explicit array.  The sparse LU is ordered
    for M's structure (:func:`matkit.splu_shifted`).  The dense P is
    solved into a Fortran-ordered identity and finished in place, so it
    is one n x n buffer, Fortran-ordered at every n.  ``form`` is applied
    here, so that its copy of the operator is freed once M is built.
    ``solve(x, trans)`` solves with M (``trans="N"``) or its plain
    transpose (``"T"``) through the same factor.
    """
    if not isinstance(op, np.ndarray):
        op = form(op)
        lu = splu_shifted(op, shift)
        return lu.solve, ResolventPropagator(lu, scale, op.dtype)
    m = np.array(form(op), order="F")
    m[np.diag_indices_from(m)] += shift
    factor = lu_factor_checked(m, overwrite_a=True)

    def solve(x, trans="N"):
        return scipy.linalg.lu_solve(factor, x, trans={"N": 0, "T": 1}[trans],
                                     check_finite=False)

    prop = scipy.linalg.lu_solve(
        factor, np.eye(m.shape[0], dtype=m.dtype, order="F"),
        overwrite_b=True, check_finite=False)
    prop *= scale
    prop[np.diag_indices_from(prop)] += 1.0
    return solve, prop


# ---------------------------------------------------------------------------
# The decoupled state of every family
# ---------------------------------------------------------------------------

#: Per family: for each kernel, the Krylov chains, named for their
#: bases, whose blocks pair into its moments (left, right) and whether
#: the left one enters conjugated; and the chains with a span.
_LAYOUT = {
    "care": ({"Y": ("u", "v", False)}, ("v",)),
    "dare": ({"Y": ("u", "v", False)}, ("v",)),
    "bsep": ({"Y": ("v", "v", True)}, ("v",)),
    "mare": ({"Y": ("q", "w", False), "Z": ("v", "u", False)}, ("u", "q")),
}


@dataclass(frozen=True)
class Chain:
    """A block Krylov chain: its first and last blocks and the operator
    it grows by, ``next = op @ last``, fixed by the init: a propagator P
    (a dense array, a sparse DARE's A or a :class:`ResolventPropagator`)
    or its transpose ``P.T``.  A step grows the chain from ``last``.
    """

    first: np.ndarray
    last: np.ndarray
    op: object


@dataclass(frozen=True)
class DsdaState:
    """Krylov chains, kernel seeds and moments, and spans of a decoupled
    run of any family, laid out as ``_LAYOUT`` says.

    ``chains`` holds each :class:`Chain` by basis name.  ``seeds`` and
    ``moments`` hold, by kernel name, its seed and the stack of its
    2^(k+1) - 1 moments: entry i + j is block (i, j) of the product of
    the kernel's left and right bases.  ``spans`` holds, by chain name,
    the span Q of its basis (:func:`extend_span`).  ``scale`` is c for
    the one-kernel families and the shift sum s for MARE.

    ``rows`` holds, by the same chain names, a tuple of blocks, one per
    chunk the init and the steps extended the span by
    (:func:`_append`), each over the directions the span had then (zero
    beyond).  For the LU-factored kernels of BSEP and MARE a block is
    the chunk's coordinates ``Q^H chunk``; the evaluator stacks them
    into ``R = Q^H basis``.  For the SPD kernel of CARE and DARE, whose
    Cholesky factor L the step forms, a block is the rows of
    ``w = L^-1 R^T`` a doubling added, and ``core`` holds ``w^T w``
    (:func:`_add_rows`).
    """

    family: Literal["dare", "care", "bsep", "mare"]
    chains: dict[str, Chain]
    seeds: dict[str, np.ndarray]
    moments: dict[str, np.ndarray]
    spans: dict[str, np.ndarray]
    rows: dict[str, tuple[np.ndarray, ...]]
    scale: float
    k: int = 0
    core: np.ndarray | None = None

    @property
    def basis_cols(self) -> int:
        name = _LAYOUT[self.family][1][0]
        return 2 ** self.k * self.chains[name].first.shape[1]

    @property
    def sigma(self) -> int:
        """Sign in the kernels: +1 for ``I + Y^T Y`` (CARE, DARE), -1 for
        ``I - Y^T Y`` (BSEP) and ``I - Y Z`` (MARE)."""
        return +1 if self.family in ("care", "dare") else -1

    @property
    def multiplier(self) -> float:
        """Factor on the moments in the kernel sequence: sigma * scale."""
        return self.sigma * self.scale


def _start(family: str, firsts: dict, seeds: dict, scale: float
           ) -> DsdaState:
    """The k = 0 state of ``family`` from each chain's first block and
    operator, ``firsts[name] = (block, op)``: each kernel's first
    moment and each span, as the layout pairs and spans the chains, the
    first block spanned as one chunk from the empty span of its order
    by the call a step makes (:func:`extend_span`), and the coordinates
    appended as a step appends its own."""
    pairs, spanned = _LAYOUT[family]
    chains = {name: Chain(block, block, op)
              for name, (block, op) in firsts.items()}
    moments = {}
    for kernel, (left, right, conj) in pairs.items():
        u = chains[left].first
        moments[kernel] = ((u.conj() if conj else u).T
                           @ chains[right].first)[None]
    spans = {name: extend_span(chains[name].first[:, :0], chains[name].first)
             for name in spanned}
    s = DsdaState(family, chains, seeds, moments,
                  {name: q for name, (q, _) in spans.items()},
                  dict.fromkeys(spans, ()), scale)
    return _append(s, {name: [r] for name, (_, r) in spans.items()})


def dsda_sym_init(p: CareProblem | DareProblem | BsepProblem) -> DsdaState:
    """Width-one starting state for the one-kernel families."""
    if isinstance(p, DareProblem):
        u0 = p.b.copy()
        v0 = p.c.T.copy()
        # Zero seed: the generic recursion then reproduces
        # Y_1 = [[0, 0], [0, B^T C^T]] because T_0 = B^T C^T.
        y0 = np.zeros((u0.shape[1], v0.shape[1]))
        # A C-ordered copy of a Fortran-ordered A: GEMM rounds by layout.
        prop = (np.ascontiguousarray(p.a_op) if isinstance(p.a_op, np.ndarray)
                else p.a_op)
        family, c, firsts = "dare", 1.0, {"u": (u0, prop), "v": (v0, prop.T)}
    elif isinstance(p, CareProblem):
        gamma = p.gamma
        solve, prop = _shifted(p.a_op, -gamma, 2.0 * gamma)
        u0, v0 = solve(p.b), solve(p.c.T, "T")
        y0 = p.b.T @ v0
        family, c = "care", 2.0 * gamma
        firsts = {"u": (u0, prop), "v": (v0, prop.T)}
    elif isinstance(p, BsepProblem):
        alpha = p.alpha
        # V grows with the propagator of M = alpha I - conj(A); the left
        # basis is conj(vhat) and has no chain of its own.
        solve, prop = _shifted(p.a_op, alpha, -2.0 * alpha,
                               lambda x: -x.conj())
        v0 = solve(p.l_b.conj())
        y0 = p.l_b.T @ v0
        family, c, firsts = "bsep", 2.0 * alpha, {"v": (v0, prop)}
    else:
        raise TypeError(f"unsupported problem type {type(p).__name__}")
    return _start(family, firsts, {"Y": y0}, c)


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
    solve_a, prop_a = _shifted(p.a_op, beta, -s)
    solve_d, prop_d = _shifted(p.d_op, alpha, -s)
    u0, w0 = solve_a(p.b_l), solve_d(p.c_l)
    firsts = {"u": (u0, prop_a), "v": (solve_a(p.c_r, "T"), prop_a.T),
              "w": (w0, prop_d), "q": (solve_d(p.b_r, "T"), prop_d.T)}
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
    columns extend their span (:func:`extend_span`), and their
    coordinates are kept.  The columns before them get zero coordinates
    on the directions a chunk adds: they lay within the threshold of the
    span when they were deflated.
    A chunk pair is released before the next one is grown.

    The chunks' coordinates are then appended as the init appends its
    own (:func:`_append`).
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
    pairs = _LAYOUT[s.family][0]
    stacks = {kernel: [moments] for kernel, moments in s.moments.items()}
    qs = dict(s.spans)
    parts = {name: [] for name in qs}
    for first in range(0, blocks, per):
        count = min(per, blocks - first)
        chunks = {name: _extend_basis(lasts[name], chain.op, count,
                                      widths[name])
                  for name, chain in s.chains.items()}
        # Copied: a view would keep its whole chunk alive.
        lasts = {name: chunk[:, chunk.shape[1] - widths[name]:].copy()
                 for name, chunk in chunks.items()}
        for kernel, (left, right, conj) in pairs.items():
            stacks[kernel].append(_pair_moments(chunks[left], chunks[right],
                                                count, conj))
        for name, q in qs.items():
            qs[name], part = extend_span(q, chunks[name][:, widths[name]:])
            parts[name].append(part)
        del chunks, part
    return _append(dataclasses.replace(
        s, chains={name: dataclasses.replace(chain, last=lasts[name])
                   for name, chain in s.chains.items()},
        moments={kernel: np.concatenate(stack)
                 for kernel, stack in stacks.items()},
        spans=qs, k=s.k + 1), parts)


#: One step doubles the state of every family.
dsda_sym_step = dsda_mare_step = dsda_step


def _append(s: DsdaState, parts: dict[str, list[np.ndarray]]) -> DsdaState:
    """``s`` with the coordinates ``parts`` of each spanned chain's
    newest columns, ``Q^H chunk`` chunk by chunk, appended to its
    ``rows``: as they are (BSEP, MARE) or, for CARE and DARE, stacked
    and solved into the rows of ``w = L^-1 R^T`` they add, with L the
    Cholesky factor of the state's kernel, and added to the core
    (:func:`_add_rows`).  The init and every step end here."""
    if s.sigma > 0:
        # Popped and stacked before the solve, which then holds no chunk
        # coordinates.
        return _add_rows(s, _stack_coordinates(
            parts.pop("v"), s.spans["v"].shape[1], order="F").T)
    return dataclasses.replace(s, rows={
        name: s.rows[name] + tuple(blocks) for name, blocks in parts.items()})


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


def _stack_coordinates(parts: list[np.ndarray], rows: int,
                       order: str = "C") -> np.ndarray:
    """The coordinate blocks ``parts`` side by side, each padded with
    zero rows to ``rows``, in memory ``order``."""
    out = np.zeros((rows, sum(p.shape[1] for p in parts)),
                   dtype=np.result_type(*parts), order=order)
    start = 0
    for part in parts:
        out[:part.shape[0], start:start + part.shape[1]] = part
        start += part.shape[1]
    return out


def _extend_basis(basis: np.ndarray, op, blocks: int,
                  width: int) -> np.ndarray:
    """``basis`` with ``blocks`` new blocks appended, each ``op @`` the
    last, ``op`` a chain's operator (:class:`Chain`).

    ``basis`` may be just a chain's last block: a step grows its chains
    a chunk at a time, and a replayed basis grows from the first.  Each
    block is applied to as the array the operator returned, not as its
    copy in the result, so a chain's blocks are the same either way.
    The result is allocated once and the blocks written into it.
    """
    cols = basis.shape[1]
    out = np.empty((basis.shape[0], cols + blocks * width),
                   dtype=np.result_type(basis, op.dtype))
    out[:, :cols] = basis
    last = basis[:, -width:]
    for i in range(blocks):
        last = op @ last
        out[:, cols + i * width:cols + (i + 1) * width] = last
    return out


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


def _hankel_kernel(col: np.ndarray, row: np.ndarray,
                   blocks: int) -> np.ndarray:
    """``I - X W`` from X's last block column and W's last block row.

    X and W are block Hankel with ``blocks`` block rows and sequences
    that vanish below index ``blocks - 1``, so XW is the block-diagonal
    prefix sum of ``col @ row`` (see the module docstring).  The sums
    run on the product's own buffer, built transposed so the returned
    kernel is Fortran-ordered and a factorization can overwrite it; a
    ``col`` that is ``row.T`` (or the reverse) gives an exactly
    symmetric kernel; a negated ``col`` gives ``I + X W``.  A kernel
    larger than ``KERNEL_MAX_BYTES`` is refused before its product is
    formed.
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
    np.negative(out_t, out=out_t)
    out_t.reshape(-1)[::out_t.shape[0] + 1] += 1.0
    return out_t.T


def _schur_solve(x: np.ndarray, blocks: int, rhs: np.ndarray,
                 solved: tuple[np.ndarray, ...] = ()) -> np.ndarray:
    """``L^-1 rhs``, written over ``rhs``, with ``L L^T`` the Cholesky
    factorization of the kernel ``I + X X^T`` whose X has the last block
    column ``x`` (:func:`_hankel_kernel` of ``-x`` and ``x.T``; real
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

    ``solved`` holds the leading rows of the solution, already solved,
    as row blocks, each as wide as ``rhs`` or narrower (zero beyond);
    ``rhs`` is then only the rows below them.  With the solved rows w_1
    and ``L = [[L_11, 0], [L_21, L_22]]``, the new rows are
    ``L_22^-1 (rhs - L_21 w_1)``.  The sweep still runs over every block
    column of L, but keeps of the solved ones only their rows below
    w_1, whose product with w_1 it subtracts from ``rhs``.

    The block columns are gathered ``PANEL_COLS`` columns at a time, and
    each panel is applied to ``rhs`` at once: a blocked forward
    substitution with its diagonal block (:func:`_forward_solve`) and
    one product for the rows below it (:func:`_subtract_product`), both
    written over ``rhs`` in place (``rhs`` is C-ordered, or copied so).
    The products go through the room of G Q, which is free between
    generator steps.  Besides ``rhs`` a call holds the generator, that
    room (widened to one row of ``rhs`` if that is wider) and one panel
    of the rows of ``rhs``, ``2 cols a + rows * PANEL_COLS`` entries.

    All the panel work runs on numpy's BLAS; only the a x a QR of each
    step, too small to be threaded, calls scipy's LAPACK.  numpy and
    scipy each bundle an OpenBLAS with its own thread pool, and a scipy
    BLAS call between numpy products left scipy's threads spinning on
    the cores that numpy's threads then needed (README, "BLAS threads").

    A non-finite ``x`` is refused before the first step.  The pivots
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
    # The first row of L that rhs holds.
    known = cols - rhs.shape[0]
    gen = np.zeros((cols, a), order="F")
    gen[:d, :d] = np.eye(d)
    gen[:, d:] = x
    # G Q, and between steps the panel's products with rows of rhs.
    spare = np.empty(max(cols * a, rhs.shape[1]))
    turned = spare[:cols * a].reshape((cols, a), order="F")
    top = np.empty((a, a), order="F")
    geqrf, orgqr = scipy.linalg.lapack.get_lapack_funcs(("geqrf", "orgqr"),
                                                        (gen,))
    per = max(1, PANEL_COLS // d)
    # Each panel is a Fortran-ordered view of one buffer, so that a block
    # column of L is copied into it from G Q column by column.
    buffer = np.empty((cols - known) * min(blocks, per) * d)
    pivots = np.empty(cols)
    for first in range(0, blocks, per):
        start, stop = first * d, min(blocks, first + per) * d
        # The panel's rows from the first that rhs holds or its own first.
        held = max(start, known)
        lower = buffer[:(cols - held) * (stop - start)].reshape(
            (cols - held, stop - start), order="F")
        for i in range(start, stop, d):
            # The a x a Q of [top^T, 0]: its last a - d reflectors are
            # the identity.
            top[:, :d] = gen[i:i + d].T
            top[:, d:] = 0.0
            q = orgqr(*geqrf(top, overwrite_a=True)[:2], overwrite_a=True)[0]
            out = np.matmul(gen[i:], q, out=turned[:cols - i])
            pivots[i:i + d] = np.abs(np.diagonal(out[:d, :d]))
            row = max(i, held)
            lower[row - held:, i - start:i - start + d] = out[row - i:, :d]
            gen[i + d:, :d] = out[:cols - i - d, :d]
            gen[i + d:, d:] = out[d:, d:]
        if not rhs.shape[1]:
            continue
        offset = 0
        for block in solved:
            lo, hi = max(start, offset), min(stop, offset + len(block))
            if lo < hi:
                _subtract_product(rhs[:, :block.shape[1]],
                                  lower[:, lo - start:hi - start],
                                  block[lo - offset:hi - offset], spare)
            offset += len(block)
        if stop > known:
            w = rhs[held - known:stop - known]
            panel = lower[:, held - start:]
            _forward_solve(panel[:stop - held], w, spare)
            _subtract_product(rhs[stop - known:], panel[stop - held:], w,
                              spare)
    _log_pivots(blocks, pivots)
    return rhs


def _forward_solve(l: np.ndarray, b: np.ndarray, spare: np.ndarray) -> None:
    """Write ``tril(l)^-1 b`` over ``b``, reading only the lower triangle
    of the square ``l`` (the rest of a panel's diagonal block holds
    earlier panels' entries).

    The triangle is halved until its diagonal blocks have at most
    ``LEAF_ROWS`` rows: the top half of ``b`` is solved, its product
    with the block below the diagonal subtracted from the bottom half
    (:func:`_subtract_product`), and the bottom half solved.  A leaf is
    solved by a product with the inverse of its triangle, through a copy
    in ``spare`` of as many columns of ``b`` as fit.  The inverse comes
    from an LU with partial pivoting, which can leave roundoff above its
    diagonal, so only its lower triangle is kept: a leaf's later rows
    then never reach its earlier ones.  ``spare`` must hold at least
    ``max(rows, b.shape[1])`` entries.
    """
    rows = l.shape[0]
    if rows > LEAF_ROWS:
        half = rows // 2
        _forward_solve(l[:half, :half], b[:half], spare)
        _subtract_product(b[half:], l[half:, :half], b[:half], spare)
        _forward_solve(l[half:, half:], b[half:], spare)
        return
    inv = np.tril(np.linalg.inv(np.tril(l)))
    step = spare.size // rows
    for j in range(0, b.shape[1], step):
        part = b[:, j:j + step]
        copy = spare[:part.size].reshape(part.shape)
        np.copyto(copy, part)
        np.matmul(inv, copy, out=part)


def _subtract_product(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                      spare: np.ndarray) -> None:
    """``out -= a @ b`` in place, the product formed in ``spare`` as many
    rows at a time as fit; ``out`` must not overlap ``b``, and ``spare``
    must hold at least one row of ``b``."""
    cols = b.shape[1]
    step = spare.size // max(1, cols)
    for i in range(0, out.shape[0], step):
        rows = a[i:i + step]
        product = spare[:len(rows) * cols].reshape(len(rows), cols)
        out[i:i + step] -= np.matmul(rows, b, out=product)


def _log_pivots(blocks: int, pivots: np.ndarray) -> None:
    """DEBUG line of the pivot magnitudes of a kernel of 2^k ``blocks``."""
    if pivots.size:
        log.debug("k=%d kernel pivots in [%.3e, %.3e]",
                  blocks.bit_length() - 1, pivots.min(), pivots.max())


def _add_rows(s: DsdaState, rhs: np.ndarray) -> DsdaState:
    """``s`` (CARE or DARE) with the rows of ``w = L^-1 R^T`` that its
    newest columns add, solved over ``rhs``, their coordinates ``R^T``
    (zero beyond the directions of the span up to each chunk), and the
    core ``w^T w``.

    The kernel before a doubling is the leading principal block of the
    doubled one (module docstring), so its Cholesky factor is the
    leading block of ``L = [[L_11, 0], [L_21, L_22]]``, and the earlier
    columns' coordinates are the leading rows of ``R^T``, zero on the
    directions added since.  So the rows ``s.rows["v"]`` solved before are
    the leading rows of w, the new ones are
    ``w_new = L_22^-1 (R_new^T - L_21 w)`` (:func:`_schur_solve`), and
    the core is ``[[core, 0], [0, 0]] + w_new^T w_new``, exactly
    symmetric.
    """
    w = _schur_solve(_edges(s, "Y")[1].T, 2 ** s.k, rhs, s.rows["v"])
    core = w.T @ w
    if s.core is not None:
        core[:len(s.core), :len(s.core)] += s.core
    return dataclasses.replace(s, rows={"v": s.rows["v"] + (w,)}, core=core)


def _evaluate(scale: float, col: np.ndarray, row: np.ndarray, blocks: int,
              q_left: np.ndarray, r_left: np.ndarray,
              q_right: np.ndarray, r_right: np.ndarray) -> LowRankSolution:
    """The finished iterate ``scale * left K^-1 right^T`` of BSEP or MARE
    in the spans ``q_left`` and ``q_right`` of its bases, whose
    coordinates are ``r_left`` and ``r_right`` (``R = Q^H basis``; the
    same arrays for one basis): the core ``scale * R_l K^-1 R_r^T``,
    with the kernel ``K = I - X W`` built (:func:`_hankel_kernel`) and
    LU-factored over itself, and its pivots logged."""
    factor = lu_factor_checked(_hankel_kernel(col, row, blocks),
                               overwrite_a=True)
    _log_pivots(blocks, np.abs(np.diagonal(factor[0])))
    core = scale * (r_left @ scipy.linalg.lu_solve(factor, r_right.T,
                                                   check_finite=False))
    return LowRankSolution(q_left, core, q_right, r_left.shape[1])


def dsda_eval_H(s: DsdaState) -> LowRankSolution:
    """H_k = c * Vhat (I + Y^T Y)^-1 Vhat^T for the psd-kernel families:
    ``Q (c core) Q^T`` from the span and the core the state carries, so
    nothing is solved here (:func:`_add_rows`)."""
    if s.sigma != +1:
        raise DimensionMismatchError(
            "H evaluation applies to the DARE/CARE kernel; use bsep_eval_F")
    q = s.spans["v"]
    return LowRankSolution(q, s.multiplier * s.core, q, s.basis_cols)


def bsep_eval_F(s: DsdaState) -> LowRankSolution:
    """F_k = -2 alpha Vhat (I - Y^T Y)^-1 Vhat^T (plain transposes), in
    the state's span of Vhat."""
    if s.family != "bsep":
        raise DimensionMismatchError("F evaluation applies to the BSEP family")
    x = _edges(s, "Y")[1].T
    q = s.spans["v"]
    span = q, _stack_coordinates(s.rows["v"], q.shape[1])
    return _evaluate(s.multiplier, x, x.T, 2 ** s.k, *span, *span)


def dsda_mare_eval(s: DsdaState) -> LowRankSolution:
    """H_k = s * Uhat (I - Y Z)^-1 Qhat^T in the state's spans of Uhat
    and Qhat.  G_k is :func:`dsda.validate.dsda_mare_eval_G`, and the
    dense F_k and E_k are :func:`dsda.validate.dsda_mare_dense`."""
    if s.family != "mare":
        raise DimensionMismatchError("H evaluation needs a MARE state")
    u, q = s.spans["u"], s.spans["q"]
    return _evaluate(s.scale, _edges(s, "Y")[0], _edges(s, "Z")[1], 2 ** s.k,
                     u, _stack_coordinates(s.rows["u"], u.shape[1]),
                     q, _stack_coordinates(s.rows["q"], q.shape[1]))
