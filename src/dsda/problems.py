"""Problem descriptors and deterministic instance generators.

Four equation families are modelled:

* ``CareProblem``  -- continuous-time Riccati ``A^T X + X A - X B B^T X + C^T C = 0``
* ``DareProblem``  -- discrete-time Riccati ``-X + A^T X (I + B B^T X)^-1 A + C^T C = 0``
* ``MareProblem``  -- nonsymmetric Riccati ``X C X - X D - A X + B = 0`` with
  low-rank ``B = B_l B_r^T`` and ``C = C_l C_r^T``
* ``BsepProblem``  -- Bethe-Salpeter eigenvalue problem for the 2n x 2n
  Hamiltonian-like matrix ``[[A, B], [-conj(B), -conj(A)]]`` with ``B = L_B L_B^T``

The generators are pure functions of their arguments (including the
seed) and produce instances that satisfy the standing assumptions of
the doubling iterations by construction.

Matrices are held dense.  Each problem also decides, once and on first
use, the one form in which its operator is applied and factored
(``a_op``, and ``d_op`` for the four-matrix family): a CSR copy when at
most ``matkit.SPARSE_MAX_DENSITY`` of the entries are nonzero, else the
dense array itself.  The decoupled inits and the residuals read only
that form.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidShiftError
from .matkit import SPARSE_MAX_DENSITY, as_matrix, frobenius_norm


def _operator_of(field: str) -> functools.cached_property:
    """Cached operator form of matrix ``field``: a CSR copy when at most
    ``SPARSE_MAX_DENSITY`` of its entries are nonzero, else (and for an
    empty matrix) the dense array itself.  ``scipy.sparse`` is imported
    only to build a CSR copy, so a dense problem never loads it."""
    def derive(self):
        a = getattr(self, field)
        if a.size == 0 or np.count_nonzero(a) > SPARSE_MAX_DENSITY * a.size:
            return a
        import scipy.sparse
        return scipy.sparse.csr_array(a)
    derive.__doc__ = (f"``{field}`` in the form it is applied and factored "
                      "in: a CSR copy when sparse enough, else the array.")
    return functools.cached_property(derive)


def _coerce(p, names, dtype=None) -> None:
    """Set each named field of ``p`` (the name in lower case) to
    :func:`as_matrix` of it under that name, cast to ``dtype`` if given."""
    for name in names:
        arr = as_matrix(getattr(p, name.lower()), name)
        object.__setattr__(p, name.lower(), arr if dtype is None
                           else arr.astype(dtype, copy=False))


def _coerce_abc(p) -> None:
    """Coerce a Riccati problem's A, B, C to matrices in place and check
    that A is n x n, B n x m and C l x n with m, l <= n and n >= 1."""
    _coerce(p, ("A", "B", "C"))
    n = p.a.shape[0]
    if p.a.shape != (n, n):
        raise DimensionMismatchError(f"A must be square, got {p.a.shape}")
    if not n:
        raise DimensionMismatchError("A must have order at least 1")
    if p.b.shape[0] != n:
        raise DimensionMismatchError(f"B must have {n} rows, got {p.b.shape}")
    if p.c.shape[1] != n:
        raise DimensionMismatchError(f"C must have {n} columns, got {p.c.shape}")
    if p.b.shape[1] > n or p.c.shape[0] > n:
        raise DimensionMismatchError("B and C^T may have at most n columns")


@dataclass(frozen=True)
class CareProblem:
    """Continuous-time Riccati data A (n x n), B (n x m), C (l x n)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        _coerce_abc(self)
        if not self.gamma > 0.0:
            raise InvalidShiftError(f"gamma must be positive, got {self.gamma}")

    a_op = _operator_of("a")

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class DareProblem:
    """Discrete-time Riccati data A (n x n), B (n x m), C (l x n)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        _coerce_abc(self)

    a_op = _operator_of("a")

    @property
    def n(self) -> int:
        return self.a.shape[0]


#: The diagonal maximum each MARE shift must reach.
_MARE_FLOORS = {"gamma": "max(diag A, diag D)", "alpha": "max(diag A)",
                "beta": "max(diag D)"}


@dataclass(frozen=True)
class MareProblem:
    """Nonsymmetric Riccati data with explicit low-rank factors.

    A is m x m, D is n x n, B = B_l B_r^T (m x n) and C = C_l C_r^T
    (n x m).  Shifts are optional; when left unset the doubling inits
    use the diagonal maxima of A and D.  Those maxima are also the
    floors below which a shift given here is inadmissible: gamma must
    reach both, alpha that of A and beta that of D.
    """

    a: np.ndarray
    d: np.ndarray
    b_l: np.ndarray
    b_r: np.ndarray
    c_l: np.ndarray
    c_r: np.ndarray
    gamma: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        _coerce(self, ("a", "d", "b_l", "b_r", "c_l", "c_r"))
        m = self.a.shape[0]
        n = self.d.shape[0]
        if self.a.shape != (m, m) or self.d.shape != (n, n):
            raise DimensionMismatchError("A and D must be square")
        if not (m and n):
            raise DimensionMismatchError("A and D must have order at least 1")
        m1 = self.b_l.shape[1]
        n1 = self.c_l.shape[1]
        if self.b_l.shape != (m, m1) or self.b_r.shape != (n, m1):
            raise DimensionMismatchError(
                f"B factors must be {m}x{m1} and {n}x{m1}")
        if self.c_l.shape != (n, n1) or self.c_r.shape != (m, n1):
            raise DimensionMismatchError(
                f"C factors must be {n}x{n1} and {m}x{n1}")
        given = [name for name in _MARE_FLOORS if getattr(self, name) is not None]
        floors = self.shift_floors() if given else {}
        for name in given:
            value = getattr(self, name)
            if not value >= floors[name]:
                raise InvalidShiftError(
                    f"{name} = {value} is below {_MARE_FLOORS[name]} "
                    f"= {floors[name]}")

    a_op = _operator_of("a")
    d_op = _operator_of("d")

    def shift_floors(self) -> dict[str, float]:
        """Smallest admissible value of each shift, which is also its default."""
        a_max = float(np.max(np.diag(self.a)))
        d_max = float(np.max(np.diag(self.d)))
        return {"gamma": max(a_max, d_max), "alpha": a_max, "beta": d_max}

    def shifts(self, mode: str) -> tuple[float, float]:
        """(alpha, beta): gamma twice for ``"sda"``, alpha and beta for
        ``"adda"``; a shift left unset takes its floor."""
        names = {"sda": ("gamma", "gamma"), "adda": ("alpha", "beta")}
        if mode not in names:
            raise ValueError(f"unknown mode '{mode}'")
        floors = self.shift_floors()
        return tuple(floors[name] if getattr(self, name) is None
                     else getattr(self, name) for name in names[mode])

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def b_dense(self) -> np.ndarray:
        return self.b_l @ self.b_r.T

    def c_dense(self) -> np.ndarray:
        return self.c_l @ self.c_r.T


@dataclass(frozen=True)
class BsepProblem:
    """Bethe-Salpeter data: Hermitian A (n x n) and L_B (n x p), B = L_B L_B^T."""

    a: np.ndarray
    l_b: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        _coerce(self, ("A", "L_B"), np.complex128)
        a, l_b = self.a, self.l_b
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionMismatchError(f"A must be square, got {a.shape}")
        if not n:
            raise DimensionMismatchError("A must have order at least 1")
        if l_b.shape[0] != n or l_b.shape[1] > n:
            raise DimensionMismatchError(
                f"L_B must be {n} x p with p <= {n}, got {l_b.shape}")
        herm_gap = frobenius_norm(a - a.conj().T)
        if herm_gap > 1e-12 * max(1.0, frobenius_norm(a)):
            raise DimensionMismatchError("A must be Hermitian")
        if not self.alpha > 0.0:
            raise InvalidShiftError(f"alpha must be positive, got {self.alpha}")

    a_op = _operator_of("a")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def b_dense(self) -> np.ndarray:
        return self.l_b @ self.l_b.T

    def hamiltonian(self) -> np.ndarray:
        """Assemble the dense 2n x 2n eigenproblem matrix."""
        b = self.b_dense()
        return np.block([[self.a, b], [-b.conj(), -self.a.conj()]])


Problem = CareProblem | DareProblem | MareProblem | BsepProblem


def reduce_control_weight(b, r) -> np.ndarray:
    """Fold a control weight R > 0 into B via ``B <- B R^{-1/2}``.

    The solvers fix R = I; a general positive definite weight is handled
    by this pre-transform.
    """
    b = as_matrix(b, "B")
    r = as_matrix(r, "R")
    w, v = np.linalg.eigh(r)
    if np.min(w) <= 0.0:
        raise ValueError("R must be positive definite")
    return b @ (v / np.sqrt(w)) @ v.T


def _random_symmetric(n: int, m: int, l: int, seed: int, draw):
    """A, B, C of a random instance, deterministic per seed: A is the
    symmetric ``Q diag(draw(rng)) Q^T`` with Q orthogonal, and B and C
    are dense with full column/row rank almost surely."""
    if not (0 <= m <= n and 0 <= l <= n):
        raise DimensionMismatchError("block widths must lie in [0, n]")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * draw(rng)) @ q.T
    a = (a + a.T) / 2.0
    b = 0.3 * rng.standard_normal((n, m)) / math.sqrt(n)
    c = rng.standard_normal((l, n)) / math.sqrt(n)
    return a, b, c


def gen_random_care(n: int, m: int, l: int, seed: int) -> CareProblem:
    """Random stable continuous-time instance, deterministic per seed.

    A is symmetric negative definite (hence stable) with eigenvalues
    drawn from a narrow band, which keeps the doubling residuals on a
    clean quadratic trajectory.
    """
    return CareProblem(*_random_symmetric(
        n, m, l, seed, lambda rng: -rng.uniform(0.45, 0.55, n)), gamma=1.0)


def gen_random_dare(n: int, m: int, l: int, seed: int) -> DareProblem:
    """Random discrete-time instance with symmetric A of mixed-sign
    eigenvalue magnitudes drawn from a narrow stable band."""
    return DareProblem(*_random_symmetric(
        n, m, l, seed,
        lambda rng: rng.uniform(0.42, 0.52, n) * rng.choice([-1.0, 1.0], n)))


def gen_random_mare(m: int, n: int, m1: int, n1: int, seed: int) -> MareProblem:
    """Random M-matrix instance of ``X C X - X D - A X + B = 0``.

    B and C come from nonnegative rank-m1 / rank-n1 factors; the
    diagonals of A and D are then raised until the assembled block
    matrix ``[[D, -C], [-B, A]]`` is strictly diagonally dominant with
    positive diagonal, i.e. a nonsingular M-matrix.
    """
    if not (0 <= m1 <= min(m, n) and 0 <= n1 <= min(m, n)):
        raise DimensionMismatchError(
            "factor ranks must lie in [0, min(m, n)]")
    rng = np.random.default_rng(seed)
    b_l = rng.uniform(0.0, 1.0, (m, m1))
    b_r = rng.uniform(0.0, 1.0, (n, m1))
    c_l = rng.uniform(0.0, 1.0, (n, n1))
    c_r = rng.uniform(0.0, 1.0, (m, n1))
    a_off = rng.uniform(0.0, 1.0, (m, m))
    np.fill_diagonal(a_off, 0.0)
    d_off = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(d_off, 0.0)
    b = b_l @ b_r.T
    c = c_l @ c_r.T
    # Row sums of the nonnegative part of M fix diagonals that dominate.
    a_diag = a_off.sum(axis=1) + b.sum(axis=1) + 4.0
    d_diag = d_off.sum(axis=1) + c.sum(axis=1) + 4.0
    a = np.diag(a_diag) - a_off
    d = np.diag(d_diag) - d_off
    return MareProblem(a, d, b_l, b_r, c_l, c_r)


def gen_random_bsep(n: int, p: int, seed: int) -> BsepProblem:
    """Random Bethe-Salpeter instance with negative definite Hermitian A.

    With A negative definite and a moderate coupling block, the stable
    invariant subspace of the assembled Hamiltonian is a well-behaved
    graph subspace, so the doubling iteration converges.
    """
    if not 0 <= p <= n:
        raise DimensionMismatchError("p must lie in [0, n]")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = -(w @ w.conj().T / (2.0 * n) + np.eye(n))
    l_b = 0.4 * (rng.standard_normal((n, p))
                      + 1j * rng.standard_normal((n, p))) / math.sqrt(n)
    return BsepProblem(a, l_b, alpha=1.0)


def gen_scalar_suite() -> list[tuple[Problem, float]]:
    """Fixed 1 x 1 instances with closed-form references.

    Returns (problem, value) pairs where the value is the analytic
    solution entry for the Riccati families and the stable eigenvalue
    for the Bethe-Salpeter case:

    * CARE a=-1, b=c=1: stabilizing root of x^2 + 2x - 1, sqrt(2) - 1
    * DARE a=0.5, g=h=1: positive root of x^2 - 0.25x - 1
    * MARE a=2, b=c=1, d=3: minimal root of x^2 - 5x + 1, (5 - sqrt(21))/2
    * BSEP a=2, b=1: stable eigenvalue -sqrt(a^2 - b^2) = -sqrt(3)
    """
    return [
        (CareProblem([[-1.0]], [[1.0]], [[1.0]], gamma=1.0), math.sqrt(2.0) - 1.0),
        (DareProblem([[0.5]], [[1.0]], [[1.0]]), (0.25 + math.sqrt(4.0625)) / 2.0),
        (MareProblem([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]),
         (5.0 - math.sqrt(21.0)) / 2.0),
        (BsepProblem([[2.0]], [[1.0]]), -math.sqrt(3.0)),
    ]


#: Matrix keys each family expects when assembled from files; the
#: problem field of each key is its lower-case name.
FAMILY_MATRIX_KEYS = {
    "care": ("A", "B", "C"),
    "dare": ("A", "B", "C"),
    "mare": ("A", "D", "B_l", "B_r", "C_l", "C_r"),
    "bsep": ("A", "L_B"),
}

#: Every matrix key of some family, in first-seen order.
MATRIX_KEYS = tuple(dict.fromkeys(
    key for keys in FAMILY_MATRIX_KEYS.values() for key in keys))

#: Problem type of each family.
FAMILY_TYPES = {"care": CareProblem, "dare": DareProblem,
                "mare": MareProblem, "bsep": BsepProblem}

#: Shift parameters; each problem type has its own subset as fields.
SHIFTS = ("gamma", "alpha", "beta")


def shift_fields(problem) -> tuple[str, ...]:
    """The shifts that a problem (or problem type) has as fields."""
    names = {f.name for f in dataclasses.fields(problem)}
    return tuple(s for s in SHIFTS if s in names)


def assemble_problem(family: str, matrices: dict[str, np.ndarray],
                     gamma: float | None = None, alpha: float | None = None,
                     beta: float | None = None) -> Problem:
    """Build a problem descriptor from named matrices.

    Of the shifts given, those the family's problem type has are set;
    the others are ignored.  Raises ``ConfigError`` when a required
    matrix is missing or a real family receives complex data.
    """
    if family not in FAMILY_MATRIX_KEYS:
        raise ConfigError(f"unknown family '{family}'")
    needed = FAMILY_MATRIX_KEYS[family]
    missing = [k for k in needed if k not in matrices]
    if missing:
        raise ConfigError(f"family '{family}' needs matrices {missing}")
    if family != "bsep":
        for key in needed:
            if np.iscomplexobj(matrices[key]):
                raise ConfigError(
                    f"matrix '{key}' is complex but family '{family}' is real")
    problem_type = FAMILY_TYPES[family]
    given = {"gamma": gamma, "alpha": alpha, "beta": beta}
    shifts = {name: given[name] for name in shift_fields(problem_type)
              if given[name] is not None}
    return problem_type(**{key.lower(): matrices[key] for key in needed},
                        **shifts)
