"""Classical coupled doubling recursions, kept dense.

This module is the correctness oracle for the decoupled iterations in
:mod:`dsda.decoupled`: every state is stored as full matrices and each
step applies the textbook recursions directly.  It exists to be
trusted, not to be fast.

Families and their coupled iterates:

* DARE/CARE: (A_k, G_k, H_k) with
  ``A_{k+1} = A_k (I + G_k H_k)^-1 A_k``,
  ``G_{k+1} = G_k + A_k (I + G_k H_k)^-1 G_k A_k^T``,
  ``H_{k+1} = H_k + A_k^T H_k (I + G_k H_k)^-1 A_k``.
* MARE: (E_k, F_k, G_k, H_k) with
  ``F_{k+1} = F_k (I - H_k G_k)^-1 F_k``,
  ``E_{k+1} = E_k (I - G_k H_k)^-1 E_k``,
  ``H_{k+1} = H_k + F_k (I - H_k G_k)^-1 H_k E_k``,
  ``G_{k+1} = G_k + E_k (I - G_k H_k)^-1 G_k F_k``.
* BSEP: (E_k, F_k) with
  ``E_{k+1} = E_k (I - conj(F_k) F_k)^-1 E_k``,
  ``F_{k+1} = F_k + conj(E_k) F_k (I - conj(F_k) F_k)^-1 E_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import solve_general
from .problems import BsepProblem, CareProblem, DareProblem, MareProblem


@dataclass(frozen=True)
class SymSdaState:
    """DARE/CARE iterates; G_k and H_k stay symmetric psd."""

    a_k: np.ndarray
    g_k: np.ndarray
    h_k: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class MareSdaState:
    e_k: np.ndarray  # n x n
    f_k: np.ndarray  # m x m
    g_k: np.ndarray  # n x m
    h_k: np.ndarray  # m x n
    k: int = 0


@dataclass(frozen=True)
class BsepSdaState:
    """BSEP iterates; F_k stays complex symmetric."""

    e_k: np.ndarray
    f_k: np.ndarray
    k: int = 0


def _sym(m: np.ndarray) -> np.ndarray:
    # Exact algebra preserves symmetry; floating point does not.
    return (m + m.T) / 2.0


def dare_init(p: DareProblem) -> SymSdaState:
    """Starting point A_0 = A, G_0 = B B^T, H_0 = C^T C."""
    return SymSdaState(p.a.copy(), p.b @ p.b.T, p.c.T @ p.c, 0)


def care_init(p: CareProblem, route: str = "lowrank") -> SymSdaState:
    """Cayley-transformed starting point for the continuous-time family.

    The default route builds H_0 = 2 gamma V_0 (I + Y_0^T Y_0)^-1 V_0^T
    (and its siblings) from the shifted inverses applied to the low-rank
    factors.  ``route="direct"`` evaluates A_0 = I + 2 gamma K^-T,
    G_0 = 2 gamma A_g^-1 G K^-1, H_0 = 2 gamma K^-1 H A_g^-1 with
    K = A_g^T + H A_g^-1 G instead; the two must agree and tests check
    that they do.
    """
    if route not in ("lowrank", "direct"):
        raise ValueError(f"unknown route '{route}'")
    n = p.n
    gamma = p.gamma
    a_g = p.a - gamma * np.eye(n)
    if route == "direct":
        g = p.b @ p.b.T
        h = p.c.T @ p.c
        ag_inv = solve_general(a_g, np.eye(n))
        k_g = a_g.T + h @ ag_inv @ g
        k_inv = solve_general(k_g, np.eye(n))
        a0 = np.eye(n) + 2.0 * gamma * k_inv.T
        g0 = 2.0 * gamma * ag_inv @ g @ k_inv
        h0 = 2.0 * gamma * k_inv @ h @ ag_inv
        return SymSdaState(a0, _sym(g0), _sym(h0), 0)
    u0 = solve_general(a_g, p.b)                     # A_g^-1 B
    v0 = solve_general(a_g.T, p.c.T)                 # A_g^-T C^T
    y0 = p.b.T @ v0
    m = u0.shape[1]
    l = v0.shape[1]
    e0 = np.eye(m) + y0 @ y0.T
    f0 = np.eye(l) + y0.T @ y0
    a_tilde = np.eye(n) + 2.0 * gamma * solve_general(a_g, np.eye(n))
    a0 = a_tilde - 2.0 * gamma * u0 @ y0 @ solve_general(f0, v0.T)
    g0 = 2.0 * gamma * u0 @ solve_general(e0, u0.T)
    h0 = 2.0 * gamma * v0 @ solve_general(f0, v0.T)
    return SymSdaState(a0, _sym(g0), _sym(h0), 0)


def sym_sda_step(s: SymSdaState) -> SymSdaState:
    """One doubling step of the three coupled DARE/CARE recursions."""
    n = s.a_k.shape[0]
    cap = np.eye(n) + s.g_k @ s.h_k
    # (I + G H)^-1 [A | G] in one factorization.
    sol = solve_general(cap, np.hstack([s.a_k, s.g_k]))
    w_a, w_g = sol[:, :n], sol[:, n:]
    a1 = s.a_k @ w_a
    g1 = s.g_k + s.a_k @ w_g @ s.a_k.T
    h1 = s.h_k + s.a_k.T @ (s.h_k @ w_a)
    return SymSdaState(a1, _sym(g1), _sym(h1), s.k + 1)


def resolve_mare_shifts(p: MareProblem, mode: str) -> tuple[float, float]:
    """(alpha, beta) for the chosen mode; sda uses alpha = beta = gamma.

    Shifts not supplied on the problem default to exactly the diagonal
    maxima they must dominate; the problem checked those it was given.
    """
    if mode not in ("sda", "adda"):
        raise ValueError(f"unknown mode '{mode}'")
    floors = p.shift_floors()

    def pick(name: str) -> float:
        value = getattr(p, name)
        return floors[name] if value is None else value

    if mode == "sda":
        return pick("gamma"), pick("gamma")
    return pick("alpha"), pick("beta")


def mare_init(p: MareProblem, mode: str = "sda") -> MareSdaState:
    """Starting point for the four-recursion family.

    With shifts (alpha, beta) -- equal for plain doubling, separate for
    the alternating-directional variant -- the initial iterates are

    ``F_0 = I - (alpha+beta) W^-1``, ``E_0 = I - (alpha+beta) V^-1``,
    ``H_0 = (alpha+beta) W^-1 B D_a^-1``, ``G_0 = (alpha+beta) D_a^-1 C W^-1``,

    where ``A_b = A + beta I``, ``D_a = D + alpha I``,
    ``W = A_b - B D_a^-1 C`` and ``V = D_a - C A_b^-1 B``.
    """
    alpha, beta = resolve_mare_shifts(p, mode)
    m, n = p.m, p.n
    s = alpha + beta
    b = p.b_dense()
    c = p.c_dense()
    a_b = p.a + beta * np.eye(m)
    d_a = p.d + alpha * np.eye(n)
    da_inv = solve_general(d_a, np.eye(n))
    ab_inv = solve_general(a_b, np.eye(m))
    w = a_b - b @ da_inv @ c
    v = d_a - c @ ab_inv @ b
    w_inv = solve_general(w, np.eye(m))
    v_inv = solve_general(v, np.eye(n))
    f0 = np.eye(m) - s * w_inv
    e0 = np.eye(n) - s * v_inv
    h0 = s * w_inv @ b @ da_inv
    g0 = s * da_inv @ c @ w_inv
    return MareSdaState(e0, f0, g0, h0, 0)


def mare_sda_step(s: MareSdaState) -> MareSdaState:
    """One doubling step of the four coupled recursions."""
    m = s.f_k.shape[0]
    n = s.e_k.shape[0]
    cap_m = np.eye(m) - s.h_k @ s.g_k
    cap_n = np.eye(n) - s.g_k @ s.h_k
    sol_m = solve_general(cap_m, np.hstack([s.f_k, s.h_k @ s.e_k]))
    sol_n = solve_general(cap_n, np.hstack([s.e_k, s.g_k @ s.f_k]))
    f1 = s.f_k @ sol_m[:, :m]
    h1 = s.h_k + s.f_k @ sol_m[:, m:]
    e1 = s.e_k @ sol_n[:, :n]
    g1 = s.g_k + s.e_k @ sol_n[:, n:]
    return MareSdaState(e1, f1, g1, h1, s.k + 1)


def bsep_init(p: BsepProblem) -> BsepSdaState:
    """Starting point for the Bethe-Salpeter doubling.

    ``E_0 = I - 2 alpha conj(R)^-1 (alpha I - A)^-1`` and
    ``F_0 = -2 alpha (alpha I - conj(A))^-1 conj(B) conj(R)^-1 (alpha I - A)^-1``
    with ``R = I - (alpha I - conj(A))^-1 conj(B) (alpha I - A)^-1 B``.
    Raises ``SingularMatrixError`` when alpha makes a required matrix
    singular (callers may retry with a different shift).
    """
    n = p.n
    alpha = p.alpha
    b = p.b_dense()
    s_a = alpha * np.eye(n) - p.a
    sa_inv = solve_general(s_a, np.eye(n, dtype=np.complex128))
    sac_inv = sa_inv.conj()                 # (alpha I - conj(A))^-1
    r = np.eye(n) - sac_inv @ b.conj() @ sa_inv @ b
    rc_inv = solve_general(r.conj(), np.eye(n, dtype=np.complex128))
    e0 = np.eye(n) - 2.0 * alpha * rc_inv @ sa_inv
    f0 = -2.0 * alpha * sac_inv @ b.conj() @ rc_inv @ sa_inv
    f0 = (f0 + f0.T) / 2.0
    return BsepSdaState(e0, f0, 0)


def bsep_sda_step(s: BsepSdaState) -> BsepSdaState:
    """One doubling step of the two coupled recursions; F is re-symmetrized."""
    n = s.e_k.shape[0]
    cap = np.eye(n) - s.f_k.conj() @ s.f_k
    sol = solve_general(cap, s.e_k)         # (I - conj(F) F)^-1 E
    e1 = s.e_k @ sol
    f1 = s.f_k + s.e_k.conj() @ s.f_k @ sol
    f1 = (f1 + f1.T) / 2.0                  # complex symmetric, no conjugate
    return BsepSdaState(e1, f1, s.k + 1)
