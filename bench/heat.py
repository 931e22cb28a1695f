"""Seeded 2-D heat-transfer CARE instances in the layout of the steel data.

The operator is the five-point Laplacian on a ``grid x grid`` interior
grid with Dirichlet boundary, h = 1/(grid + 1), scaled by h^-2/100, so
it is sparse, symmetric and stable like the semi-discretized steel
profile model (Benner & Saak, LNCSE 45, 2005).  B (n x m) and C (l x n)
are ``standard_normal / sqrt(n)``.  A is written as a Matrix Market
``coordinate real symmetric`` file and B, C as ``array`` files, which is
how the steel data is distributed, and the instance is then read back
through ``dsda.mmio``.
"""

from __future__ import annotations

import math
import os

import numpy as np

from dsda import mmio, problems


def heat_operator(grid: int) -> np.ndarray:
    """Dense five-point heat operator of order grid^2, scaled by h^-2/100."""
    h = 1.0 / (grid + 1)
    line = (np.diag(np.full(grid, -2.0)) + np.diag(np.ones(grid - 1), 1)
            + np.diag(np.ones(grid - 1), -1))
    eye = np.eye(grid)
    return (np.kron(eye, line) + np.kron(line, eye)) * (h ** -2 / 100.0)


def write_heat_care(directory: str, grid: int, m: int, l: int,
                    seed: int) -> dict[str, np.ndarray]:
    """Write A.mtx, B.mtx and C.mtx into ``directory``; return the matrices."""
    a = heat_operator(grid)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, m)) / math.sqrt(n)
    c = rng.standard_normal((l, n)) / math.sqrt(n)
    rows, cols = np.nonzero(np.tril(a))
    with open(os.path.join(directory, "A.mtx"), "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"% five-point heat operator, {grid}x{grid} grid\n")
        fh.write(f"{n} {n} {rows.size}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {a[i, j]:.17g}\n")
    mmio.save_matrix_market(os.path.join(directory, "B.mtx"), b)
    mmio.save_matrix_market(os.path.join(directory, "C.mtx"), c)
    return {"A": a, "B": b, "C": c}


def load_heat_care(directory: str, gamma: float = 1.0):
    """Read the three files back and assemble the CARE problem.

    Calls go through the module attributes so that a tracer installed
    on ``dsda.mmio`` and ``dsda.problems`` sees them.
    """
    mats = {key: mmio.load_matrix_market(os.path.join(directory, f"{key}.mtx"))
            for key in ("A", "B", "C")}
    return problems.assemble_problem("care", mats, gamma=gamma), mats
