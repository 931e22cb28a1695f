"""Low-rank continuous-time solve with a convergence report.

A benchmark-shaped instance (stable symmetric A, a handful of input and
output columns) run through the driver: the residual decays
quadratically while the numerical rank of the iterate saturates well
below the basis width -- the signature that motivates truncated
variants.
"""

import math

import numpy as np

from dsda import CareProblem, SolveConfig, solve_driver

rng = np.random.default_rng(1)
n, m, l = 400, 7, 6
q, _ = np.linalg.qr(rng.standard_normal((n, n)))
lam = np.exp(rng.uniform(math.log(0.05), math.log(5.0), n))
a = -(q * lam) @ q.T
a = (a + a.T) / 2
b = rng.standard_normal((n, m)) / math.sqrt(n)
c = rng.standard_normal((l, n)) / math.sqrt(n)

problem = CareProblem(a, b, c, gamma=1.0)
report = solve_driver(problem, SolveConfig(tol=1e-13, max_iter=20,
                                           method="dsda"))

print(f"n = {n}, B: {m} columns, C: {l} rows, tol = 1e-13")
print(f"status: {report.status}\n")
print("  k    residual     rank(H_k)   basis cols")
for rec in report.iterations:
    print(f"  {rec.k}    {rec.residual:.3e}    {rec.rank:4d}        "
          f"{rec.basis_cols:4d}")

x = report.final_solution
print(f"\nfinal solution: {x.shape[0]}x{x.shape[1]} dense,"
      f" rank {report.iterations[-1].rank},"
      f" carried by a factored form with"
      f" {report.final_lowrank.basis_cols} basis columns")
print("low-rank factored form reproduces the dense iterate:",
      np.allclose(report.final_lowrank.dense(), x))
