"""Minimal nonnegative solution of an M-matrix Riccati equation.

The assembled block matrix [[D, -C], [-B, A]] is a nonsingular
M-matrix, so X C X - X D - A X + B = 0 has a unique minimal nonnegative
solution and the doubling iterates increase toward it entrywise.  Both
the single-shift and the two-shift (alternating-directional) variants
are run; with alpha = beta they coincide, and separately tuned shifts
change the trajectory but not the limit.
"""

import numpy as np

from dsda import SolveConfig, gen_random_mare, mare_residual, solve_driver

p = gen_random_mare(6, 5, 2, 2, seed=42)
print("A diag max:", np.max(np.diag(p.a)).round(3),
      " D diag max:", np.max(np.diag(p.d)).round(3))

for method in ("sda", "dsda", "adda"):
    report = solve_driver(p, SolveConfig(method=method))
    x = report.final_solution
    print(f"\nmethod={method:4s} status={report.status} "
          f"iters={len(report.iterations)}")
    print(f"  residuals: " +
          " ".join(f"{r.residual:.1e}" for r in report.iterations))
    print(f"  min entry of X:        {x.min():+.2e}  (nonnegative)")
    print(f"  equation residual:     {mare_residual(p, x):.2e}")

# Entrywise monotonicity along the run
from dsda import dsda_mare_eval, dsda_mare_init, dsda_mare_step

state = dsda_mare_init(p)
prev = np.zeros((p.m, p.n))
print("\nentrywise monotone growth of H_k:")
for _ in range(5):
    state = dsda_mare_step(state)
    h = dsda_mare_eval(state).dense()
    print(f"  k={state.k}  min(H_k - H_(k-1)) = {np.min(h - prev):+.2e}"
          f"   |H_k| = {np.linalg.norm(h):.6f}")
    prev = h
