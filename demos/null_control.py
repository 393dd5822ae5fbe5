"""
Steering the state to (near) zero with an interior control.

The control acts on the ball of radius b and is synthesized by minimizing
the penalized dual functional: one Cholesky solve with the control Gramian,
which a single blocked adjoint sweep assembles.  Shrinking the penalty drives the final norm down at the price of
a larger control; the sparse variant instead pins the final norm at the
penalty level exactly, and returns the zero control once the free dynamics
already meet the target.
"""

import numpy as np

from stefanlab import (
    HUMConfig,
    SchemeConfig,
    constant_path,
    cost_report,
    line_l2_norm,
    solve_hum,
)
from stefanlab.domain import PhysicalSetup

# -------------------------------- PARAMETERS ---------------------------------
setup = PhysicalSetup(T=0.5)
cfg = SchemeConfig(n=40, m=80)
path = constant_path(setup.R0, setup.T, cfg.m)
u0 = np.sin(np.pi * cfg.grid.nodes)
u0[0] = u0[-1] = 0.0

# ------------------------------- PENALTY LADDER ------------------------------
z0_norm = line_l2_norm(u0, setup.R0, cfg.grid)
print(f"initial L2 norm {z0_norm:.6f}, control region rho R < {setup.b}")
print(f"{'epsilon':>10} {'final norm':>13} {'cost':>10} {'cost ratio':>11}")
for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
    out = solve_hum(u0, path, None, setup.b, HUMConfig(epsilon=eps), cfg)
    print(f"{eps:10.0e} {out.final_norm:13.4e} {out.cost:10.4f} {out.cost_ratio:11.5f}")

# ------------------------------- SPARSE VARIANT ------------------------------
print()
eps = 1e-3
sharp = solve_hum(u0, path, None, setup.b,
                  HUMConfig(epsilon=eps, variant="exact"), cfg)
print(f"sparse variant, epsilon {eps:g}: final norm {sharp.final_norm:.6e} "
      f"(pinned at the penalty), cost {sharp.cost:.4f}, "
      f"{sharp.iterations} proximal iterations")

report = cost_report(sharp, u0, setup, path, None, cfg)
print("cost report:")
for key, val in report.items():
    print(f"  {key:22s} {val:.6g}")
