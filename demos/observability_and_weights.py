"""
The quantitative side of controllability: weights and the observability constant.

First the singular weight profile is checked against the structure it is
built to have (zero at the moving boundary, flat and even at the origin,
pinned values at the control radius, strictly monotone in between).  Then
the observability constant of the adjoint problem is computed from one
blocked adjoint sweep, compared against the column-by-column oracle on a
small grid, and swept over the observation radius: a wider observation window can only improve the
constant.
"""

import numpy as np

from stefanlab import (
    CarlemanParams,
    SchemeConfig,
    check_weight_profile,
    constant_path,
    dense_constant,
    estimate_constant,
    path_from_function,
    weight_functions,
)
from stefanlab.domain import PhysicalSetup

# -------------------------------- PARAMETERS ---------------------------------
setup = PhysicalSetup(T=0.5)

# ------------------------------ WEIGHT PROFILE -------------------------------
path = path_from_function(lambda t: 1.0 + 0.1 * np.sin(2.0 * np.pi * t),
                          lambda t: 0.2 * np.pi * np.cos(2.0 * np.pi * t),
                          setup.T, 64)
report = check_weight_profile(setup, path)
print("weight profile on an oscillating boundary:")
print(f"  value at +-R(t)        {report.boundary_value_max:.3e}")
print(f"  slope at the origin    {report.origin_slope_max:.3e}")
print(f"  C1 gap at r = b        {report.c1_gap_at_b:.3e}")
print(f"  evenness gap           {report.evenness_gap:.3e}")
print(f"  min |slope| off-center {report.annulus_min_abs_slope:.3f}")

params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
w = weight_functions(np.array([0.0, setup.b, 0.9]), 0.25 * setup.T,
                     params, setup, path)
print(f"calibrated weights at t = T/4: alpha {np.array2string(w.alpha, precision=3)}, "
      f"xi {np.array2string(w.xi, precision=3)}")

# -------------------------- OBSERVABILITY CONSTANT ---------------------------
print()
unit = constant_path(1.0, setup.T, 32)
cfg = SchemeConfig(n=16, m=32)
bk = estimate_constant(unit, None, setup, cfg)
dn = dense_constant(unit, None, setup, cfg)
print(f"blocked-sweep constant {bk.constant:.10f}")
print(f"dense oracle           {dn.constant:.10f}")
print(f"relative gap           {abs(bk.constant - dn.constant) / dn.constant:.2e}")

print()
cfg = SchemeConfig(n=48, m=96)
unit = constant_path(1.0, setup.T, cfg.m)
print(f"{'observation radius':>20} {'constant':>12}")
for b in (0.2, 0.3, 0.45, np.inf):
    est = estimate_constant(unit, None, setup, cfg, b=b)
    label = "full window" if np.isinf(b) else f"{b:g}"
    print(f"{label:>20} {est.constant:12.5e}")
