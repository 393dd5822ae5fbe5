"""Checks on the program's outputs.

Each check takes plain numbers and arrays, computes what it needs itself,
and returns a list of failure messages (empty when the output is right).
None of them compares against a stored copy of an earlier output: they test
identities, closed forms, independent numpy computations and properties.
`test_checks.py` shows that each one fails on a deliberately wrong input.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import l2_norm

EPS_IDENTITY_TOL = 1e-6     # quadratic HUM: ||y(T) + eps phiT|| relative
REPLAY_TOL = 1e-12          # replayed state, max-norm relative
DECAY_FRACTION = 0.01       # final norm at most this share of the initial norm
DIRECT_SOLVE_TOL = 1e-6     # phiT against numpy.linalg.solve, relative
EXACT_NORM_TOL = 1e-6       # exact HUM: ||y(T)|| against eps, relative
DUALITY_TOL = 1e-12         # adjoint duality defect
ORACLE_TOL = 1e-6           # observability constant against its dense oracle
THETA = 0.5                 # the scheme's default theta, which every config keeps


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def eps_identity(y_final: np.ndarray, phiT: np.ndarray, eps: float,
                 radius: float) -> list[str]:
    """Quadratic HUM optimality: y(T) + eps phiT = 0, relative to the larger term."""
    defect = l2_norm(y_final + eps * phiT, radius)
    scale = max(l2_norm(y_final, radius), eps * l2_norm(phiT, radius), 1e-300)
    if not defect <= EPS_IDENTITY_TOL * scale:
        return [f"eps identity defect {defect / scale:.3e} > {EPS_IDENTITY_TOL:g}"]
    return []


def replay(state: np.ndarray, replayed: np.ndarray) -> list[str]:
    """solve_forward on the returned control reproduces the returned state."""
    gap = float(np.max(np.abs(state - replayed)))
    scale = max(float(np.max(np.abs(state))), 1e-300)
    if not gap <= REPLAY_TOL * scale:
        return [f"replayed state differs by {gap / scale:.3e} relative"]
    return []


def non_increasing(values, labels) -> list[str]:
    """values[k+1] <= values[k] along a ladder."""
    out = []
    for k in range(len(values) - 1):
        if not values[k + 1] <= values[k]:
            out.append(f"{labels[k + 1]} value {values[k + 1]:.6e} exceeds "
                       f"{labels[k]} value {values[k]:.6e}")
    return out


def decayed(final_norm: float, initial_norm: float) -> list[str]:
    if not final_norm <= DECAY_FRACTION * initial_norm:
        return [f"final norm {final_norm:.3e} above {DECAY_FRACTION:g} of initial "
                f"{initial_norm:.3e}"]
    return []


def direct_solve(phi_int: np.ndarray, gramian: np.ndarray, eps: float,
                 y_free_int: np.ndarray) -> list[str]:
    """phiT from the program matches numpy.linalg.solve of (G + eps I) phi = -y_free."""
    ref = np.linalg.solve(gramian + eps * np.eye(gramian.shape[0]), -y_free_int)
    gap = float(np.linalg.norm(phi_int - ref)) / max(float(np.linalg.norm(ref)), 1e-300)
    if not gap <= DIRECT_SOLVE_TOL:
        return [f"phiT differs from the direct solve by {gap:.3e} relative"]
    return []


def exact_variant(y_final: np.ndarray, phiT: np.ndarray, eps: float, radius: float,
                  iterations: int, cap: int) -> list[str]:
    """Exact HUM: ||y(T)|| = eps when phiT != 0, and the loop stopped before its cap."""
    out = []
    if np.any(phiT != 0.0):
        norm = l2_norm(y_final, radius)
        if not _rel(norm, eps) <= EXACT_NORM_TOL:
            out.append(f"||y(T)|| = {norm:.9e} differs from eps {eps:g} by "
                       f"{_rel(norm, eps):.3e} relative")
    if not iterations < cap:
        out.append(f"proximal loop used {iterations} iterations, cap {cap}")
    return out


def agree(a: float, b: float, what: str) -> list[str]:
    if not _rel(a, b) <= ORACLE_TOL:
        return [f"{what}: {a:.12e} vs {b:.12e} ({_rel(a, b):.3e} relative)"]
    return []


def within(value: float, lo: float, hi: float, what: str) -> list[str]:
    if not lo <= value <= hi:
        return [f"{what} is {value!r}, outside [{lo:g}, {hi:g}]"]
    return []


def finite_positive(value: float, what: str) -> list[str]:
    if not (math.isfinite(value) and value > 0.0):
        return [f"{what} is {value!r}, expected finite and positive"]
    return []


def closed_form_forward(final: np.ndarray, amplitude: float, R0: float, T: float,
                        steps: int) -> list[str]:
    """Final forward state against u0 exp(-(pi/R0)^2 T) within the scheme's error.

    u0 = A sin(pi rho) is an exact eigenvector of the discrete Dirichlet
    Laplacian on a constant path, so the scheme multiplies it by the theta
    amplification factor each step; the allowed error is twice the gap
    between that discrete decay and the continuous one.
    """
    n = final.size - 1
    h = 1.0 / n
    dt = T / steps
    lam_exact = (math.pi / R0) ** 2
    lam_h = 4.0 * math.sin(0.5 * math.pi * h) ** 2 / (h * h * R0 * R0)
    g = (1.0 - (1.0 - THETA) * dt * lam_h) / (1.0 + THETA * dt * lam_h)
    exact_decay = math.exp(-lam_exact * T)
    scheme_gap = abs(g ** steps - exact_decay) / exact_decay
    expected = amplitude * np.sin(math.pi * np.linspace(0.0, 1.0, n + 1)) * exact_decay
    err = l2_norm(final - expected, R0) / max(l2_norm(expected, R0), 1e-300)
    tol = 2.0 * scheme_gap + 1e-12
    if not err <= tol:
        return [f"forward state differs from the closed form by {err:.3e}, "
                f"scheme error bound {tol:.3e}"]
    return []


def duality(defect: float) -> list[str]:
    if not defect <= DUALITY_TOL:
        return [f"duality defect {defect:.3e} > {DUALITY_TOL:g}"]
    return []


def boundary_path(radii: np.ndarray, lo: float, hi: float) -> list[str]:
    """Melting radii are non-decreasing and stay inside [lo, hi]."""
    out = []
    if not np.all(np.diff(radii) >= 0.0):
        out.append("radii decrease somewhere")
    if not (float(np.min(radii)) >= lo and float(np.max(radii)) <= hi):
        out.append(f"radii leave [{lo:g}, {hi:g}]: {np.min(radii):.6g}..{np.max(radii):.6g}")
    return out


def fixed_point(summary: dict, initial_norm: float, lo: float, hi: float) -> list[str]:
    out = []
    if summary.get("converged") is not True:
        out.append("fixed point did not converge")
    if not (summary["R_min"] >= lo and summary["R_max"] <= hi):
        out.append(f"radii leave [{lo:g}, {hi:g}]")
    out += decayed(summary["final_norm"], initial_norm)
    return out


def carleman(summary: dict, bound: float) -> list[str]:
    out = []
    if not summary["max_ratio"] <= bound:
        out.append(f"max_ratio {summary['max_ratio']:.3e} > {bound:g}")
    if summary.get("monotone_under_s_doubling") is not True:
        out.append("ratio not monotone under doubling of s")
    return out


def identical_bytes(first: bytes, again: bytes, what: str) -> list[str]:
    if first != again:
        return [f"{what} differs from the first repetition"]
    return []
