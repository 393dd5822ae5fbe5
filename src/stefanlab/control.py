"""Penalized HUM control synthesis on a frozen boundary path.

The control is sought through the final datum phiT of a backward problem.
With Lambda the Gramian (backward sweep, restriction to the control region,
forward sweep from zero data) and y_free the uncontrolled state at T, the
quadratic variant minimizes

    J(phiT) = 1/2 <Lambda phiT, phiT> + eps/2 ||phiT||^2 + <y_free(T), phiT>

through one Cholesky factorization of (Lambda + eps I) phiT = -y_free(T);
the exact variant keeps the nonsmooth penalty eps ||phiT|| and runs an
accelerated proximal gradient loop, which drives the final state norm to
eps itself whenever the minimizer is nonzero.  All inner products are taken
in L2(0, R(T)); the Gramian is symmetric positive semidefinite in that
pairing by construction, and at desk grid sizes it is a small dense matrix,
assembled on interior nodes by one blocked adjoint sweep
(`Propagator.assemble_forms`).  The oracle `dense_gramian` builds the same
matrix the slow way, one Gramian apply per interior unit column, all the
columns in one blocked pass.

The controlled final state, the optimality residual, and the identity
y(T) = -eps phiT (quadratic variant) are cheap a posteriori checks; the
outcome carries them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .domain import (
    ROLE_CONTROL,
    ROLE_STATE,
    BoundaryPath,
    SpaceTimeField,
    h1_seminorm,
)
from .errors import ConvergenceError, GridError
from .pde import Propagator, SchemeConfig

VARIANT_QUADRATIC = "quadratic"
VARIANT_EXACT = "exact"


@dataclass(frozen=True)
class HUMConfig:
    epsilon: float = 1e-4
    variant: str = VARIANT_QUADRATIC
    prox_tol: float = 1e-11
    prox_max_iter: int = 4000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise GridError(f"penalty must be positive, got {self.epsilon}")
        if self.variant not in (VARIANT_QUADRATIC, VARIANT_EXACT):
            raise GridError(f"unknown variant {self.variant!r}")
        if not self.prox_tol > 0:
            raise GridError(f"prox_tol must be positive, got {self.prox_tol}")
        if self.prox_max_iter < 1:
            raise GridError(f"prox_max_iter must be positive, got {self.prox_max_iter}")


@dataclass(frozen=True)
class HUMOutcome:
    """Everything produced by one control solve.

    final_norm is the L2(0, R(T)) norm of the controlled state at T from a
    single verification forward solve with the synthesized control; cost is
    the discrete L2 norm of the control over the control cylinder;
    cost_ratio divides by the H1_0 seminorm of the initial line field
    (zero initial data gives ratio 0 by convention).
    """

    phiT: np.ndarray
    control: SpaceTimeField
    state: SpaceTimeField
    final_norm: float
    cost: float
    cost_ratio: float
    iterations: int
    J_value: float
    optimality_residual: float
    eps_identity_defect: float


def apply_gramian(phiT, path: BoundaryPath, potential, control_radius: float,
                  cfg: SchemeConfig) -> np.ndarray:
    """One Gramian application: adjoint sweep, mask, forward sweep, state at T."""
    prop = Propagator(path, potential, cfg, control_radius=control_radius)
    return prop.apply_gramian(phiT)


def dense_gramian(path: BoundaryPath, potential, control_radius: float,
                  cfg: SchemeConfig) -> np.ndarray:
    """Gramian assembly by Gramian applies; validation oracle for small grids.

    One blocked `apply_gramian` on every interior unit column at once: each
    column is an adjoint sweep, mask and forward sweep of its own, bitwise
    equal to the apply of that unit vector alone, and independent of the
    accumulated sums of `assemble_forms`.
    """
    if cfg.n > 64 or cfg.m > 128:
        raise GridError(f"dense assembly capped at (64, 128), got ({cfg.n}, {cfg.m})")
    prop = Propagator(path, potential, cfg, control_radius=control_radius)
    return prop.apply_gramian(np.eye(cfg.n + 1)[:, 1:-1])[1:-1]


def solve_hum(u0, path: BoundaryPath, potential, control_radius: float,
              hum: HUMConfig, cfg: SchemeConfig) -> HUMOutcome:
    """Synthesize the control for initial line field u0 on a frozen path.

    Returns the optimal backward datum, the control samples (masked to the
    control region at every time level), the controlled trajectory from one
    verification forward solve, and the scalar diagnostics.
    """
    prop = Propagator(path, potential, cfg, control_radius=control_radius)
    n, m = cfg.n, cfg.m
    y_free = prop.run_forward(u0)[:, -1]
    G, _ = prop.assemble_forms()

    try:
        if hum.variant == VARIANT_QUADRATIC:
            factor = cho_factor(G + hum.epsilon * np.eye(n - 1))
            sol, iters = cho_solve(factor, -y_free[1:-1]), 0
        else:
            # interior Euclidean norm times this factor is the physical norm at T
            norm_scale = np.sqrt(path.radii[-1] * cfg.grid.spacing)
            sol, iters = _prox_loop(G, y_free[1:-1], hum, norm_scale)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"Gramian factorization failed at ({n}, {m}): {exc}") from exc

    phiT = np.zeros(n + 1)
    phiT[1:-1] = sol

    _, obs = prop.run_adjoint(phiT, with_observation=True)
    control = SpaceTimeField(obs, role=ROLE_CONTROL)
    cost = prop.control_cost(obs)

    values = prop.run_forward(u0, source=obs, source_role=ROLE_CONTROL)
    state = SpaceTimeField(values, role=ROLE_STATE)
    y_final = values[:, -1]
    final_norm = prop.slice_norm(y_final, m)

    phi_norm = prop.slice_norm(phiT, m)
    lin = prop.slice_inner(y_free, phiT, m)
    if hum.variant == VARIANT_QUADRATIC:
        J_value = 0.5 * cost * cost + 0.5 * hum.epsilon * phi_norm * phi_norm + lin
        # optimality: Lambda phiT + eps phiT + y_free = 0, and y(T) = -eps phiT
        grad = G @ sol + hum.epsilon * sol + y_free[1:-1]
        gnorm = prop.slice_norm(np.pad(grad, 1), m)
        scale = max(prop.slice_norm(y_free, m), 1e-300)
        optimality = gnorm / scale
        defect = prop.slice_norm(y_final + hum.epsilon * phiT, m) / max(final_norm, hum.epsilon * phi_norm, 1e-300)
    else:
        J_value = 0.5 * cost * cost + hum.epsilon * phi_norm + lin
        grad = G @ sol + y_free[1:-1]
        if phi_norm > 0.0:
            grad = grad + hum.epsilon * sol / phi_norm
            subgrad = prop.slice_norm(np.pad(grad, 1), m)
        else:
            subgrad = max(prop.slice_norm(np.pad(grad, 1), m) - hum.epsilon, 0.0)
        optimality = subgrad / max(prop.slice_norm(y_free, m), 1e-300)
        # the exact variant pins the final norm at eps when phiT != 0
        defect = abs(final_norm - hum.epsilon) / hum.epsilon if phi_norm > 0.0 else 0.0

    seminorm = h1_seminorm(np.asarray(u0, dtype=float), path.radii[0], cfg.grid)
    ratio = cost / seminorm if seminorm > 0.0 else 0.0

    return HUMOutcome(
        phiT=phiT,
        control=control,
        state=state,
        final_norm=final_norm,
        cost=cost,
        cost_ratio=ratio,
        iterations=iters,
        J_value=J_value,
        optimality_residual=optimality,
        eps_identity_defect=defect,
    )


def _prox_loop(G, y_free_int, hum: HUMConfig, norm_scale: float):
    """Accelerated proximal gradient for the nonsmooth penalty eps ||phiT||.

    The loop works on interior vectors in Euclidean arithmetic with the
    assembled Gramian G; the penalty measured in the physical final-slice
    norm equals eps_eff ||.||_2 with eps_eff = eps / norm_scale, so the
    minimizer coincides with that of the physical objective.  The step is
    the inverse of the largest eigenvalue of G.  Reaching prox_max_iter
    raises with the history of iterate moves.
    """
    eps_eff = hum.epsilon / norm_scale
    L = float(np.linalg.eigvalsh(G)[-1])
    step = 1.0 / max(L, 1e-14)
    x = np.zeros_like(y_free_int)
    y = x.copy()
    t_par = 1.0
    J_prev = np.inf
    history = []
    for k in range(1, hum.prox_max_iter + 1):
        grad = G @ y + y_free_int
        v = y - step * grad
        nv = np.linalg.norm(v)
        shrink = max(1.0 - step * eps_eff / nv, 0.0) if nv > 0 else 0.0
        x_new = shrink * v
        move = np.linalg.norm(x_new - x)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_par * t_par))
        y = x_new + ((t_par - 1.0) / t_new) * (x_new - x)
        x, t_par = x_new, t_new
        Gx = G @ x
        J = 0.5 * float(x @ Gx) + eps_eff * np.linalg.norm(x) + float(y_free_int @ x)
        if J > J_prev + 1e-15 * max(1.0, abs(J_prev)):
            y = x.copy()   # momentum restart on objective increase
            t_par = 1.0
        J_prev = min(J_prev, J)
        history.append(move)
        if move <= hum.prox_tol * max(1.0, np.linalg.norm(x)) and k > 2:
            return x, k
    raise ConvergenceError(
        f"proximal loop did not settle in {hum.prox_max_iter} iterations "
        f"(last move {history[-1]:.3e}, tol {hum.prox_tol:g})",
        history=history,
    )


def cost_report(outcome: HUMOutcome, u0, setup, path: BoundaryPath, potential,
                cfg: SchemeConfig) -> dict:
    """Scalar summary tying the control cost to the quantities it depends on."""
    pot = np.zeros(1) if potential is None else (
        potential.values if isinstance(potential, SpaceTimeField) else np.asarray(potential)
    )
    return {
        "cost": outcome.cost,
        "cost_ratio": outcome.cost_ratio,
        "initial_h1_seminorm": h1_seminorm(np.asarray(u0, dtype=float), path.radii[0], cfg.grid),
        "final_norm": outcome.final_norm,
        "R_star": setup.R_star,
        "E": setup.E,
        "b": setup.b,
        "sup_path_slope": float(np.max(np.abs(path.slopes))),
        "sup_potential": float(np.max(np.abs(pot))),
        "horizon": path.horizon,
    }
