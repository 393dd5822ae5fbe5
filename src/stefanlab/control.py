"""Penalized HUM control synthesis on a frozen boundary path.

The control is sought through the final datum phiT of a backward problem.
With Lambda = L B B* L* the Gramian (backward sweep, restriction to the
control region, forward sweep from zero data under that control, B the
indicator of the control ball) and y_free the uncontrolled state at T, the
quadratic variant minimizes

    J(phiT) = 1/2 <Lambda phiT, phiT> + eps/2 ||phiT||^2 + <y_free(T), phiT>

through one Cholesky factorization of (Lambda + eps I) phiT = -y_free(T).
The exact variant keeps the nonsmooth penalty eps ||phiT||, which pins the
final state norm at eps itself whenever the minimizer is nonzero (Boyer
2013); that minimizer is the same Cholesky solve at the one penalty mu with
mu ||phiT|| = eps, the root of a monotone secular equation that a few Newton
steps on one eigendecomposition of Lambda find.  An eps whose root lies so
near Lambda's rounding floor that the verified final norm misses it by more
than 1e-10 relative is out of reach on the grid and raises ConvergenceError.
All inner products are taken in L2(0, R(T)); the Gramian is symmetric
positive semidefinite in that pairing by construction, and at desk grid
sizes it is a small dense matrix, assembled on interior nodes by one blocked
adjoint sweep (`Propagator.assemble_forms`).  The same sweep leaves the
t = 0 slice P of the backward sweeps of the unit data, and y_free(T) is
taken from it by duality, (R(0)/R(T)) P^T u0 on interior nodes
(`Propagator.free_final`), with no forward sweep.  The oracle
`dense_gramian` builds the same matrix the slow way, one Gramian apply per
interior unit column, all the columns in one blocked pass whose backward
half is that same sweep of the unit data, run once per Propagator, and
whose forward half, like every forward sweep, applies B once.

Once G is assembled, a solve makes two column sweeps: the backward sweep
that yields the control, which keeps only its masked observation
(`Propagator.run_observation`), and one verification forward sweep under
that control.  The controlled final state, the optimality residual, and the
identity y(T) = -eps phiT (quadratic variant) are cheap a posteriori checks
on it; the outcome carries them.

Every function here takes its operators from `pde.propagator`, so an
epsilon ladder on a frozen path, with the replays of its controls,
assembles G once, and a `dense_gramian` call on the same inputs fills the
forms as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .domain import (
    ROLE_CONTROL,
    ROLE_STATE,
    BoundaryPath,
    SpaceTimeField,
    checked_values,
    h1_seminorm,
)
from .errors import ConvergenceError, GridError
from .pde import SchemeConfig, propagator

VARIANT_QUADRATIC = "quadratic"
VARIANT_EXACT = "exact"

# relative miss of the verified final norm beyond which the exact variant refuses eps
_PIN_TOL = 1e-10


@dataclass(frozen=True)
class HUMConfig:
    """Penalty and variant of one control solve; the class constant (not a
    field) prox_max_iter caps the exact variant's Newton steps, about ten, under
    the proximal loop's old name, which the benchmark's exact-variant check reads."""

    epsilon: float = 1e-4
    variant: str = VARIANT_QUADRATIC
    prox_max_iter = 4000

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise GridError(f"penalty must be positive and finite, got {self.epsilon}")
        if self.variant not in (VARIANT_QUADRATIC, VARIANT_EXACT):
            raise GridError(f"unknown variant {self.variant!r}")


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


def dense_gramian(path: BoundaryPath, potential, control_radius: float,
                  cfg: SchemeConfig) -> np.ndarray:
    """Gramian assembly by Gramian applies; validation oracle for small grids.

    The Gramian apply of every interior unit column at once: each column is
    an adjoint sweep, mask and forward sweep of its own, bitwise equal to
    `Propagator.apply_gramian` of that unit vector alone, and independent
    of the accumulated sums of `assemble_forms`.  Its backward half is the
    Propagator's unit sweep: a call on new inputs runs it and so
    assembles the forms too, and a later solve on the same inputs
    sweeps no unit column again.
    """
    if cfg.n > 64 or cfg.m > 128:
        raise GridError(f"dense assembly capped at (64, 128), got ({cfg.n}, {cfg.m})")
    prop = propagator(path, potential, cfg, control_radius=control_radius)
    return prop._unit_gramian()


def solve_hum(u0, path: BoundaryPath, potential, control_radius: float,
              hum: HUMConfig, cfg: SchemeConfig) -> HUMOutcome:
    """Synthesize the control for initial line field u0 on a frozen path.

    Returns the optimal backward datum, the control samples (masked to the
    control region at every time level) from one observation sweep, the
    controlled trajectory from one verification forward solve, and the
    scalar diagnostics.  u0 is checked before any step runs.
    """
    prop = propagator(path, potential, cfg, control_radius=control_radius)
    n, m = cfg.n, cfg.m
    y_free = prop.free_final(u0)
    G, _ = prop.assemble_forms()

    # both variants solve (G + mu I) phiT = -y_free(T); the exact one at the
    # penalty that pins the final norm, where the interior Euclidean norm
    # times sqrt(R(T) h) is the physical norm at T
    y_int = y_free[1:-1]
    try:
        if hum.variant == VARIANT_QUADRATIC:
            mu, history = hum.epsilon, []
        else:
            eps_eff = hum.epsilon / np.sqrt(path.radii[-1] * cfg.grid.spacing)
            mu, history = _secular_penalty(G, y_int, eps_eff, hum.prox_max_iter)
        sol = np.zeros(n - 1) if mu is None else cho_solve(
            cho_factor(G + mu * np.eye(n - 1)), -y_int)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gramian factorization failed at ({n}, {m}): {exc}") from exc
    phiT = np.pad(sol, 1)

    obs = prop.run_observation(phiT)
    control = SpaceTimeField(obs, role=ROLE_CONTROL)
    cost = prop.control_cost(obs)

    values = prop.run_forward(u0, source=obs, source_role=ROLE_CONTROL)
    state = SpaceTimeField(values, role=ROLE_STATE)
    y_final = values[:, -1]
    final_norm = prop.slice_norm(y_final, m)

    phi_norm = prop.slice_norm(phiT, m)
    lin = prop.slice_inner(y_free, phiT, m)
    scale = max(prop.slice_norm(y_free, m), 1e-300)
    if mu is None:   # zero is optimal: the free final norm lies within eps
        optimality = max(scale - hum.epsilon, 0.0) / scale
    else:            # Lambda phiT + mu phiT + y_free = 0; exact: mu = eps / ||phiT||
        mu = hum.epsilon / phi_norm if hum.variant == VARIANT_EXACT else mu
        optimality = prop.slice_norm(np.pad(G @ sol + mu * sol + y_int, 1), m) / scale
    if hum.variant == VARIANT_QUADRATIC:
        J_value = 0.5 * cost * cost + 0.5 * hum.epsilon * phi_norm * phi_norm + lin
        # y(T) = -eps phiT at the minimizer
        defect = prop.slice_norm(y_final + hum.epsilon * phiT, m) / max(final_norm, hum.epsilon * phi_norm, 1e-300)
    else:
        J_value = 0.5 * cost * cost + hum.epsilon * phi_norm + lin
        # the exact variant pins the final norm at eps when phiT != 0
        defect = abs(final_norm - hum.epsilon) / hum.epsilon if mu is not None else 0.0
        if defect > _PIN_TOL:
            raise ConvergenceError(f"eps is out of reach on this grid: the final norm "
                                   f"misses it by {defect:.3e} relative", history=history)

    seminorm = h1_seminorm(u0, path.radii[0], cfg.grid)
    ratio = cost / seminorm if seminorm > 0.0 else 0.0

    return HUMOutcome(
        phiT=phiT,
        control=control,
        state=state,
        final_norm=final_norm,
        cost=cost,
        cost_ratio=ratio,
        iterations=len(history),
        J_value=J_value,
        optimality_residual=optimality,
        eps_identity_defect=defect,
    )


def _secular_penalty(G, y, eps_eff: float, max_iter: int):
    """The penalty mu with mu ||phi|| = eps_eff for phi = -(G + mu I)^{-1} y.

    That phi minimizes 1/2 <G phi, phi> + eps_eff ||phi|| + <y, phi> (interior
    Euclidean norms) when ||y|| > eps_eff; otherwise zero does and mu is None.
    Newton runs on the concave psi(mu) = 1/||phi(mu)|| - mu/eps_eff through
    the eigenpairs of G, eigenvalues clamped at zero (More & Sorensen 1983),
    from mu0 = eps_eff lam_max / (||y|| - eps_eff), right of the root, so
    every iterate stays right of it; it stops once mu stops decreasing
    beyond rounding.  Reaching max_iter steps, or a root at or below G's
    rounding floor (n-1) eps_mach lam_max, where no control on the grid
    reaches eps_eff, raises with the Newton steps.  Returns mu and the steps.
    """
    y_norm = float(np.linalg.norm(y))
    if y_norm <= eps_eff:
        return None, []
    lam, Q = eigh(G)
    lam = np.maximum(lam, 0.0)
    c2 = (Q.T @ y) ** 2
    floor = len(y) * np.finfo(float).eps * lam[-1]
    mu = eps_eff * lam[-1] / (y_norm - eps_eff)
    history = []
    while mu > floor and len(history) < max_iter:
        w = c2 / (lam + mu) ** 2
        inv_norm = 1.0 / np.sqrt(np.sum(w))
        step = (inv_norm - mu / eps_eff) / (np.sum(w / (lam + mu)) * inv_norm ** 3 - 1.0 / eps_eff)
        history.append(step)
        if not mu - step < mu * (1.0 - 4.0 * np.finfo(float).eps):
            return mu, history
        mu -= step
    reason = (f"did not settle in {max_iter} steps" if mu > floor else f"eps is out of reach "
              f"on this grid, the root lies at or below G's rounding floor {floor:.3e}")
    raise ConvergenceError(f"secular Newton stopped at mu {mu:.3e}: {reason}", history=history)


def cost_report(outcome: HUMOutcome, u0, setup, path: BoundaryPath, potential,
                cfg: SchemeConfig) -> dict:
    """Scalar summary tying the control cost to the quantities it depends on."""
    pot = np.zeros(1) if potential is None else checked_values(
        potential, "potential", (cfg.n + 1, cfg.m + 1))
    return {
        "cost": outcome.cost,
        "cost_ratio": outcome.cost_ratio,
        "initial_h1_seminorm": h1_seminorm(u0, path.radii[0], cfg.grid),
        "final_norm": outcome.final_norm,
        "R_star": setup.R_star,
        "E": setup.E,
        "b": setup.b,
        "sup_path_slope": float(np.max(np.abs(path.slopes))),
        "sup_potential": float(np.max(np.abs(pot))),
        "horizon": path.horizon,
    }
