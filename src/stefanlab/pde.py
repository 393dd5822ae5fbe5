"""Theta-scheme solvers on the moving interval via the fixed-domain map.

With u(rho, t) the line field sampled at physical radius r = rho R(t), the
heat equation u_t - u_rr + a u = f on 0 < r < R(t) becomes

    u_t - (1/R^2) u_rhorho - (rho R'/R) u_rho + a u = f,   u(0) = u(1) = 0,

on the fixed reference interval.  One step of the theta scheme reads

    (I - theta dt L_{j+1}) u^{j+1} = (I + (1-theta) dt L_j) u^j + dt f_step,

one tridiagonal solve per step (LAPACK gttrf/gttrs, factored once per step).

The backward solver applies the exact transpose of each forward step, scaled
by R_{j+1}/R_j so that adjacent time levels pair in the physical measure
R(t) drho.  Consequently the discrete duality identity

    <forward(u0)(T), phiT>_{L2(0,R(T))} = <u0, adjoint(phiT)(0)>_{L2(0,R(0))}

holds to rounding error, and the control Gramian built from these sweeps is
symmetric positive semidefinite by construction.  The transposed advection
plus the radius-ratio factor is a consistent discretization of the
continuous backward equation -phi_t - phi_rr + a phi = F on the moving
domain, so nothing is lost against the analytical adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .domain import (
    DIRICHLET_ROLES,
    ROLE_ADJOINT,
    ROLE_CONTROL,
    ROLE_SOURCE,
    ROLE_STATE,
    BoundaryPath,
    ReferenceGrid,
    SpaceTimeField,
)
from .errors import (
    EndpointConditionError,
    FieldRoleError,
    GridError,
    InstabilityError,
)

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(2),))


@dataclass(frozen=True)
class SchemeConfig:
    """Grid sizes and scheme parameters.

    theta = 1/2 is Crank-Nicolson (second order), theta = 1 implicit Euler
    (first order, discrete maximum principle).  flux_order selects the
    one-sided stencil used for the boundary derivative.
    """

    n: int = 50
    m: int = 100
    theta: float = 0.5
    flux_order: int = 2

    def __post_init__(self):
        if self.n < 8 or self.m < 8:
            raise GridError(f"need n >= 8 and m >= 8, got ({self.n}, {self.m})")
        if not 0.5 <= self.theta <= 1.0:
            raise GridError(f"theta must lie in [1/2, 1], got {self.theta}")
        if self.flux_order not in (1, 2):
            raise GridError(f"flux_order must be 1 or 2, got {self.flux_order}")

    @property
    def grid(self) -> ReferenceGrid:
        return ReferenceGrid(self.n)

    def refined(self) -> "SchemeConfig":
        return SchemeConfig(2 * self.n, 2 * self.m, self.theta, self.flux_order)


def _interior_diagonals(rho_int, h, radius, slope, pot_col):
    """Tridiagonal interior stencil of L = (1/R^2) d_rhorho + (rho R'/R) d_rho - a."""
    diff = 1.0 / (radius * radius * h * h)
    adv = rho_int * slope / (2.0 * h * radius)
    lower = diff - adv
    diag = -2.0 * diff - pot_col
    upper = diff + adv
    return lower, diag, upper


def _coerce_potential(potential, n, m):
    if potential is None:
        return np.zeros((n + 1, m + 1))
    if isinstance(potential, SpaceTimeField):
        values = potential.values
    else:
        values = np.asarray(potential, dtype=float)
    if values.shape != (n + 1, m + 1):
        raise GridError(f"potential shape {values.shape}, expected {(n + 1, m + 1)}")
    if not np.all(np.isfinite(values)):
        raise GridError("potential must be finite")
    return values


def _check_initial(u0, n):
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n + 1,):
        raise GridError(f"initial data shape {u0.shape}, expected {(n + 1,)}")
    scale = max(1.0, float(np.max(np.abs(u0)))) if u0.size else 1.0
    if abs(u0[0]) > 1e-12 * scale or abs(u0[-1]) > 1e-12 * scale:
        raise EndpointConditionError(
            f"initial data must vanish at both endpoints, got {u0[0]:.3e}, {u0[-1]:.3e}"
        )
    return u0


class Propagator:
    """Precomputed step operators for one (path, potential, scheme) triple.

    Factors every implicit tridiagonal once, so repeated forward and adjoint
    sweeps, and the blocked adjoint sweep of `assemble_forms`, reuse the
    same LU data; the adjoint sweeps solve the transposed systems from the
    identical factorization, which is what makes duality exact.
    """

    def __init__(self, path: BoundaryPath, potential, cfg: SchemeConfig,
                 control_radius: float | None = None):
        if path.steps != cfg.m:
            raise GridError(f"path has {path.steps} steps, scheme expects {cfg.m}")
        self.path = path
        self.cfg = cfg
        n, m = cfg.n, cfg.m
        self.n, self.m = n, m
        grid = cfg.grid
        self.rho = grid.nodes
        self.h = grid.spacing
        self.dt = path.dt
        self.pot = _coerce_potential(potential, n, m)
        rho_int = self.rho[1:-1]
        R, Rp = path.radii, path.slopes
        theta = cfg.theta

        self._explicit = []   # (sub, diag, super) of I + (1-theta) dt L_j
        self._factors = []    # gttrf output for I - theta dt L_{j+1}
        for j in range(m):
            lo_j, dg_j, up_j = _interior_diagonals(rho_int, self.h, R[j], Rp[j], self.pot[1:-1, j])
            self._explicit.append((
                (1.0 - theta) * self.dt * lo_j[1:],
                1.0 + (1.0 - theta) * self.dt * dg_j,
                (1.0 - theta) * self.dt * up_j[:-1],
            ))
            lo_n, dg_n, up_n = _interior_diagonals(
                rho_int, self.h, R[j + 1], Rp[j + 1], self.pot[1:-1, j + 1]
            )
            dl = -theta * self.dt * lo_n[1:]
            d = 1.0 - theta * self.dt * dg_n
            du = -theta * self.dt * up_n[:-1]
            dlf, df, duf, du2, ipiv, info = _gttrf(dl, d, du)
            if info != 0:
                raise InstabilityError(
                    f"implicit step {j} is singular (gttrf info={info})",
                    suggested_nodes=2 * n, suggested_steps=2 * m,
                )
            self._factors.append((dlf, df, duf, du2, ipiv))

        self.ratio = R[1:] / R[:-1]
        # trapezoid weights in time and space for the physical pairings
        self.tau = np.full(m + 1, self.dt)
        self.tau[0] *= 0.5
        self.tau[-1] *= 0.5
        self.space_w = np.full(n + 1, self.h)
        self.space_w[0] *= 0.5
        self.space_w[-1] *= 0.5

        self.mask = None
        if control_radius is not None:
            if control_radius <= 0:
                raise GridError(f"control radius must be positive, got {control_radius}")
            radii_nodes = np.outer(self.rho, R)          # (n+1, m+1) physical radii
            self.mask = (radii_nodes < control_radius).astype(float)

    # -- inner products in the physical measure --------------------------------

    def slice_inner(self, u, v, k: int) -> float:
        return float(self.path.radii[k] * np.dot(u * self.space_w, v))

    def slice_norm(self, u, k: int) -> float:
        return float(np.sqrt(max(self.slice_inner(u, u, k), 0.0)))

    def control_cost(self, obs: np.ndarray) -> float:
        """Discrete L2 norm over the control cylinder of a masked sample array."""
        per_slice = self.h * np.sum(obs * obs, axis=0)
        return float(np.sqrt(np.sum(self.tau * self.path.radii * per_slice)))

    # -- single steps -----------------------------------------------------------

    def _matvec_explicit(self, j, x):
        sub, dg, sup = self._explicit[j]
        y = dg * x
        y[1:] += sub * x[:-1]
        y[:-1] += sup * x[1:]
        return y

    def _matvec_explicit_t(self, j, x):
        """Transposed explicit operator on an (n-1,) column or an (n-1, k) block."""
        sub, dg, sup = self._explicit[j]
        if x.ndim == 2:
            sub, dg, sup = sub[:, None], dg[:, None], sup[:, None]
        y = dg * x
        y[1:] += sup * x[:-1]
        y[:-1] += sub * x[1:]
        return y

    def _solve_implicit(self, j, rhs, transposed=False):
        """Implicit solve of step j for an (n-1,) column or an (n-1, k) block."""
        dlf, df, duf, du2, ipiv = self._factors[j]
        out, info = _gttrs(dlf, df, duf, du2, ipiv, rhs.reshape(rhs.shape[0], -1),
                           trans=b"T" if transposed else b"N")
        if info != 0:
            raise InstabilityError(f"tridiagonal solve failed at step {j} (info={info})")
        return out.reshape(rhs.shape)

    def step_forward(self, j, x, extra=None):
        """Interior column at level j -> level j+1; extra is a source sample."""
        rhs = self._matvec_explicit(j, x)
        if extra is not None:
            rhs = rhs + self.dt * extra
        return self._solve_implicit(j, rhs)

    # -- sweeps ------------------------------------------------------------------

    def _combine_source(self, source, masked):
        src = source.values if isinstance(source, SpaceTimeField) else np.asarray(source, dtype=float)
        if src.shape != (self.n + 1, self.m + 1):
            raise GridError(f"source shape {src.shape}, expected {(self.n + 1, self.m + 1)}")
        if masked:
            if self.mask is None:
                raise GridError("control source given but no control radius configured")
            src = src * self.mask
        return src

    def run_forward(self, u0, source=None, source_role: str = ROLE_SOURCE) -> np.ndarray:
        """Forward sweep; returns the (n+1, m+1) trajectory array.

        A source with the control role is masked to the nodes with
        rho_i R(t_j) < control_radius, column by column; any other source is
        applied as given.  Sources are sampled on time nodes and enter each
        step through the same theta average as the operator.
        """
        u0 = _check_initial(u0, self.n)
        src = None
        if source is not None:
            src = self._combine_source(source, masked=(source_role == ROLE_CONTROL))
        theta = self.cfg.theta
        w = np.zeros((self.n + 1, self.m + 1))
        w[:, 0] = u0
        x = u0[1:-1].copy()
        for j in range(self.m):
            extra = None
            if src is not None:
                extra = theta * src[1:-1, j + 1] + (1.0 - theta) * src[1:-1, j]
            x = self.step_forward(j, x, extra)
            w[1:-1, j + 1] = x
        if not np.all(np.isfinite(w)):
            raise InstabilityError(
                "forward sweep produced non-finite values",
                suggested_nodes=2 * self.n, suggested_steps=2 * self.m,
            )
        return w

    def _backward_steps(self, x, fsrc=None):
        """Exact transpose steps from level m down to level 0.

        x is the interior final datum, one (n-1,) column or an (n-1, k)
        block.  Yields (j, chi, x_j, w_next, w_here) for j = m-1, ..., 0:
        chi solves the transposed implicit system of step j, x_j is the
        backward solution at level j, and chi enters the observation at
        level j+1 with weight w_next and at level j with weight w_here (the
        theta average of the forward source, doubled at the end levels,
        whose half trapezoid weights the pairing divides out).  Level j+1 is
        complete once step j is yielded.
        """
        theta = self.cfg.theta
        for j in range(self.m - 1, -1, -1):
            rhs = x
            if fsrc is not None:
                rhs = rhs + self.dt * (1.0 - theta) * fsrc[1:-1, j + 1]
            chi = self._solve_implicit(j, rhs, transposed=True)
            val = self._matvec_explicit_t(j, chi)
            if fsrc is not None:
                val = val + self.dt * theta * fsrc[1:-1, j]
            x = self.ratio[j] * val
            w_next = theta if j + 1 < self.m else 2.0 * theta
            w_here = (1.0 - theta) * self.ratio[j]
            if j == 0:
                w_here *= 2.0
            yield j, chi, x, w_next, w_here

    def _require_mask(self):
        if self.mask is None:
            raise GridError("observation sweep needs a control radius")

    def run_adjoint(self, phiT, forcing=None, with_observation=False):
        """Backward sweep from the final datum phiT; exact transpose steps.

        Returns the trajectory, or (trajectory, observation) when
        with_observation is set.  The observation array holds the masked
        per-node control samples of the backward solution, i.e. the image of
        phiT under the transpose of the source-to-final-state map; it is the
        HUM control candidate associated with phiT.
        """
        phiT = _check_initial(phiT, self.n)
        if with_observation:
            self._require_mask()
        fsrc = None
        if forcing is not None:
            fsrc = self._combine_source(forcing, masked=False)
        phi = np.zeros((self.n + 1, self.m + 1))
        phi[:, self.m] = phiT
        obs = np.zeros((self.n + 1, self.m + 1)) if with_observation else None
        for j, chi, x, w_next, w_here in self._backward_steps(phiT[1:-1].copy(), fsrc):
            if obs is not None:
                obs[1:-1, j + 1] += w_next * chi
                obs[1:-1, j] += w_here * chi
            phi[1:-1, j] = x
        if not np.all(np.isfinite(phi)):
            raise InstabilityError(
                "backward sweep produced non-finite values",
                suggested_nodes=2 * self.n, suggested_steps=2 * self.m,
            )
        if obs is not None:
            obs *= self.mask
            return phi, obs
        return phi

    def assemble_forms(self):
        """Interior Gramian G and t = 0 slice P from one blocked adjoint sweep.

        The sweep starts from the (n-1) x (n-1) identity block.  With O_j
        the masked observation level j of that sweep and tau_j the
        trapezoid time weights,

            G = (1/R_T) sum_j tau_j R_j O_j^T O_j,

        accumulated as soon as each level is complete, so only two levels
        are ever held; G equals the interior block of `apply_gramian`
        applied column by column, up to rounding.  P is the sweep at t = 0,
        and (R_0/R_T) P^T P is the numerator form of the observability
        inequality (backward sweep, then free forward sweep, by duality).
        """
        self._require_mask()
        ni = self.n - 1
        radii = self.path.radii
        weight = self.tau * radii / radii[-1]
        inside = self.mask[1:-1] > 0.0
        G = np.zeros((ni, ni))
        pending = np.zeros((ni, ni))      # partial observation at level j
        for j, chi, x, w_next, w_here in self._backward_steps(np.eye(ni)):
            done = pending + w_next * chi
            rows = done[inside[:, j + 1]]
            G += weight[j + 1] * (rows.T @ rows)
            pending = w_here * chi
        rows = pending[inside[:, 0]]
        G += weight[0] * (rows.T @ rows)
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(x))):
            raise InstabilityError(
                "blocked backward sweep produced non-finite values",
                suggested_nodes=2 * self.n, suggested_steps=2 * self.m,
            )
        return G, x

    def apply_gramian(self, phiT) -> np.ndarray:
        """Adjoint sweep, mask, forward sweep from zero data; state at T.

        Symmetric and positive semidefinite in the L2(0, R(T)) pairing, with
        <Gramian phiT, phiT> equal to the squared control cost of the masked
        backward samples up to rounding.
        """
        _, obs = self.run_adjoint(phiT, with_observation=True)
        w = self.run_forward(np.zeros(self.n + 1), source=obs, source_role=ROLE_CONTROL)
        return w[:, -1]


# ---------------------------------------------------------------------------
# free-function wrappers


def solve_forward(u0, path: BoundaryPath, potential, source, cfg: SchemeConfig,
                  control_radius: float | None = None) -> SpaceTimeField:
    """Linear forward solve; returns the state trajectory as a field.

    potential and source may be None; a source field carrying the control
    role is restricted to physical radii below control_radius at every time
    level before it acts.
    """
    role = source.role if isinstance(source, SpaceTimeField) else ROLE_SOURCE
    prop = Propagator(path, potential, cfg, control_radius=control_radius)
    values = prop.run_forward(u0, source=source, source_role=role) if source is not None \
        else prop.run_forward(u0)
    return SpaceTimeField(values, role=ROLE_STATE)


def solve_adjoint(phiT, path: BoundaryPath, potential, forcing, cfg: SchemeConfig) -> SpaceTimeField:
    """Backward solve from the final datum; exact transpose of solve_forward."""
    prop = Propagator(path, potential, cfg)
    values = prop.run_adjoint(phiT, forcing=forcing)
    return SpaceTimeField(values, role=ROLE_ADJOINT)


def solve_semilinear(u0, path: BoundaryPath, nonlinearity, cfg: SchemeConfig,
                     control=None, control_radius: float | None = None) -> SpaceTimeField:
    """Forward solve of u_t - u_rr + r f(u/r) = control with lagged reaction.

    The reaction term r f(u/r) (equal to zero at r = 0 since u(0) = 0 and f
    is bounded near the origin) is evaluated on the current time level and
    enters the step explicitly, an O(dt) splitting.  A globally Lipschitz f
    keeps this stable at desk scales; non-finite growth raises with a
    refinement suggestion.
    """
    prop = Propagator(path, None, cfg, control_radius=control_radius)
    u0 = _check_initial(u0, cfg.n)
    theta = cfg.theta
    src = None
    if control is not None:
        src = prop._combine_source(control, masked=True)
    n, m = cfg.n, cfg.m
    rho_int = prop.rho[1:-1]
    w = np.zeros((n + 1, m + 1))
    w[:, 0] = u0
    x = u0[1:-1].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            extra = np.zeros(n - 1)
            if src is not None:
                extra += theta * src[1:-1, j + 1] + (1.0 - theta) * src[1:-1, j]
            if nonlinearity is not None:
                r_int = rho_int * prop.path.radii[j]
                extra -= r_int * nonlinearity.value(x / r_int)
            x = prop.step_forward(j, x, extra)
            w[1:-1, j + 1] = x
    if not np.all(np.isfinite(w)):
        raise InstabilityError(
            "semilinear sweep produced non-finite values",
            suggested_nodes=2 * n, suggested_steps=2 * m,
        )
    return SpaceTimeField(w, role=ROLE_STATE)


def boundary_flux(field: SpaceTimeField, path: BoundaryPath, j: int, order: int = 2) -> float:
    """One-sided derivative of the line field at the moving boundary.

    Returns u_r(R(t_j), t_j), i.e. the one-sided rho derivative at rho = 1
    divided by R(t_j) for the chain rule.  Requires a state or adjoint field
    (Dirichlet rows already validated on construction).
    """
    if field.role not in DIRICHLET_ROLES:
        raise FieldRoleError(f"flux needs a state or adjoint field, got {field.role!r}")
    values = field.values
    n = field.n_intervals
    if field.n_steps != path.steps:
        raise GridError(f"field has {field.n_steps} steps, path has {path.steps}")
    if not 0 <= j <= path.steps:
        raise GridError(f"time index {j} outside 0..{path.steps}")
    if order not in (1, 2):
        raise GridError(f"stencil order must be 1 or 2, got {order}")
    h = 1.0 / n
    col = values[:, j]
    if order == 1:
        du = (col[n] - col[n - 1]) / h
    else:
        du = (3.0 * col[n] - 4.0 * col[n - 1] + col[n - 2]) / (2.0 * h)
    return float(du / path.radii[j])
