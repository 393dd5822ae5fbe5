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
    (first order, discrete maximum principle).
    """

    n: int = 50
    m: int = 100
    theta: float = 0.5

    def __post_init__(self):
        if self.n < 8 or self.m < 8:
            raise GridError(f"need n >= 8 and m >= 8, got ({self.n}, {self.m})")
        if not 0.5 <= self.theta <= 1.0:
            raise GridError(f"theta must lie in [1/2, 1], got {self.theta}")

    @property
    def grid(self) -> ReferenceGrid:
        return ReferenceGrid(self.n)

    def refined(self) -> "SchemeConfig":
        return SchemeConfig(2 * self.n, 2 * self.m, self.theta)


def _interior_diagonals(rho_int, h, radius, slope, pot_col):
    """Tridiagonal interior stencil of L = (1/R^2) d_rhorho + (rho R'/R) d_rho - a."""
    diff = 1.0 / (radius * radius * h * h)
    adv = rho_int * slope / (2.0 * h * radius)
    lower = diff - adv
    diag = -2.0 * diff - pot_col
    upper = diff + adv
    return lower, diag, upper


def _theta_step(cfg, rho_int, h, dt, j, here, there):
    """Both operators of theta step j from its two levels.

    here and there are (R, R', potential column) at levels j and j+1.
    Returns the diagonals (sub, diag, super) of I + (1-theta) dt L_j and
    the gttrf factors of I - theta dt L_{j+1}.
    """
    theta = cfg.theta
    lo_j, dg_j, up_j = _interior_diagonals(rho_int, h, *here)
    explicit = (
        (1.0 - theta) * dt * lo_j[1:],
        1.0 + (1.0 - theta) * dt * dg_j,
        (1.0 - theta) * dt * up_j[:-1],
    )
    lo_n, dg_n, up_n = _interior_diagonals(rho_int, h, *there)
    dlf, df, duf, du2, ipiv, info = _gttrf(
        -theta * dt * lo_n[1:], 1.0 - theta * dt * dg_n, -theta * dt * up_n[:-1]
    )
    if info != 0:
        raise InstabilityError(
            f"implicit step {j} is singular (gttrf info={info})",
            suggested_nodes=2 * cfg.n, suggested_steps=2 * cfg.m,
        )
    return explicit, (dlf, df, duf, du2, ipiv)


def _down(values, ndim):
    """values with unit axes appended, to broadcast down the leading axes of
    an ndim-array whose trailing axis runs over the columns of a block."""
    return values.reshape(values.shape + (1,) * (ndim - values.ndim))


def _apply_explicit(explicit, x, transposed=False):
    """Explicit operator (or its transpose) on an (n-1,) column or an (n-1, k) block."""
    sub, dg, sup = explicit
    if transposed:
        sub, sup = sup, sub
    sub, dg, sup = _down(sub, x.ndim), _down(dg, x.ndim), _down(sup, x.ndim)
    y = dg * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def _solve_implicit(factors, rhs, transposed=False):
    """Implicit solve for an (n-1,) column or an (n-1, k) block."""
    dlf, df, duf, du2, ipiv = factors
    out, info = _gttrs(dlf, df, duf, du2, ipiv, rhs.reshape(rhs.shape[0], -1),
                       trans=b"T" if transposed else b"N")
    if info != 0:
        raise InstabilityError(f"tridiagonal solve failed (info={info})")
    return out.reshape(rhs.shape)


def _forward_step(explicit, factors, x, dt, extra=None):
    """Interior column at level j -> level j+1; extra is the step forcing."""
    rhs = _apply_explicit(explicit, x)
    if extra is not None:
        rhs = rhs + dt * extra
    return _solve_implicit(factors, rhs)


def _step_forcing(theta, here, there, lag=None):
    """Forcing of one step: theta average of the source samples at levels
    j (here) and j+1 (there), minus the reaction lagged on level j.

    Either part may be None; None means no forcing at all.
    """
    extra = None if here is None else theta * there + (1.0 - theta) * here
    if lag is not None:
        extra = -lag if extra is None else extra - lag
    return extra


def _lagged_reaction(nonlinearity, x, r_int):
    """r f(u/r) on an interior column or block at physical radii r_int."""
    r_int = _down(r_int, x.ndim)
    return r_int * nonlinearity.value(x / r_int)


def _edge_flux(values, radius):
    """u_r at the boundary: the one-sided 3-point rho derivative at rho = 1, / R.

    values is one (n+1,) column with its scalar radius, or a whole
    (n+1, m+1) field with the vector of radii, one per time level.
    """
    n = values.shape[0] - 1
    h = 1.0 / n
    du = (3.0 * values[n] - 4.0 * values[n - 1] + values[n - 2]) / (2.0 * h)
    return du / radius


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


def _check_initial(u0, n, block=False):
    """Initial or final data: an (n+1,) column or, with block set, an
    (n+1, k) block of columns; every column must vanish at both endpoints."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape[:1] != (n + 1,) or u0.ndim > (2 if block else 1):
        expected = f"({n + 1},) or ({n + 1}, k)" if block else f"({n + 1},)"
        raise GridError(f"initial data shape {u0.shape}, expected {expected}")
    # fmax skips NaN as max(1.0, nan) does, so a NaN entry sets no scale
    scale = np.fmax(1.0, np.max(np.abs(u0), axis=0))
    bad = np.flatnonzero((np.abs(u0[0]) > 1e-12 * scale) | (np.abs(u0[-1]) > 1e-12 * scale))
    if bad.size:
        col = u0[:, bad[0]] if u0.ndim == 2 else u0
        where = f" in column {bad[0]}" if u0.ndim == 2 else ""
        raise EndpointConditionError(
            f"initial data must vanish at both endpoints{where}, "
            f"got {col[0]:.3e}, {col[-1]:.3e}"
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

        self._explicit = []   # (sub, diag, super) of I + (1-theta) dt L_j
        self._factors = []    # gttrf output for I - theta dt L_{j+1}
        for j in range(m):
            explicit, factors = _theta_step(
                cfg, rho_int, self.h, self.dt, j,
                (R[j], Rp[j], self.pot[1:-1, j]), (R[j + 1], Rp[j + 1], self.pot[1:-1, j + 1]),
            )
            self._explicit.append(explicit)
            self._factors.append(factors)

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

    # -- sweeps ------------------------------------------------------------------

    def _combine_source(self, source, masked, cols):
        src = source.values if isinstance(source, SpaceTimeField) else np.asarray(source, dtype=float)
        expected = (self.n + 1, self.m + 1) + cols
        if src.shape != expected:
            raise GridError(f"source shape {src.shape}, expected {expected}")
        if masked:
            if self.mask is None:
                raise GridError("control source given but no control radius configured")
            src = src * _down(self.mask, src.ndim)
        return src

    def run_forward(self, u0, source=None, source_role: str = ROLE_SOURCE,
                    reaction=None) -> np.ndarray:
        """Forward sweep; returns the (n+1, m+1) trajectory array.

        u0 is an (n+1,) column or an (n+1, k) block of columns; a block
        gives an (n+1, m+1, k) trajectory whose column i equals the sweep of
        u0[:, i] alone, bit for bit, and a source must then carry the same
        trailing axis.  A source with the control role is masked to the
        nodes with rho_i R(t_j) < control_radius, time level by time level
        and column by column; any other source is applied as given.
        Sources are sampled on time nodes and enter each step through the
        same theta average as the operator.  A reaction f (any object with a
        value method) adds -r f(u/r) evaluated on the current level, lagged
        one step.
        """
        u0 = _check_initial(u0, self.n, block=True)
        cols = u0.shape[1:]
        src = None
        if source is not None:
            src = self._combine_source(source, masked=(source_role == ROLE_CONTROL), cols=cols)
        theta = self.cfg.theta
        rho_int = self.rho[1:-1]
        w = np.zeros((self.n + 1, self.m + 1) + cols)
        w[:, 0] = u0
        x = u0[1:-1].copy()
        for j in range(self.m):
            here = there = lag = None
            if src is not None:
                here, there = src[1:-1, j], src[1:-1, j + 1]
            if reaction is not None:
                lag = _lagged_reaction(reaction, x, rho_int * self.path.radii[j])
            x = _forward_step(self._explicit[j], self._factors[j], x, self.dt,
                              _step_forcing(theta, here, there, lag))
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
            chi = _solve_implicit(self._factors[j], rhs, transposed=True)
            val = _apply_explicit(self._explicit[j], chi, transposed=True)
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

        phiT is an (n+1,) column or an (n+1, k) block, shaped and checked as
        the initial data of `run_forward`, and a forcing carries the block's
        trailing axis.  Returns the trajectory, or (trajectory, observation)
        when with_observation is set.  The observation array holds the
        masked per-node control samples of the backward solution, i.e. the
        image of phiT under the transpose of the source-to-final-state map;
        it is the HUM control candidate associated with phiT.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        if with_observation:
            self._require_mask()
        cols = phiT.shape[1:]
        fsrc = None
        if forcing is not None:
            fsrc = self._combine_source(forcing, masked=False, cols=cols)
        phi = np.zeros((self.n + 1, self.m + 1) + cols)
        phi[:, self.m] = phiT
        obs = np.zeros((self.n + 1, self.m + 1) + cols) if with_observation else None
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
            obs *= _down(self.mask, obs.ndim)
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
        applied to the identity, up to rounding.  P is the sweep at t = 0,
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

        phiT is an (n+1,) column or an (n+1, k) block; the result has its
        shape, and each column equals the image of that column alone, bit
        for bit.  Neither trajectory is kept: only the masked observation
        levels, on the rows the mask ever reaches (rho_i R_j < b holds on a
        prefix of rows at every level), padded back to full height as the
        forcing of each forward step.

        Symmetric and positive semidefinite in the L2(0, R(T)) pairing, with
        <Gramian phiT, phiT> equal to the squared control cost of the masked
        backward samples up to rounding.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        self._require_mask()
        cols = phiT.shape[1:]
        inside = self.mask[1:-1]
        reach = int(np.count_nonzero(inside.any(axis=1)))
        obs = np.zeros((self.m + 1, reach) + cols)
        for j, chi, _, w_next, w_here in self._backward_steps(phiT[1:-1].copy()):
            obs[j + 1] += w_next * chi[:reach]
            obs[j] += w_here * chi[:reach]
        obs *= _down(inside[:reach].T, obs.ndim)
        theta = self.cfg.theta
        x = np.zeros((self.n - 1,) + cols)
        extra = np.zeros_like(x)
        for j in range(self.m):
            extra[:reach] = _step_forcing(theta, obs[j], obs[j + 1])
            x = _forward_step(self._explicit[j], self._factors[j], x, self.dt, extra)
        if not np.all(np.isfinite(x)):
            raise InstabilityError(
                "Gramian sweeps produced non-finite values",
                suggested_nodes=2 * self.n, suggested_steps=2 * self.m,
            )
        out = np.zeros(phiT.shape)
        out[1:-1] = x
        return out


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
    values = prop.run_forward(u0, source=source, source_role=role)
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
    values = prop.run_forward(u0, source=control, source_role=ROLE_CONTROL,
                              reaction=nonlinearity)
    return SpaceTimeField(values, role=ROLE_STATE)


def _check_flux_field(field: SpaceTimeField, path: BoundaryPath, j: int | None = None) -> None:
    """A boundary flux needs a state or adjoint field on the path's time
    grid, and a time index j, when one is given, on that grid."""
    if field.role not in DIRICHLET_ROLES:
        raise FieldRoleError(f"flux needs a state or adjoint field, got {field.role!r}")
    if field.n_steps != path.steps:
        raise GridError(f"field has {field.n_steps} steps, path has {path.steps}")
    if j is not None and not 0 <= j <= path.steps:
        raise GridError(f"time index {j} outside 0..{path.steps}")


def boundary_flux(field: SpaceTimeField, path: BoundaryPath, j: int) -> float:
    """One-sided derivative of the line field at the moving boundary.

    Returns u_r(R(t_j), t_j), i.e. the one-sided rho derivative at rho = 1
    divided by R(t_j) for the chain rule.  Requires a state or adjoint field
    (Dirichlet rows already validated on construction).
    """
    _check_flux_field(field, path, j)
    return float(_edge_flux(field.values[:, j], path.radii[j]))
