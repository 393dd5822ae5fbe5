"""Theta-scheme solvers on the moving interval via the fixed-domain map.

With u(rho, t) the line field sampled at physical radius r = rho R(t), the
heat equation u_t - u_rr + a u = f on 0 < r < R(t) becomes

    u_t - (1/R^2) u_rhorho - (rho R'/R) u_rho + a u = f,   u(0) = u(1) = 0,

on the fixed reference interval.  One step of the theta scheme reads

    (I - theta dt L_{j+1}) u^{j+1} = (I + (1-theta) dt L_j) u^j + dt f_step,

with the implicit operator A_k = I - theta dt L_k factored once per level
(LAPACK gttrf) and one gttrs solve per step.  `_stencil` forms L_k on every
level in one array pass; `_theta_table` turns it into both operators of
every step, and the coupled march of `stefan` builds one level at a time.

The two operators of a level share L_k, so B_k = I + (1-theta) dt L_k is
exactly (1/theta) I - ((1-theta)/theta) A_k, and no sweep applies B as an
operator inside its loop.  A forward sweep applies B_0 to u^0 only; once
step j has solved A_{j+1} u^{j+1} = rhs_j, the explicit half of step j+1
is (u^{j+1} - (1-theta) rhs_j) / theta (`_carry`), so each step is one
forcing add, one gttrs, the store and that carry.  A backward sweep carries
the transposed solve's unknown chi the same way, and B^T is applied only
where a caller needs a backward level itself, in whole-array passes after
the loop.  This is the same theta scheme; outputs differ from applying B at
every step only by rounding, and not at all at theta = 1, where B = I.

Work that does not depend on the recursion is one whole-array operation
outside the loop: the theta averages of a source (times dt) for all m
steps before it, and the observation and levels of an adjoint sweep after
it.  Only a lagged reaction, which reads the current level, is formed
inside the loop.

The backward solver applies the exact transpose of each forward step, scaled
by R_{j+1}/R_j so that adjacent time levels pair in the physical measure
R(t) drho.  Consequently the discrete duality identity

    <forward(u0)(T), phiT>_{L2(0,R(T))} = <u0, adjoint(phiT)(0)>_{L2(0,R(0))}

holds to rounding error, and the control Gramian built from these sweeps is
symmetric positive semidefinite by construction.  The transposed advection
plus the radius-ratio factor is a consistent discretization of the
continuous backward equation -phi_t - phi_rr + a phi = F on the moving
domain, so nothing is lost against the analytical adjoint.

`propagator` is how the solvers obtain their operators.  It hands a thread
back the `Propagator` of that thread's previous call when the path, the
potential, the control radius and the scheme are bitwise equal to it, so a
run of calls on one frozen path and potential (an epsilon ladder and its
replays) shares one build and one Gramian assembly.  Only that one entry per
thread is kept; nothing else is cached.
"""

from __future__ import annotations

import threading
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
    require_integer,
)
from .errors import (
    EndpointConditionError,
    FieldRoleError,
    GridError,
    InstabilityError,
)

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(2),))

# values per chunk of the whole-level passes after a backward sweep
_CHUNK = 1 << 15


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
        require_integer("n", self.n, 8)
        require_integer("m", self.m, 8)
        if not 0.5 <= self.theta <= 1.0:
            raise GridError(f"theta must lie in [1/2, 1], got {self.theta}")

    @property
    def grid(self) -> ReferenceGrid:
        return ReferenceGrid(self.n)

    def refined(self) -> "SchemeConfig":
        return SchemeConfig(2 * self.n, 2 * self.m, self.theta)


def _stencil(cfg, rho, radii, slopes, pot):
    """(lower, diag, upper) of L_k = (1/R^2) d_rhorho + (rho R'/R) d_rho - a
    at the n-1 interior nodes rho of L levels, one row per level: radii and
    slopes hold the (L,) samples R, R' and pot the (L, n-1) potential."""
    h = 1.0 / cfg.n
    col = radii[:, None]
    diff = 1.0 / (col * col * h * h)
    adv = rho * slopes[:, None] / (2.0 * h * col)
    # one array per diagonal, not one stacked array: numpy drops the
    # interpreter lock on operands above 500 elements, a stacked operand
    # passes that at desk grids even for the coupled march's single level,
    # and every drop loses the march its share of the lock under sweep threads
    return diff - adv, -2.0 * diff - pot, diff + adv


def _explicit_diagonals(cfg, dt, lower, diag, upper):
    """(sub, diag, super) of I + (1-theta) dt L_k on each level of a
    stencil, level-major, each level shaped (., 1) to broadcast down an
    (n-1, k) block."""
    ex = (1.0 - cfg.theta) * dt
    return ex * lower[:, 1:, None], 1.0 + ex * diag[:, :, None], ex * upper[:, :-1, None]


def _implicit_factors(cfg, dt, lower, diag, upper, first=0):
    """gttrf factors of I - theta dt L_k on each level of a stencil; the
    level in row j closes step first + j."""
    im = cfg.theta * dt
    dl, d, du = -im * lower[:, 1:], 1.0 - im * diag, -im * upper[:, :-1]
    factors = []
    for j in range(len(d)):
        # the implicit rows are scratch, so gttrf factors them in place
        dlf, df, duf, du2, ipiv, info = _gttrf(dl[j], d[j], du[j], 1, 1, 1)
        if info != 0:
            raise InstabilityError(f"implicit step {first + j} is singular (gttrf info={info})",
                                   suggested_nodes=2 * cfg.n, suggested_steps=2 * cfg.m)
        factors.append((dlf, df, duf, du2, ipiv))
    return factors


def _theta_table(cfg, rho, dt, radii, slopes, pot, first=0):
    """Both operators of every theta step along L >= 2 levels, in one pass.

    rho holds the n-1 interior nodes, radii and slopes the (L,) samples R,
    R' of the levels and pot the (L, n-1) interior potential, one row per
    level.  Step j, from level j to level j+1, gets the explicit diagonals
    of level j (see `_explicit_diagonals`) and the gttrf factors of
    I - theta dt L_{j+1}.  Returns the (explicit, factors) pairs; step j is
    reported as first + j.  Each step's explicit diagonals are views of one
    level-major array per diagonal, so whole-level passes can read them
    through .base without a copy.
    """
    lower, diag, upper = _stencil(cfg, rho, radii, slopes, pot)
    sub, dg, sup = _explicit_diagonals(cfg, dt, lower[:-1], diag[:-1], upper[:-1])
    factors = _implicit_factors(cfg, dt, lower[1:], diag[1:], upper[1:], first)
    return [((sub[j], dg[j], sup[j]), f) for j, f in enumerate(factors)]


def _apply_explicit(explicit, x, transposed=False):
    """Explicit operator (or its transpose) on an (n-1, ...) array whose
    trailing axes the diagonals broadcast over."""
    sub, dg, sup = explicit
    if transposed:
        sub, sup = sup, sub
    y = dg * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def _carry(theta, x, rhs):
    """The explicit half of the next step from the solve A x = rhs just made.

    A = I - theta dt L and B = I + (1-theta) dt L share L, so
    B = (1/theta) I - ((1-theta)/theta) A and B x = (x - (1-theta) rhs) / theta,
    with no operator applied.  Overwrites and returns rhs; at theta = 1,
    where B = I, the result is x bit for bit.
    """
    rhs *= 1.0 - theta
    np.subtract(x, rhs, out=rhs)
    rhs /= theta
    return rhs


def _solve_implicit(factors, rhs, transposed=False):
    """Implicit solve for an (n-1, k) block."""
    dlf, df, duf, du2, ipiv = factors
    out, info = _gttrs(dlf, df, duf, du2, ipiv, rhs, trans=b"T" if transposed else b"N")
    if info != 0:
        raise InstabilityError(f"tridiagonal solve failed (info={info})")
    return out


def _level_major(scale, samples):
    """scale * samples for (n-1, L, k) samples, as a new contiguous
    (L, n-1, k) array: level j is one contiguous (n-1, k) block."""
    rows, levels, cols = samples.shape
    return np.multiply(scale, samples.transpose(1, 0, 2), out=np.empty((levels, rows, cols)))


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
    """r f(u/r) on an (n-1, k) interior block at the (n-1, 1) physical radii r_int."""
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


def _check_steps(path, cfg):
    if path.steps != cfg.m:
        raise GridError(f"path has {path.steps} steps, scheme expects {cfg.m}")


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
    (n+1, k) block of columns; every entry must be finite and every column
    must vanish at both endpoints."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape[:1] != (n + 1,) or u0.ndim > (2 if block else 1):
        expected = f"({n + 1},) or ({n + 1}, k)" if block else f"({n + 1},)"
        raise GridError(f"initial data shape {u0.shape}, expected {expected}")
    if u0.size == 0:
        raise GridError(f"initial data shape {u0.shape} has no columns")
    if not np.all(np.isfinite(u0)):
        raise GridError("initial data must be finite")
    scale = np.maximum(1.0, np.max(np.abs(u0), axis=0))
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

    The step table is built once, by one `_theta_table` pass over all m+1
    levels, and factors every implicit tridiagonal once, so repeated forward
    and adjoint sweeps, and the blocked adjoint sweep of `assemble_forms`,
    reuse the same LU data; the adjoint sweeps solve the transposed systems
    from the identical factorization, which is what makes duality exact up
    to rounding.  Sweep loops make one solve per step and carry the
    right-hand side forward or chi backward (see the module docstring), so
    the explicit diagonals are read only outside them: for B_0 u^0, and in
    the whole-level passes that form backward levels, which read all m
    levels at once through `_explicit`.  Sweeps carry the interior as an
    (n-1, k) block, k = 1 for one column; whatever a sweep needs per step
    besides the recursion (source averages, adjoint forcing shares,
    observation weights) is laid out level-major, one contiguous (n-1, k)
    level per step, and formed outside its loop.  The solvers obtain
    theirs through `propagator`, which reuses a thread's last one.
    """

    def __init__(self, path: BoundaryPath, potential, cfg: SchemeConfig,
                 control_radius: float | None = None):
        _check_steps(path, cfg)
        self.path = path
        self.cfg = cfg
        n, m = cfg.n, cfg.m
        self.n, self.m = n, m
        grid = cfg.grid
        self.rho = grid.nodes
        self.h = grid.spacing
        self.dt = path.dt
        self.pot = _coerce_potential(potential, n, m)
        R = path.radii
        # (explicit diagonals, implicit factors) of each step j -> j+1, and
        # the explicit diagonals of all m steps whole, level-major: the
        # arrays each step's entries are views of
        self._steps = _theta_table(cfg, self.rho[1:-1], self.dt, R, path.slopes,
                                   self.pot[1:-1].T)
        self._explicit = tuple(diagonal.base for diagonal in self._steps[0][0])

        self.ratio = R[1:] / R[:-1]
        # the backward carry: chi_j enters the transposed solve of step j-1
        # as _lift[j] chi_j and leaves its result as _drop[j] chi_j
        self._lift = self.ratio / cfg.theta
        self._drop = self.ratio * ((1.0 - cfg.theta) / cfg.theta)
        # the chi of backward step j enters the observation at level j+1
        # with weight _obs_next[j] and at level j with _obs_here[j]: the theta
        # average of the forward source, doubled at the end levels, whose
        # half trapezoid weights the pairing divides out
        self._obs_next = np.full(m, cfg.theta)
        self._obs_next[-1] = 2.0 * cfg.theta
        self._obs_here = (1.0 - cfg.theta) * self.ratio
        self._obs_here[0] *= 2.0
        # trapezoid weights in time and space for the physical pairings
        self.tau = np.full(m + 1, self.dt)
        self.tau[0] *= 0.5
        self.tau[-1] *= 0.5
        self.space_w = np.full(n + 1, self.h)
        self.space_w[0] *= 0.5
        self.space_w[-1] *= 0.5

        self._forms = None
        self.mask = None
        if control_radius is not None:
            if not control_radius > 0:
                raise GridError(f"control radius must be positive, got {control_radius}")
            radii_nodes = np.outer(self.rho, R)          # (n+1, m+1) physical radii
            self.mask = (radii_nodes < control_radius).astype(float)

    # -- inner products in the physical measure --------------------------------

    def slice_inner(self, u, v, k: int) -> float:
        if not 0 <= k <= self.m:
            raise GridError(f"time level {k} outside 0..{self.m}")
        return float(self.path.radii[k] * np.dot(u * self.space_w, v))

    def slice_norm(self, u, k: int) -> float:
        return float(np.sqrt(max(self.slice_inner(u, u, k), 0.0)))

    def control_cost(self, obs: np.ndarray) -> float:
        """Discrete L2 norm over the control cylinder of a masked sample array."""
        per_slice = self.h * np.sum(obs * obs, axis=0)
        return float(np.sqrt(np.sum(self.tau * self.path.radii * per_slice)))

    # -- sweeps ------------------------------------------------------------------

    def _combine_source(self, source, masked, cols):
        """The source as an (n+1, m+1, k) array, masked when asked."""
        src = source.values if isinstance(source, SpaceTimeField) else np.asarray(source, dtype=float)
        if not np.all(np.isfinite(src)):
            raise GridError("source must be finite")
        expected = (self.n + 1, self.m + 1) + cols
        if src.shape != expected:
            raise GridError(f"source shape {src.shape}, expected {expected}")
        src = src.reshape(self.n + 1, self.m + 1, -1)
        if masked:
            if self.mask is None:
                raise GridError("control source given but no control radius configured")
            src = src * self.mask[:, :, None]
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
        same theta average as the operator; the averages of all m steps are
        formed before the step loop, level-major, and scaled by dt there
        too when no reaction follows.  A reaction f (any object with a value
        method) adds -r f(u/r) evaluated on the current level, lagged one
        step, so it stays in the loop: dt (average - lag) per step.

        The explicit operator is applied once, to u0; every later step's
        explicit half is carried from the solve before it (`_carry`), so a
        step is its forcing add, one gttrs, the store and the carry.
        """
        u0 = _check_initial(u0, self.n, block=True)
        cols = u0.shape[1:]
        theta = self.cfg.theta
        forcing = None
        if source is not None:
            src = self._combine_source(source, masked=(source_role == ROLE_CONTROL), cols=cols)
            forcing = _level_major(theta, src[1:-1, 1:])
            forcing += _level_major(1.0 - theta, src[1:-1, :-1])
            if reaction is None:
                forcing *= self.dt
        rho_int = self.rho[1:-1, None]
        w = np.zeros((self.n + 1, self.m + 1) + cols)
        w[:, 0] = u0
        interior = w.reshape(self.n + 1, self.m + 1, -1)[1:-1]
        x = interior[:, 0]
        rhs = _apply_explicit(self._steps[0][0], x)
        for j, (_, factors) in enumerate(self._steps):
            if reaction is not None:
                lag = _lagged_reaction(reaction, x, rho_int * self.path.radii[j])
                rhs += self.dt * (-lag if forcing is None else forcing[j] - lag)
            elif forcing is not None:
                rhs += forcing[j]
            x = _solve_implicit(factors, rhs)
            interior[:, j + 1] = x
            rhs = _carry(theta, x, rhs)
        self._require_finite("forward sweep", w)
        return w

    def _backward_steps(self, x, after=None, before=None):
        """Exact transpose steps from level m down to level 0, carrying chi.

        x is the interior final datum, an (n-1, k) block; after and before
        are the level-major forcing shares of `run_adjoint`, or None.
        Yields (j, chi) for j = m-1, ..., 0: chi solves the transposed
        implicit system of step j, A_{j+1}^T chi_j = x_{j+1} + after_j, and
        enters the observation at levels j+1 and j with the weights
        _obs_next[j] and _obs_here[j].  The backward solution at level j is
        x_j = r_j (B_j^T chi_j + before_j), r_j = R_{j+1}/R_j, and since
        B_j = (1/theta) I - ((1-theta)/theta) A_j, the next chi is

            chi_{j-1} = A_j^{-T} (r_j (chi_j/theta + before_j) + after_{j-1})
                        - r_j ((1-theta)/theta) chi_j,

        so no level is formed here; `_levels` forms x_j where a caller needs
        it.  With no forcing, r_j chi_j/theta is one product, chi_j _lift[j].
        """
        theta = self.cfg.theta
        chi = _solve_implicit(self._steps[-1][1], x if after is None else x + after[-1],
                              transposed=True)
        yield self.m - 1, chi
        for j in range(self.m - 1, 0, -1):
            if before is None:
                rhs = self._lift[j] * chi
            else:
                rhs = chi / theta
                rhs += before[j]
                rhs *= self.ratio[j]
                rhs += after[j - 1]
            below = _solve_implicit(self._steps[j - 1][1], rhs, transposed=True)
            below -= self._drop[j] * chi
            chi = below
            yield j - 1, chi

    def _levels(self, first, chis, before=None):
        """Backward levels x_j = r_j (B_j^T chi_j + before_j) of the (n-1, L, k)
        chi of levels first..first+L-1, as a new array of that shape."""
        last = first + chis.shape[1]
        explicit = tuple(d[first:last].transpose(1, 0, 2) for d in self._explicit)
        x = _apply_explicit(explicit, chis, transposed=True)
        if before is not None:
            x += before[first:last].transpose(1, 0, 2)
        x *= self.ratio[first:last, None]
        return x

    def _require_mask(self):
        if self.mask is None:
            raise GridError("observation sweep needs a control radius")

    def _require_finite(self, sweep, *arrays):
        """Finite data that sweeps to non-finite values needs a finer grid."""
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise InstabilityError(f"{sweep} produced non-finite values",
                                   suggested_nodes=2 * self.n, suggested_steps=2 * self.m)

    def run_adjoint(self, phiT, forcing=None, with_observation=False):
        """Backward sweep from the final datum phiT; exact transpose steps.

        phiT is an (n+1,) column or an (n+1, k) block, shaped and checked as
        the initial data of `run_forward`, and a forcing carries the block's
        trailing axis.  Returns the trajectory, or (trajectory, observation)
        when with_observation is set.  The observation array holds the
        masked per-node control samples of the backward solution, i.e. the
        image of phiT under the transpose of the source-to-final-state map;
        it is the HUM control candidate associated with phiT.

        The step loop stores each chi_j in the trajectory's own level j.
        After it, chunks of levels are read twice: the observation adds
        _obs_here[l] chi_l and _obs_next[l-1] chi_{l-1} at every level l,
        and the chunk's chi are then replaced by the levels x_j (`_levels`);
        the observation is masked once at the end.  No temporary is larger
        than one chunk of about _CHUNK values.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        if with_observation:
            self._require_mask()
        cols = phiT.shape[1:]
        after = before = None
        if forcing is not None:
            fsrc = self._combine_source(forcing, masked=False, cols=cols)
            theta = self.cfg.theta
            # the forcing's two theta-scaled shares of every step: after[j]
            # enters the transposed solve of step j, before[j] the level j
            after = _level_major(self.dt * (1.0 - theta), fsrc[1:-1, 1:])
            before = _level_major(self.dt * theta, fsrc[1:-1, :-1])
        phi = np.zeros((self.n + 1, self.m + 1) + cols)
        phi[:, self.m] = phiT
        trajectory = phi.reshape(self.n + 1, self.m + 1, -1)
        interior = trajectory[1:-1]
        for j, chi in self._backward_steps(interior[:, -1], after, before):
            interior[:, j] = chi
        samples = None
        if with_observation:
            obs = np.zeros_like(phi)
            samples = obs.reshape(trajectory.shape)
        span = max(1, _CHUNK // interior[:, 0].size)
        for first in range(0, self.m, span):
            last = min(first + span, self.m)
            chis = interior[:, first:last]
            if samples is not None:
                samples[1:-1, first:last] += self._obs_here[first:last, None] * chis
                samples[1:-1, first + 1:last + 1] += self._obs_next[first:last, None] * chis
            chis[...] = self._levels(first, chis, before)
        self._require_finite("backward sweep", phi)
        if samples is None:
            return phi
        samples *= self.mask[:, :, None]
        return phi, obs

    def assemble_forms(self):
        """Interior Gramian G and t = 0 slice P from one blocked adjoint sweep.

        The sweep runs on the first call only; later calls return the same
        two arrays, which are read-only.

        The sweep starts from the (n-1) x (n-1) identity block.  With O_j
        the masked observation level j of that sweep and tau_j the
        trapezoid time weights,

            G = (1/R_T) sum_j tau_j R_j O_j^T O_j,

        accumulated as soon as each level is complete, so only two levels
        are ever held; G equals the interior block of `apply_gramian`
        applied to the identity, up to rounding.  P is the sweep at t = 0,
        the one level formed from its chi, and (R_0/R_T) P^T P is the
        numerator form of the observability inequality (backward sweep,
        then free forward sweep, by duality).
        """
        self._require_mask()
        if self._forms is None:
            G, P = self._assemble_forms()
            G.setflags(write=False)
            P.setflags(write=False)
            self._forms = G, P
        return self._forms

    def _assemble_forms(self):
        ni = self.n - 1
        radii = self.path.radii
        weight = self.tau * radii / radii[-1]
        inside = self.mask[1:-1] > 0.0
        G = np.zeros((ni, ni))
        pending = np.zeros((ni, ni))      # partial observation at level j
        for j, chi in self._backward_steps(np.eye(ni)):
            done = pending + self._obs_next[j] * chi
            rows = done[inside[:, j + 1]]
            G += weight[j + 1] * (rows.T @ rows)
            pending = self._obs_here[j] * chi
        rows = pending[inside[:, 0]]
        G += weight[0] * (rows.T @ rows)
        P = self._levels(0, chi[:, None])[:, 0]
        self._require_finite("blocked backward sweep", G, P)
        return G, P

    def apply_gramian(self, phiT) -> np.ndarray:
        """Adjoint sweep, mask, forward sweep from zero data; state at T.

        phiT is an (n+1,) column or an (n+1, k) block; the result has its
        shape, and each column equals the image of that column alone, bit
        for bit.  Neither trajectory is kept: only the masked observation
        levels, on the rows the mask ever reaches (rho_i R_j < b holds on a
        prefix of rows at every level), added on those rows as the forcing
        of each forward step.  No level of the backward sweep is formed,
        and the forward sweep from zero data carries its right-hand side
        from the first step on.

        Symmetric and positive semidefinite in the L2(0, R(T)) pairing, with
        <Gramian phiT, phiT> equal to the squared control cost of the masked
        backward samples up to rounding.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        self._require_mask()
        block = phiT.reshape(self.n + 1, -1)
        inside = self.mask[1:-1]
        reach = int(np.count_nonzero(inside.any(axis=1)))
        obs = np.zeros((self.m + 1, reach, block.shape[1]))
        for j, chi in self._backward_steps(block[1:-1]):
            obs[j + 1] += self._obs_next[j] * chi[:reach]
            obs[j] += self._obs_here[j] * chi[:reach]
        obs *= inside[:reach].T[:, :, None]
        theta = self.cfg.theta
        rhs = np.zeros_like(block[1:-1])        # the explicit half of the zero datum
        for j, (_, factors) in enumerate(self._steps):
            rhs[:reach] += self.dt * _step_forcing(theta, obs[j], obs[j + 1])
            x = _solve_implicit(factors, rhs)
            rhs = _carry(theta, x, rhs)
        self._require_finite("Gramian sweeps", x)
        out = np.zeros(phiT.shape)
        out.reshape(block.shape)[1:-1] = x
        return out


# ---------------------------------------------------------------------------
# free-function wrappers

# the calling thread's last (key, Propagator) pair, as `entry`
_last = threading.local()


def propagator(path: BoundaryPath, potential, cfg: SchemeConfig,
               control_radius: float | None = None) -> Propagator:
    """The Propagator for these inputs, reusing the calling thread's last one.

    The previous Propagator this thread obtained here is returned when the
    scheme, the control radius and the bytes of the path samples and of the
    potential all equal its own; otherwise a new one is built and replaces
    it.  A reused Propagator holds exactly what a new build would hold, so
    every result stays bitwise the same.
    """
    _check_steps(path, cfg)
    pot = _coerce_potential(potential, cfg.n, cfg.m)
    radius = None if control_radius is None else float(control_radius)
    key = (cfg, radius, path.times.tobytes(), path.radii.tobytes(),
           path.slopes.tobytes(), pot.tobytes())
    entry = getattr(_last, "entry", None)
    if entry is not None and entry[0] == key:
        return entry[1]
    _last.entry = None   # never hold two at once
    prop = Propagator(path, pot, cfg, control_radius=radius)
    _last.entry = key, prop
    return prop


def solve_forward(u0, path: BoundaryPath, potential, source, cfg: SchemeConfig,
                  control_radius: float | None = None) -> SpaceTimeField:
    """Linear forward solve; returns the state trajectory as a field.

    potential and source may be None; a source field carrying the control
    role is restricted to physical radii below control_radius at every time
    level before it acts.
    """
    role = source.role if isinstance(source, SpaceTimeField) else ROLE_SOURCE
    prop = propagator(path, potential, cfg, control_radius=control_radius)
    values = prop.run_forward(u0, source=source, source_role=role)
    return SpaceTimeField(values, role=ROLE_STATE)


def solve_adjoint(phiT, path: BoundaryPath, potential, forcing, cfg: SchemeConfig) -> SpaceTimeField:
    """Backward solve from the final datum; exact transpose of solve_forward."""
    prop = propagator(path, potential, cfg)
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
    prop = propagator(path, None, cfg, control_radius=control_radius)
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
