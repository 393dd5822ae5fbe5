"""Theta-scheme solvers on the moving interval via the fixed-domain map.

With u(rho, t) the line field sampled at physical radius r = rho R(t), the
heat equation u_t - u_rr + a u = f on 0 < r < R(t) becomes

    u_t - (1/R^2) u_rhorho - (rho R'/R) u_rho + a u = f,   u(0) = u(1) = 0,

on the fixed reference interval.  One step of the theta scheme reads

    (I - theta dt L_{j+1}) u^{j+1} = (I + (1-theta) dt L_j) u^j + dt f_step,

one tridiagonal solve per step (LAPACK gttrf/gttrs, factored once per step).
One builder, `_theta_table`, forms both operators of every step in one
array pass over the levels: a `Propagator` calls it once, on all m+1
levels, and the coupled march of `stefan` on two levels per solve.

A `Propagator` sweep's step loop carries only the recursion: the explicit
apply, the add of that step's forcing level, one gttrs and the store of the
new level.  Work that does not depend on the recursion is one whole-array
operation outside the loop: the theta averages of a source (times dt) for
all m steps before it, and the observation of an adjoint sweep after it.
Each keeps the per-step arithmetic and its order, so the outputs carry the
same bits as a step-by-step evaluation.  Only a lagged reaction, which reads
the current level, is formed inside the loop.

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


def _theta_table(cfg, rho, dt, radii, slopes, pot, first=0):
    """Both operators of every theta step along L >= 2 levels, in one pass.

    rho holds the n-1 interior nodes, radii and slopes the (L,) samples R,
    R' of the levels and pot the (L, n-1) interior potential, one row per
    level.  Step j, from level j to level j+1, gets the diagonals
    (sub, diag, super) of I + (1-theta) dt L_j, each shaped (., 1) to
    broadcast down an (n-1, k) block, and the gttrf factors of
    I - theta dt L_{j+1}, with L_k = (1/R^2) d_rhorho + (rho R'/R) d_rho - a.
    Returns the (explicit, factors) pairs; step j is reported as first + j.
    """
    h = 1.0 / cfg.n
    col = radii[:, None]
    diff = 1.0 / (col * col * h * h)
    adv = rho * slopes[:, None] / (2.0 * h * col)
    lower, diag, upper = diff - adv, -2.0 * diff - pot, diff + adv
    ex, im = (1.0 - cfg.theta) * dt, cfg.theta * dt
    # one array per diagonal, not one stacked array: numpy drops the
    # interpreter lock on operands above 500 elements, a stacked operand on
    # the coupled march's two levels passes that at desk grids, and every
    # drop loses the march its share of the lock under sweep threads
    sub, dg, sup = (ex * lower[:-1, 1:, None], 1.0 + ex * diag[:-1, :, None],
                    ex * upper[:-1, :-1, None])
    dl, d, du = -im * lower[1:, 1:], 1.0 - im * diag[1:], -im * upper[1:, :-1]
    table = []
    for j in range(len(d)):
        # the implicit rows are scratch, so gttrf factors them in place
        dlf, df, duf, du2, ipiv, info = _gttrf(dl[j], d[j], du[j], 1, 1, 1)
        if info != 0:
            raise InstabilityError(f"implicit step {first + j} is singular (gttrf info={info})",
                                   suggested_nodes=2 * cfg.n, suggested_steps=2 * cfg.m)
        table.append(((sub[j], dg[j], sup[j]), (dlf, df, duf, du2, ipiv)))
    return table


def _apply_explicit(explicit, x, transposed=False):
    """Explicit operator (or its transpose) on an (n-1, k) block."""
    sub, dg, sup = explicit
    if transposed:
        sub, sup = sup, sub
    y = dg * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


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


def _implicit_step(factors, base, dt, extra=None):
    """Level j+1 from base, the explicit half of step j applied to level j."""
    if extra is not None:
        base = base + dt * extra
    return _solve_implicit(factors, base)


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
    from the identical factorization, which is what makes duality exact.
    Sweeps carry the interior as an (n-1, k) block, k = 1 for one column;
    whatever a sweep needs per step besides the recursion (source averages,
    adjoint forcing shares, observation weights) is laid out level-major,
    one contiguous (n-1, k) level per step, and formed outside its loop.
    The solvers obtain theirs through `propagator`, which reuses a thread's
    last one.
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
        # (explicit diagonals, implicit factors) of each step j -> j+1
        self._steps = _theta_table(cfg, self.rho[1:-1], self.dt, R, path.slopes,
                                   self.pot[1:-1].T)

        self.ratio = R[1:] / R[:-1]
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
        """
        u0 = _check_initial(u0, self.n, block=True)
        cols = u0.shape[1:]
        forcing = None
        if source is not None:
            src = self._combine_source(source, masked=(source_role == ROLE_CONTROL), cols=cols)
            theta = self.cfg.theta
            forcing = _level_major(theta, src[1:-1, 1:])
            forcing += _level_major(1.0 - theta, src[1:-1, :-1])
            if reaction is None:
                forcing *= self.dt
        rho_int = self.rho[1:-1, None]
        w = np.zeros((self.n + 1, self.m + 1) + cols)
        w[:, 0] = u0
        trajectory = w.reshape(self.n + 1, self.m + 1, -1)
        x = trajectory[1:-1, 0].copy()
        for j, (explicit, factors) in enumerate(self._steps):
            base = _apply_explicit(explicit, x)
            if reaction is not None:
                lag = _lagged_reaction(reaction, x, rho_int * self.path.radii[j])
                base += self.dt * (-lag if forcing is None else forcing[j] - lag)
            elif forcing is not None:
                base += forcing[j]
            x = _solve_implicit(factors, base)
            trajectory[1:-1, j + 1] = x
        self._require_finite("forward sweep", w)
        return w

    def _backward_steps(self, x, fsrc=None):
        """Exact transpose steps from level m down to level 0.

        x is the interior final datum, an (n-1, k) block, and fsrc an
        (n+1, m+1, k) forcing or None.  Yields (j, chi, x_j) for
        j = m-1, ..., 0: chi solves the transposed implicit system of step
        j and enters the observation at levels j+1 and j with the weights
        _obs_next[j] and _obs_here[j]; x_j is the backward solution at level
        j.  Level j+1 is complete once step j is yielded.  The forcing's
        two theta-scaled shares of every step are formed before the loop,
        level-major, so each step adds one precomputed level on each side
        of its solve.
        """
        after = before = None
        if fsrc is not None:
            theta = self.cfg.theta
            after = _level_major(self.dt * (1.0 - theta), fsrc[1:-1, 1:])
            before = _level_major(self.dt * theta, fsrc[1:-1, :-1])
        for j in range(self.m - 1, -1, -1):
            explicit, factors = self._steps[j]
            chi = _solve_implicit(factors, x if after is None else x + after[j],
                                  transposed=True)
            x = _apply_explicit(explicit, chi, transposed=True)
            if before is not None:
                x += before[j]
            x *= self.ratio[j]
            yield j, chi, x

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
        it is the HUM control candidate associated with phiT.  The step
        loop only stores each chi, level-major; the observation is formed
        after it in two whole-array adds, _obs_here[l] chi_l before
        _obs_next[l-1] chi_{l-1} at every level l (the order in which a
        step-by-step accumulation adds them), and masked once.
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
        trajectory = phi.reshape(self.n + 1, self.m + 1, -1)
        final = trajectory[1:-1, -1].copy()
        chis = np.empty((self.m,) + final.shape) if with_observation else None
        for j, chi, x in self._backward_steps(final, fsrc):
            trajectory[1:-1, j] = x
            if chis is not None:
                chis[j] = chi
        self._require_finite("backward sweep", phi)
        if chis is None:
            return phi
        obs = np.zeros_like(phi)
        samples = obs.reshape(trajectory.shape)
        levels = samples[1:-1].transpose(1, 0, 2)          # (m+1, n-1, k) view
        levels[:-1] += self._obs_here[:, None, None] * chis
        levels[1:] += self._obs_next[:, None, None] * chis
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
        and (R_0/R_T) P^T P is the numerator form of the observability
        inequality (backward sweep, then free forward sweep, by duality).
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
        for j, chi, x in self._backward_steps(np.eye(ni)):
            done = pending + self._obs_next[j] * chi
            rows = done[inside[:, j + 1]]
            G += weight[j + 1] * (rows.T @ rows)
            pending = self._obs_here[j] * chi
        rows = pending[inside[:, 0]]
        G += weight[0] * (rows.T @ rows)
        self._require_finite("blocked backward sweep", G, x)
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
        block = phiT.reshape(self.n + 1, -1)
        inside = self.mask[1:-1]
        reach = int(np.count_nonzero(inside.any(axis=1)))
        obs = np.zeros((self.m + 1, reach, block.shape[1]))
        for j, chi, _ in self._backward_steps(block[1:-1].copy()):
            obs[j + 1] += self._obs_next[j] * chi[:reach]
            obs[j] += self._obs_here[j] * chi[:reach]
        obs *= inside[:reach].T[:, :, None]
        theta = self.cfg.theta
        x = np.zeros_like(block[1:-1])
        extra = np.zeros_like(x)
        for j, (explicit, factors) in enumerate(self._steps):
            extra[:reach] = _step_forcing(theta, obs[j], obs[j + 1])
            x = _implicit_step(factors, _apply_explicit(explicit, x), self.dt, extra)
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
