"""Theta-scheme solvers on the moving interval via the fixed-domain map.

With u(rho, t) the line field sampled at physical radius r = rho R(t), the
heat equation u_t - u_rr + a u = f on 0 < r < R(t) becomes

    u_t - (1/R^2) u_rhorho - (rho R'/R) u_rho + a u = f,   u(0) = u(1) = 0,

on the fixed reference interval.  One step of the theta scheme reads

    (I - theta dt L_{j+1}) u^{j+1} = (I + (1-theta) dt L_j) u^j + dt f_step,

with the implicit operator A_k = I - theta dt L_k factored once per level
(LAPACK gttrf) and one solve per step: gttrs with those factors for one
column and for every transposed solve, gtsv on the raw rows of A_k for an
untransposed block of columns (`_solve_implicit`), the same arithmetic bit
for bit.  `_stencil` forms L_k on every level in one array pass,
`_explicit_diagonals`, `_implicit_rows` and `_implicit_factors` turn it
into the operators, and the coupled march of `stefan` builds one level at a
time and solves it with gtsv, which factors as it solves.

The two operators of a level share L_k, so B_k = I + (1-theta) dt L_k is
exactly (1/theta) I - ((1-theta)/theta) A_k, and no sweep applies B as an
operator inside its loop.  A forward sweep applies B_0 to u^0 only; once
step j has solved A_{j+1} u^{j+1} = rhs_j, the explicit half of step j+1
is (u^{j+1} - (1-theta) rhs_j) / theta (`_carry`), so each step is one
forcing add, one solve and that carry.  A backward sweep carries
the transposed solve's unknown chi the same way, and B^T is applied only
where a caller needs a backward level itself, in whole-array passes after
the loop.  This is the same theta scheme; outputs differ from applying B at
every step only by rounding, and not at all at theta = 1, where B = I.

Every forward sweep runs one step loop (`_forward_steps`): a plain sweep,
one under a source or a control, with or without a lagged reaction, and
the forward half of a Gramian apply.  Work that does not depend on the
recursion is done in whole-array passes, not per step: a source's theta
averages (times dt) one chunk of levels at a time, in the pass that also
multiplies a control by the control indicator (`domain._control_indicator`),
the one place a forward sweep applies it; the levels of an adjoint sweep
after its loop; and its masked observation once per chunk of levels.  Only
a lagged reaction, which reads the current level, is formed at every step.
The backward sweep of the interior unit block, the unit sweep, gives G and
P (`assemble_forms`) and the unit observation levels that the Gramian
oracles push through one blocked forward sweep.

The backward solver applies the exact transpose of each forward step, scaled
by R_{j+1}/R_j so that adjacent time levels pair in the physical measure
R(t) drho.  Consequently the discrete duality identity

    <forward(u0)(T), phiT>_{L2(0,R(T))} = <u0, adjoint(phiT)(0)>_{L2(0,R(0))}

holds to rounding error, and the control Gramian built from these sweeps is
symmetric positive semidefinite by construction.  The transposed advection
plus the radius-ratio factor is a consistent discretization of the
continuous backward equation -phi_t - phi_rr + a phi = F on the moving
domain, so nothing is lost against the analytical adjoint.

`propagator` hands a thread back its previous `Propagator` when the path,
the potential, the control radius and the scheme are bitwise equal, so an
epsilon ladder and its replays share one build and one Gramian assembly.
The control radius is not part of the operators: when only it differs,
the new Propagator shares the previous one's operators and their
`_UnitSweep`.  What a unit sweep leaves behind follows one rule.  Per
operator set: P, the free images of P's columns and, when its m(n-1)^2
values fit _KEEP_LEVELS, the sweep's chi, from which every later pass over
the unit levels, at any radius, slices its chunks with no backward solve;
beside them, the raw implicit rows once a blocked forward sweep needs them.
Per radius: the mask, its reach and the forms, set by whichever pass over
the unit levels runs first.  Nothing else is kept; _CHUNK only sizes the
passes.  So a radius ladder on one path costs one build, one P, one free
forward sweep of P's columns and, within _KEEP_LEVELS, one unit sweep.

A wide backward block swept step by step, the unit sweep of a grid past
_KEEP_LEVELS above all, uses a second core: a block of at least
_SPLIT_COLUMNS columns, in a process that may run on two CPUs, is swept as
two column halves, one on a module-level helper thread, which scipy's
gttrs lets run beside the caller since it releases the interpreter lock
(`Propagator._chi_chunks`).  gttrs solves column by column and the rest of
a backward step is elementwise, so every output keeps its bits; the
forward sweeps, the kept chi and `run_adjoint` run on the calling thread
alone.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
    _control_indicator,
    _line_norm,
    _trapezoid_weights,
    checked_values,
    require_integer,
)
from .errors import (
    FieldRoleError,
    GridError,
    InstabilityError,
)

_gttrf, _gttrs, _gtsv = get_lapack_funcs(("gttrf", "gttrs", "gtsv"), (np.zeros(2),))

# values per chunk of the whole-level passes of a sweep
_CHUNK = 1 << 15

# most values, m(n-1)^2, of the unit sweep's chi that an operator set
# keeps for its later passes: 65 536 values, 512 KiB; 30x60 needs 50 460,
# 32x64 61 504 and 64x128 508 032
_KEEP_LEVELS = 1 << 16

# fewest columns of a swept backward block that `_chi_chunks` splits into
# two halves, one on the helper thread.  On a 2-vCPU host a split unit pass
# took 1.5 times as long at 48x96 (47 columns), about as long at 60x120,
# and 0.85 and 0.68 times as long at 100x200 and 150x300: narrower halves
# cost more in hand-offs than they save
_SPLIT_COLUMNS = 60

# the helper thread of a split sweep, created on first use
_helper = None
_helper_lock = threading.Lock()


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


def _implicit_rows(cfg, dt, lower, diag, upper):
    """(dl, d, du) of I - theta dt L_k on each level of a stencil, one
    contiguous row per level (C-ordered arrays, whatever diag's layout)."""
    im = cfg.theta * dt
    return -im * lower[:, 1:], np.subtract(1.0, im * diag, order="C"), -im * upper[:, :-1]


def _implicit_factors(cfg, rows):
    """gttrf factors of the implicit rows (dl, d, du) of `_implicit_rows`,
    one level per row; the level in row j closes step j.  gttrf factors
    each contiguous row in place, so the rows become the factors."""
    factors = []
    for j, (dl, d, du) in enumerate(zip(*rows)):
        dlf, df, duf, du2, ipiv, info = _gttrf(dl, d, du, 1, 1, 1)
        if info != 0:
            raise InstabilityError(f"implicit step {j} is singular (gttrf info={info})",
                                   suggested_nodes=2 * cfg.n, suggested_steps=2 * cfg.m)
        factors.append((dlf, df, duf, du2, ipiv))
    return factors


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


def _solve_implicit(system, rhs, transposed=False):
    """Implicit solve for an (n-1, k) block.

    system is a level's five gttrf factors, solved with gttrs, or, for an
    untransposed solve only, its three raw rows (dl, d, du) of
    `_implicit_rows`, solved with gtsv.  gtsv does the arithmetic of gttrf
    then gttrs, bit for bit, but eliminates row by row across all k
    columns, where gttrs substitutes one column at a time; it pays for
    blocks, and for a level whose factors would be used once.
    """
    if len(system) == 3:
        *_, out, info = _gtsv(*system, rhs)
        routine = "gtsv"
    else:
        out, info = _gttrs(*system, rhs, trans=b"T" if transposed else b"N")
        routine = "gttrs"
    if info != 0:
        raise InstabilityError(f"tridiagonal solve failed ({routine} info={info})")
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


def _radial_profile(u, rho_int, radius):
    """(z, r): z = u/r of interior line-field rows u at the physical radii
    r = rho_int radius, with rho_int the (n-1, 1) interior nodes and radius
    one level's R or the (m+1,) radii of a whole (n-1, m+1) field."""
    r = rho_int * radius
    return u / r, r


def _lagged_reaction(nonlinearity, x, rho_int, radius):
    """r f(u/r) on an (n-1, k) interior block of the level with radius R."""
    z, r = _radial_profile(x, rho_int, radius)
    return r * nonlinearity.value(z)


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
    return checked_values(potential, "potential", (n + 1, m + 1))


def _check_initial(u0, n, block=False):
    """Initial or final data: an (n+1,) column or, with block set, an
    (n+1, k) block of columns; every entry must be finite and every column
    must vanish at both endpoints."""
    blocked = block and np.ndim(u0) > 1
    return checked_values(u0, "initial data", (n + 1, None) if blocked else (n + 1,),
                          endpoints=True, block=blocked)


def _usable_cpus():
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _helper_pool():
    """The one-worker executor of split sweeps, shared by every thread."""
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="stefanlab-sweep")
        return _helper


def _advance(steps, ring, span):
    """Run a `_backward_steps` generator down to its next step j that span
    divides, writing the first rows of each chi into ring[j % span];
    returns that step's (j, chi)."""
    rows = ring.shape[1]
    for j, chi in steps:
        ring[j % span] = chi[:rows]
        if not j % span:
            return j, chi


def _next_chunk(halves, span):
    """`_advance` on every (steps, ring) pair of a sweep's column halves;
    (j, chi) with chi the halves' chi joined in column order.

    With two halves the helper thread advances the first, in a copy of the
    caller's context (so its np.errstate holds there too), while the
    caller advances the second; the caller waits for the helper before it
    returns or re-raises, so no helper work outlives the chunk.
    """
    if len(halves) == 1:
        return _advance(*halves[0], span)
    (first, first_ring), (second, second_ring) = halves
    future = _helper_pool().submit(contextvars.copy_context().run,
                                   _advance, first, first_ring, span)
    try:
        j, chi = _advance(second, second_ring, span)
    finally:
        wait((future,))
    # gttrs leaves chi column-major, and so does the join of two such halves
    return j, np.concatenate((future.result()[1], chi), axis=1)


class _UnitSweep:
    """What one operator set forms whatever the control radius, shared by
    every Propagator of those operators, None until formed: from the unit
    sweep, the read-only t = 0 slice P, free final states of P's columns
    (`_unit_gramian`) and chis, the (m, n-1, n-1) chi_j in row j, kept when
    m(n-1)^2 is at most _KEEP_LEVELS (`_chi_chunks`); and the raw implicit
    rows of `_blocked_systems`."""

    __slots__ = ("P", "free", "chis", "rows")

    def __init__(self):
        self.P = self.free = self.chis = self.rows = None


class Propagator:
    """Precomputed step operators for one (path, potential, scheme) triple.

    The operators are built once, from one `_stencil` pass over all m+1
    levels, and every implicit tridiagonal is factored once, so repeated
    forward and adjoint sweeps, and the blocked adjoint sweep of
    `assemble_forms`, reuse the same LU data; the adjoint sweeps solve the
    transposed systems from the identical factorization, which is what makes
    duality exact up to rounding.  Sweeps carry the right-hand side forward
    and chi backward (see the module docstring), so the explicit diagonals
    `_explicit` are read only outside their loops, and the interior as an
    (n-1, k) block, k = 1 for one column; whatever a sweep
    needs per step besides the recursion (source averages, adjoint forcing
    shares, observation weights) is laid out level-major, one (n-1, k)
    level per step, and formed outside its loop.  The solvers obtain
    theirs through `propagator`, which reuses a thread's last one.

    A build keeps only the factors; forward sweeps of more than one
    column solve with gtsv on raw rows formed again (`_blocked_systems`).

    The control radius sets only the mask, its reach and the forms.
    `propagator` derives the Propagator of another radius from this one
    (`_with_radius`), sharing the operators and their `_UnitSweep`
    instead of building them again; the module docstring gives the one
    rule for what a unit sweep leaves behind.
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
        # step j, from level j to level j+1, applies the explicit diagonals
        # of level j (level-major, one (m, ., 1) array per diagonal) and
        # solves with the gttrf factors (gttrs) of I - theta dt L_{j+1}, or
        # with its raw rows (gtsv, `_blocked_systems`)
        lower, diag, upper = _stencil(cfg, self.rho[1:-1], R, path.slopes, self.pot[1:-1].T)
        self._explicit = _explicit_diagonals(cfg, self.dt, lower[:-1], diag[:-1], upper[:-1])
        self._factors = _implicit_factors(
            cfg, _implicit_rows(cfg, self.dt, lower[1:], diag[1:], upper[1:]))

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
        self.tau = _trapezoid_weights(m + 1, self.dt)
        self.space_w = _trapezoid_weights(n + 1, self.h)
        self._unit = _UnitSweep()
        self._set_radius(control_radius)

    def _set_radius(self, control_radius):
        """The per-radius part: the mask, its reach, and no forms yet."""
        self._forms = None
        self.mask = None
        self._reach = 0
        if control_radius is not None:
            if not control_radius > 0:
                raise GridError(f"control radius must be positive, got {control_radius}")
            self.mask = _control_indicator(self.rho, self.path.radii, control_radius)   # (n+1, m+1)
            # rho_i R_j < b holds on a prefix of rows at every level: the
            # interior rows the mask ever reaches
            self._reach = int(np.count_nonzero(self.mask[1:-1].any(axis=1)))

    def _with_radius(self, control_radius) -> "Propagator":
        """The Propagator of these operators for another control radius.

        It shares this one's operators and `_UnitSweep`, builds nothing,
        and refuses a radius the constructor refuses, with its message.
        """
        other = object.__new__(Propagator)
        # every attribute but the per-radius ones, which _set_radius resets
        other.__dict__.update(self.__dict__)
        other._set_radius(control_radius)
        return other

    # -- inner products in the physical measure --------------------------------

    def _slice(self, name, u, k: int):
        if not 0 <= k <= self.m:
            raise GridError(f"time level {k} outside 0..{self.m}")
        return checked_values(u, f"slice vector {name}", (self.n + 1,))

    def slice_inner(self, u, v, k: int) -> float:
        u, v = self._slice("u", u, k), self._slice("v", v, k)
        return float(self.path.radii[k] * np.dot(u * self.space_w, v))

    def slice_norm(self, u, k: int) -> float:
        return _line_norm(self._slice("u", u, k), self.path.radii[k], self.space_w)

    def control_cost(self, obs: np.ndarray) -> float:
        """Discrete L2 norm over the control cylinder of a masked sample array."""
        obs = checked_values(obs, "control samples", (self.n + 1, self.m + 1))
        per_slice = self.h * np.sum(obs * obs, axis=0)
        return float(np.sqrt(np.sum(self.tau * self.path.radii * per_slice)))

    # -- sweeps ------------------------------------------------------------------

    def _checked_source(self, source, control, cols):
        """The checked source as an (n+1, m+1, k) array; a control source
        needs a control radius.  No mask is applied here."""
        src = checked_values(source, "control source" if control else "source",
                             (self.n + 1, self.m + 1) + cols)
        if control and self.mask is None:
            raise GridError("control source given but no control radius configured")
        return src.reshape(self.n + 1, self.m + 1, -1)

    def run_forward(self, u0, source=None, source_role: str = ROLE_SOURCE,
                    reaction=None) -> np.ndarray:
        """Forward sweep; returns the (n+1, m+1) trajectory array.

        u0 is an (n+1,) column or an (n+1, k) block of columns; a block
        gives an (n+1, m+1, k) trajectory whose column i equals the sweep of
        u0[:, i] alone, bit for bit, and a source must then carry the same
        trailing axis.  A control source is multiplied by the indicator of
        rho_i R(t_j) < control_radius, any other applied as given; sources
        are sampled on time nodes and enter each step through the theta
        average.  A reaction f (any object with a value method) adds
        -r f(u/r) on the current level, lagged one step.  The steps are
        those of `_forward_steps`, from B_0 u0.
        """
        u0 = _check_initial(u0, self.n, block=True)
        cols = u0.shape[1:]
        control = source_role == ROLE_CONTROL
        levels = None
        if source is not None:
            levels = self._checked_source(source, control, cols)[1:-1].transpose(1, 0, 2)
        w = np.zeros((self.n + 1, self.m + 1) + cols)
        w[:, 0] = u0
        interior = w.reshape(self.n + 1, self.m + 1, -1)[1:-1]
        x = interior[:, 0]
        rhs = _apply_explicit(tuple(d[0] for d in self._explicit), x)
        for j, x in enumerate(self._forward_steps(rhs, levels, control, reaction, x), 1):
            interior[:, j] = x
        self._require_finite("forward sweep", w)
        return w

    def _forward_steps(self, rhs, source=None, control=False, reaction=None, x=None):
        """The forward step loop; yields x, the interior of level j, for
        j = 1..m in turn.  rhs, the (n-1, K) explicit half of the interior
        initial data (zeros for zero data), is overwritten.  A source is
        level-major, (m+1, rows, k), and forces the first rows rows of the
        first k columns; its dt theta averages are formed one chunk of
        about _CHUNK values at a time, in the arithmetic of `_step_forcing`,
        and with control set that pass multiplies it by the indicator first.
        A reaction leaves the averages unscaled and adds dt (average - lag)
        per step, the lag r f(u/r) read on x, the current level.  A block
        of more than one column solves with gtsv on the raw rows, a single
        column with gttrs on the factors (see `_solve_implicit`).
        """
        theta, m, dt = self.cfg.theta, self.m, self.dt
        systems = self._blocked_systems() if rhs.shape[1] > 1 else self._factors
        rho_int, radii = self.rho[1:-1, None], self.path.radii
        span, avg = m, None
        if source is not None:
            rows, k = source.shape[1:]
            head = rhs[:rows, :k]                # _carry keeps rhs in place
            span = max(1, _CHUNK // max(1, rows * k))
            mask = self.mask[1:rows + 1].T[:, :, None] if control else None
        for first in range(0, m, span):
            count = min(span, m - first)
            if source is not None:
                # level-major whatever the source's layout: one contiguous
                # (rows, k) block per step
                levels = source[first:first + count + 1]
                if control:
                    levels = np.multiply(levels, mask[first:first + count + 1], order="C")
                avg = np.multiply(theta, levels[1:], order="C")
                avg += (1.0 - theta) * levels[:-1]
                if reaction is None:
                    avg *= dt
            for j in range(first, first + count):
                if reaction is not None:
                    lag = _lagged_reaction(reaction, x, rho_int, radii[j])
                    rhs += dt * (-lag if avg is None else avg[j - first] - lag)
                elif avg is not None:
                    head += avg[j - first]
                x = _solve_implicit(systems[j], rhs)
                rhs = _carry(theta, x, rhs)
                yield x

    def _blocked_systems(self):
        """The raw implicit rows of every step, as gtsv takes them, formed
        in the build's arithmetic once per operator set, shared like P."""
        unit = self._unit
        if unit.rows is None:
            radii, slopes = self.path.radii[1:], self.path.slopes[1:]
            stencil = _stencil(self.cfg, self.rho[1:-1], radii, slopes, self.pot[1:-1, 1:].T)
            unit.rows = list(zip(*_implicit_rows(self.cfg, self.dt, *stencil)))
        return unit.rows

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
        chi = _solve_implicit(self._factors[-1], x if after is None else x + after[-1],
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
            below = _solve_implicit(self._factors[j - 1], rhs, transposed=True)
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

    def run_adjoint(self, phiT, forcing=None):
        """Backward sweep from the final datum phiT; exact transpose steps.

        phiT is an (n+1,) column or an (n+1, k) block, shaped and checked as
        the initial data of `run_forward`, and a forcing carries the block's
        trailing axis.  Returns the trajectory.  The step loop stores each
        chi_j in the trajectory's own level j; after it, chunks of about
        _CHUNK values are replaced by the levels x_j (`_levels`).  A caller
        that needs only the control samples of the sweep uses
        `run_observation`, which forms no level.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        cols = phiT.shape[1:]
        after = before = None
        if forcing is not None:
            fsrc = self._checked_source(forcing, False, cols)
            theta = self.cfg.theta
            # the forcing's two theta-scaled shares of every step: after[j]
            # enters the transposed solve of step j, before[j] the level j
            after = _level_major(self.dt * (1.0 - theta), fsrc[1:-1, 1:])
            before = _level_major(self.dt * theta, fsrc[1:-1, :-1])
        phi = np.zeros((self.n + 1, self.m + 1) + cols)
        phi[:, self.m] = phiT
        interior = phi.reshape(self.n + 1, self.m + 1, -1)[1:-1]
        for j, chi in self._backward_steps(interior[:, -1], after, before):
            interior[:, j] = chi
        span = max(1, _CHUNK // interior[:, 0].size)
        for first in range(0, self.m, span):
            chis = interior[:, first:min(first + span, self.m)]
            chis[...] = self._levels(first, chis, before)
        self._require_finite("backward sweep", phi)
        return phi

    def run_observation(self, phiT):
        """Masked control samples of the backward sweep from phiT.

        phiT is an (n+1,) column or an (n+1, k) block, shaped and checked as
        in `run_adjoint`; the result is (n+1, m+1), or (n+1, m+1, k) for a
        block.  It holds the masked per-node control samples of the backward
        solution, the HUM control candidate of phiT: `_observation` on every
        interior row, so every entry, the signed zeros outside the control
        region included, carries the bits of the per-step accumulation.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        self._require_mask()
        levels = self._observation(phiT.reshape(self.n + 1, -1)[1:-1], self.n - 1)
        self._require_finite("observation sweep", levels)
        obs = np.zeros((self.n + 1, self.m + 1) + phiT.shape[1:])
        obs.reshape(self.n + 1, self.m + 1, -1)[1:-1] = levels.transpose(1, 0, 2)
        return obs

    def _observation_chunks(self, x, rows):
        """Masked observation levels of the backward sweep from the interior
        (n-1, k) block x, on its first `rows` rows, one chunk of about
        _CHUNK values at a time; x None stands for the interior unit block.

        Once a chunk's chi are in (`_chi_chunks`), one pass per weight adds
        _obs_here[l] chi_l and _obs_next[l-1] chi_{l-1} into the zeroed
        levels through one product buffer, so every level is the
        zero-started sum of its two products, bit for bit as accumulating
        them step by step gives it, whatever the chunk size; the mask
        multiplies each level once it is complete.  Yields (first, levels,
        chi) from the top chunk down: levels is the (L, rows, k) view of the
        complete levels first .. first+L-1, valid until the next chunk, and
        chi the whole chi of the chunk's lowest step, chi_0 for the last
        chunk, which completes level 0 too.
        """
        m = self.m
        k = self.n - 1 if x is None else x.shape[1]
        span = max(1, _CHUNK // max(1, rows * k))
        product = np.empty((min(span, m), rows, k))
        # levels j .. j+count of the chunk of steps j .. j+count-1; a lower
        # chunk's top level is the chunk above's bottom one, which is still
        # waiting for its _obs_next share
        levels = np.zeros((len(product) + 1, rows, k))
        for j, chis, chi in self._chi_chunks(x, rows, span):
            count = len(chis)
            part = product[:count]
            np.multiply(self._obs_here[j:j + count, None, None], chis, out=part)
            levels[:count] += part
            np.multiply(self._obs_next[j:j + count, None, None], chis, out=part)
            levels[1:count + 1] += part
            first = j + 1 if j else 0
            done = levels[first - j:count + 1]
            done *= self.mask[1:rows + 1, first:j + count + 1].T[:, :, None]
            yield first, done, chi
            if j:
                levels[span] = levels[0]
                levels[:span] = 0.0

    def _chi_chunks(self, x, rows, span):
        """(j, chis, chi) of the backward sweep from x, as `_observation_chunks`
        takes them, one chunk of span steps at a time from the top down:
        chis is the (L, rows, k) first rows of chi_j .. chi_{j+L-1}, valid
        until the next chunk, and chi the whole chi_j.

        A sweep keeps its chunk in a ring.  The chi of the unit block are
        `_UnitSweep.chis` when its operator set keeps them, sliced with no
        per-step work; the first unit sweep of a set whose m(n-1)^2 values
        fit _KEEP_LEVELS runs whole and keeps them.

        A swept block of at least _SPLIT_COLUMNS columns, in a process that
        may run on two CPUs or more, is swept as two column halves, one
        chunk at a time, the first on the helper thread (`_next_chunk`),
        each writing its own columns of the ring.  gttrs solves each column
        on its own, and every other step of `_backward_steps` is elementwise,
        so each half carries the bits of its columns in the whole block, and
        the joined chi is column-major, as gttrs leaves a whole one.
        """
        m, ni, unit = self.m, self.n - 1, self._unit
        if x is None and unit.chis is None and m * ni * ni <= _KEEP_LEVELS:
            chis = np.empty((m, ni, ni))
            for j, chi in self._backward_steps(np.eye(ni)):
                chis[j] = chi
            chis.setflags(write=False)
            unit.chis = chis
        if x is None and unit.chis is not None:
            for j in range(m - 1 - (m - 1) % span, -1, -span):
                yield j, unit.chis[j:j + span, :rows], unit.chis[j]
            return
        x = np.eye(ni) if x is None else x
        k = x.shape[1]
        ring = np.empty((min(span, m), rows, k))
        cuts = [slice(None)]
        if k >= _SPLIT_COLUMNS and _usable_cpus() > 1:
            cuts = [slice(None, k // 2), slice(k // 2, None)]
        halves = [(self._backward_steps(x[:, cut]), ring[:, :, cut]) for cut in cuts]
        j = m
        while j:
            j, chi = _next_chunk(halves, span)
            yield j, ring[:min(span, m - j)], chi

    def _unit_chunks(self):
        """`_observation_chunks` of the interior unit block on the rows the
        mask reaches.  A pass that runs while the forms are unset sets them
        (see `assemble_forms`), whichever caller asked for the levels."""
        forming = self._forms is None
        if forming:
            radii = self.path.radii
            weight = self.tau * radii / radii[-1]
            # the mask covers a prefix of rows at every level: its length per level
            inside = np.count_nonzero(self.mask[1:-1], axis=0)
            G = np.zeros((self.n - 1, self.n - 1))
        for first, levels, chi in self._observation_chunks(None, self._reach):
            if forming:
                for level in range(first + len(levels) - 1, first - 1, -1):
                    rows = levels[level - first, :inside[level]]
                    G += weight[level] * (rows.T @ rows)
            yield first, levels, chi
        if forming:
            unit = self._unit
            if unit.P is None:
                # P, the unit sweep at t = 0, from its chi_0 laid out
                # column-major, as gttrs leaves it: products with P follow
                # its layout, so a kept chi_0 gives them the bits of a swept one
                unit.P = self._levels(0, np.asfortranarray(chi)[:, None])[:, 0]
                unit.P.setflags(write=False)
            self._require_finite("blocked backward sweep", G, unit.P)
            G.setflags(write=False)
            self._forms = G, unit.P

    def _observation(self, x, rows):
        """The levels of `_observation_chunks` as one (m+1, rows, k) array;
        x None takes the unit levels on the reach rows from `_unit_chunks`."""
        obs = np.empty((self.m + 1, rows, self.n - 1 if x is None else x.shape[1]))
        chunks = self._unit_chunks() if x is None else self._observation_chunks(x, rows)
        for first, levels, _ in chunks:
            obs[first:first + len(levels)] = levels
        return obs

    def assemble_forms(self):
        """Interior Gramian G and t = 0 slice P from one blocked adjoint sweep,
        the unit sweep; every call returns the same two read-only arrays.

        The sweep starts from the (n-1) x (n-1) identity block.  With O_j
        the masked observation level j of that sweep and tau_j the
        trapezoid time weights,

            G = (1/R_T) sum_j tau_j R_j O_j^T O_j,

        accumulated from level m down, one level at a time, as each chunk of
        levels of `_unit_chunks` completes, and only on the rows the mask
        reaches at that level: no other row enters G.  G equals the
        interior block of `apply_gramian` applied to the identity, up to
        rounding.  P is the sweep at t = 0, the one level formed from its
        chi, and (R_0/R_T) P^T P is the numerator form of the observability
        inequality (backward sweep, then free forward sweep, by duality).
        """
        self._require_mask()
        if self._forms is None:
            for _ in self._unit_chunks():
                pass
        return self._forms

    def free_final(self, u0) -> np.ndarray:
        """The free state at T, the last level of `run_forward(u0)`, by duality.

        u0 is an (n+1,) column, checked before the forms are assembled.
        Column i of the t = 0 slice P of `assemble_forms` is the backward
        sweep of the interior unit datum e_i, so the duality identity gives
        R_T y(T)_i = R_0 (P^T u0)_i on interior nodes: one product against
        the assembled P, equal to the forward sweep up to rounding.  Needs
        a control radius, as `assemble_forms` does.
        """
        u0 = _check_initial(u0, self.n)
        _, P = self.assemble_forms()
        radii = self.path.radii
        return np.pad((radii[0] / radii[-1]) * (P.T @ u0[1:-1]), 1)

    def apply_gramian(self, phiT) -> np.ndarray:
        """Observation sweep, then forward sweep from zero data; state at T.

        phiT is an (n+1,) column or an (n+1, k) block; the result has its
        shape, and each column equals the image of that column alone, bit
        for bit.  Neither trajectory is kept: the observation sweep
        (`_observation`, on the rows the mask reaches) applies the control
        indicator once, and the forward steps of `run_forward` from zero
        data, under those levels as control, once more, as G has it.

        Symmetric and positive semidefinite in the L2(0, R(T)) pairing, with
        <Gramian phiT, phiT> equal to the squared control cost of the masked
        backward samples up to rounding.
        """
        phiT = _check_initial(phiT, self.n, block=True)
        self._require_mask()
        block = phiT.reshape(self.n + 1, -1)
        out = np.zeros(phiT.shape)
        out.reshape(block.shape)[1:-1] = self._gramian_images(
            self._observation(block[1:-1], self._reach))
        return out

    def _gramian_images(self, obs, free=None):
        """Interior states at T, (n-1, k + f): of k columns from zero data
        under the masked observation levels obs, (m+1, reach, k), as their
        control, then of the f columns of the interior data free, if given,
        swept free; one blocked sweep of `_forward_steps`."""
        rhs = np.zeros((self.n - 1, obs.shape[2]))   # the explicit half of zero data
        if free is not None:
            rhs = np.concatenate(
                (rhs, _apply_explicit(tuple(d[0] for d in self._explicit), free)), axis=1)
        for x in self._forward_steps(rhs, obs, control=True):
            pass
        self._require_finite("Gramian sweeps", x)
        return x

    def _unit_gramian(self, with_free=False):
        """Interior Gramian images of the interior unit columns then, with
        with_free set, the free final states of the columns of P: one
        (n-1, n-1 [+ n-1]) C-ordered array from one blocked forward sweep,
        each column bitwise its own `apply_gramian` or `run_forward`.

        The unit levels come from one pass of `_unit_chunks`, which sets
        the forms if they are unset.  The free final states of P's columns
        are swept once per operator set and kept, since they do not depend
        on the radius; a later call sweeps only the Gramian columns, each
        column keeping its bits in a narrower block.
        """
        self._require_mask()
        unit = self._unit
        obs = self._observation(None, self._reach)
        if not with_free:
            return np.ascontiguousarray(self._gramian_images(obs))
        if unit.free is not None:
            return np.concatenate((self._gramian_images(obs), unit.free), axis=1)
        images = np.ascontiguousarray(self._gramian_images(obs, unit.P))
        unit.free = images[:, obs.shape[2]:].copy()
        unit.free.setflags(write=False)
        return images


# ---------------------------------------------------------------------------
# free-function wrappers

# the calling thread's last (key, radius, Propagator), as `entry`
_last = threading.local()


def propagator(path: BoundaryPath, potential, cfg: SchemeConfig,
               control_radius: float | None = None) -> Propagator:
    """The Propagator for these inputs, reusing the calling thread's last one.

    The key is the scheme and the bytes of the path samples and of the
    potential; the control radius is not part of it.  The previous
    Propagator this thread obtained here is returned when the key and the
    radius equal its own.  When only the radius differs, a Propagator that
    shares its operators and its radius-free unit sweep results
    (`Propagator._with_radius`) replaces it; otherwise a new one is built
    and replaces it.  A reused or derived Propagator gives exactly what a
    new build gives, so every result stays bitwise the same, and a radius
    a build would refuse leaves the slot as it was.
    """
    _check_steps(path, cfg)
    pot = _coerce_potential(potential, cfg.n, cfg.m)
    radius = None if control_radius is None else float(control_radius)
    key = (cfg, path.times.tobytes(), path.radii.tobytes(), path.slopes.tobytes(),
           pot.tobytes())
    entry = getattr(_last, "entry", None)
    if entry is not None and entry[0] == key:
        if entry[1] == radius:
            return entry[2]
        prop = entry[2]._with_radius(radius)
    else:
        _last.entry = None   # never hold two at once
        prop = Propagator(path, pot, cfg, control_radius=radius)
    _last.entry = key, radius, prop
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
    """A boundary flux needs a state or adjoint field with the three rows
    of its one-sided stencil, on the path's time grid, and a time index j,
    when one is given, on that grid."""
    if field.role not in DIRICHLET_ROLES:
        raise FieldRoleError(f"flux needs a state or adjoint field, got {field.role!r}")
    if field.n_intervals < 2:
        raise GridError(f"flux needs at least 3 rows, field has {field.n_intervals + 1}")
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
