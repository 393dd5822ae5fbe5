"""Free-boundary coupling and the outer control loop.

The moving-boundary problem couples the line field u = r z on the unit
reference interval to the boundary radius through the melting law
R'(t) = -u_r(R(t), t) / R(t): the one-sided boundary flux of the line
field, divided once more by the radius.  This module owns that coupling in
three layers.

* Kinematics: the melting rate is one array expression, shared by the
  coupled march and the integrator; `stefan_rate` evaluates it at one time
  node, and `integrate_boundary` evaluates it on every level of a field at
  once and accumulates it into a new boundary path along a frozen
  reference path, refusing to leave the admissible band [R_star, E].
* Dynamics: `coupled_solve` marches the state and the radius together on
  the theta-step kernel of `pde`: an Euler predictor for the radius, then
  a trapezoid corrector that re-solves the step on the averaged radius.
  The slope stored at each level is the one its implicit operator used
  (the predictor's rate), and the explicit half of the next step is
  carried from that operator's solve as the plain solvers carry it, so
  the realized path replays bitwise through them.
* Control: `linearize_and_control` freezes the reaction slope g(s) = f(s)/s
  at z = u/r of a given state iterate, synthesizes the penalized control
  on the frozen path, and pushes the boundary with the controlled flux;
  `fixed_point_iterate` applies that map repeatedly (Picard) at each rung
  of a ladder of decreasing penalties until the state and the boundary
  stop moving in the sup norm; `_picard`, one rung, is where it gives up.

The minus sign of the law is the melting convention: a warm interior has
a negative boundary flux, so the boundary advances.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace

import numpy as np

from .domain import (
    ROLE_CONTROL,
    ROLE_STATE,
    BoundaryPath,
    PhysicalSetup,
    SpaceTimeField,
    _control_indicator,
    checked_values,
    constant_path,
    require_integer,
)
from .errors import (
    ConvergenceError,
    GridError,
    InstabilityError,
    RadiusBreachError,
)
from .pde import (
    SchemeConfig,
    _apply_explicit,
    _carry,
    _check_flux_field,
    _check_initial,
    _edge_flux,
    _explicit_diagonals,
    _implicit_rows,
    _lagged_reaction,
    _radial_profile,
    _solve_implicit,
    _stencil,
    _step_forcing,
)
from .control import HUMConfig, HUMOutcome, solve_hum

_KINDS = ("zero", "linear", "sine", "table")
_SMALL_ARG = 1e-8


def _table_samples(s, f):
    """The samples of a tabulated f as float arrays, checked: matching 1-d
    arrays of length >= 2, finite values, and strictly increasing abscissae
    (which refuses NaN) that bracket s = 0."""
    s = np.asarray(s, dtype=float)
    f = np.asarray(f, dtype=float)
    if s.ndim != 1 or s.shape != f.shape or s.size < 2:
        raise GridError("table needs matching 1-d sample arrays, length >= 2")
    if not np.all(np.diff(s) > 0):
        raise GridError("table abscissae must be strictly increasing")
    if not np.all(np.isfinite(f)):
        raise GridError("table values must be finite")
    if not (s[0] <= 0.0 <= s[-1]):
        raise GridError("table must bracket s = 0")
    return s, f


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f with f(0) = 0 and a global Lipschitz bound.

    value(s) evaluates f; slope(s) evaluates the secant g(s) = f(s)/s with
    the removable singularity closed by f'(0).  The slope is what the
    linearized problems use as a potential, so a zero nonlinearity must
    produce exact zeros, which the `zero` kind guarantees bitwise.

    The kind fixes f'(0) and the Lipschitz bound: both are 0 for `zero`;
    f'(0) is the amplitude and the bound its magnitude for `linear` and
    `sine`; a `table` is bounded by the steepest secant of its samples.
    Only a table takes slope_at_zero, its f'(0); without one, slope()
    estimates f'(0) by a symmetric difference.
    """

    kind: str
    amplitude: float = 1.0
    samples_s: tuple = ()
    samples_f: tuple = ()
    slope_at_zero: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GridError(f"unknown nonlinearity kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise GridError("amplitude must be finite")
        if self.kind == "table":
            _table_samples(self.samples_s, self.samples_f)
            if not np.isfinite(self.lipschitz):
                raise GridError(f"table secants must be finite, got {self.lipschitz}")
        if self.slope_at_zero is not None:
            if self.kind != "table":
                raise GridError(f"slope_at_zero applies to a table only, not to {self.kind!r}")
            if not np.isfinite(self.slope_at_zero):
                raise GridError(f"slope_at_zero must be finite, got {self.slope_at_zero}")
        if abs(float(np.asarray(self.value(0.0)))) > 1e-12:
            raise GridError("nonlinearity must vanish at zero")

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls(kind="zero", amplitude=0.0)

    @classmethod
    def linear(cls, slope: float = 1.0) -> "Nonlinearity":
        return cls(kind="linear", amplitude=float(slope))

    @classmethod
    def sine(cls, amplitude: float = 1.0) -> "Nonlinearity":
        return cls(kind="sine", amplitude=float(amplitude))

    @classmethod
    def from_table(cls, s, f, slope_at_zero: float | None = None) -> "Nonlinearity":
        """Piecewise-linear f through the samples, constant outside their range."""
        s, f = _table_samples(s, f)
        return cls(kind="table", samples_s=tuple(float(x) for x in s),
                   samples_f=tuple(float(x) for x in f), slope_at_zero=slope_at_zero)

    @property
    def lipschitz(self) -> float:
        """Global Lipschitz bound of f; |d/ds (A sin s)| <= |A| everywhere."""
        if self.kind == "table":
            with np.errstate(over="ignore"):   # an infinite secant is refused at construction
                return float(np.max(np.abs(np.diff(self.samples_f) / np.diff(self.samples_s))))
        return 0.0 if self.kind == "zero" else abs(self.amplitude)

    def value(self, s):
        """f(s), elementwise."""
        arr = np.asarray(s, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(arr)
        elif self.kind == "linear":
            out = self.amplitude * arr
        elif self.kind == "sine":
            out = self.amplitude * np.sin(arr)
        else:
            out = np.interp(arr, self.samples_s, self.samples_f)
        return out

    def slope(self, s):
        """Secant slope g(s) = f(s)/s with g(0) = f'(0), elementwise.

        Arguments below 1e-8 in magnitude take the zero-slope value; a
        table with no slope_at_zero estimates it by a symmetric difference
        of f across the same threshold.
        """
        arr = np.asarray(s, dtype=float)
        if self.kind != "table":
            g0 = 0.0 if self.kind == "zero" else self.amplitude
        elif self.slope_at_zero is not None:
            g0 = self.slope_at_zero
        else:
            g0 = float(self.value(_SMALL_ARG) - self.value(-_SMALL_ARG)) / (2.0 * _SMALL_ARG)
        small = np.abs(arr) < _SMALL_ARG
        safe = np.where(small, 1.0, arr)
        return np.where(small, g0, self.value(arr) / safe)


# ---------------------------------------------------------------------------
# boundary kinematics


def _melting_rate(values, radii):
    """R' = -u_r(R) / R: the physical boundary flux of the line field
    (already one chain-rule factor of 1/R) divided once more by the radius.

    values and radii are one column and its radius, or a whole field and
    its radii per time level; see `pde._edge_flux`.
    """
    return -_edge_flux(values, radii) / radii


def stefan_rate(field: SpaceTimeField, path: BoundaryPath, j: int) -> float:
    """Boundary velocity R'(t_j) from the line field's boundary flux."""
    _check_flux_field(field, path, j)
    return float(_melting_rate(field.values[:, j], path.radii[j]))


def integrate_boundary(field: SpaceTimeField, path: BoundaryPath,
                       setup: PhysicalSetup) -> BoundaryPath:
    """Accumulate the melting rate along a frozen path into a new boundary.

    R_new(t) = R(0) + integral of the rate, by cumulative trapezoid on the
    path's own time grid; the returned slopes are the rate samples, so the
    new path is C1-consistent with its construction by design.  Leaving
    [R_star, E] raises instead of clamping: an escaping boundary means the
    initial data is too large for the local regime, and silently projecting
    it back would fake a solution of a different problem.
    """
    _check_flux_field(field, path)
    rates = _melting_rate(field.values, path.radii)
    steps = np.cumsum(path.dt * (rates[1:] + rates[:-1]) / 2.0)
    radii = float(path.radii[0]) + np.concatenate(([0.0], steps))
    bad = (radii < setup.R_star) | (radii > setup.E)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RadiusBreachError(
            f"updated boundary leaves [{setup.R_star:g}, {setup.E:g}] at "
            f"t={path.times[k]:.6g} (R={radii[k]:.6g}); initial data too large "
            "for the local regime",
            r_min=float(np.min(radii)), r_max=float(np.max(radii)), first_index=k,
        )
    return BoundaryPath(path.times, radii, rates)


# ---------------------------------------------------------------------------
# coupled dynamics


def coupled_solve(u0, setup: PhysicalSetup, control, cfg: SchemeConfig):
    """March the line field and the free boundary together.

    Step j runs on the theta-step kernel of `pde`: the right-hand side of
    step j is the explicit half of level j at the stored radius and slope
    (R_j, S_j) plus the step's forcing, and each solve builds only the
    implicit rows of its candidate level j+1, which one gtsv call factors
    and solves with, since the march uses each level's factors once.  With
    q_j the melting rate of the accepted column at R_j, a predictor solves
    the step at (R_j + dt q_j, q_j) and gives the rate q_pred; then

        R_{j+1} = R_j + dt (q_j + q_pred) / 2,   S_{j+1} = q_pred,

    and the corrector solves the step again at (R_{j+1}, S_{j+1}) from the
    same explicit half.  That half is applied as an operator at step 0
    only; every later one is carried from the corrector's solve
    (`pde._carry`), exactly as `Propagator.run_forward` carries it.  The
    rate q_{j+1} of the accepted column drives only the next radius update:
    the stored slope is the one the level-(j+1) operator used, so the
    realized path replays bitwise through `solve_forward` (or
    `solve_semilinear` when the setup has a nonlinearity).  The reaction
    r f(u/r) is lagged one level, and control samples are masked to the
    physical ball of radius b with the evolving radii.

    Returns the state trajectory and the realized boundary path.  The
    radius must stay inside [R_star, E]; a breach raises with the first
    offending step.
    """
    n, m = cfg.n, cfg.m
    u0 = _check_initial(u0, n)
    ctrl = None if control is None else checked_values(control, "control", (n + 1, m + 1),
                                                        role=ROLE_CONTROL)
    nl = setup.nonlinearity
    rho = cfg.grid.nodes[1:-1]
    rho_int = rho[:, None]
    times = np.linspace(0.0, setup.T, m + 1)
    dt = float(times[1] - times[0])      # the realized path's own step
    theta = cfg.theta
    no_pot = np.zeros((1, n - 1))

    w = np.zeros((n + 1, m + 1))
    w[:, 0] = u0
    radii = np.zeros(m + 1)
    slopes = np.zeros(m + 1)

    def masked_column(j, radius):
        if ctrl is None:
            return None
        return ctrl[1:-1, j, None] * _control_indicator(rho, radius, setup.b)

    def level(j):
        return _stencil(cfg, rho, radii[j:j + 1], slopes[j:j + 1], no_pot)

    def solve(j, base, here, radius, slope, lag):
        """Step j with level j+1 set to (radius, slope); (solution, rhs)."""
        radii[j + 1], slopes[j + 1] = radius, slope
        rows = tuple(row[0] for row in _implicit_rows(cfg, dt, *level(j + 1)))
        extra = _step_forcing(theta, here, masked_column(j + 1, radius), lag)
        rhs = base if extra is None else base + dt * extra
        try:
            return _solve_implicit(rows, rhs), rhs
        except InstabilityError as exc:
            # gtsv meets an exactly zero pivot: the candidate level is singular
            raise InstabilityError(f"implicit step {j} is singular: {exc}",
                                   suggested_nodes=2 * n, suggested_steps=2 * m) from exc

    radii[0] = setup.R0
    q = slopes[0] = _melting_rate(u0, setup.R0)
    x = u0[1:-1, None].copy()
    base = _apply_explicit([d[0] for d in _explicit_diagonals(cfg, dt, *level(0))], x)
    col = np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            here = masked_column(j, radii[j])
            lag = None if nl is None else _lagged_reaction(nl, x, rho_int, radii[j])
            r_pred = radii[j] + dt * q
            col[1:-1] = solve(j, base, here, r_pred, q, lag)[0][:, 0]
            q_pred = _melting_rate(col, r_pred)
            r_next = radii[j] + 0.5 * dt * (q + q_pred)
            x_new, rhs = solve(j, base, here, r_next, q_pred, lag)

            if not (np.all(np.isfinite(x_new)) and np.isfinite(r_next)):
                raise InstabilityError(
                    f"coupled march produced non-finite values at step {j + 1}",
                    suggested_nodes=2 * n, suggested_steps=2 * m,
                )
            if not setup.R_star <= r_next <= setup.E:
                raise RadiusBreachError(
                    f"boundary leaves [{setup.R_star:g}, {setup.E:g}] at "
                    f"t={times[j + 1]:.6g} (R={r_next:.6g})",
                    r_min=min(float(np.min(radii[:j + 1])), r_next),
                    r_max=max(float(np.max(radii[:j + 1])), r_next),
                    first_index=j + 1,
                )
            x = x_new     # level j+1 of radii and slopes holds (r_next, q_pred)
            w[1:-1, j + 1] = x[:, 0]
            q = _melting_rate(w[:, j + 1], r_next)
            base = _carry(theta, x, rhs)

    return SpaceTimeField(w, role=ROLE_STATE), BoundaryPath(times, radii, slopes)


# ---------------------------------------------------------------------------
# the linearize-control-update map and its Picard iteration


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping parameters and penalty schedule of the outer iteration.

    The iteration stops once the sup-norm changes of state, radius and slope
    all drop below fp_tol.  The epsilon schedule, when nonempty, continues
    the converged iteration at each listed penalty (warm started) to record
    the final-norm decay.  max_outer caps each rung of that ladder on its
    own: a rung fails after max_outer applications of the map, or earlier
    once the three changes repeat those of two iterations back (a period-2
    cycle), so a k-entry schedule can apply the map (1 + k) max_outer
    times before the iteration fails.
    """

    fp_tol: float = 1e-6
    max_outer: int = 50
    epsilon_schedule: tuple = ()

    def __post_init__(self):
        if not 0 < self.fp_tol < np.inf:
            raise GridError(f"stopping tolerance must be positive and finite, got {self.fp_tol}")
        require_integer("max_outer", self.max_outer, 1)
        if not all(0 < e < np.inf for e in self.epsilon_schedule):
            raise GridError("epsilon schedule entries must be positive and finite, "
                            f"got {self.epsilon_schedule}")


@dataclass(frozen=True)
class LambdaOutcome:
    """One application of the map.

    hum is the control solve on the frozen path, whose hum.state is the
    controlled state, and path the boundary that state's flux drives.
    """

    path: BoundaryPath
    hum: HUMOutcome


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    dz_sup: float
    dR_sup: float
    dRp_sup: float
    final_norm: float
    cost_ratio: float
    R_min: float
    R_max: float


@dataclass(frozen=True)
class EpsilonRecord:
    epsilon: float
    iterations: int
    final_norm: float
    cost_ratio: float


@dataclass(frozen=True)
class FixedPointResult:
    """The converged pair of the last rung: hum.state and hum.control are
    the fixed point's state and control, path its boundary.  A result only
    exists once every rung has converged (`_picard` raises otherwise)."""

    path: BoundaryPath
    hum: HUMOutcome
    history: tuple
    eps_history: tuple

    @property
    def iterations(self) -> int:
        """Applications of the map over every rung."""
        return len(self.history)


def linearize_and_control(zbar, rbar: BoundaryPath, u0, setup: PhysicalSetup,
                          hum: HUMConfig, cfg: SchemeConfig) -> LambdaOutcome:
    """Linearize the reaction on an iterate, control, update the boundary.

    The iterate zbar is a field or an (n+1, m+1) array of finite values.
    The reaction the solvers apply to the line field u = r z is r f(u/r)
    (`pde._lagged_reaction`), and r f(u/r) = g(u/r) u with the secant slope
    g(s) = f(s)/s.  So the potential is g(ubar/r) on the interior nodes,
    with ubar the iterate and r = rho_i Rbar_j the physical radii of the
    frozen path; the two endpoint rows, which no step reads, stay zero.  No
    nonlinearity means no potential, and the zero kind produces an exactly
    zero potential, so this path is then bit-identical to the plain control
    pipeline.  The penalized control is synthesized on the frozen path, and
    the controlled state's boundary flux drives the boundary update.
    """
    vals = checked_values(zbar, "iterate", (cfg.n + 1, cfg.m + 1))
    nl = setup.nonlinearity
    potential = None
    if nl is not None:
        z, _ = _radial_profile(vals[1:-1], cfg.grid.nodes[1:-1, None], rbar.radii)
        potential = np.zeros_like(vals)
        potential[1:-1] = nl.slope(z)

    outcome = solve_hum(u0, rbar, potential, setup.b, hum, cfg)
    new_path = integrate_boundary(outcome.state, rbar, setup)
    return LambdaOutcome(path=new_path, hum=outcome)


def _repeats(rec: IterationRecord, earlier: IterationRecord) -> bool:
    """Whether rec's three differences equal earlier's to 1e-12 relative."""
    return all(abs(a - b) <= 1e-12 * max(abs(a), abs(b)) for a, b in (
        (rec.dz_sup, earlier.dz_sup), (rec.dR_sup, earlier.dR_sup),
        (rec.dRp_sup, earlier.dRp_sup)))


def _picard(u0, zbar, rbar, setup, fpc, hum, cfg, history):
    """Iterate the map at hum's penalty from the state field zbar and the
    path rbar until the pair stops moving; returns (last, count).

    Records go on history, numbered on from its length.  The fixed point
    gives up here alone, raising with the history: after max_outer maps,
    or once a period-2 cycle shows (differences equal to those two back).
    """
    offset = len(history)
    for k in range(1, fpc.max_outer + 1):
        lam = linearize_and_control(zbar, rbar, u0, setup, hum, cfg)
        dz = float(np.max(np.abs(lam.hum.state.values - zbar.values)))
        dR = float(np.max(np.abs(lam.path.radii - rbar.radii)))
        dRp = float(np.max(np.abs(lam.path.slopes - rbar.slopes)))
        history.append(IterationRecord(
            iteration=offset + k, dz_sup=dz, dR_sup=dR, dRp_sup=dRp,
            final_norm=lam.hum.final_norm, cost_ratio=lam.hum.cost_ratio,
            R_min=float(np.min(lam.path.radii)), R_max=float(np.max(lam.path.radii)),
        ))
        zbar, rbar = lam.hum.state, lam.path
        if max(dz, dR, dRp) < fpc.fp_tol:
            return lam, k
        if k >= 3 and _repeats(history[-1], history[-3]):
            raise ConvergenceError(
                f"fixed point is caught in a period-2 cycle: the differences of outer "
                f"iteration {offset + k} ({dz:.6e}, {dR:.6e}, {dRp:.6e}) repeat those of "
                f"iteration {offset + k - 2}", history=history)
    raise ConvergenceError(
        f"fixed point did not converge at epsilon={hum.epsilon:g} in {fpc.max_outer} "
        f"outer iterations (last differences {dz:.3e}, {dR:.3e}, {dRp:.3e}, "
        f"tol {fpc.fp_tol:g})", history=history)


def fixed_point_iterate(u0, setup: PhysicalSetup, fpc: FixedPointConfig,
                        hum: HUMConfig, cfg: SchemeConfig) -> FixedPointResult:
    """Picard iteration of the linearize-control-update map.

    Starts from the time-constant extension of the initial line field and
    the constant boundary and walks the penalty ladder: hum.epsilon, then
    each scheduled penalty, warm started from the pair the rung before
    converged to.  Each rung iterates until the successive sup-norm
    differences of state, radius, and slope all drop below the tolerance.

    Pass u0 = None to sample the setup's initial data.  A rung that does
    not converge raises with every iteration record attached.
    """
    if u0 is None:
        u0 = setup.initial_line_field(cfg.grid)
    u0 = _check_initial(u0, cfg.n)
    zbar = SpaceTimeField(np.repeat(u0[:, None], cfg.m + 1, axis=1), role=ROLE_STATE)
    rbar = constant_path(setup.R0, setup.T, cfg.m)

    history: list[IterationRecord] = []
    rungs = []
    for eps in (hum.epsilon, *fpc.epsilon_schedule):
        lam, count = _picard(u0, zbar, rbar, setup, fpc, replace(hum, epsilon=float(eps)),
                             cfg, history)
        zbar, rbar = lam.hum.state, lam.path
        rungs.append(EpsilonRecord(epsilon=float(eps), iterations=count,
                                   final_norm=lam.hum.final_norm,
                                   cost_ratio=lam.hum.cost_ratio))

    return FixedPointResult(path=lam.path, hum=lam.hum, history=tuple(history),
                            eps_history=tuple(rungs[1:]))


_HISTORY_COLUMNS = tuple(f.name for f in fields(IterationRecord))


def write_history_csv(path, history) -> None:
    """Write iteration records as CSV with full-precision reprs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HISTORY_COLUMNS)
        for rec in history:
            writer.writerow([rec.iteration] + [repr(float(getattr(rec, c)))
                                               for c in _HISTORY_COLUMNS[1:]])
