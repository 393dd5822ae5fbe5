"""Geometry, grids, and norm bookkeeping for radial fields.

A radially symmetric function y(x) on the ball of radius R is stored through
its profile z(r) on [0, R].  The line field u(r) = r z(r) turns the weighted
norm of z in L2(r^2 dr) into the plain L2(dr) norm of u and satisfies
u(0) = 0, so the moving interval problem becomes a one dimensional Dirichlet
problem.  Solvers work on the fixed reference grid rho_i = i/N in [0, 1];
the physical radius of node i at time t_j is rho_i * R(t_j).
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EndpointConditionError,
    FieldRoleError,
    GridError,
    OutOfDomainError,
    RadiusBoundsError,
)

ROLE_STATE = "state"
ROLE_ADJOINT = "adjoint"
ROLE_CONTROL = "control"
ROLE_SOURCE = "source"

ROLES = (ROLE_STATE, ROLE_ADJOINT, ROLE_CONTROL, ROLE_SOURCE)

# roles whose endpoint rows must vanish (homogeneous Dirichlet in the line field)
DIRICHLET_ROLES = (ROLE_STATE, ROLE_ADJOINT)

_ENDPOINT_TOL = 1e-10


def require_integer(name: str, value, least: int) -> None:
    """Refuse a count below least or not an integer; a bool or float never is one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise GridError(f"{name} must be an integer >= {least}, got {value!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ReferenceGrid:
    """Uniform nodes rho_i = i/n on the reference interval [0, 1]."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise GridError(f"need at least 2 intervals, got n={self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class PhysicalSetup:
    """Problem geometry and data.

    The radii must satisfy 0 < b0 < b < R_star < R0 < E and T > 0: the
    control acts on the fixed ball of radius b, the free boundary starts at
    R0 and must stay inside [R_star, E].

    z0 samples the initial line field u0(r) = r z(r, 0); it must vanish at
    r = 0 and r = R0.  nonlinearity is any object with value/slope methods
    (see stefan.Nonlinearity); None means no reaction term.
    """

    R0: float = 1.0
    R_star: float = 0.5
    E: float = 1.5
    T: float = 0.5
    b: float = 0.3
    b0: float = 0.25
    z0: object = None
    nonlinearity: object = None

    def __post_init__(self):
        chain = (0.0, self.b0, self.b, self.R_star, self.R0, self.E)
        names = ("0", "b0", "b", "R_star", "R0", "E")
        for k in range(len(chain) - 1):
            if not chain[k] < chain[k + 1]:
                raise RadiusBoundsError(
                    "radii must satisfy 0 < b0 < b < R_star < R0 < E, got "
                    f"{names[k]}={chain[k]:g} >= {names[k + 1]}={chain[k + 1]:g}"
                )
        if not self.T > 0:
            raise OutOfDomainError(f"horizon must be positive, got T={self.T:g}")

    def initial_line_field(self, grid: ReferenceGrid) -> np.ndarray:
        """Sample u0 on the reference grid scaled to [0, R0].

        Endpoint samples are required to vanish (relative tolerance 1e-10)
        and are then snapped to exact zeros so the Dirichlet preconditions
        of the solvers hold bitwise.
        """
        r = grid.nodes * self.R0
        if self.z0 is None:
            return np.zeros(grid.n + 1)
        u = np.asarray(self.z0(r), dtype=float)
        if u.shape != r.shape:
            raise GridError(f"initial sampler returned shape {u.shape}, expected {r.shape}")
        scale = max(1.0, float(np.max(np.abs(u))))
        if abs(u[0]) > _ENDPOINT_TOL * scale or abs(u[-1]) > _ENDPOINT_TOL * scale:
            raise EndpointConditionError(
                f"initial line field must vanish at r=0 and r=R0, got {u[0]:.3e}, {u[-1]:.3e}"
            )
        u = u.copy()
        u[0] = 0.0
        u[-1] = 0.0
        return u


@dataclass(frozen=True)
class BoundaryPath:
    """Sampled boundary trajectory t_j -> (R(t_j), R'(t_j)) on a uniform time grid."""

    times: np.ndarray
    radii: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        t = _readonly(self.times)
        r = _readonly(self.radii)
        s = _readonly(self.slopes)
        if t.ndim != 1 or t.shape != r.shape or t.shape != s.shape:
            raise GridError("times, radii, slopes must be 1-d arrays of equal length")
        if t.size < 2:
            raise GridError("a path needs at least two samples")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-14) or dt[0] <= 0:
            raise GridError("time grid must be uniform and increasing")
        if not (np.all(np.isfinite(r)) and np.all(r > 0)):
            raise RadiusBoundsError("radii must be finite and positive")
        if not np.all(np.isfinite(s)):
            raise GridError("slopes must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "slopes", s)

    @property
    def steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def require_bounds(self, r_min: float, r_max: float) -> None:
        lo, hi = float(np.min(self.radii)), float(np.max(self.radii))
        if lo < r_min or hi > r_max:
            raise RadiusBoundsError(
                f"path leaves [{r_min:g}, {r_max:g}]: min={lo:.6g}, max={hi:.6g}"
            )

    def c1_defect(self) -> float:
        """Max gap between stored slopes and centered differences of the radii.

        O(dt^2) for smooth paths; used as a consistency diagnostic.
        """
        if self.steps < 2:
            return 0.0
        approx = (self.radii[2:] - self.radii[:-2]) / (2.0 * self.dt)
        return float(np.max(np.abs(approx - self.slopes[1:-1])))

    def radius_at(self, t: float) -> float:
        """Linear interpolation of R between samples."""
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise OutOfDomainError(f"t={t:g} outside [{self.times[0]:g}, {self.times[-1]:g}]")
        return float(np.interp(t, self.times, self.radii))


def constant_path(radius: float, horizon: float, steps: int) -> BoundaryPath:
    """Path R(t) = radius on m uniform steps."""
    t = np.linspace(0.0, horizon, steps + 1)
    return BoundaryPath(t, np.full(steps + 1, float(radius)), np.zeros(steps + 1))


def path_from_function(fn, dfn, horizon: float, steps: int) -> BoundaryPath:
    """Sample a C1 path from callables for R and R'."""
    t = np.linspace(0.0, horizon, steps + 1)
    return BoundaryPath(t, np.asarray(fn(t), dtype=float), np.asarray(dfn(t), dtype=float))


@dataclass(frozen=True)
class SpaceTimeField:
    """Values on the reference grid: entry (i, j) is the field at (rho_i, t_j).

    state and adjoint roles must have zero endpoint rows (Dirichlet in the
    line-field variables); the array is copied and frozen on construction.
    """

    values: np.ndarray
    role: str = ROLE_STATE

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 2:
            raise GridError(f"field values must be 2-d, got ndim={v.ndim}")
        if not np.all(np.isfinite(v)):
            raise GridError("field values must be finite")
        if self.role not in ROLES:
            raise FieldRoleError(f"unknown role {self.role!r}, expected one of {ROLES}")
        if self.role in DIRICHLET_ROLES:
            scale = max(1.0, float(np.max(np.abs(v))))
            worst = max(float(np.max(np.abs(v[0]))), float(np.max(np.abs(v[-1]))))
            if worst > 1e-12 * scale:
                raise EndpointConditionError(
                    f"{self.role} field must vanish on endpoint rows, worst={worst:.3e}"
                )
        object.__setattr__(self, "values", v)

    @property
    def n_intervals(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1


# ---------------------------------------------------------------------------
# radial <-> line-field conversions


def lift_radial(z: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Line field u(r) = r z(r) from profile samples z on the nodes radii.

    Requires z to vanish at the outer node so that u inherits the Dirichlet
    condition exactly.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(radii, dtype=float)
    if z.shape != r.shape or z.ndim != 1:
        raise GridError(f"profile and radii shapes differ: {z.shape} vs {r.shape}")
    scale = max(1.0, float(np.max(np.abs(z))))
    if abs(z[-1]) > _ENDPOINT_TOL * scale:
        raise EndpointConditionError(f"profile must vanish at the boundary, got {z[-1]:.3e}")
    u = r * z
    u[-1] = 0.0
    return u


def project_radial(u: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Profile z(r) = u(r)/r with the removable singularity filled at r = 0.

    z(0) is the one-sided second order derivative of u at 0, since
    u(r) = r z(r) gives u'(0) = z(0).
    """
    u = np.asarray(u, dtype=float)
    r = np.asarray(radii, dtype=float)
    if u.shape != r.shape or u.ndim != 1 or u.size < 3:
        raise GridError("need matching 1-d arrays with at least 3 nodes")
    scale = max(1.0, float(np.max(np.abs(u))))
    if abs(u[0]) > _ENDPOINT_TOL * scale:
        raise EndpointConditionError(f"line field must vanish at r=0, got {u[0]:.3e}")
    z = np.empty_like(u)
    z[1:] = u[1:] / r[1:]
    h = r[1] - r[0]
    z[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    return z


def norm_equivalence(z: np.ndarray, u: np.ndarray, radii: np.ndarray) -> tuple[float, float]:
    """Trapezoid values of int z^2 r^2 dr and int u^2 dr.

    For u = lift_radial(z) the two integrands coincide pointwise, so the
    returned numbers agree to rounding; each one approximates its continuous
    integral to O(h^2).  The 3-d ball norm is 4*pi times the first value.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.asarray(radii, dtype=float)
    if not (z.shape == u.shape == r.shape):
        raise GridError("z, u, radii must share a shape")
    weighted = float(np.trapezoid(z * z * r * r, r))
    flat = float(np.trapezoid(u * u, r))
    return weighted, flat


def evaluate_in_ball(z: np.ndarray, radii: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values of the radial profile at 3-d points by interpolation in |x|."""
    z = np.asarray(z, dtype=float)
    r = np.asarray(radii, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise GridError(f"points must be (k, 3), got {pts.shape}")
    rho = np.sqrt(np.sum(pts * pts, axis=1))
    if np.any(rho > r[-1] * (1.0 + 1e-12)):
        raise OutOfDomainError(
            f"point radius {float(np.max(rho)):.6g} exceeds ball radius {r[-1]:.6g}"
        )
    return np.interp(rho, r, z)


# ---------------------------------------------------------------------------
# norms on the reference grid


def line_l2_norm(u: np.ndarray, radius: float, grid: ReferenceGrid) -> float:
    """L2(0, R) norm of a line field sampled on the reference grid."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n + 1,):
        raise GridError(f"expected {grid.n + 1} samples, got {u.shape}")
    return float(np.sqrt(radius * np.trapezoid(u * u, dx=grid.spacing)))


def h1_seminorm(u: np.ndarray, radius: float, grid: ReferenceGrid) -> float:
    """H1_0 seminorm (int |u_r|^2 dr)^(1/2) of a line field on [0, R]."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n + 1,):
        raise GridError(f"expected {grid.n + 1} samples, got {u.shape}")
    du = np.gradient(u, grid.spacing) / radius
    return float(np.sqrt(radius * np.trapezoid(du * du, dx=grid.spacing)))


# ---------------------------------------------------------------------------
# CSV interchange: first row holds the rho nodes, each further row one time level


def write_field_csv(path, field: SpaceTimeField, grid: ReferenceGrid) -> None:
    if field.n_intervals != grid.n:
        raise GridError(
            f"field has {field.n_intervals} intervals, grid has {grid.n}"
        )
    with open(path, "w", newline="") as fh:
        # the bytes csv.writer would write: the repr of a float, the shortest
        # round-trip form, holds no delimiter or quote, so no cell is quoted;
        # one level at a time, so no Python copy of the field is held
        for row in (grid.nodes, *field.values.T):
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def _csv_numbers(row, k: int) -> list[float]:
    try:
        return [float(x) for x in row]
    except ValueError as exc:
        raise GridError(f"field csv row {k}: {exc}") from exc


def read_field_csv(path, role: str = ROLE_STATE) -> tuple[SpaceTimeField, ReferenceGrid]:
    """Read a field written by `write_field_csv`; a malformed file raises
    GridError naming its first bad row (counted from 1, blank lines skipped)."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise GridError("field csv needs a node row and at least one time level")
    nodes = np.array(_csv_numbers(rows[0], 1))
    grid = ReferenceGrid(nodes.size - 1)
    if not np.allclose(nodes, grid.nodes, atol=1e-12):
        raise GridError("first csv row is not a uniform [0, 1] node set")
    levels = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != nodes.size:
            raise GridError(f"field csv row {k} has {len(row)} cells, the node row {nodes.size}")
        levels.append(_csv_numbers(row, k))
    return SpaceTimeField(np.array(levels).T, role=role), grid
