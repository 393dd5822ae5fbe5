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


def checked_values(data, name: str, shape: tuple, role: str | None = None,
                   endpoints: bool = False, block: bool = False) -> np.ndarray:
    """The float values of an input array or `SpaceTimeField`, checked.

    Fields, data, sources, potentials, controls and iterates entering the
    solvers pass here.  A field must carry the role, when one is given
    (FieldRoleError); the values must have the shape, where None matches
    any length, must not be empty, and must be finite (GridError).  With
    endpoints set, the rows 0 and -1 of each column must vanish to 1e-12
    of the column's largest magnitude, floored at 1
    (EndpointConditionError): a column is one entry of the last axis when
    block is set, else the whole array.  Errors name the input.  No array
    the size of the input is formed: the largest and smallest value of a
    column carry a NaN or an infinity in it, and the endpoint test reads
    only the two endpoint rows.
    """
    if isinstance(data, SpaceTimeField):
        if role is not None and data.role != role:
            raise FieldRoleError(f"{name} must be a {role} field, got {data.role!r}")
        data = data.values
    values = np.asarray(data, dtype=float)
    if values.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(values.shape, shape)):
        expected = ", ".join("*" if want is None else str(want) for want in shape)
        raise GridError(f"{name} shape {values.shape}, expected ({expected}"
                        f"{',' if len(shape) == 1 else ''})")
    if values.size == 0:
        raise GridError(f"{name} shape {values.shape} has no columns")
    axes = tuple(range(values.ndim - 1)) if block else None
    top, bottom = values.max(axis=axes), values.min(axis=axes)
    if not ((top < np.inf) & (bottom > -np.inf)).all():
        raise GridError(f"{name} must be finite")
    if endpoints:
        worst = np.abs(values[::max(1, len(values) - 1)]).max(axis=axes)
        bad = worst > 1e-12 * np.maximum(np.maximum(top, -bottom), 1.0)
        if bad.any():
            c = int(np.argmax(bad))
            raise EndpointConditionError(
                f"{name} must vanish on endpoint rows, worst={np.ravel(worst)[c]:.3e}"
                + (f" in column {c}" if block else ""))
    return values


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ReferenceGrid:
    """Uniform nodes rho_i = i/n on the reference interval [0, 1]."""

    n: int

    def __post_init__(self):
        require_integer("n", self.n, 2)

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
        u = checked_values(self.z0(r), "initial sampler", r.shape)
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

    def radius_at(self, t: float) -> float:
        """Linear interpolation of R between samples; a non-finite t is outside."""
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
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


def _trapezoid_weights(count: int, step: float) -> np.ndarray:
    """Composite trapezoid weights of count nodes spaced step apart."""
    w = np.full(count, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _control_indicator(rho, radii, b: float) -> np.ndarray:
    """The control operator: 1.0 at the nodes rho_i R_j < b of the control
    ball, else 0.0, one column per radius (one column for a number)."""
    return (rho[:, None] * radii < b).astype(float)


@dataclass(frozen=True)
class SpaceTimeField:
    """Values on the reference grid: entry (i, j) is the field at (rho_i, t_j).

    state and adjoint roles must have zero endpoint rows (Dirichlet in the
    line-field variables); the array is copied and frozen on construction.
    """

    values: np.ndarray
    role: str = ROLE_STATE

    def __post_init__(self):
        v = checked_values(_readonly(self.values), f"{self.role} field", (None, None),
                           endpoints=self.role in DIRICHLET_ROLES)
        if self.role not in ROLES:
            raise FieldRoleError(f"unknown role {self.role!r}, expected one of {ROLES}")
        object.__setattr__(self, "values", v)

    @property
    def n_intervals(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1


# ---------------------------------------------------------------------------
# norms on the reference grid


def _line_norm(u: np.ndarray, radius: float, weights: np.ndarray) -> float:
    """sqrt(R sum_i w_i u_i^2) of a checked line field u with the space
    trapezoid weights w: the one arithmetic of an L2(0, R) norm, shared by
    `line_l2_norm` and `Propagator.slice_norm`."""
    return float(np.sqrt(max(float(radius * np.dot(u * weights, u)), 0.0)))


def line_l2_norm(u: np.ndarray, radius: float, grid: ReferenceGrid) -> float:
    """L2(0, R) norm of a line field sampled on the reference grid."""
    u = checked_values(u, "line field", (grid.n + 1,))
    return _line_norm(u, radius, _trapezoid_weights(grid.n + 1, grid.spacing))


def h1_seminorm(u: np.ndarray, radius: float, grid: ReferenceGrid) -> float:
    """H1_0 seminorm (int |u_r|^2 dr)^(1/2) of a line field on [0, R]."""
    u = checked_values(u, "line field", (grid.n + 1,))
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
