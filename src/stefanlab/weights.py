"""Carleman weight construction and the weighted-energy diagnostic.

The base profile alpha0(r, t) is an even function of r on |r| <= R(t),
equal to 2 at the origin, 1 at the control radius b, and 0 at the moving
boundary.  On [0, b) it is 1 + p((b - r)/b, b/(R - b)) with the quintic

    p(w, z) = z w + (10 - 6 z) w^3 + (8 z - 15) w^4 + (6 - 3 z) w^5,

chosen so that p(1, z) = 1 and p_w(1, z) = 0 identically in z (flat at the
origin after the even extension), while p_w(0, z) = z matches the slope of
the linear outer branch (R - r)/(R - b): the profile is C1 across r = b and
its radial derivative stays bounded away from zero on the annulus between
b0 and the boundary.

From the profile, with lam and s the Carleman parameters and k >= 2,

    alpha1 = alpha0 + 1,
    sigma  = exp(2 lam sup|alpha1|) - exp(lam alpha1) > 0,
    alpha  = sigma / (t^k (T - t)^k),
    xi     = exp(lam alpha1) / (t^k (T - t)^k),

where sup|alpha1| is computed numerically on a fine space-time sample, not
assumed to sit at r = 0.  Both alpha and xi blow up at t = 0 and t = T, so
pointwise evaluation is refused outside 0 < t < T, and when the weighted
energy of a backward solution is integrated, the time quadrature runs over
interior nodes [delta T, T - delta T] only (default margin delta = 1/m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .domain import ROLE_ADJOINT, BoundaryPath, PhysicalSetup, SpaceTimeField
from .errors import DegenerateWeightError, FieldRoleError, GridError, OutOfDomainError

# ---------------------------------------------------------------------------
# the quintic bump and the base profile


def bump_poly(w, z):
    """p(w, z); p(0, z) = 0, p(1, z) = 1 for every z."""
    w = np.asarray(w, dtype=float)
    return (z * w + (10.0 - 6.0 * z) * w ** 3
            + (8.0 * z - 15.0) * w ** 4 + (6.0 - 3.0 * z) * w ** 5)


def bump_poly_dw(w, z):
    """d p / d w; vanishes identically at w = 1, equals z at w = 0."""
    w = np.asarray(w, dtype=float)
    return (z + 3.0 * (10.0 - 6.0 * z) * w ** 2
            + 4.0 * (8.0 * z - 15.0) * w ** 3 + 5.0 * (6.0 - 3.0 * z) * w ** 4)


def weight_profile(r, t: float, setup: PhysicalSetup, path: BoundaryPath) -> np.ndarray:
    """alpha0 at radii r (array, may be negative: even extension) and time t."""
    r = np.asarray(r, dtype=float)
    R = path.radius_at(t)
    x = np.abs(r)
    if np.any(x > R * (1.0 + 1e-12)):
        raise OutOfDomainError(f"|r| up to {float(np.max(x)):.6g} exceeds R(t)={R:.6g}")
    b = setup.b
    z = b / (R - b)
    inner = 1.0 + bump_poly((b - np.minimum(x, b)) / b, z)
    outer = (R - x) / (R - b)
    return np.where(x < b, inner, outer)


def weight_profile_dr(r, t: float, setup: PhysicalSetup, path: BoundaryPath) -> np.ndarray:
    """Radial derivative of alpha0; odd in r by the even extension."""
    r = np.asarray(r, dtype=float)
    R = path.radius_at(t)
    x = np.abs(r)
    if np.any(x > R * (1.0 + 1e-12)):
        raise OutOfDomainError(f"|r| up to {float(np.max(x)):.6g} exceeds R(t)={R:.6g}")
    b = setup.b
    z = b / (R - b)
    inner = -bump_poly_dw((b - np.minimum(x, b)) / b, z) / b
    outer = np.full_like(x, -1.0 / (R - b))
    mag = np.where(x < b, inner, outer)
    sign = np.where(r < 0.0, -1.0, 1.0)
    return sign * mag


def _check_lam_s_k(lam, s, k) -> None:
    if lam <= 0 or s <= 0:
        raise GridError(f"lam and s must be positive, got ({lam}, {s})")
    if int(k) != k or k < 2:
        raise GridError(f"k must be an integer >= 2, got {k}")


@dataclass(frozen=True)
class CarlemanConfig:
    """Carleman parameters to calibrate, and the number of random trials.

    lam, s and k go to `CarlemanParams.calibrate`; trials counts the random
    backward solutions the weighted-energy diagnostic is evaluated on.
    """

    lam: float = 1.0
    s: float = 1e-4
    k: int = 2
    trials: int = 24

    def __post_init__(self):
        _check_lam_s_k(self.lam, self.s, self.k)
        if self.trials < 1:
            raise GridError(f"trials must be at least 1, got {self.trials}")


@dataclass(frozen=True)
class CarlemanParams:
    """Carleman parameters with the numerically computed sup of alpha1."""

    lam: float
    s: float
    k: int
    sup_alpha1: float

    def __post_init__(self):
        _check_lam_s_k(self.lam, self.s, self.k)
        if self.sup_alpha1 < 1.0:
            raise GridError(f"sup_alpha1 must be >= 1, got {self.sup_alpha1}")

    @classmethod
    def calibrate(cls, lam: float, s: float, k: int, setup: PhysicalSetup,
                  path: BoundaryPath, n_r: int = 400, n_t: int = 64) -> "CarlemanParams":
        """Compute sup alpha1 on a fine sample of the space-time domain."""
        sup = 0.0
        for t in np.linspace(path.times[0], path.times[-1], n_t):
            R = path.radius_at(t)
            r = np.linspace(0.0, R, n_r)
            sup = max(sup, float(np.max(1.0 + weight_profile(r, t, setup, path))))
        return cls(lam=lam, s=s, k=k, sup_alpha1=sup)

    def doubled_s(self) -> "CarlemanParams":
        return CarlemanParams(self.lam, 2.0 * self.s, self.k, self.sup_alpha1)


@dataclass(frozen=True)
class WeightValues:
    alpha1: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray
    xi: np.ndarray


def weight_functions(r, t: float, params: CarlemanParams, setup: PhysicalSetup,
                     path: BoundaryPath) -> WeightValues:
    """alpha1, sigma, alpha, xi at radii r and interior time t."""
    T = path.horizon
    if not 0.0 < t < T:
        raise DegenerateWeightError(f"weights blow up outside 0 < t < T, got t={t:g}")
    alpha1 = 1.0 + weight_profile(r, t, setup, path)
    sigma = np.exp(2.0 * params.lam * params.sup_alpha1) - np.exp(params.lam * alpha1)
    tk = (t ** params.k) * ((T - t) ** params.k)
    return WeightValues(alpha1=alpha1, sigma=sigma, alpha=sigma / tk,
                        xi=np.exp(params.lam * alpha1) / tk)


# ---------------------------------------------------------------------------
# profile sanity report


@dataclass(frozen=True)
class ProfileReport:
    boundary_value_max: float       # max |alpha0(+-R(t), t)|
    origin_slope_max: float         # max |alpha0_dr(0, t)|
    c1_gap_at_b: float              # max |left - right derivative at r = b|
    evenness_gap: float             # max |alpha0(r) - alpha0(-r)|
    annulus_min_abs_slope: float    # min |alpha0_dr| on (b0 + 0.01, R - 0.01)
    origin_value_gap: float         # max |alpha0(0, t) - 2|
    control_value_gap: float        # max |alpha0(b, t) - 1|
    linear_branch_gap: float        # max |alpha0(r) - (1 - (r-b)/(R-b))| on (b, R)


def check_weight_profile(setup: PhysicalSetup, path: BoundaryPath,
                         n_r: int = 801, n_t: int = 33) -> ProfileReport:
    """Evaluate the structural properties the profile is built to satisfy."""
    boundary = 0.0
    origin_slope = 0.0
    c1_gap = 0.0
    evenness = 0.0
    annulus_min = np.inf
    origin_gap = 0.0
    control_gap = 0.0
    linear_gap = 0.0
    b, b0 = setup.b, setup.b0
    for t in np.linspace(path.times[0], path.times[-1], n_t):
        R = path.radius_at(t)
        z = b / (R - b)
        boundary = max(boundary, float(np.max(np.abs(
            weight_profile(np.array([-R, R]), t, setup, path)))))
        origin_slope = max(origin_slope, abs(float(
            weight_profile_dr(np.array([0.0]), t, setup, path)[0])))
        left = -bump_poly_dw(0.0, z) / b
        right = -1.0 / (R - b)
        c1_gap = max(c1_gap, abs(float(left - right)))
        r = np.linspace(0.0, R, n_r)
        vals_p = weight_profile(r, t, setup, path)
        vals_m = weight_profile(-r, t, setup, path)
        evenness = max(evenness, float(np.max(np.abs(vals_p - vals_m))))
        ann = np.linspace(b0 + 0.01, R - 0.01, n_r)
        annulus_min = min(annulus_min, float(np.min(np.abs(
            weight_profile_dr(ann, t, setup, path)))))
        origin_gap = max(origin_gap, abs(float(
            weight_profile(np.array([0.0]), t, setup, path)[0]) - 2.0))
        control_gap = max(control_gap, abs(float(
            weight_profile(np.array([b]), t, setup, path)[0]) - 1.0))
        seg = np.linspace(b, R, n_r)
        linear_gap = max(linear_gap, float(np.max(np.abs(
            weight_profile(seg, t, setup, path) - (1.0 - (seg - b) / (R - b))))))
    return ProfileReport(
        boundary_value_max=boundary,
        origin_slope_max=origin_slope,
        c1_gap_at_b=c1_gap,
        evenness_gap=evenness,
        annulus_min_abs_slope=annulus_min,
        origin_value_gap=origin_gap,
        control_value_gap=control_gap,
        linear_branch_gap=linear_gap,
    )


# ---------------------------------------------------------------------------
# the weighted-energy functional and its bounding ratio

# Recorded bound on carleman_sides ratios for backward solutions with F = 0,
# a = 0 on a unit interval, calibrated (lam, s) = (1.0, 1e-4), k = 2, T = 0.5:
# 24 random terminal batteries on a (48, 64) grid peak at 2.39e-6, and doubling
# s shrinks every ratio.  Kept with 4x headroom; a regression past this bound
# means the weights or the quadrature changed, not the battery's luck.
EMPIRICAL_RATIO_BOUND = 1.0e-5


def _d1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along an axis (centered, one-sided ends)."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def _d2_space(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order second derivative along axis 0."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    out[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / (h * h)
    out[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / (h * h)
    return out


@dataclass(frozen=True)
class CarlemanReport:
    """Both sides of the weighted-energy inequality for one backward solution.

    lhs_* are the interior integrals of the weighted energy (time derivative,
    second radial derivative, gradient, zero order) plus the boundary trace;
    rhs_observation carries no exponential weight, rhs_source does.  ratio is
    lhs_total / rhs_total, the quantity bounded by the empirical constant.
    """

    lhs_time: float
    lhs_second: float
    lhs_gradient: float
    lhs_zero: float
    lhs_boundary: float
    lhs_total: float
    rhs_observation: float
    rhs_source: float
    rhs_total: float
    ratio: float
    margin: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "lhs_time", "lhs_second", "lhs_gradient", "lhs_zero", "lhs_boundary",
            "lhs_total", "rhs_observation", "rhs_source", "rhs_total", "ratio",
            "margin")}


def carleman_sides(phi: SpaceTimeField, forcing, params: CarlemanParams,
                   setup: PhysicalSetup, path: BoundaryPath,
                   margin: float | None = None) -> CarlemanReport:
    """Evaluate the weighted energy of phi and the observation/source bound.

    phi must be a backward (adjoint) trajectory on the reference grid of the
    path; derivatives are taken by second-order differences on the fixed
    grid and converted to physical time and radial derivatives with the
    chain rule of the moving map r = rho R(t).  The time quadrature runs on
    the interior node window [delta T, T - delta T]; delta defaults to one
    time step and is clamped to at least one step so the centered time
    stencil stays inside the horizon.
    """
    if phi.role != ROLE_ADJOINT:
        raise FieldRoleError(f"weighted energy expects an adjoint field, got {phi.role!r}")
    values = phi.values
    m = path.steps
    if phi.n_steps != m:
        raise GridError(f"field has {phi.n_steps} steps, path has {m}")
    n = phi.n_intervals
    h = 1.0 / n
    dt = path.dt
    T = path.horizon
    delta = max(1.0 / m, 0.0 if margin is None else margin)
    j_lo = max(1, int(np.ceil(delta * m - 1e-9)))
    j_hi = min(m - 1, int(np.floor((1.0 - delta) * m + 1e-9)))
    if j_hi < j_lo:
        raise DegenerateWeightError(f"margin {delta:g} leaves no interior time nodes")

    fvals = None
    if forcing is not None:
        fvals = forcing.values if isinstance(forcing, SpaceTimeField) else np.asarray(forcing)
        if fvals.shape != values.shape:
            raise GridError("forcing shape must match the field")

    rho = np.linspace(0.0, 1.0, n + 1)
    w_t_grid = _d1(values, dt, axis=1)
    w_r_grid = _d1(values, h, axis=0)
    w_rr_grid = _d2_space(values, h)

    js = np.arange(j_lo, j_hi + 1)
    tw = np.full(js.size, dt)
    tw[0] *= 0.5
    tw[-1] *= 0.5

    lam, s = params.lam, params.s
    acc = {"time": 0.0, "second": 0.0, "gradient": 0.0, "zero": 0.0,
           "boundary": 0.0, "obs": 0.0, "src": 0.0}
    for idx, j in enumerate(js):
        t = path.times[j]
        R = path.radii[j]
        Rp = path.slopes[j]
        r_nodes = rho * R
        wv = weight_functions(r_nodes, float(t), params, setup, path)
        with np.errstate(under="ignore"):
            expw = np.exp(-2.0 * s * wv.alpha)
        phi_r = w_r_grid[:, j] / R
        phi_rr = w_rr_grid[:, j] / (R * R)
        phi_t = w_t_grid[:, j] - rho * (Rp / R) * w_r_grid[:, j]
        col = values[:, j]
        sxi = s * wv.xi
        wt = tw[idx]
        acc["time"] += wt * R * trapezoid(expw * phi_t ** 2 / sxi, dx=h)
        acc["second"] += wt * R * trapezoid(expw * phi_rr ** 2 / sxi, dx=h)
        acc["gradient"] += wt * R * trapezoid(expw * lam ** 2 * sxi * phi_r ** 2, dx=h)
        dens = lam ** 4 * (s ** 3) * wv.xi ** 3
        acc["zero"] += wt * R * trapezoid(expw * dens * col ** 2, dx=h)
        acc["boundary"] += wt * expw[-1] * lam * sxi[-1] * phi_r[-1] ** 2
        obs_dens = np.where(r_nodes < setup.b, dens * col ** 2, 0.0)
        acc["obs"] += wt * R * trapezoid(obs_dens, dx=h)
        if fvals is not None:
            acc["src"] += wt * R * trapezoid(expw * fvals[:, j] ** 2, dx=h)

    lhs = acc["time"] + acc["second"] + acc["gradient"] + acc["zero"] + acc["boundary"]
    rhs = acc["obs"] + acc["src"]
    ratio = lhs / rhs if rhs > 0.0 else np.inf
    return CarlemanReport(
        lhs_time=acc["time"], lhs_second=acc["second"], lhs_gradient=acc["gradient"],
        lhs_zero=acc["zero"], lhs_boundary=acc["boundary"], lhs_total=lhs,
        rhs_observation=acc["obs"], rhs_source=acc["src"], rhs_total=rhs,
        ratio=ratio, margin=delta,
    )
