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

Every evaluation goes through one array helper, `_profile`, which takes a
vector of boundary radii R(t_j) and radii that broadcast against it.  The
pointwise functions call it for one time; the calibration, the profile
report and the weighted energy each call it once on a whole space-time
sample.  The quintic is evaluated in Horner form.

The weighted energy takes one adjoint field or an (n+1, m+1, k) block of
backward trajectories, the k columns of one blocked `run_adjoint`, and
gives one report per column.  The weights live on the (n+1) x J array of
the J interior levels and are built once per call.  Each integral folds
the space trapezoid weights, the time weights tw_j R(t_j) (tw the
trapezoid weights of the time window) and its weight factor into one
(n+1) x J quadrature field, and contracts that field against the squared
derivatives of all columns at once.  The columns are walked in chunks of
about `pde._CHUNK` values per (n+1) x J x k array, squared in place, so a
call's transient memory does not grow with k.  Only the quadrature fields
depend on the Carleman parameters, so one call may take several parameter
sets: each chunk's squared derivatives are then formed once and contracted
against every set's fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    ROLE_ADJOINT,
    BoundaryPath,
    PhysicalSetup,
    SpaceTimeField,
    _control_indicator,
    _trapezoid_weights,
    checked_values,
    require_integer,
)
from .errors import DegenerateWeightError, GridError, OutOfDomainError
from .pde import _CHUNK

# Space-time samples (radii per level, levels) on which `CarlemanParams.calibrate`
# takes sup alpha1 and `check_weight_profile` checks the profile's landmarks.
_CALIBRATE_RADII, _CALIBRATE_TIMES = 400, 64
_PROFILE_RADII, _PROFILE_TIMES = 801, 33

# ---------------------------------------------------------------------------
# the quintic bump and the base profile


def bump_poly(w, z):
    """p(w, z); p(0, z) = 0, p(1, z) = 1 for every z."""
    w = np.asarray(w, dtype=float)
    return w * (z + w * w * ((10.0 - 6.0 * z) + w * ((8.0 * z - 15.0) + w * (6.0 - 3.0 * z))))


def bump_poly_dw(w, z):
    """d p / d w; vanishes identically at w = 1, equals z at w = 0."""
    w = np.asarray(w, dtype=float)
    return z + w * w * (3.0 * (10.0 - 6.0 * z)
                        + w * (4.0 * (8.0 * z - 15.0) + w * (5.0 * (6.0 - 3.0 * z))))


def _profile(r: np.ndarray, R, b: float, derivative: bool = False) -> np.ndarray:
    """alpha0 at radii r, or its radial derivative, against boundary radii R.

    R is one radius or a vector of radii R(t_j) that broadcasts against the
    trailing axis of r, so one call covers a whole space-time window.  r may
    be negative (even extension; the derivative is odd).
    """
    x = np.abs(r)
    over = x > R * (1.0 + 1e-12)
    if np.any(over):
        xb, Rb = np.broadcast_arrays(x, R)
        k = np.argmax(np.where(over, xb, -np.inf))
        raise OutOfDomainError(f"|r| up to {xb.flat[k]:.6g} exceeds R(t)={Rb.flat[k]:.6g}")
    z = b / (R - b)
    w = (b - np.minimum(x, b)) / b
    if not derivative:
        return np.where(x < b, 1.0 + bump_poly(w, z), (R - x) / (R - b))
    mag = np.where(x < b, -bump_poly_dw(w, z) / b, -1.0 / (R - b))
    return np.where(r < 0.0, -mag, mag)


def weight_profile(r, t: float, setup: PhysicalSetup, path: BoundaryPath) -> np.ndarray:
    """alpha0 at radii r (array, may be negative: even extension) and time t."""
    return _profile(np.asarray(r, dtype=float), path.radius_at(t), setup.b)


def weight_profile_dr(r, t: float, setup: PhysicalSetup, path: BoundaryPath) -> np.ndarray:
    """Radial derivative of alpha0; odd in r by the even extension."""
    return _profile(np.asarray(r, dtype=float), path.radius_at(t), setup.b, derivative=True)


def _sampled_radii(path: BoundaryPath, count: int) -> np.ndarray:
    """R at `count` uniform times spanning the path, as `radius_at` gives it."""
    return np.interp(np.linspace(path.times[0], path.times[-1], count),
                     path.times, path.radii)


def _check_lam_s_k(lam, s, k) -> None:
    if not (0 < lam < np.inf and 0 < s < np.inf):
        raise GridError(f"lam and s must be positive and finite, got ({lam}, {s})")
    if not float(k).is_integer() or k < 2:
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
        require_integer("trials", self.trials, 1)


@dataclass(frozen=True)
class CarlemanParams:
    """Carleman parameters with the numerically computed sup of alpha1."""

    lam: float
    s: float
    k: int
    sup_alpha1: float

    def __post_init__(self):
        _check_lam_s_k(self.lam, self.s, self.k)
        if not self.sup_alpha1 >= 1.0:
            raise GridError(f"sup_alpha1 must be >= 1, got {self.sup_alpha1}")

    @classmethod
    def calibrate(cls, lam: float, s: float, k: int, setup: PhysicalSetup,
                  path: BoundaryPath) -> "CarlemanParams":
        """Compute sup alpha1 on a fine sample of the space-time domain."""
        R = _sampled_radii(path, _CALIBRATE_TIMES)
        alpha0 = _profile(np.linspace(0.0, R, _CALIBRATE_RADII), R, setup.b)
        return cls(lam=lam, s=s, k=k, sup_alpha1=float(np.max(1.0 + alpha0)))

    def doubled_s(self) -> "CarlemanParams":
        return CarlemanParams(self.lam, 2.0 * self.s, self.k, self.sup_alpha1)


@dataclass(frozen=True)
class WeightValues:
    alpha1: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray
    xi: np.ndarray


def _weights(r: np.ndarray, t, R, params: CarlemanParams, b: float, T: float) -> WeightValues:
    """The weights at radii r, times t and boundary radii R (see `_profile`)."""
    alpha1 = 1.0 + _profile(r, R, b)
    growth = np.exp(params.lam * alpha1)
    sigma = np.exp(2.0 * params.lam * params.sup_alpha1) - growth
    tk = (t ** params.k) * ((T - t) ** params.k)
    return WeightValues(alpha1=alpha1, sigma=sigma, alpha=sigma / tk, xi=growth / tk)


def weight_functions(r, t: float, params: CarlemanParams, setup: PhysicalSetup,
                     path: BoundaryPath) -> WeightValues:
    """alpha1, sigma, alpha, xi at radii r and interior time t."""
    T = path.horizon
    if not 0.0 < t < T:
        raise DegenerateWeightError(f"weights blow up outside 0 < t < T, got t={t:g}")
    return _weights(np.asarray(r, dtype=float), t, path.radius_at(t), params, setup.b, T)


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


def check_weight_profile(setup: PhysicalSetup, path: BoundaryPath) -> ProfileReport:
    """Evaluate the structural properties the profile is built to satisfy."""
    b, b0 = setup.b, setup.b0
    R = _sampled_radii(path, _PROFILE_TIMES)
    origin = np.zeros_like(R)
    r = np.linspace(0.0, R, _PROFILE_RADII)
    annulus = np.linspace(b0 + 0.01, R - 0.01, _PROFILE_RADII)
    seg = np.linspace(b, R, _PROFILE_RADII)
    left = -bump_poly_dw(0.0, b / (R - b)) / b
    right = -1.0 / (R - b)
    return ProfileReport(
        boundary_value_max=float(np.max(np.abs(_profile(np.stack([-R, R]), R, b)))),
        origin_slope_max=float(np.max(np.abs(_profile(origin, R, b, derivative=True)))),
        c1_gap_at_b=float(np.max(np.abs(left - right))),
        evenness_gap=float(np.max(np.abs(_profile(r, R, b) - _profile(-r, R, b)))),
        annulus_min_abs_slope=float(np.min(np.abs(_profile(annulus, R, b, derivative=True)))),
        origin_value_gap=float(np.max(np.abs(_profile(origin, R, b) - 2.0))),
        control_value_gap=float(np.max(np.abs(_profile(np.full_like(R, b), R, b) - 1.0))),
        linear_branch_gap=float(np.max(np.abs(
            _profile(seg, R, b) - (1.0 - (seg - b) / (R - b))))),
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


def _quadrature_fields(params: CarlemanParams, r_nodes, times, R, quad, tw, inside,
                       b: float, T: float):
    """The (n+1, J) quadrature fields of one parameter set, in the order
    time and second derivative, gradient, zero order, observation, source,
    and the (J,) boundary row: q holds the space trapezoid weights (dx = h)
    times the time weights tw_j R_j, tw the trapezoid weights of the
    window, times the weight factor of the integrand."""
    wv = _weights(r_nodes, times, R, params, b, T)
    lam, s = params.lam, params.s
    with np.errstate(under="ignore"):
        expw = np.exp(-2.0 * s * wv.alpha)
    sxi = s * wv.xi
    dens = lam ** 4 * (s ** 3) * wv.xi ** 3
    return (quad * expw / sxi,                  # phi_t^2 and phi_rr^2
            quad * expw * lam ** 2 * sxi,       # phi_r^2
            quad * expw * dens,                 # phi^2
            quad * (dens * inside),             # phi^2 on the control ball
            quad * expw,
            tw * expw[-1] * lam * sxi[-1])      # phi_r^2 on the last row


def carleman_sides(phi, forcing, params, setup: PhysicalSetup,
                   path: BoundaryPath, margin: float | None = None):
    """Evaluate the weighted energy of phi and the observation/source bound.

    phi is one backward (adjoint) `SpaceTimeField` on the reference grid of
    the path, giving one report, or an (n+1, m+1, k) block of backward
    trajectories (the output of a blocked `run_adjoint`), giving a list of
    k reports; a forcing has the shape of phi's values and must be finite.
    A block is checked column by column as the field is on construction,
    and the second-derivative stencil needs at least 4 rows.  Derivatives are
    taken by second-order differences on the fixed grid and converted to
    physical time and radial derivatives with the chain rule of the moving
    map r = rho R(t).  The time quadrature runs on the interior node window
    [delta T, T - delta T]; delta defaults to one time step and is clamped
    to at least one step so the centered time stencil stays inside the
    horizon.

    params is one `CarlemanParams`, or a sequence of them, which gives a
    list with one result per set, in order.  Only the quadrature fields
    depend on the parameters: each chunk's squared derivatives are formed
    once and contracted against every set's fields, so each result has the
    bits of a call on its set alone.
    """
    many = not isinstance(params, CarlemanParams)
    sets = list(params) if many else [params]
    if not sets:
        raise GridError("carleman_sides needs at least one parameter set")
    m = path.steps
    single = isinstance(phi, SpaceTimeField)
    phi = checked_values(phi, "adjoint field" if single else "adjoint block",
                         (None, m + 1) if single else (None, m + 1, None),
                         role=ROLE_ADJOINT, endpoints=True, block=not single)
    if phi.shape[0] < 4:
        raise GridError(f"the weighted energy needs at least 4 rows, got {phi.shape[0]}")
    values = phi.reshape(phi.shape[0], m + 1, -1)
    fvals = None if forcing is None else checked_values(
        forcing, "forcing", phi.shape).reshape(values.shape)
    n = values.shape[0] - 1
    h = 1.0 / n
    dt = path.dt
    T = path.horizon
    delta = max(1.0 / m, 0.0 if margin is None else margin)
    j_lo = max(1, int(np.ceil(delta * m - 1e-9)))
    j_hi = min(m - 1, int(np.floor((1.0 - delta) * m + 1e-9)))
    if j_hi < j_lo:
        raise DegenerateWeightError(f"margin {delta:g} leaves no interior time nodes")

    # the weights depend on the path, the window and the parameters only:
    # one (n+1, J) field each per set, shared by every column
    rho = np.linspace(0.0, 1.0, n + 1)[:, None]
    js = np.arange(j_lo, j_hi + 1)
    R = path.radii[js]
    Rp = path.slopes[js]
    r_nodes = rho * R
    tw = _trapezoid_weights(js.size, dt)
    quad = _trapezoid_weights(n + 1, h)[:, None] * (tw * R)
    inside = _control_indicator(rho[:, 0], R, setup.b)
    fields = [_quadrature_fields(p, r_nodes, path.times[js], R, quad, tw, inside, setup.b, T)
              for p in sets]
    drift = (rho * (Rp / R))[:, :, None]
    radii = R[:, None]     # broadcasts over the (n+1, J, columns) chunks

    def contract(q, squares):
        return q.ravel() @ squares.reshape(q.size, -1)

    k = values.shape[2]
    sums = np.empty((len(sets), 7, k))
    span = max(1, _CHUNK // quad.size)
    for c in range(0, k, span):
        cols = slice(c, c + span)
        window = values[:, j_lo - 1:j_hi + 2, cols]
        col = window[:, 1:-1]
        phi_r = _d1(col, h, axis=0)     # the reference slope w_r until divided by R
        # centered time difference: the window is interior, j_lo >= 1 and
        # j_hi <= m - 1, so this is np.gradient's formula there
        phi_t = window[:, 2:] - window[:, :-2]
        phi_t /= 2.0 * dt
        phi_t -= drift * phi_r
        phi_r /= radii
        phi_rr = _d2_space(col, h)
        phi_rr /= radii * radii
        for a in (phi_t, phi_rr, phi_r):
            np.square(a, out=a)
        col2 = np.square(col)
        f2 = None if fvals is None else np.square(fvals[:, j_lo:j_hi + 1, cols])
        for part, (q_time, q_gradient, q_zero, q_obs, q_src, q_boundary) in zip(sums, fields):
            part[0, cols] = contract(q_time, phi_t)
            part[1, cols] = contract(q_time, phi_rr)
            part[2, cols] = contract(q_gradient, phi_r)
            part[3, cols] = contract(q_zero, col2)
            part[4, cols] = q_boundary @ phi_r[-1]
            part[5, cols] = contract(q_obs, col2)
            part[6, cols] = 0.0 if f2 is None else contract(q_src, f2)
        # free this chunk's arrays before the next chunk's are formed
        del phi_t, phi_rr, phi_r, col2, f2

    results = []
    for part in sums:
        lhs_time, lhs_second, lhs_gradient, lhs_zero, lhs_boundary, rhs_observation, rhs_source = part
        lhs = lhs_time + lhs_second + lhs_gradient + lhs_zero + lhs_boundary
        rhs = rhs_observation + rhs_source
        reports = [CarlemanReport(
            lhs_time=float(lhs_time[c]), lhs_second=float(lhs_second[c]),
            lhs_gradient=float(lhs_gradient[c]), lhs_zero=float(lhs_zero[c]),
            lhs_boundary=float(lhs_boundary[c]), lhs_total=float(lhs[c]),
            rhs_observation=float(rhs_observation[c]), rhs_source=float(rhs_source[c]),
            rhs_total=float(rhs[c]),
            ratio=float(lhs[c] / rhs[c]) if rhs[c] > 0.0 else np.inf, margin=delta,
        ) for c in range(k)]
        results.append(reports[0] if single else reports)
    return results if many else results[0]
