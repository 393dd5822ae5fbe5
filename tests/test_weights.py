"""Weight profile structure and the weighted-energy diagnostic."""

import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import weights
from stefanlab.domain import (
    ROLE_ADJOINT,
    PhysicalSetup,
    SpaceTimeField,
    constant_path,
    path_from_function,
)
from stefanlab.errors import (
    DegenerateWeightError,
    EndpointConditionError,
    FieldRoleError,
    GridError,
    OutOfDomainError,
)
from stefanlab.pde import SchemeConfig, propagator, solve_adjoint
from stefanlab.weights import (
    EMPIRICAL_RATIO_BOUND,
    CarlemanConfig,
    CarlemanParams,
    CarlemanReport,
    ProfileReport,
    WeightValues,
    _d1,
    _d2_space,
    bump_poly,
    bump_poly_dw,
    carleman_sides,
    check_weight_profile,
    weight_functions,
    weight_profile,
    weight_profile_dr,
)


def test_bump_poly_endpoint_identities():
    # p(0, z) = 0, p(1, z) = 1, p_w(1, z) = 0, p_w(0, z) = z for every z
    for z in (0.1, 0.5, 1.0, 3.0, 7.5):
        assert bump_poly(0.0, z) == 0.0
        assert bump_poly(1.0, z) == pytest.approx(1.0, abs=1e-14)
        assert bump_poly_dw(1.0, z) == pytest.approx(0.0, abs=1e-13)
        assert bump_poly_dw(0.0, z) == pytest.approx(z, abs=0.0)


def test_bump_poly_dw_matches_difference_quotient():
    rng = np.random.default_rng(9)
    w = rng.uniform(0.05, 0.95, size=50)
    z = rng.uniform(0.2, 5.0, size=50)
    step = 1e-6
    numeric = (bump_poly(w + step, z) - bump_poly(w - step, z)) / (2.0 * step)
    assert np.allclose(bump_poly_dw(w, z), numeric, atol=1e-7)


def test_profile_report_default_geometry():
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, 16)
    report = check_weight_profile(setup, path)
    assert report.boundary_value_max == 0.0          # exact zero at +-R(t)
    assert report.origin_slope_max <= 1e-10
    assert report.c1_gap_at_b <= 1e-10
    assert report.evenness_gap == 0.0                # even by construction
    assert report.annulus_min_abs_slope > 0.0
    assert report.origin_value_gap <= 1e-12
    assert report.control_value_gap <= 1e-12
    assert report.linear_branch_gap <= 1e-12


def test_profile_report_moving_path():
    setup = PhysicalSetup()
    path = path_from_function(lambda t: 1.0 + 0.2 * t,
                              lambda t: np.full_like(np.asarray(t, float), 0.2),
                              setup.T, 16)
    report = check_weight_profile(setup, path)
    assert report.boundary_value_max == 0.0
    assert report.annulus_min_abs_slope > 0.0
    assert report.c1_gap_at_b <= 1e-10


def test_profile_values_between_landmarks():
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, 8)
    t = 0.5 * setup.T
    r = np.linspace(0.0, setup.R0, 501)
    vals = weight_profile(r, t, setup, path)
    assert np.all(vals <= 2.0 + 1e-12)
    assert np.all(vals >= -1e-12)
    # strictly decreasing outward beyond b0
    tail = vals[r >= setup.b0]
    assert np.all(np.diff(tail) < 0.0)
    dr = weight_profile_dr(r, t, setup, path)
    assert np.all(dr[r > setup.b0] < 0.0)


def test_carleman_params_validation_and_calibration():
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, 16)
    with pytest.raises(GridError):
        CarlemanParams(lam=0.0, s=1.0, k=2, sup_alpha1=3.0)
    with pytest.raises(GridError):
        CarlemanParams(lam=1.0, s=1.0, k=1, sup_alpha1=3.0)
    for k in (float("nan"), float("inf"), 2.5, True):
        with pytest.raises(GridError):
            CarlemanParams(lam=1.0, s=1.0, k=k, sup_alpha1=3.0)
    # an infinite lam or s would give infinite ratios; the trial count is an
    # integer, never a bool or a float
    for bad in ({"lam": float("inf")}, {"s": float("inf")}, {"lam": float("nan")},
                {"trials": 0}, {"trials": True}, {"trials": 2.5}, {"trials": 24.0}):
        with pytest.raises(GridError):
            CarlemanConfig(**bad)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    # alpha1 = 1 + alpha0 peaks at the origin value 2
    assert params.sup_alpha1 == pytest.approx(3.0, abs=1e-9)
    assert params.doubled_s().s == pytest.approx(2e-4, rel=1e-15)


def test_weight_functions_positive_and_singular_in_time():
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, 16)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    r = np.linspace(0.0, setup.R0, 64)
    mid = weight_functions(r, 0.5 * setup.T, params, setup, path)
    assert np.all(mid.sigma > 0.0)
    assert np.all(mid.alpha > 0.0)
    assert np.all(mid.xi > 0.0)
    near = weight_functions(r, 0.01 * setup.T, params, setup, path)
    assert np.min(near.alpha) > np.max(mid.alpha)    # blow up toward t = 0
    with pytest.raises(DegenerateWeightError):
        weight_functions(r, 0.0, params, setup, path)
    with pytest.raises(DegenerateWeightError):
        weight_functions(r, setup.T, params, setup, path)


def test_carleman_sides_bounded_and_monotone_in_s():
    setup = PhysicalSetup()
    cfg = SchemeConfig(n=32, m=48)
    path = constant_path(setup.R0, setup.T, cfg.m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    rng = np.random.default_rng(10)
    phiT = np.zeros(cfg.n + 1)
    phiT[1:-1] = rng.standard_normal(cfg.n - 1)
    phi = solve_adjoint(phiT, path, None, None, cfg)
    report = carleman_sides(phi, None, params, setup, path)
    assert report.lhs_total >= 0.0
    assert report.rhs_total > 0.0
    assert report.rhs_source == 0.0                  # no forcing given
    assert report.ratio <= EMPIRICAL_RATIO_BOUND
    doubled = carleman_sides(phi, None, params.doubled_s(), setup, path)
    assert doubled.ratio <= report.ratio


def test_carleman_sides_accounts_for_forcing():
    setup = PhysicalSetup()
    cfg = SchemeConfig(n=24, m=32)
    path = constant_path(setup.R0, setup.T, cfg.m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    phiT = np.sin(np.pi * cfg.grid.nodes)
    phiT[0] = phiT[-1] = 0.0
    forcing = np.ones((cfg.n + 1, cfg.m + 1))
    phi = solve_adjoint(phiT, path, None, forcing, cfg)
    report = carleman_sides(phi, forcing, params, setup, path)
    assert report.rhs_source > 0.0
    assert report.rhs_total >= report.rhs_observation


def test_carleman_sides_rejects_wrong_role():
    from stefanlab.domain import ROLE_STATE, SpaceTimeField

    setup = PhysicalSetup()
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(setup.R0, setup.T, cfg.m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    field = SpaceTimeField(np.zeros((cfg.n + 1, cfg.m + 1)), role=ROLE_STATE)
    with pytest.raises(FieldRoleError):
        carleman_sides(field, None, params, setup, path)


def test_carleman_margin_guard():
    setup = PhysicalSetup()
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(setup.R0, setup.T, cfg.m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    phiT = np.sin(np.pi * cfg.grid.nodes)
    phiT[0] = phiT[-1] = 0.0
    phi = solve_adjoint(phiT, path, None, None, cfg)
    with pytest.raises(DegenerateWeightError):
        carleman_sides(phi, None, params, setup, path, margin=0.6)


def _wobbling_path(horizon, amp, freq, m):
    return path_from_function(
        lambda t: 1.0 + amp * np.sin(freq * np.pi * t / horizon),
        lambda t: amp * freq * np.pi / horizon * np.cos(freq * np.pi * t / horizon),
        horizon, m)


@settings(max_examples=30)
@given(n=st.integers(8, 40), m=st.integers(8, 48), k=st.integers(1, 5),
       amp=st.floats(0.0, 0.15), margin=st.one_of(st.none(), st.floats(0.0, 0.3)),
       forced=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_columns_match_single_fields(n, m, k, amp, margin, forced, seed):
    # a block of k backward trajectories gives, column by column, the report
    # of that column alone as an adjoint field; only the order in which the
    # contractions sum differs
    setup = PhysicalSetup(T=0.5)
    cfg = SchemeConfig(n=n, m=m)
    path = _wobbling_path(setup.T, amp, 2, m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    rng = np.random.default_rng(seed)
    phiT = np.zeros((n + 1, k))
    phiT[1:-1] = rng.standard_normal((n - 1, k))
    forcing = rng.standard_normal((n + 1, m + 1, k)) if forced else None
    block = propagator(path, None, cfg).run_adjoint(phiT, forcing)
    # chunks of two or more columns, the last one short when k is odd
    with mock.patch.object(weights, "_CHUNK", 2 * (n + 1) * m):
        reports = carleman_sides(block, forcing, params, setup, path, margin=margin)
    assert len(reports) == k
    for c, got in enumerate(reports):
        field = SpaceTimeField(block[:, :, c], role=ROLE_ADJOINT)
        want = asdict(carleman_sides(field, None if forcing is None else forcing[:, :, c],
                                     params, setup, path, margin=margin))
        for key, value in asdict(got).items():
            assert abs(value - want[key]) <= 1e-14 * abs(want[key]), (c, key)


@settings(max_examples=20)
@given(n=st.integers(8, 32), m=st.integers(8, 40), k=st.integers(1, 4),
       amp=st.floats(0.0, 0.15), margin=st.one_of(st.none(), st.floats(0.0, 0.3)),
       forced=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_parameter_sets_share_one_pass_bitwise(n, m, k, amp, margin, forced, seed):
    # a sequence of parameter sets gives, set by set, the bits of a call on
    # that set alone, for a field and for a block walked in several chunks
    setup = PhysicalSetup(T=0.5)
    cfg = SchemeConfig(n=n, m=m)
    path = _wobbling_path(setup.T, amp, 2, m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    sets = (params, params.doubled_s(), CarlemanParams.calibrate(1.5, 3e-4, 3, setup, path))
    rng = np.random.default_rng(seed)
    phiT = np.zeros((n + 1, k))
    phiT[1:-1] = rng.standard_normal((n - 1, k))
    forcing = rng.standard_normal((n + 1, m + 1, k)) if forced else None
    block = propagator(path, None, cfg).run_adjoint(phiT, forcing)
    field = SpaceTimeField(block[:, :, 0], role=ROLE_ADJOINT)
    field_forcing = None if forcing is None else forcing[:, :, 0]
    with mock.patch.object(weights, "_CHUNK", (n + 1) * m):
        got = carleman_sides(block, forcing, list(sets), setup, path, margin=margin)
        want = [carleman_sides(block, forcing, p, setup, path, margin=margin) for p in sets]
    assert [[asdict(r) for r in reports] for reports in got] == \
        [[asdict(r) for r in reports] for reports in want]
    got = carleman_sides(field, field_forcing, sets, setup, path, margin=margin)
    assert [asdict(r) for r in got] == [
        asdict(carleman_sides(field, field_forcing, p, setup, path, margin=margin))
        for p in sets]
    with pytest.raises(GridError, match="at least one parameter set"):
        carleman_sides(field, None, [], setup, path)


def _bad_block(case, n, m, k):
    """A bad block, its forcing, its last column's values and forcing, the error."""
    rng = np.random.default_rng(4)
    block = np.zeros((n + 1, m + 1, k))
    block[1:-1] = rng.standard_normal((n - 1, m + 1, k))
    forcing = fvalues = None
    error = GridError
    if case == "non-finite":
        block[3, 4, -1] = np.nan
    elif case == "endpoint":
        block[-1, 2, -1] = 1e-6
        error = EndpointConditionError
    elif case == "steps":
        block = np.concatenate([block, block[:, :1]], axis=1)
    elif case == "rows":        # too few for the second-derivative stencil
        block = block[:3].copy()
        block[-1] = 0.0
    elif case == "forcing":
        forcing, fvalues = np.ones((n + 1, m + 1, k + 1)), np.ones((n + 1, m))
    else:                       # a non-finite forcing: "nan-forcing" etc.
        forcing = np.ones((n + 1, m + 1, k))
        forcing[3, 4, -1] = float(case.rsplit("-", 1)[0])
        fvalues = forcing[:, :, -1]
    return block, forcing, block[:, :, -1], fvalues, error


@pytest.mark.parametrize("case", ["non-finite", "endpoint", "steps", "rows", "forcing",
                                  "nan-forcing", "inf-forcing", "-inf-forcing"])
def test_block_refuses_what_the_field_refuses(case, monkeypatch):
    # a bad block is refused with the field form's error type, before any
    # weight or derivative is formed
    n, m, k = 12, 16, 3
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    block, forcing, values, fvalues, error = _bad_block(case, n, m, k)
    with pytest.raises(error):
        carleman_sides(SpaceTimeField(values, role=ROLE_ADJOINT), fvalues, params, setup, path)

    def no_arithmetic(*args, **kwargs):
        raise AssertionError("arithmetic ran before the checks")

    monkeypatch.setattr(weights, "_weights", no_arithmetic)
    monkeypatch.setattr(weights, "_d1", no_arithmetic)
    with pytest.raises(error):
        carleman_sides(block, forcing, params, setup, path)


def test_block_memory_does_not_grow_with_the_trials():
    # the trials are walked in chunks, so a call's transient peak is set by
    # the chunk, not by the number of trials
    setup = PhysicalSetup()
    cfg = SchemeConfig(n=50, m=100)
    path = constant_path(setup.R0, setup.T, cfg.m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    phiT = np.zeros((cfg.n + 1, 64))
    phiT[1:-1] = np.random.default_rng(2).standard_normal((cfg.n - 1, 64))
    block = propagator(path, None, cfg).run_adjoint(phiT)
    peaks = []
    for k in (16, 64):
        part = np.ascontiguousarray(block[:, :, :k])
        tracemalloc.start()
        try:
            carleman_sides(part, None, params, setup, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0]
    assert peaks[1] < part.nbytes


def test_block_must_be_three_dimensional():
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, 8)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    with pytest.raises(GridError, match="block"):
        carleman_sides(np.zeros((9, 9)), None, params, setup, path)


# ---------------------------------------------------------------------------
# reference: the per-level loops the array evaluation replaced, verbatim but
# for their names (numpy's trapezoid gives the same bits as scipy's)

trapezoid = np.trapezoid


def _loop_weight_profile(r, t, setup, path):
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


def _loop_weight_profile_dr(r, t, setup, path):
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


def _loop_calibrate_sup(setup, path, n_r=400, n_t=64):
    sup = 0.0
    for t in np.linspace(path.times[0], path.times[-1], n_t):
        R = path.radius_at(t)
        r = np.linspace(0.0, R, n_r)
        sup = max(sup, float(np.max(1.0 + _loop_weight_profile(r, t, setup, path))))
    return sup


def _loop_weight_functions(r, t, params, setup, path):
    T = path.horizon
    if not 0.0 < t < T:
        raise DegenerateWeightError(f"weights blow up outside 0 < t < T, got t={t:g}")
    alpha1 = 1.0 + _loop_weight_profile(r, t, setup, path)
    sigma = np.exp(2.0 * params.lam * params.sup_alpha1) - np.exp(params.lam * alpha1)
    tk = (t ** params.k) * ((T - t) ** params.k)
    return WeightValues(alpha1=alpha1, sigma=sigma, alpha=sigma / tk,
                        xi=np.exp(params.lam * alpha1) / tk)


def _loop_check_weight_profile(setup, path, n_r=801, n_t=33):
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
            _loop_weight_profile(np.array([-R, R]), t, setup, path)))))
        origin_slope = max(origin_slope, abs(float(
            _loop_weight_profile_dr(np.array([0.0]), t, setup, path)[0])))
        left = -bump_poly_dw(0.0, z) / b
        right = -1.0 / (R - b)
        c1_gap = max(c1_gap, abs(float(left - right)))
        r = np.linspace(0.0, R, n_r)
        vals_p = _loop_weight_profile(r, t, setup, path)
        vals_m = _loop_weight_profile(-r, t, setup, path)
        evenness = max(evenness, float(np.max(np.abs(vals_p - vals_m))))
        ann = np.linspace(b0 + 0.01, R - 0.01, n_r)
        annulus_min = min(annulus_min, float(np.min(np.abs(
            _loop_weight_profile_dr(ann, t, setup, path)))))
        origin_gap = max(origin_gap, abs(float(
            _loop_weight_profile(np.array([0.0]), t, setup, path)[0]) - 2.0))
        control_gap = max(control_gap, abs(float(
            _loop_weight_profile(np.array([b]), t, setup, path)[0]) - 1.0))
        seg = np.linspace(b, R, n_r)
        linear_gap = max(linear_gap, float(np.max(np.abs(
            _loop_weight_profile(seg, t, setup, path) - (1.0 - (seg - b) / (R - b))))))
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


def _loop_carleman_sides(phi, forcing, params, setup, path, margin=None):
    values = phi.values
    m = path.steps
    n = phi.n_intervals
    h = 1.0 / n
    dt = path.dt
    delta = max(1.0 / m, 0.0 if margin is None else margin)
    j_lo = max(1, int(np.ceil(delta * m - 1e-9)))
    j_hi = min(m - 1, int(np.floor((1.0 - delta) * m + 1e-9)))

    fvals = None
    if forcing is not None:
        fvals = forcing.values if isinstance(forcing, SpaceTimeField) else np.asarray(forcing)

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
        wv = _loop_weight_functions(r_nodes, float(t), params, setup, path)
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


@settings(max_examples=40)
@given(n=st.integers(8, 40), m=st.integers(8, 48), horizon=st.floats(0.2, 1.0),
       amp=st.floats(0.0, 0.15), freq=st.integers(1, 3),
       margin=st.one_of(st.none(), st.floats(0.0, 0.3)),
       lam=st.floats(0.5, 2.0), s=st.floats(1e-5, 1e-3), k=st.integers(2, 3),
       forced=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_array_diagnostic_matches_level_loop(n, m, horizon, amp, freq, margin,
                                             lam, s, k, forced, seed):
    # the space-time array evaluation against the per-level loops it replaced,
    # on wobbling paths: profile report and sup alpha1 bitwise, every weighted
    # energy field to 1e-13 relative (only the summation order differs)
    setup = PhysicalSetup(T=horizon)
    cfg = SchemeConfig(n=n, m=m)
    path = _wobbling_path(horizon, amp, freq, m)
    assert check_weight_profile(setup, path) == _loop_check_weight_profile(setup, path)
    params = CarlemanParams.calibrate(lam, s, k, setup, path)
    assert params.sup_alpha1 == _loop_calibrate_sup(setup, path)

    rng = np.random.default_rng(seed)
    phiT = np.zeros(n + 1)
    phiT[1:-1] = rng.standard_normal(n - 1)
    forcing = rng.standard_normal((n + 1, m + 1)) if forced else None
    phi = solve_adjoint(phiT, path, None, forcing, cfg)
    for p in (params, params.doubled_s()):
        got = asdict(carleman_sides(phi, forcing, p, setup, path, margin=margin))
        want = asdict(_loop_carleman_sides(phi, forcing, p, setup, path, margin=margin))
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-13 * abs(value), key


def test_pointwise_profile_keeps_its_errors():
    setup = PhysicalSetup()
    path = constant_path(setup.R0, setup.T, 8)
    r = np.linspace(-setup.R0, setup.R0, 41)
    t = 0.3 * setup.T
    assert np.array_equal(weight_profile(r, t, setup, path),
                          _loop_weight_profile(r, t, setup, path))
    assert np.array_equal(weight_profile_dr(r, t, setup, path),
                          _loop_weight_profile_dr(r, t, setup, path))
    with pytest.raises(OutOfDomainError, match=r"\|r\| up to 1\.5 exceeds R\(t\)=1$"):
        weight_profile(np.array([0.2, -1.5, 1.2]), t, setup, path)
    with pytest.raises(OutOfDomainError):
        weight_profile_dr(np.array([1.01]), t, setup, path)
