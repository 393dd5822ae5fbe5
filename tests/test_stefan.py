"""Melting law, coupled marching, and the linearize-control-update loop."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab.control import HUMConfig, solve_hum
from stefanlab.domain import (
    PhysicalSetup,
    ROLE_CONTROL,
    ROLE_STATE,
    SpaceTimeField,
    constant_path,
    line_l2_norm,
)
from stefanlab.errors import (
    ConvergenceError,
    FieldRoleError,
    GridError,
    InstabilityError,
    RadiusBreachError,
)
from stefanlab import pde, stefan
from stefanlab.cli import main
from stefanlab.pde import SchemeConfig, boundary_flux, solve_forward, solve_semilinear
from stefanlab.stefan import (
    FixedPointConfig,
    Nonlinearity,
    coupled_solve,
    fixed_point_iterate,
    integrate_boundary,
    linearize_and_control,
    stefan_rate,
    write_history_csv,
)


# -- nonlinearity ------------------------------------------------------------


def test_nonlinearity_kinds_and_validation():
    assert Nonlinearity.zero().kind == "zero"
    assert Nonlinearity.linear(slope=2.0).lipschitz == 2.0
    assert Nonlinearity.sine(amplitude=0.5).lipschitz == 0.5
    # a direct construction reports the bound of its kind too
    assert Nonlinearity(kind="linear", amplitude=2.0).lipschitz == 2.0
    assert Nonlinearity(kind="sine", amplitude=-3.0).lipschitz == 3.0
    assert Nonlinearity(kind="zero").lipschitz == 0.0
    with pytest.raises(GridError):
        Nonlinearity(kind="cubic")
    with pytest.raises(GridError):
        Nonlinearity.from_table([0.0, 1.0], [0.1, 1.0])   # f(0) != 0
    with pytest.raises(GridError):
        Nonlinearity.from_table([0.5, 1.0], [0.0, 1.0])   # bracket misses 0
    # a bad table is refused as a table, before any Lipschitz bound is formed
    nan = float("nan")
    for s, f, match in (([0.0, -1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
                        ([-1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0], "strictly increasing"),
                        ([-1.0, nan, 1.0], [1.0, 0.0, 1.0], "strictly increasing"),
                        ([nan, 0.0, 1.0], [1.0, 0.0, 1.0], "strictly increasing"),
                        ([-1.0, 0.0, 1.0], [nan, 0.0, 1.0], "values must be finite"),
                        ([-1.0, 0.0], [1.0, 0.0, 1.0], "matching 1-d"),
                        ([-1e-308, 0.0, 1e-308], [-1e300, 0.0, 1e300], "secants must be finite")):
        with pytest.raises(GridError, match=match):
            Nonlinearity.from_table(s, f)


def test_only_a_table_takes_a_finite_slope_at_zero():
    # the kind fixes f'(0) of the other kinds; a contradicting one is refused
    with pytest.raises(GridError, match="slope_at_zero"):
        Nonlinearity(kind="sine", amplitude=1.0, slope_at_zero=3.0)
    with pytest.raises(GridError, match="slope_at_zero"):
        Nonlinearity(kind="zero", slope_at_zero=0.0)
    with pytest.raises(GridError, match="slope_at_zero"):
        Nonlinearity.from_table([-1, 0, 1], [-1, 0, 1], slope_at_zero=float("nan"))


def test_fixed_point_config_validation():
    # a non-finite tolerance or schedule entry, or a cap that is not an
    # integer, is refused at construction, not after the Picard loop has run
    for bad in ({"fp_tol": float("inf")}, {"fp_tol": float("nan")}, {"fp_tol": 0.0},
                {"max_outer": 0}, {"max_outer": 2.5}, {"max_outer": 20.0},
                {"max_outer": True}, {"epsilon_schedule": (1e-3, float("inf"))},
                {"epsilon_schedule": (float("nan"),)}, {"epsilon_schedule": (0.0,)}):
        with pytest.raises(GridError):
            FixedPointConfig(**bad)
    assert FixedPointConfig(max_outer=np.int64(5)).max_outer == 5


def test_nonlinearity_values():
    s = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(Nonlinearity.zero().value(s), np.zeros_like(s))
    assert np.allclose(Nonlinearity.linear(slope=1.5).value(s), 1.5 * s)
    assert np.allclose(Nonlinearity.sine(amplitude=2.0).value(s), 2.0 * np.sin(s))
    table = Nonlinearity.from_table([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0])
    assert np.allclose(table.value(s), np.interp(s, [-1, 0, 1], [-2, 0, 2]))
    assert table.lipschitz == pytest.approx(2.0)


def test_nonlinearity_slope_fills_origin():
    # g(s) = f(s)/s extended by f'(0), which the kind fixes: the amplitude
    # for linear and sine, however they are constructed, and 0 for zero
    sine = Nonlinearity.sine()
    s = np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0])
    g = sine.slope(s)
    assert g[2] == 1.0
    assert g[0] == pytest.approx(np.sin(1.0), rel=1e-12)
    for amplitude in (2.0, -0.7):
        for nl in (Nonlinearity.linear(amplitude), Nonlinearity.sine(amplitude),
                   Nonlinearity(kind="linear", amplitude=amplitude),
                   Nonlinearity(kind="sine", amplitude=amplitude)):
            assert nl.slope(0.0) == amplitude
    zero = Nonlinearity.zero().slope(s)
    assert np.array_equal(zero, np.zeros(5))   # bitwise zeros
    assert Nonlinearity(kind="zero").slope(0.0) == 0.0
    table = Nonlinearity.from_table([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0],
                                    slope_at_zero=2.0)
    assert table.slope(np.array([0.0]))[0] == 2.0


# -- melting law --------------------------------------------------------------


def _uniform_field(profile, m, role=ROLE_STATE):
    vals = np.repeat(np.asarray(profile, dtype=float)[:, None], m + 1, axis=1)
    return SpaceTimeField(vals, role=role)


def test_stefan_rate_quadratic_oracle():
    # u = rho^2 - rho has u_rho(1) = 1 exactly under the one-sided stencil,
    # so the rate is -1 / R^2
    cfg = SchemeConfig(n=20, m=8)
    for R in (1.0, 1.25):
        path = constant_path(R, 0.1, cfg.m)
        rho = cfg.grid.nodes
        field = _uniform_field(rho * rho - rho, cfg.m)
        rate = stefan_rate(field, path, 4)
        assert rate == pytest.approx(-1.0 / (R * R), rel=1e-12)


def test_integrate_boundary_closed_form():
    # field column j = t_j (rho^2 - rho): rate(t) = -t / R0^2 exactly, so the
    # trapezoid reproduces R(t) = R0 - t^2 / (2 R0^2) to rounding
    setup = PhysicalSetup(T=0.4)
    cfg = SchemeConfig(n=16, m=32)
    path = constant_path(setup.R0, setup.T, cfg.m)
    rho = cfg.grid.nodes
    vals = np.outer(rho * rho - rho, path.times)
    field = SpaceTimeField(vals, role=ROLE_STATE)
    new = integrate_boundary(field, path, setup)
    expected = setup.R0 - 0.5 * path.times ** 2 / setup.R0 ** 2
    assert np.allclose(new.radii, expected, rtol=0.0, atol=1e-14)
    assert np.allclose(new.slopes, -path.times / setup.R0 ** 2, atol=1e-14)


def test_integrate_boundary_breach_reports_first_index():
    setup = PhysicalSetup(T=0.5)
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(setup.R0, setup.T, cfg.m)
    rho = cfg.grid.nodes
    # large positive boundary derivative melts the domain through R_star
    vals = np.repeat((3.0 * (rho * rho - rho))[:, None], cfg.m + 1, axis=1)
    field = SpaceTimeField(vals, role=ROLE_STATE)
    with pytest.raises(RadiusBreachError) as err:
        integrate_boundary(field, path, setup)
    assert err.value.first_index > 0
    assert err.value.r_min < setup.R_star


def test_integrate_boundary_checks_the_field():
    setup = PhysicalSetup(T=0.4)
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(setup.R0, setup.T, cfg.m)
    rho = cfg.grid.nodes
    with pytest.raises(FieldRoleError):
        integrate_boundary(_uniform_field(rho * rho - rho, cfg.m, role=ROLE_CONTROL),
                           path, setup)
    with pytest.raises(GridError):
        integrate_boundary(_uniform_field(rho * rho - rho, cfg.m + 1), path, setup)
    # two rows are too few for the one-sided flux stencil, which would wrap
    two_rows = _uniform_field(np.zeros(2), cfg.m)
    for flux in (lambda: integrate_boundary(two_rows, path, setup),
                 lambda: stefan_rate(two_rows, path, 3),
                 lambda: boundary_flux(two_rows, path, 3)):
        with pytest.raises(GridError, match="at least 3 rows"):
            flux()


# -- coupled dynamics ----------------------------------------------------------


def test_coupled_zero_data_is_stationary():
    setup = PhysicalSetup(T=0.3)
    cfg = SchemeConfig(n=16, m=24)
    state, path = coupled_solve(np.zeros(cfg.n + 1), setup, None, cfg)
    assert np.array_equal(state.values, np.zeros((cfg.n + 1, cfg.m + 1)))
    assert np.all(path.radii == setup.R0)
    assert np.all(path.slopes == 0.0)


def test_coupled_bump_grows_boundary_and_decays_state():
    setup = PhysicalSetup(T=0.3, z0=lambda r: 0.3 * np.sin(np.pi * r))
    cfg = SchemeConfig(n=30, m=60)
    u0 = setup.initial_line_field(cfg.grid)
    state, path = coupled_solve(u0, setup, None, cfg)
    assert np.all(np.diff(path.radii) >= -1e-14)      # warm bump melts outward
    norms = [line_l2_norm(state.values[:, j], float(path.radii[j]), cfg.grid)
             for j in range(0, cfg.m + 1, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert path.radii[-1] > setup.R0
    assert path.radii[-1] < setup.E


def test_coupled_rejects_wrong_control_role():
    setup = PhysicalSetup(T=0.2)
    cfg = SchemeConfig(n=16, m=16)
    bad = SpaceTimeField(np.zeros((cfg.n + 1, cfg.m + 1)), role=ROLE_STATE)
    with pytest.raises(FieldRoleError):
        coupled_solve(np.zeros(cfg.n + 1), setup, bad, cfg)


def test_coupled_rejects_nonfinite_data():
    # non-finite data is refused up front, before any step runs
    setup = PhysicalSetup(T=0.2)
    cfg = SchemeConfig(n=16, m=16)
    u0 = np.zeros(cfg.n + 1)
    for value in (np.nan, np.inf, -np.inf):
        control = np.zeros((cfg.n + 1, cfg.m + 1))
        control[3, 4] = value
        with pytest.raises(GridError, match="control must be finite"):
            coupled_solve(u0, setup, control, cfg)
        bad = u0.copy()
        bad[5] = value
        with pytest.raises(GridError, match="initial data must be finite"):
            coupled_solve(bad, setup, None, cfg)
        with pytest.raises(GridError, match="initial data must be finite"):
            fixed_point_iterate(bad, setup, FixedPointConfig(), HUMConfig(), cfg)


def test_coupled_breach_raises():
    # cold data freezes the domain; the shrinking radius feeds back into the
    # rate and the boundary crosses R_star in finite time
    setup = PhysicalSetup(T=1.0, z0=lambda r: -2.0 * np.sin(np.pi * r))
    cfg = SchemeConfig(n=24, m=48)
    u0 = setup.initial_line_field(cfg.grid)
    with pytest.raises(RadiusBreachError):
        coupled_solve(u0, setup, None, cfg)


def test_coupled_singular_step_reports_refinement(monkeypatch):
    # gtsv reporting a zero pivot (info > 0) on a candidate level stops the
    # march with the step it was solving and a refined grid to try
    calls = []
    gtsv = pde._gtsv

    def singular_on_fifth(dl, d, du, b, *args, **kwargs):
        calls.append(1)
        if len(calls) < 5:
            return gtsv(dl, d, du, b, *args, **kwargs)
        return dl, d, du, b, 3          # (du2, d, du, x, info)

    monkeypatch.setattr(pde, "_gtsv", singular_on_fifth)
    setup = PhysicalSetup(T=0.3, z0=lambda r: 0.3 * np.sin(np.pi * r))
    cfg = SchemeConfig(n=16, m=24)
    with pytest.raises(InstabilityError) as err:
        coupled_solve(setup.initial_line_field(cfg.grid), setup, None, cfg)
    # steps 0 and 1 solve twice each, so the fifth solve is step 2's predictor
    assert str(err.value) == "implicit step 2 is singular: tridiagonal solve failed (gtsv info=3)"
    assert err.value.suggested_nodes == 2 * cfg.n
    assert err.value.suggested_steps == 2 * cfg.m


@settings(max_examples=60)
@given(n=st.integers(8, 48), m=st.integers(8, 48), theta=st.floats(0.5, 1.0),
       amp=st.floats(-0.4, 0.4),
       reaction=st.sampled_from([None, 0.8, -1.5]), controlled=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_coupled_path_replays_bitwise(n, m, theta, amp, reaction, controlled, seed):
    # the realized boundary path, put through the plain solver, reproduces
    # the march's state exactly: every step ran on the stored (R, R') pair
    nl = None if reaction is None else Nonlinearity.sine(reaction)
    setup = PhysicalSetup(T=0.3, z0=lambda r: amp * np.sin(np.pi * r), nonlinearity=nl)
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    u0 = setup.initial_line_field(cfg.grid)
    control = None
    if controlled:
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n + 1, m + 1))
        control = SpaceTimeField(values, role=ROLE_CONTROL)
    state, path = coupled_solve(u0, setup, control, cfg)
    if nl is None:
        replay = solve_forward(u0, path, None, control, cfg, control_radius=setup.b)
    else:
        replay = solve_semilinear(u0, path, nl, cfg, control=control, control_radius=setup.b)
    assert np.array_equal(state.values, replay.values)


# -- linearize, control, update -----------------------------------------------


def test_lambda_map_zero_kind_matches_plain_hum_bitwise():
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.1 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.zero())
    cfg = SchemeConfig(n=20, m=40)
    hum = HUMConfig(epsilon=1e-4)
    u0 = setup.initial_line_field(cfg.grid)
    rbar = constant_path(setup.R0, setup.T, cfg.m)
    zbar = np.repeat(u0[:, None], cfg.m + 1, axis=1)
    outcome = linearize_and_control(zbar, rbar, u0, setup, hum, cfg)
    plain = solve_hum(u0, rbar, None, setup.b, hum, cfg)
    assert outcome.hum.final_norm == plain.final_norm
    assert outcome.hum.cost == plain.cost
    assert outcome.hum.J_value == plain.J_value
    assert np.array_equal(outcome.hum.phiT, plain.phiT)


def test_lambda_map_reports_memberships():
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.05 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    cfg = SchemeConfig(n=20, m=40)
    u0 = setup.initial_line_field(cfg.grid)
    rbar = constant_path(setup.R0, setup.T, cfg.m)
    zbar = np.repeat(u0[:, None], cfg.m + 1, axis=1)
    outcome = linearize_and_control(zbar, rbar, u0, setup, HUMConfig(), cfg)
    assert outcome.path.radii[0] == setup.R0


def _stopped(rec, fp_tol):
    """Whether an iteration record meets the loop's stopping rule."""
    return max(rec.dz_sup, rec.dR_sup, rec.dRp_sup) < fp_tol


def test_fixed_point_converges_for_small_data():
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.02 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    cfg = SchemeConfig(n=20, m=40)
    fpc = FixedPointConfig(fp_tol=1e-6, max_outer=20)
    result = fixed_point_iterate(None, setup, fpc, HUMConfig(epsilon=1e-6), cfg)
    assert _stopped(result.history[-1], fpc.fp_tol)
    assert result.iterations <= 8
    drops = [rec.dz_sup for rec in result.history]
    assert drops[-1] < 1e-6
    assert drops[0] > drops[-1]
    assert np.all(result.path.radii >= setup.R_star)
    assert np.all(result.path.radii <= setup.E)


def test_fixed_point_solves_the_semilinear_problem():
    # the solvers apply the reaction r f(u/r) to the line field u, so the
    # fixed point must freeze the potential g(u/r), g(s) = f(s)/s: replayed
    # with its own control on its own path through solve_semilinear, its
    # state is matched up to the first-order error of the lagged reaction
    f = Nonlinearity.from_table([-1.0, -0.1, 0.0, 0.1, 1.0], [-0.2, -0.1, 0.0, 0.5, 0.6])
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.3 * np.sin(np.pi * r), nonlinearity=f)
    gaps = []
    for n in (30, 60):
        cfg = SchemeConfig(n=n, m=2 * n)
        fpc = FixedPointConfig()
        result = fixed_point_iterate(None, setup, fpc, HUMConfig(epsilon=1e-4), cfg)
        assert _stopped(result.history[-1], fpc.fp_tol)
        replay = solve_semilinear(setup.initial_line_field(cfg.grid), result.path, f, cfg,
                                  control=result.hum.control, control_radius=setup.b)
        state = result.hum.state.values
        gaps.append(np.max(np.abs(replay.values - state)) / np.max(np.abs(state)))
    assert gaps[0] <= 3e-3
    assert gaps[1] <= 0.6 * gaps[0]


def test_fixed_point_control_drives_the_free_boundary_march_to_it():
    # the closed loop: the fixed point's own control, fed to the real
    # free-boundary march, reproduces the fixed point's radius and state up
    # to the first-order error of the lagged reaction
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.3 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    radius_gaps, state_gaps = [], []
    for n in (30, 60):
        cfg = SchemeConfig(n=n, m=2 * n)
        fpc = FixedPointConfig(fp_tol=1e-10, max_outer=60)
        result = fixed_point_iterate(None, setup, fpc, HUMConfig(epsilon=1e-6), cfg)
        assert _stopped(result.history[-1], fpc.fp_tol)
        state, path = coupled_solve(setup.initial_line_field(cfg.grid), setup,
                                    result.hum.control, cfg)
        fixed = result.hum.state.values
        radius_gaps.append(np.max(np.abs(path.radii - result.path.radii)))
        state_gaps.append(np.max(np.abs(state.values - fixed)) / np.max(np.abs(fixed)))
    assert radius_gaps[0] <= 6e-4 and state_gaps[0] <= 2e-3
    assert radius_gaps[1] <= 0.6 * radius_gaps[0]
    assert state_gaps[1] <= 0.6 * state_gaps[0]


def test_fixed_point_trivial_data_converges_immediately():
    setup = PhysicalSetup(T=0.5, nonlinearity=Nonlinearity.sine())
    cfg = SchemeConfig(n=16, m=16)
    fpc = FixedPointConfig()
    result = fixed_point_iterate(None, setup, fpc, HUMConfig(), cfg)
    assert _stopped(result.history[-1], fpc.fp_tol)
    assert result.iterations == 1
    assert result.hum.final_norm == 0.0
    assert np.all(result.path.radii == setup.R0)


def test_fixed_point_epsilon_schedule_warm_start():
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.02 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    cfg = SchemeConfig(n=16, m=32)
    fpc = FixedPointConfig(fp_tol=1e-6, max_outer=20,
                           epsilon_schedule=(1e-4, 1e-6))
    result = fixed_point_iterate(None, setup, fpc, HUMConfig(epsilon=1e-2), cfg)
    # the base phase reports through history; eps_history holds the schedule
    assert [rec.epsilon for rec in result.eps_history] == [1e-4, 1e-6]
    finals = [rec.final_norm for rec in result.eps_history]
    assert finals[0] >= finals[-1]
    # every rung, the base one and each scheduled one, ends on the stopping rule
    counts = [rec.iterations for rec in result.eps_history]
    ends = np.cumsum([result.iterations - sum(counts), *counts])
    assert ends[-1] == len(result.history)
    assert all(_stopped(result.history[k - 1], fpc.fp_tol) for k in ends)
    assert result.hum.final_norm == finals[-1]


def test_fixed_point_exhaustion_raises_with_history():
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.05 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    cfg = SchemeConfig(n=16, m=32)
    fpc = FixedPointConfig(fp_tol=1e-14, max_outer=2)
    with pytest.raises(ConvergenceError) as err:
        fixed_point_iterate(None, setup, fpc, HUMConfig(), cfg)
    assert len(err.value.history) == 2


def test_fixed_point_period_two_cycle_raises_early(monkeypatch):
    # f = -5 sin on a unit sine datum at 30 x 60: the map settles on a
    # period-2 cycle (dz 1.366263e-2 on every iteration, the cost ratio
    # alternating 0.9833 / 0.9883), which is named once the differences
    # repeat those of two iterations back, long before max_outer
    setup = PhysicalSetup(T=0.5, z0=lambda r: np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine(-5.0))
    fpc = FixedPointConfig(fp_tol=1e-10, max_outer=60)
    hum = HUMConfig(epsilon=1e-4)
    with pytest.raises(ConvergenceError, match="period-2 cycle") as err:
        fixed_point_iterate(None, setup, fpc, hum, SchemeConfig(n=30, m=60))
    history = err.value.history
    assert len(history) < 40
    assert history[-1].dz_sup == pytest.approx(1.366263e-2, rel=1e-6)
    assert history[-1].cost_ratio == pytest.approx(0.98327, rel=1e-4)
    assert history[-2].cost_ratio == pytest.approx(0.98827, rel=1e-4)

    # refined, the same data converges, and the check leaves the run's bits
    cfg = SchemeConfig(n=60, m=120)
    result = fixed_point_iterate(None, setup, fpc, hum, cfg)
    assert _stopped(result.history[-1], fpc.fp_tol) and result.iterations == 22
    monkeypatch.setattr(stefan, "_repeats", lambda rec, earlier: False)
    unchecked = fixed_point_iterate(None, setup, fpc, hum, cfg)
    assert unchecked.iterations == 22
    assert result.hum.state.values.tobytes() == unchecked.hum.state.values.tobytes()
    assert result.path.radii.tobytes() == unchecked.path.radii.tobytes()


def test_failing_schedule_rung_raises_with_every_record(monkeypatch, tmp_path):
    # f = -5 sin on a unit sine datum at 30 x 60: the base penalty 1e-1
    # converges in 22 maps, and the scheduled rung 1e-4, warm started from
    # there, settles on the period-2 cycle of the test above
    setup = PhysicalSetup(T=0.5, z0=lambda r: np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine(-5.0))
    cfg = SchemeConfig(n=30, m=60)
    hum = HUMConfig(epsilon=1e-1)
    fpc = FixedPointConfig(fp_tol=1e-10, max_outer=60, epsilon_schedule=(1e-4,))
    base = fixed_point_iterate(None, setup, replace(fpc, epsilon_schedule=()), hum, cfg)
    assert base.iterations == 22
    with pytest.raises(ConvergenceError,
                       match="period-2 cycle: the differences of outer iteration 49 ") as err:
        fixed_point_iterate(None, setup, fpc, hum, cfg)
    history = err.value.history
    assert [rec.iteration for rec in history] == list(range(1, 50))
    assert tuple(history[:22]) == base.history

    # with the cycle check off, the rung runs to its cap: 60 more maps
    with monkeypatch.context() as patch:
        patch.setattr(stefan, "_repeats", lambda rec, earlier: False)
        with pytest.raises(ConvergenceError, match=r"did not converge at epsilon=0\.0001 "
                           r"in 60 outer iterations \(last differences ") as err:
            fixed_point_iterate(None, setup, fpc, hum, cfg)
    assert [rec.iteration for rec in err.value.history] == list(range(1, 83))
    assert tuple(err.value.history[:22]) == base.history

    # the fixedpoint scenario writes every record before it fails
    out = tmp_path / "fp"
    config = tmp_path / "rung.json"
    config.write_text(json.dumps({
        "scenario": "fixedpoint",
        "physical": {"z0": {"kind": "sine", "amplitude": 1.0},
                     "nonlinearity": {"kind": "sine", "amplitude": -5.0}},
        "scheme": {"n": 30, "m": 60}, "hum": {"epsilon": 1e-1},
        "fixedpoint": {"fp_tol": 1e-10, "max_outer": 60, "epsilon_schedule": [1e-4]},
    }))
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 1
    with open(out / "fixedpoint-history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["iteration"]) for row in rows] == list(range(1, 50))
    assert [float(row["dz_sup"]) for row in rows] == [rec.dz_sup for rec in history]


def test_write_history_csv(tmp_path):
    setup = PhysicalSetup(T=0.5, z0=lambda r: 0.02 * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    cfg = SchemeConfig(n=16, m=16)
    result = fixed_point_iterate(None, setup, FixedPointConfig(max_outer=10),
                                 HUMConfig(), cfg)
    target = tmp_path / "history.csv"
    write_history_csv(target, result.history)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == ("iteration,dz_sup,dR_sup,dRp_sup,final_norm,"
                        "cost_ratio,R_min,R_max")
    assert len(lines) == len(result.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == result.history[0].dz_sup
