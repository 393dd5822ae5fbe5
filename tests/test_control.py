"""Penalized HUM synthesis: decay in epsilon, optimality, dense oracle."""

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from stefanlab import control
from stefanlab.control import (
    HUMConfig,
    VARIANT_EXACT,
    VARIANT_QUADRATIC,
    cost_report,
    dense_gramian,
    solve_hum,
)
from stefanlab.domain import PhysicalSetup, constant_path, line_l2_norm, path_from_function
from stefanlab.errors import ConvergenceError, EndpointConditionError, GridError
from stefanlab.pde import SchemeConfig, propagator, solve_forward

# no shrink phase: shrinking a failing example re-runs whole sweeps over and
# over, while the unshrunk example, one of the same derandomized ones,
# reports at once
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

_B = 0.3   # default control radius


def _sine_data(cfg, amplitude=0.1):
    u0 = amplitude * np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    return u0


def test_hum_config_validation():
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(GridError):
            HUMConfig(epsilon=eps)
    with pytest.raises(GridError):
        HUMConfig(variant="soft")


def test_quadratic_drives_final_norm_down():
    cfg = SchemeConfig(n=24, m=48)
    path = constant_path(1.0, 0.5, cfg.m)
    u0 = _sine_data(cfg)
    free_norm = None
    previous = np.inf
    for eps in (1e-2, 1e-4, 1e-6):
        out = solve_hum(u0, path, None, _B, HUMConfig(epsilon=eps), cfg)
        if free_norm is None:
            free_norm = line_l2_norm(u0, 1.0, cfg.grid)
        assert out.final_norm <= previous * (1.0 + 1e-12)
        previous = out.final_norm
    assert previous <= 0.01 * free_norm


def test_quadratic_optimality_and_eps_identity():
    cfg = SchemeConfig(n=24, m=48)
    path = constant_path(1.0, 0.5, cfg.m)
    out = solve_hum(_sine_data(cfg), path, None, _B,
                    HUMConfig(epsilon=1e-4), cfg)
    assert out.optimality_residual <= 1e-10
    # y(T) = -eps phiT at the minimizer of the quadratic objective
    assert out.eps_identity_defect <= 1e-8
    assert out.J_value < 0.0   # nonzero minimizer strictly beats phiT = 0


def test_exact_variant_pins_final_norm_at_epsilon():
    cfg = SchemeConfig(n=20, m=40)
    path = constant_path(1.0, 0.5, cfg.m)
    for eps, tol in ((1e-4, 1e-12), (1e-6, 1e-10)):
        out = solve_hum(_sine_data(cfg), path, None, _B,
                        HUMConfig(epsilon=eps, variant=VARIANT_EXACT), cfg)
        assert out.final_norm == pytest.approx(eps, rel=tol)
        assert out.eps_identity_defect <= tol
        assert out.optimality_residual <= 1e-12
        assert 0 < out.iterations <= 15


def test_exact_optimality_residual_detects_a_wrong_penalty(monkeypatch):
    # the residual takes mu = eps / ||phiT|| from the subgradient, not the
    # penalty the solve used, so a penalty off the secular root shows in it
    cfg = SchemeConfig(n=20, m=40)
    path = constant_path(1.0, 0.5, cfg.m)
    hum = HUMConfig(epsilon=1e-4, variant=VARIANT_EXACT)
    assert solve_hum(_sine_data(cfg), path, None, _B, hum, cfg).optimality_residual <= 1e-12
    root = control._secular_penalty
    monkeypatch.setattr(control, "_secular_penalty",
                        lambda *args: (1.01 * root(*args)[0], root(*args)[1]))
    monkeypatch.setattr(control, "_PIN_TOL", np.inf)
    assert solve_hum(_sine_data(cfg), path, None, _B, hum, cfg).optimality_residual > 1e-6


@settings(max_examples=100, derandomize=True, deadline=None, phases=_NO_SHRINK)
@given(n=st.integers(8, 32), m=st.integers(8, 48), theta=st.floats(0.5, 1.0),
       amp=st.floats(0.0, 0.3), freq=st.integers(1, 3), pot=st.floats(-3.0, 3.0),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       modes=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       exponent=st.floats(-5.0, -1.0))
def test_exact_variant_against_dense_oracle(n, m, theta, amp, freq, pot, radius, modes,
                                            exponent):
    # oracle: the Gramian from one apply per unit column and numpy's solve.
    # The minimizer solves (G + mu I) phi = -y with mu ||phi|| = eps in the
    # interior Euclidean scaling
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = path_from_function(lambda t: 1.0 + amp * np.sin(freq * np.pi * t),
                              lambda t: amp * freq * np.pi * np.cos(freq * np.pi * t),
                              0.4, m)
    rho, t = np.meshgrid(cfg.grid.nodes, path.times, indexing="ij")
    potential = pot * np.cos(np.pi * rho) * np.cos(np.pi * t)
    u0 = sum(c * np.sin((k + 1) * np.pi * cfg.grid.nodes) for k, c in enumerate(modes))
    u0[0] = u0[-1] = 0.0
    eps = 10.0 ** exponent
    eps_eff = eps / np.sqrt(path.radii[-1] * cfg.grid.spacing)
    y = solve_forward(u0, path, potential, None, cfg).values[1:-1, -1]
    assume(abs(np.linalg.norm(y) / eps_eff - 1.0) > 1e-9)
    G = dense_gramian(path, potential, radius, cfg)
    lam_max = np.linalg.eigvalsh(G)[-1]
    hum = HUMConfig(epsilon=eps, variant=VARIANT_EXACT)
    try:
        out = solve_hum(u0, path, potential, radius, hum, cfg)
    except ConvergenceError as exc:
        # refused only for a root so near G's rounding floor that the pin loses
        # accuracy: at lam_max / mu = 1e6 the penalized solve still overshoots eps
        assert "out of reach" in str(exc)
        mu = 1e-6 * lam_max
        assert mu * np.linalg.norm(np.linalg.solve(G + mu * np.eye(n - 1), y)) > eps_eff
        return
    phi = out.phiT[1:-1]
    if np.linalg.norm(y) <= eps_eff:
        assert np.all(out.phiT == 0.0) and out.iterations == 0
        return
    assert np.all(np.isfinite(phi)) and np.any(phi != 0.0)
    mu = eps_eff / np.linalg.norm(phi)
    residual = np.linalg.norm((G + mu * np.eye(n - 1)) @ phi + y) / np.linalg.norm(y)
    assert residual <= 1e-8
    assert out.final_norm == pytest.approx(eps, rel=1e-10)
    assert out.iterations <= 20


def test_exact_variant_idles_when_target_already_met():
    # the nonsmooth penalty zeroes the minimizer as soon as the free final
    # norm is below eps; the quadratic variant always keeps a small control
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.4, cfg.m)
    u0 = _sine_data(cfg, amplitude=0.02)
    free = solve_hum(u0, path, None, _B, HUMConfig(epsilon=1e-1), cfg)
    sharp = solve_hum(u0, path, None, _B,
                      HUMConfig(epsilon=1e-1, variant=VARIANT_EXACT), cfg)
    assert sharp.cost == 0.0
    assert np.all(sharp.phiT == 0.0)
    assert sharp.final_norm <= 1e-1          # the free norm already qualifies
    assert free.cost > 0.0


def test_zero_data_gives_zero_control():
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.3, cfg.m)
    out = solve_hum(np.zeros(cfg.n + 1), path, None, _B, HUMConfig(), cfg)
    assert out.iterations == 0
    assert out.cost == 0.0
    assert out.final_norm == 0.0
    assert out.cost_ratio == 0.0
    assert np.array_equal(out.control.values, np.zeros((cfg.n + 1, cfg.m + 1)))


def test_bad_initial_data_refused_before_any_step(monkeypatch):
    # the free final state comes from the assembled forms, and u0 is checked
    # before they are assembled
    from stefanlab import pde

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the initial data check")

    monkeypatch.setattr(pde, "_solve_implicit", no_step)
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.3, cfg.m)
    u0 = _sine_data(cfg)
    for bad, error in ((np.pad(u0, (0, 1)), GridError), (u0 + 1e-3, EndpointConditionError),
                       (np.where(u0 > 0.05, np.nan, u0), GridError)):
        with pytest.raises(error):
            solve_hum(bad, path, None, _B, HUMConfig(), cfg)


def test_matrix_free_matches_dense_gramian():
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.3, cfg.m)
    G = dense_gramian(path, None, _B, cfg)
    sym = np.max(np.abs(G - G.T)) / np.max(np.abs(G))
    assert sym <= 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (G + G.T))) >= -1e-12 * np.max(np.abs(G))
    rng = np.random.default_rng(8)
    x = np.zeros(cfg.n + 1)
    x[1:-1] = rng.standard_normal(cfg.n - 1)
    free = propagator(path, None, cfg, control_radius=_B).apply_gramian(x)[1:-1]
    assert np.allclose(free, G @ x[1:-1], rtol=0.0,
                       atol=1e-8 * np.max(np.abs(free)))


def test_dense_gramian_grid_cap():
    cfg = SchemeConfig(n=80, m=32)
    path = constant_path(1.0, 0.3, cfg.m)
    with pytest.raises(GridError):
        dense_gramian(path, None, _B, cfg)


def test_prox_cap_raises_with_history(monkeypatch):
    cfg = SchemeConfig(n=24, m=48)
    path = constant_path(1.0, 0.5, cfg.m)
    monkeypatch.setattr(HUMConfig, "prox_max_iter", 1)
    with pytest.raises(ConvergenceError, match="did not settle") as err:
        solve_hum(_sine_data(cfg), path, None, _B,
                  HUMConfig(epsilon=1e-4, variant=VARIANT_EXACT), cfg)
    assert len(err.value.history) == 1   # one Newton step per iteration


def test_root_below_rounding_floor_raises_with_history():
    # rough data on a coarse Crank-Nicolson grid: the free final state keeps
    # weight in directions where G is zero to rounding, so eps would need a
    # penalty below G's rounding floor, which no control on the grid reaches
    cfg = SchemeConfig(n=19, m=23)
    path = constant_path(1.0, 0.5, cfg.m)
    u0 = np.zeros(cfg.n + 1)
    u0[1:-1] = np.random.default_rng(0).standard_normal(cfg.n - 1)
    eps = 4.9e-3
    with pytest.raises(ConvergenceError, match="out of reach") as err:
        solve_hum(u0, path, None, _B, HUMConfig(epsilon=eps, variant=VARIANT_EXACT), cfg)
    steps = np.array(err.value.history)
    assert 0 < len(steps) < HUMConfig().prox_max_iter
    assert np.all(steps > 0.0)   # Newton approaches the root from the right
    # the iterates replayed from the oracle Gramian: the first one at or
    # below the floor (n-1) eps_mach lam_max stops the iteration
    lam_max = np.linalg.eigvalsh(dense_gramian(path, None, _B, cfg))[-1]
    y = solve_forward(u0, path, None, None, cfg).values[1:-1, -1]
    eps_eff = eps / np.sqrt(path.radii[-1] * cfg.grid.spacing)
    mu = eps_eff * lam_max / (np.linalg.norm(y) - eps_eff) - np.cumsum(steps)
    floor = (cfg.n - 1) * np.finfo(float).eps * lam_max
    assert mu[-1] <= floor < mu[-2]


def test_inaccurate_pin_raises_with_history():
    # roots above G's rounding floor but near it: the Newton steps settle,
    # yet the verified final norm misses eps by about 1e-5 and 5e-8 relative,
    # so the solves are refused; a larger eps on the same grid pins to 1e-10
    cfg = SchemeConfig(n=10, m=8, theta=1.0)
    path = constant_path(1.0, 0.4, cfg.m)
    u0 = 10.0 * np.sin(np.pi * cfg.grid.nodes)
    for eps in (1e-5, 3e-5):
        with pytest.raises(ConvergenceError, match="misses it by") as err:
            solve_hum(u0, path, None, 0.2, HUMConfig(epsilon=eps, variant=VARIANT_EXACT), cfg)
        assert 0 < len(err.value.history) < HUMConfig.prox_max_iter
    out = solve_hum(u0, path, None, 0.2, HUMConfig(epsilon=1e-3, variant=VARIANT_EXACT), cfg)
    assert out.final_norm == pytest.approx(1e-3, rel=1e-10)


def test_cost_report_keys_and_values():
    setup = PhysicalSetup()
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(setup.R0, setup.T, cfg.m)
    u0 = _sine_data(cfg)
    out = solve_hum(u0, path, None, setup.b, HUMConfig(), cfg)
    report = cost_report(out, u0, setup, path, None, cfg)
    for key in ("cost", "cost_ratio", "initial_h1_seminorm", "final_norm",
                "R_star", "E", "b", "sup_path_slope", "sup_potential", "horizon"):
        assert key in report
    assert report["sup_potential"] == 0.0
    assert report["cost_ratio"] == pytest.approx(
        report["cost"] / report["initial_h1_seminorm"], rel=1e-12)


def test_control_is_masked_to_the_region():
    cfg = SchemeConfig(n=20, m=30)
    path = constant_path(1.0, 0.4, cfg.m)
    out = solve_hum(_sine_data(cfg), path, None, _B, HUMConfig(), cfg)
    outside = cfg.grid.nodes * 1.0 >= _B       # physical radii on a unit path
    assert np.all(out.control.values[outside, :] == 0.0)
    assert np.any(out.control.values[~outside, 1:] != 0.0)


def test_potential_changes_the_control():
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.4, cfg.m)
    u0 = _sine_data(cfg)
    base = solve_hum(u0, path, None, _B, HUMConfig(), cfg)
    pot = np.full((cfg.n + 1, cfg.m + 1), 3.0)
    shifted = solve_hum(u0, path, pot, _B, HUMConfig(), cfg)
    assert not np.allclose(base.phiT, shifted.phiT)
    assert shifted.final_norm <= base.final_norm * 1.5
