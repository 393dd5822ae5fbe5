"""Penalized HUM synthesis: decay in epsilon, optimality, dense oracle."""

import numpy as np
import pytest

from stefanlab.control import (
    HUMConfig,
    VARIANT_EXACT,
    VARIANT_QUADRATIC,
    apply_gramian,
    cost_report,
    dense_gramian,
    solve_hum,
)
from stefanlab.domain import PhysicalSetup, constant_path, line_l2_norm
from stefanlab.errors import ConvergenceError, GridError
from stefanlab.pde import SchemeConfig

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
    with pytest.raises(GridError):
        HUMConfig(prox_max_iter=0)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(GridError):
            HUMConfig(prox_tol=tol)


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
    eps = 1e-4
    out = solve_hum(_sine_data(cfg), path, None, _B,
                    HUMConfig(epsilon=eps, variant=VARIANT_EXACT), cfg)
    assert out.final_norm == pytest.approx(eps, rel=1e-2)
    assert out.eps_identity_defect <= 1e-2


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
    free = apply_gramian(x, path, None, _B, cfg)[1:-1]
    assert np.allclose(free, G @ x[1:-1], rtol=0.0,
                       atol=1e-8 * np.max(np.abs(free)))


def test_dense_gramian_grid_cap():
    cfg = SchemeConfig(n=80, m=32)
    path = constant_path(1.0, 0.3, cfg.m)
    with pytest.raises(GridError):
        dense_gramian(path, None, _B, cfg)


def test_prox_cap_raises_with_history():
    cfg = SchemeConfig(n=24, m=48)
    path = constant_path(1.0, 0.5, cfg.m)
    with pytest.raises(ConvergenceError) as err:
        solve_hum(_sine_data(cfg), path, None, _B,
                  HUMConfig(epsilon=1e-4, variant=VARIANT_EXACT, prox_max_iter=50), cfg)
    assert len(err.value.history) == 50   # one iterate move per iteration


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
