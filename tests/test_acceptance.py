"""Acceptance battery: every advertised capability at its stated tolerance.

One test per criterion; each prints a single PASS line with the measured
numbers once its assertions hold (run with -s to see them).  Budgets are
asserted alongside the tolerances so a quietly degrading solver fails here
before it fails a user.
"""

import time

import numpy as np

from stefanlab.control import HUMConfig, dense_gramian, solve_hum
from stefanlab.domain import (
    PhysicalSetup,
    constant_path,
    line_l2_norm,
    path_from_function,
)
from stefanlab.observability import dense_constant, estimate_constant
from stefanlab.pde import Propagator, SchemeConfig, solve_adjoint, solve_forward
from stefanlab.stefan import (
    FixedPointConfig,
    Nonlinearity,
    coupled_solve,
    fixed_point_iterate,
    integrate_boundary,
    linearize_and_control,
    stefan_rate,
)
from stefanlab.weights import (
    EMPIRICAL_RATIO_BOUND,
    CarlemanParams,
    carleman_sides,
    check_weight_profile,
)
from stefanlab.domain import ROLE_STATE, SpaceTimeField


def _eigenmode_error(n, m):
    cfg = SchemeConfig(n=n, m=m, theta=0.5)
    path = constant_path(1.0, 0.1, m)
    u0 = np.sin(np.pi * cfg.grid.nodes)
    state = solve_forward(u0, path, None, None, cfg)
    exact = u0 * np.exp(-np.pi * np.pi * 0.1)
    return line_l2_norm(state.values[:, -1] - exact, 1.0, cfg.grid)


def test_criterion_01_solver_order():
    start = time.perf_counter()
    ratio = _eigenmode_error(50, 100) / _eigenmode_error(100, 200)
    elapsed = time.perf_counter() - start
    assert ratio >= 3.5
    assert elapsed < 5.0
    print(f"PASS criterion 1: eigenmode L2 error ratio {ratio:.3f} >= 3.5 "
          f"under (50,100)->(100,200) [{elapsed:.2f}s]")


def test_criterion_02_discrete_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    cfg = SchemeConfig(n=20, m=30)
    worst = 0.0
    for _ in range(100):
        amp = rng.uniform(0.0, 0.15)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        freq = int(rng.integers(1, 4))
        path = path_from_function(
            lambda t: 1.0 + amp * np.sin(freq * np.pi * t + phase),
            lambda t: amp * freq * np.pi * np.cos(freq * np.pi * t + phase),
            0.3, cfg.m)
        assert 0.8 <= path.radii.min() and path.radii.max() <= 1.2
        pot = rng.uniform(-2.0, 2.0, size=(cfg.n + 1, cfg.m + 1))
        u0 = np.zeros(cfg.n + 1)
        u0[1:-1] = rng.standard_normal(cfg.n - 1)
        phiT = np.zeros(cfg.n + 1)
        phiT[1:-1] = rng.standard_normal(cfg.n - 1)
        prop = Propagator(path, pot, cfg)
        wT = prop.run_forward(u0)[:, -1]
        phi0 = prop.run_adjoint(phiT)[:, 0]
        lhs = prop.slice_inner(wT, phiT, cfg.m)
        rhs = prop.slice_inner(u0, phi0, 0)
        scale = prop.slice_norm(u0, 0) * prop.slice_norm(phiT, cfg.m)
        worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 30.0
    print(f"PASS criterion 2: duality defect {worst:.3e} <= 1e-12 over 100 "
          f"random path/potential pairs [{elapsed:.2f}s]")


def test_criterion_03_gramian_and_dense_oracle():
    start = time.perf_counter()
    cfg = SchemeConfig(n=24, m=48)
    path = constant_path(1.0, 0.5, cfg.m)
    prop = Propagator(path, None, cfg, control_radius=0.3)
    rng = np.random.default_rng(12)
    worst_sym = 0.0
    worst_psd = 0.0
    for _ in range(100):
        x = np.zeros(cfg.n + 1)
        y = np.zeros(cfg.n + 1)
        x[1:-1] = rng.standard_normal(cfg.n - 1)
        y[1:-1] = rng.standard_normal(cfg.n - 1)
        gx = prop.apply_gramian(x)
        gy = prop.apply_gramian(y)
        scale = prop.slice_norm(x, cfg.m) * prop.slice_norm(y, cfg.m)
        sym = abs(prop.slice_inner(gx, y, cfg.m) - prop.slice_inner(x, gy, cfg.m))
        worst_sym = max(worst_sym, sym / scale)
        worst_psd = min(worst_psd, prop.slice_inner(gx, x, cfg.m) / scale)
    assert worst_sym <= 1e-10
    assert worst_psd >= -1e-10

    # blocked-sweep minimizer against the dense normal equations
    eps = 1e-4
    u0 = np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    y_free = prop.run_forward(u0)[:, -1]
    G = dense_gramian(path, None, 0.3, cfg)
    dense_sol = np.linalg.solve(G + eps * np.eye(cfg.n - 1), -y_free[1:-1])
    hum = HUMConfig(epsilon=eps)
    outcome = solve_hum(u0, path, None, 0.3, hum, cfg)
    gap = np.linalg.norm(outcome.phiT[1:-1] - dense_sol) / np.linalg.norm(dense_sol)
    elapsed = time.perf_counter() - start
    assert gap <= 1e-8
    assert elapsed < 60.0
    print(f"PASS criterion 3: Gramian symmetry {worst_sym:.2e}, PSD floor "
          f"{worst_psd:.2e}, dense-oracle minimizer gap {gap:.2e} <= 1e-8 "
          f"[{elapsed:.2f}s]")


def test_criterion_04_penalized_hum_decay():
    start = time.perf_counter()
    cfg = SchemeConfig(n=24, m=48)
    path = constant_path(1.0, 0.5, cfg.m)
    u0 = np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    z0_norm = line_l2_norm(u0, 1.0, cfg.grid)
    finals = []
    for eps in (1e-2, 1e-4, 1e-6):
        outcome = solve_hum(u0, path, None, 0.3, HUMConfig(epsilon=eps), cfg)
        finals.append(outcome.final_norm)
    elapsed = time.perf_counter() - start
    assert finals[0] >= finals[1] >= finals[2]
    assert finals[2] <= 0.01 * z0_norm
    assert elapsed < 60.0
    print(f"PASS criterion 4: final norms {finals[0]:.3e} >= {finals[1]:.3e} "
          f">= {finals[2]:.3e}, last <= {0.01 * z0_norm:.3e} [{elapsed:.2f}s]")


def test_criterion_05_weight_profile_suite():
    start = time.perf_counter()
    setup = PhysicalSetup(T=0.5)
    path = path_from_function(lambda t: 1.0 + 0.1 * np.sin(2.0 * np.pi * t),
                              lambda t: 0.2 * np.pi * np.cos(2.0 * np.pi * t),
                              0.5, 32)
    report = check_weight_profile(setup, path)
    elapsed = time.perf_counter() - start
    assert report.boundary_value_max == 0.0
    assert report.origin_slope_max <= 1e-10
    assert report.c1_gap_at_b <= 1e-10
    assert report.evenness_gap == 0.0
    assert report.annulus_min_abs_slope > 0.0
    assert elapsed < 5.0
    print(f"PASS criterion 5: boundary zero exact, origin slope "
          f"{report.origin_slope_max:.1e}, C1 gap {report.c1_gap_at_b:.1e}, "
          f"even exact, annulus slope floor "
          f"{report.annulus_min_abs_slope:.3f} > 0 [{elapsed:.2f}s]")


def test_criterion_06_weighted_energy_battery():
    start = time.perf_counter()
    setup = PhysicalSetup(T=0.5)
    cfg = SchemeConfig(n=48, m=64)
    path = constant_path(1.0, 0.5, cfg.m)
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    doubled = params.doubled_s()
    rng = np.random.default_rng(7)
    worst = 0.0
    monotone = True
    for _ in range(24):
        phiT = np.zeros(cfg.n + 1)
        phiT[1:-1] = rng.standard_normal(cfg.n - 1)
        phi = solve_adjoint(phiT, path, None, None, cfg)
        report = carleman_sides(phi, None, params, setup, path)
        report2 = carleman_sides(phi, None, doubled, setup, path)
        worst = max(worst, report.ratio)
        monotone = monotone and report2.ratio <= report.ratio
    elapsed = time.perf_counter() - start
    assert worst <= EMPIRICAL_RATIO_BOUND
    assert monotone
    assert elapsed < 120.0
    print(f"PASS criterion 6: 24 backward solutions, max ratio {worst:.3e} <= "
          f"{EMPIRICAL_RATIO_BOUND:g}, every ratio shrinks when s doubles "
          f"[{elapsed:.2f}s]")


def test_criterion_07_observability_constant():
    start = time.perf_counter()
    setup = PhysicalSetup(T=0.5)

    cfg = SchemeConfig(n=16, m=32)
    path = constant_path(1.0, 0.5, cfg.m)
    mf = estimate_constant(path, None, setup, cfg)
    dense = dense_constant(path, None, setup, cfg)
    gap = abs(mf.constant - dense.constant) / dense.constant
    assert gap <= 1e-6

    values = []
    for n, m in ((100, 200), (200, 400)):
        cfg_r = SchemeConfig(n=n, m=m)
        path_r = constant_path(1.0, 0.5, m)
        values.append(estimate_constant(path_r, None, setup, cfg_r).constant)
    drift = abs(values[1] - values[0]) / values[0]
    assert drift <= 0.10

    cfg_b = SchemeConfig(n=24, m=48)
    path_b = constant_path(1.0, 0.5, cfg_b.m)
    sweep = [estimate_constant(path_b, None, setup, cfg_b, b=b).constant
             for b in (0.2, 0.3, 0.45, np.inf)]
    elapsed = time.perf_counter() - start
    for lo, hi in zip(sweep[1:], sweep[:-1]):
        assert lo <= hi
    assert elapsed < 120.0
    print(f"PASS criterion 7: dense gap {gap:.1e} <= 1e-6, refinement drift "
          f"{100 * drift:.2f}% <= 10%, constant non-increasing in b "
          f"({', '.join(f'{v:.3g}' for v in sweep)}) [{elapsed:.2f}s]")


def test_criterion_08_stefan_consistency():
    start = time.perf_counter()
    setup = PhysicalSetup(T=0.3)
    cfg = SchemeConfig(n=30, m=60)

    state0, path0 = coupled_solve(np.zeros(cfg.n + 1), setup, None, cfg)
    assert np.all(state0.values == 0.0)
    assert np.all(path0.radii == setup.R0)

    u0 = 0.3 * np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    state, bpath = coupled_solve(u0, setup, None, cfg)
    norms = np.array([line_l2_norm(state.values[:, j], float(bpath.radii[j]), cfg.grid)
                      for j in range(cfg.m + 1)])
    assert np.all(np.diff(bpath.radii) >= 0.0)
    assert np.all(np.diff(norms) <= 1e-12)

    # quadratic-in-time profile on a frozen path: the trapezoid rule is exact,
    # so the accumulated boundary must match R0 - t^2/2 to rounding
    frozen = constant_path(1.0, 0.3, cfg.m)
    vals = np.outer(cfg.grid.nodes ** 2 - cfg.grid.nodes, frozen.times)
    probe = SpaceTimeField(vals, role=ROLE_STATE)
    new_path = integrate_boundary(probe, frozen, setup)
    exact = 1.0 - frozen.times ** 2 / 2.0
    int_gap = float(np.max(np.abs(new_path.radii - exact)))
    rates = np.array([stefan_rate(probe, frozen, j) for j in range(cfg.m + 1)])
    assert np.array_equal(new_path.slopes, rates)
    elapsed = time.perf_counter() - start
    assert int_gap <= 1e-12
    assert elapsed < 30.0
    print(f"PASS criterion 8: zero data stationary, bump run monotone "
          f"(R up, norm down), rate integral gap {int_gap:.1e} <= 1e-12 "
          f"[{elapsed:.2f}s]")


def test_criterion_09_semilinear_fixed_point():
    start = time.perf_counter()
    amplitude = 0.05 * np.sqrt(2.0) / np.pi   # H1 seminorm 0.05
    setup = PhysicalSetup(T=0.5, z0=lambda r: amplitude * np.sin(np.pi * r),
                          nonlinearity=Nonlinearity.sine())
    hum = HUMConfig(epsilon=1e-6)
    fpc = FixedPointConfig(fp_tol=1e-6, max_outer=50)
    results = []
    for n, m in ((30, 60), (60, 120)):
        res = fixed_point_iterate(None, setup, fpc, hum, SchemeConfig(n=n, m=m))
        last = res.history[-1]
        assert max(last.dz_sup, last.dR_sup, last.dRp_sup) < fpc.fp_tol
        assert res.iterations <= 50
        assert setup.R_star <= float(np.min(res.path.radii))
        assert float(np.max(res.path.radii)) <= setup.E
        assert np.isfinite(res.hum.cost_ratio)
        results.append(res)
    cfg = SchemeConfig(n=30, m=60)
    z0 = setup.initial_line_field(cfg.grid)
    tol = 0.01 * line_l2_norm(z0, setup.R0, cfg.grid)
    drift = abs(results[1].hum.cost_ratio - results[0].hum.cost_ratio)
    drift /= results[0].hum.cost_ratio
    elapsed = time.perf_counter() - start
    assert results[0].hum.final_norm <= tol
    assert drift <= 0.15
    assert elapsed < 300.0
    print(f"PASS criterion 9: converged in {results[0].iterations}/"
          f"{results[1].iterations} outer iterations, final norm "
          f"{results[0].hum.final_norm:.3e} <= {tol:.3e}, cost ratio drift "
          f"{100 * drift:.1f}% <= 15% under doubling [{elapsed:.2f}s]")


def test_criterion_10_linearity_regression():
    cfg = SchemeConfig(n=20, m=40)
    setup = PhysicalSetup(T=0.5, nonlinearity=Nonlinearity.zero())
    rbar = constant_path(setup.R0, setup.T, cfg.m)
    u0 = 0.05 * np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    zbar = SpaceTimeField(np.repeat(u0[:, None], cfg.m + 1, axis=1),
                          role=ROLE_STATE)
    hum = HUMConfig(epsilon=1e-4)
    lam = linearize_and_control(zbar, rbar, u0, setup, hum, cfg)
    plain = solve_hum(u0, rbar, None, setup.b, hum, cfg)
    assert lam.hum.final_norm == plain.final_norm
    assert lam.hum.cost == plain.cost
    assert lam.hum.J_value == plain.J_value
    assert lam.hum.iterations == plain.iterations
    assert np.array_equal(lam.hum.phiT, plain.phiT)
    print("PASS criterion 10: frozen-path zero-nonlinearity map reproduces "
          "the plain control pipeline bitwise on all scalar outputs")
