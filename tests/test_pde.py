"""Theta-scheme transport on the mapped domain: accuracy, duality, Gramian."""

import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import observability, pde, stefan
from stefanlab.control import dense_gramian
from stefanlab.domain import (
    ROLE_CONTROL,
    PhysicalSetup,
    constant_path,
    line_l2_norm,
    path_from_function,
)
from stefanlab.errors import EndpointConditionError, GridError, InstabilityError, StefanlabError
from stefanlab.pde import (
    Propagator,
    SchemeConfig,
    boundary_flux,
    solve_adjoint,
    solve_forward,
    solve_semilinear,
)
from stefanlab.stefan import Nonlinearity, coupled_solve


def _eigenmode_error(n, m, theta, T=0.1):
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = constant_path(1.0, T, m)
    rho = cfg.grid.nodes
    u0 = np.sin(np.pi * rho)
    state = solve_forward(u0, path, None, None, cfg)
    exact = u0 * np.exp(-np.pi * np.pi * T)
    return line_l2_norm(state.values[:, -1] - exact, 1.0, cfg.grid)


def test_scheme_config_validation():
    with pytest.raises(GridError):
        SchemeConfig(n=4, m=100)
    with pytest.raises(GridError):
        SchemeConfig(n=16, m=16, theta=1.2)
    assert SchemeConfig(n=16, m=16).refined().n == 32
    # grid sizes are integers: a float, even an integral one, or a bool is
    # refused at construction, not later inside np.linspace
    for sizes in ({"n": 8.5}, {"m": 8.0}, {"n": 16.0}, {"n": True}, {"m": "16"}):
        with pytest.raises(GridError, match="must be an integer"):
            SchemeConfig(**sizes)
    assert SchemeConfig(n=np.int64(16), m=16) == SchemeConfig(n=16, m=16)


def test_eigenmode_second_order_in_time():
    ratio = _eigenmode_error(24, 48, 0.5) / _eigenmode_error(48, 96, 0.5)
    assert ratio >= 3.5


def test_eigenmode_first_order_backward_euler():
    ratio = _eigenmode_error(64, 16, 1.0) / _eigenmode_error(64, 32, 1.0)
    assert 1.7 <= ratio <= 2.3


def test_manufactured_solution_on_moving_path():
    # u(rho, t) = sin(pi rho) exp(-t) on R(t) = 1 + t/4; the residual of the
    # mapped equation is fed back as the source, so the scheme must reproduce
    # the field at its own order
    errs = []
    for n, m in ((24, 48), (48, 96)):
        cfg = SchemeConfig(n=n, m=m)
        path = path_from_function(lambda t: 1.0 + 0.25 * t,
                                  lambda t: np.full_like(np.asarray(t, dtype=float), 0.25),
                                  0.5, m)
        rho = cfg.grid.nodes[:, None]
        t = path.times[None, :]
        R = path.radii[None, :]
        Rp = path.slopes[None, :]
        u = np.sin(np.pi * rho) * np.exp(-t)
        u_t = -u
        u_rho = np.pi * np.cos(np.pi * rho) * np.exp(-t)
        u_rhorho = -np.pi * np.pi * u
        source = u_t - u_rhorho / R ** 2 - rho * Rp / R * u_rho
        state = solve_forward(u[:, 0].copy(), path, None, source, cfg)
        errs.append(line_l2_norm(state.values[:, -1] - u[:, -1],
                                 float(path.radii[-1]), cfg.grid))
    assert errs[0] / errs[1] >= 3.5


def test_constant_potential_shifts_decay_rate():
    # spatial eigenvalue error pi^4 h^2 / 12 dominates at this resolution
    cfg = SchemeConfig(n=64, m=200)
    T, a = 0.1, 4.0
    path = constant_path(1.0, T, cfg.m)
    rho = cfg.grid.nodes
    u0 = np.sin(np.pi * rho)
    pot = np.full((cfg.n + 1, cfg.m + 1), a)
    state = solve_forward(u0, path, pot, None, cfg)
    exact = u0 * np.exp(-(np.pi * np.pi + a) * T)
    err = line_l2_norm(state.values[:, -1] - exact, 1.0, cfg.grid)
    assert err <= 1e-3 * line_l2_norm(exact, 1.0, cfg.grid)


def test_backward_euler_max_principle():
    rng = np.random.default_rng(3)
    cfg = SchemeConfig(n=24, m=24, theta=1.0)
    path = constant_path(1.0, 0.2, cfg.m)
    u0 = np.zeros(cfg.n + 1)
    u0[1:-1] = rng.random(cfg.n - 1)
    state = solve_forward(u0, path, None, None, cfg)
    assert np.all(state.values >= -1e-14)
    assert np.max(state.values) <= np.max(u0) + 1e-14


def test_forward_rejects_bad_initial_data():
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(1.0, 0.1, cfg.m)
    with pytest.raises(EndpointConditionError):
        solve_forward(np.ones(cfg.n + 1), path, None, None, cfg)
    with pytest.raises(GridError):
        solve_forward(np.zeros(cfg.n), path, None, None, cfg)
    # a non-finite entry is a data error, not a reason to refine the grid
    for value in (np.nan, np.inf, -np.inf):
        u0 = np.zeros(cfg.n + 1)
        u0[4] = value
        with pytest.raises(GridError, match="initial data must be finite"):
            solve_forward(u0, path, None, None, cfg)
        with pytest.raises(GridError, match="initial data must be finite"):
            solve_adjoint(u0, path, None, None, cfg)
        src = np.zeros((cfg.n + 1, cfg.m + 1))
        src[4, 2] = value
        with pytest.raises(GridError, match="source must be finite"):
            solve_forward(np.zeros(cfg.n + 1), path, None, src, cfg)
        with pytest.raises(GridError, match="source must be finite"):
            solve_adjoint(np.zeros(cfg.n + 1), path, None, src, cfg)


def test_singular_implicit_step_reports_refinement():
    # zero-diagonal tridiagonal with odd interior size is exactly singular,
    # so the factorization must fail and point at a finer grid
    cfg = SchemeConfig(n=16, m=8, theta=0.5)
    path = constant_path(1.0, 0.5, cfg.m)
    h = cfg.grid.spacing
    dt = 0.5 / cfg.m
    diff = 1.0 / (h * h)
    pot = np.full((cfg.n + 1, cfg.m + 1), -2.0 * diff - 1.0 / (cfg.theta * dt))
    u0 = np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    with pytest.raises(InstabilityError) as err:
        solve_forward(u0, path, pot, None, cfg)
    assert err.value.suggested_nodes == 32
    assert err.value.suggested_steps == 16


@settings(max_examples=200)
@given(n=st.integers(3, 80), k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_gtsv_solve_equals_factored_solve_bitwise(n, k, seed):
    # a forward step of more than one column, and the coupled march, solve
    # with gtsv on the raw rows, a single column of a sweep with gttrs on
    # the gttrf factors: blocked sweeps equal column sweeps, and the march
    # replays through the sweeps, only while the two agree bit for bit,
    # row interchanges included; the rows and the right-hand side stay as
    # they were, since a Propagator keeps its rows and the sweep its rhs
    rng = np.random.default_rng(seed)
    dl, du = rng.standard_normal((2, n - 1))
    # small pivots force interchanges, the first row's always
    d = 0.1 * rng.standard_normal(n)
    d[0] = 0.5 * dl[0]
    rhs = rng.standard_normal((n, k))
    dlf, df, duf, du2, ipiv, info = pde._gttrf(dl, d, du)
    assert info == 0 and np.any(ipiv != np.arange(1, n + 1))
    want, info = pde._gttrs(dlf, df, duf, du2, ipiv, rhs)
    assert info == 0
    inputs = [a.copy() for a in (dl, d, du, rhs)]
    got = pde._solve_implicit((dl, d, du), rhs)
    assert got.tobytes() == want.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip((dl, d, du, rhs), inputs))


def test_wide_and_march_solves_go_through_solve_implicit(monkeypatch):
    # the tests' solve counters and no-step guards patch _solve_implicit:
    # a blocked forward sweep, on gtsv, and the coupled march, one gtsv per
    # predictor and corrector, must both go through it
    calls = []
    solve = pde._solve_implicit

    def counted(system, rhs, transposed=False):
        calls.append((len(system), rhs.shape[1], transposed))
        return solve(system, rhs, transposed)

    monkeypatch.setattr(pde, "_solve_implicit", counted)
    monkeypatch.setattr(stefan, "_solve_implicit", counted)
    cfg = SchemeConfig(n=16, m=12)
    prop = Propagator(constant_path(1.0, 0.3, cfg.m), None, cfg)
    block = np.zeros((cfg.n + 1, 3))
    block[1:-1] = np.random.default_rng(3).standard_normal((cfg.n - 1, 3))
    prop.run_forward(block)
    assert calls == [(3, 3, False)] * cfg.m
    calls.clear()
    prop.run_forward(block[:, 0])
    assert calls == [(5, 1, False)] * cfg.m
    calls.clear()
    setup = PhysicalSetup(T=0.3, z0=lambda r: 0.3 * np.sin(np.pi * r))
    coupled_solve(setup.initial_line_field(cfg.grid), setup, None, cfg)
    assert calls == [(3, 1, False)] * (2 * cfg.m)


def test_duality_battery_random_paths_and_potentials():
    # transpose-exact stepping: the pairing moves through the solver with no
    # quadrature error at all
    rng = np.random.default_rng(4)
    cfg = SchemeConfig(n=20, m=30)
    worst = 0.0
    for _ in range(20):
        amp = rng.uniform(0.0, 0.15)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        freq = rng.integers(1, 4)
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
    assert worst <= 1e-12


def test_gramian_symmetry_and_psd():
    rng = np.random.default_rng(5)
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.3, cfg.m)
    prop = Propagator(path, None, cfg, control_radius=0.3)
    for _ in range(20):
        x = np.zeros(cfg.n + 1)
        y = np.zeros(cfg.n + 1)
        x[1:-1] = rng.standard_normal(cfg.n - 1)
        y[1:-1] = rng.standard_normal(cfg.n - 1)
        gx = prop.apply_gramian(x)
        gy = prop.apply_gramian(y)
        sym = abs(prop.slice_inner(gx, y, cfg.m) - prop.slice_inner(x, gy, cfg.m))
        scale = prop.slice_norm(x, cfg.m) * prop.slice_norm(y, cfg.m)
        assert sym <= 1e-10 * scale
        assert prop.slice_inner(gx, x, cfg.m) >= -1e-10 * scale


def test_gramian_energy_equals_control_cost():
    rng = np.random.default_rng(6)
    cfg = SchemeConfig(n=16, m=24)
    path = constant_path(1.0, 0.3, cfg.m)
    prop = Propagator(path, None, cfg, control_radius=0.3)
    x = np.zeros(cfg.n + 1)
    x[1:-1] = rng.standard_normal(cfg.n - 1)
    obs = prop.run_observation(x)
    energy = prop.slice_inner(prop.apply_gramian(x), x, cfg.m)
    assert energy == pytest.approx(prop.control_cost(obs) ** 2, rel=1e-10)


def test_control_radius_must_be_positive():
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(1.0, 0.1, cfg.m)
    for radius in (0.0, -0.3, float("nan")):
        with pytest.raises(GridError):
            Propagator(path, None, cfg, control_radius=radius)
    # the full-window variant observes every node
    assert np.all(Propagator(path, None, cfg, control_radius=np.inf).mask == 1.0)


def test_slice_pairings_check_level_index():
    # k = -1 would pair in the measure of R(T), k = m+1 would index past it
    cfg = SchemeConfig(n=16, m=12)
    path = path_from_function(lambda t: 1.0 + t, lambda t: 1.0 + 0.0 * t, 0.3, cfg.m)
    prop = Propagator(path, None, cfg)
    u = np.sin(np.pi * cfg.grid.nodes)
    for k in (-1, cfg.m + 1, -cfg.m - 1):
        with pytest.raises(GridError, match=f"time level {k} outside 0..{cfg.m}"):
            prop.slice_inner(u, u, k)
        with pytest.raises(GridError, match="outside"):
            prop.slice_norm(u, k)
    assert prop.slice_norm(u, cfg.m) ** 2 == pytest.approx(prop.slice_inner(u, u, cfg.m))
    assert prop.slice_inner(u, u, cfg.m) > prop.slice_inner(u, u, 0)


def test_control_source_requires_mask():
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(1.0, 0.1, cfg.m)
    prop = Propagator(path, None, cfg)   # no control radius
    src = np.ones((cfg.n + 1, cfg.m + 1))
    with pytest.raises(GridError):
        prop.run_forward(np.zeros(cfg.n + 1), source=src, source_role=ROLE_CONTROL)


def test_observation_sweeps_check_mask_before_stepping(monkeypatch):
    cfg = SchemeConfig(n=16, m=16)
    path = constant_path(1.0, 0.1, cfg.m)
    prop = Propagator(path, None, cfg)   # no control radius

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the mask check")

    monkeypatch.setattr(pde, "_solve_implicit", no_step)
    phiT = np.zeros(cfg.n + 1)
    phiT[1:-1] = 1.0
    with pytest.raises(GridError):
        prop.run_observation(phiT)
    with pytest.raises(GridError):
        prop.apply_gramian(phiT)
    with pytest.raises(GridError):
        prop.assemble_forms()


@settings(max_examples=30)
@given(n=st.integers(8, 40), m=st.integers(8, 40),
       theta=st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), radius=st.sampled_from([0.15, 0.3, 0.7, np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_forms_match_column_oracles(n, m, theta, amp, freq, radius, seed):
    # one blocked adjoint sweep against column-by-column single sweeps, on
    # in-band moving paths under bounded potentials
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = path_from_function(lambda t: 1.0 + amp * np.sin(freq * np.pi * t),
                              lambda t: amp * freq * np.pi * np.cos(freq * np.pi * t),
                              0.4, m)
    pot = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n + 1, m + 1))
    prop = Propagator(path, pot, cfg, control_radius=radius)
    G, P = prop.assemble_forms()
    A = (path.radii[0] / path.radii[-1]) * (P.T @ P)
    A_cols = np.empty_like(A)
    for i in range(n - 1):
        e = np.zeros(n + 1)
        e[i + 1] = 1.0
        A_cols[:, i] = prop.run_forward(prop.run_adjoint(e)[:, 0])[1:-1, -1]
    G_cols = dense_gramian(path, pot, radius, cfg)
    assert np.array_equal(G, G.T)
    assert np.max(np.abs(G - G_cols)) <= 1e-13 * np.max(np.abs(G_cols))
    assert np.max(np.abs(A - A_cols)) <= 1e-13 * np.max(np.abs(A_cols))


def _dense_constant_columns(path, potential, setup, cfg, obs=None, b=None):
    """Reference: the column loop of `dense_constant` before its sweeps took
    blocks (four single-column sweeps per column), verbatim but for the
    floor scalar, which it reads from its own symmetrized denominator form
    at the seed, s^T B s, as `dense_constant` does, not from a Gramian
    apply of the seed."""
    from stefanlab.observability import (
        _DENSE_NODE_CAP,
        _DENSE_STEP_CAP,
        ObservabilityConfig,
        ObservabilityEstimate,
        _dominant,
        _seed,
    )

    if cfg.n > _DENSE_NODE_CAP or cfg.m > _DENSE_STEP_CAP:
        raise GridError(
            f"dense assembly capped at ({_DENSE_NODE_CAP}, {_DENSE_STEP_CAP}), "
            f"got ({cfg.n}, {cfg.m})")
    obs = obs or ObservabilityConfig()
    prop = pde.propagator(path, potential, cfg, control_radius=setup.b if b is None else b)
    n_int = cfg.n - 1

    def pad(x):
        full = np.zeros(cfg.n + 1)
        full[1:-1] = x
        return full

    amat = np.empty((n_int, n_int))
    bmat = np.empty((n_int, n_int))
    eye = np.eye(n_int)
    for i in range(n_int):
        e = pad(eye[:, i])
        amat[:, i] = prop.run_forward(prop.run_adjoint(e)[:, 0])[1:-1, -1]
        bmat[:, i] = prop.apply_gramian(e)[1:-1]
    for name, mat in (("numerator", amat), ("denominator", bmat)):
        gap = float(np.max(np.abs(mat - mat.T)))
        scale = max(float(np.max(np.abs(mat))), 1.0)
        if gap > 1e-12 * scale:
            raise GridError(f"{name} form lost symmetry: gap {gap:.3e}")
    amat = 0.5 * (amat + amat.T)
    bmat = 0.5 * (bmat + bmat.T)
    s = _seed(n_int)
    seed_value = float(s @ bmat @ s)
    mu = _dominant(amat, bmat, seed_value, obs.relative_floor, cfg)
    return ObservabilityEstimate(constant=mu, iterations=n_int, nodes=cfg.n, steps=cfg.m)


# a prime number of values per chunk, so sweeps at small grids cross many
# chunk boundaries, at spans that do not divide m
_SMALL_CHUNK = 29


def _stack(fn, block):
    """fn applied to each column of block alone, stacked on a new last axis."""
    return np.stack([fn(block[:, i]) for i in range(block.shape[1])], axis=-1)


@settings(max_examples=25)
@given(n=st.integers(8, 32), m=st.integers(8, 64),
       theta=st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), with_potential=st.booleans(),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_block_sweeps_equal_column_sweeps_bitwise(n, m, theta, amp, freq, with_potential,
                                                  radius, seed):
    # every column of a blocked sweep or Gramian apply is the 1-D call on
    # that column, bit for bit, and so are both oracles built on them, also
    # when a prime chunk of values makes every sweep cross chunk boundaries
    for chunk in (pde._CHUNK, _SMALL_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pde, "_CHUNK", chunk)
            _check_block_sweeps_equal_column_sweeps(n, m, theta, amp, freq, with_potential,
                                                    radius, seed)


def _check_block_sweeps_equal_column_sweeps(n, m, theta, amp, freq, with_potential,
                                            radius, seed):
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = path_from_function(lambda t: 1.0 + amp * np.sin(freq * np.pi * t),
                              lambda t: amp * freq * np.pi * np.cos(freq * np.pi * t),
                              0.4, m)
    rng = np.random.default_rng(seed)
    pot = rng.uniform(-3.0, 3.0, size=(n + 1, m + 1)) if with_potential else None
    prop = Propagator(path, pot, cfg, control_radius=radius)
    block = np.zeros((n + 1, 3))
    block[1:-1] = rng.standard_normal((n - 1, 3))
    src = rng.standard_normal((n + 1, m + 1, 3))
    f = Nonlinearity.sine()

    assert np.array_equal(prop.run_forward(block), _stack(prop.run_forward, block))
    for role in (pde.ROLE_SOURCE, ROLE_CONTROL):
        got = prop.run_forward(block, source=src, source_role=role, reaction=f)
        want = np.stack([prop.run_forward(block[:, i], source=src[..., i], source_role=role,
                                          reaction=f) for i in range(3)], axis=-1)
        assert np.array_equal(got, want)
    assert np.array_equal(prop.run_adjoint(block), _stack(prop.run_adjoint, block))
    got = prop.run_adjoint(block, forcing=src)
    want = np.stack([prop.run_adjoint(block[:, i], forcing=src[..., i]) for i in range(3)],
                    axis=-1)
    assert np.array_equal(got, want)
    assert np.array_equal(prop.run_observation(block), _stack(prop.run_observation, block))
    assert np.array_equal(prop.apply_gramian(block), _stack(prop.apply_gramian, block))

    unit = np.eye(n + 1)[:, 1:-1]
    assert np.array_equal(dense_gramian(path, pot, radius, cfg),
                          _stack(prop.apply_gramian, unit)[1:-1])
    setup = PhysicalSetup()
    est = observability.dense_constant(path, pot, setup, cfg, b=radius)
    ref = _dense_constant_columns(path, pot, setup, cfg, b=radius)
    assert est.constant == ref.constant and est.iterations == ref.iterations == n - 1


def _reference_step(cfg, rho, dt, here, there):
    """One theta step from its two levels, each (R, R', potential row), level
    by level in the scalar arithmetic order the operators must reproduce."""

    def diagonals(radius, slope, pot):
        h = 1.0 / cfg.n
        diff = 1.0 / (radius * radius * h * h)
        adv = rho * slope / (2.0 * h * radius)
        return diff - adv, -2.0 * diff - pot, diff + adv

    theta = cfg.theta
    lo, dg, up = diagonals(*here)
    explicit = ((1.0 - theta) * dt * lo[1:], 1.0 + (1.0 - theta) * dt * dg,
                (1.0 - theta) * dt * up[:-1])
    lo, dg, up = diagonals(*there)
    dlf, df, duf, du2, ipiv, info = pde._gttrf(-theta * dt * lo[1:], 1.0 - theta * dt * dg,
                                               -theta * dt * up[:-1])
    assert info == 0
    return explicit, (dlf, df, duf, du2, ipiv)


@settings(max_examples=40)
@given(n=st.integers(8, 40), levels=st.sampled_from([2, 2, 3, 9, 33]),
       theta=st.floats(0.5, 1.0), dt=st.floats(1e-4, 0.05),
       with_potential=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_step_operators_match_level_by_level_steps_bitwise(n, levels, theta, dt,
                                                          with_potential, seed):
    # the one-pass operators against each step built from its own two
    # levels, on a moving path with a potential or none; two levels is the
    # coupled march's use
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(n=n, m=max(levels - 1, 8), theta=theta)
    rho = cfg.grid.nodes[1:-1]
    radii = 1.0 + 0.4 * rng.uniform(-1.0, 1.0, levels)
    slopes = rng.uniform(-3.0, 3.0, levels)
    pot = np.zeros((levels, n - 1))
    if with_potential:
        pot = rng.uniform(-3.0, 3.0, pot.shape)
    lower, diag, upper = pde._stencil(cfg, rho, radii, slopes, pot)
    explicit_all = pde._explicit_diagonals(cfg, dt, lower[:-1], diag[:-1], upper[:-1])
    rows_all = pde._implicit_rows(cfg, dt, lower[1:], diag[1:], upper[1:])
    factors_all = pde._implicit_factors(cfg, rows_all)
    assert len(factors_all) == levels - 1
    for j, factors in enumerate(factors_all):
        explicit = tuple(d[j] for d in explicit_all)
        ref_explicit, ref_factors = _reference_step(cfg, rho, dt, (radii[j], slopes[j], pot[j]),
                                                    (radii[j + 1], slopes[j + 1], pot[j + 1]))
        for got, want in zip(explicit, ref_explicit):
            assert got.shape == want.shape + (1,)
            assert got[:, 0].tobytes() == want.tobytes()
        for got, want in zip(factors, ref_factors):
            assert got.tobytes() == want.tobytes()


def _two_operator_forward(prop, u0, src=None, reaction=None):
    """The forward sweep step by step with both operators of every step:
    explicit apply, theta average of the step's two source levels, minus
    the reaction lagged on level j, times dt, one solve.  src is the
    (n+1, m+1, k) source, already masked."""
    n, m, theta, dt = prop.n, prop.m, prop.cfg.theta, prop.dt
    block = u0.reshape(n + 1, -1)
    out = np.zeros((n + 1, m + 1, block.shape[1]))
    out[:, 0] = block
    rho_int = prop.rho[1:-1, None]
    x = block[1:-1].copy()
    for j, factors in enumerate(prop._factors):
        sub, dg, sup = (d[j] for d in prop._explicit)
        base = dg * x
        base[1:] += sub * x[:-1]
        base[:-1] += sup * x[1:]
        extra = None
        if src is not None:
            extra = theta * src[1:-1, j + 1] + (1.0 - theta) * src[1:-1, j]
        if reaction is not None:
            r_int = rho_int * prop.path.radii[j]
            lag = r_int * reaction.value(x / r_int)
            extra = -lag if extra is None else extra - lag
        if extra is not None:
            base = base + dt * extra
        x, info = pde._gttrs(*factors, base)
        assert info == 0
        out[1:-1, j + 1] = x
    return out.reshape((n + 1, m + 1) + u0.shape[1:])


def _observation(prop, chis, shape):
    """Masked observation of the chi of every backward step (chis[j] for
    step j), accumulated into levels j+1 and j as each is solved."""
    n, m, theta = prop.n, prop.m, prop.cfg.theta
    radii = prop.path.radii
    obs = np.zeros((n + 1, m + 1, chis[0].shape[1]))
    for j in range(m - 1, -1, -1):
        w_next = theta if j + 1 < m else 2.0 * theta
        w_here = (1.0 - theta) * (radii[j + 1] / radii[j])
        if j == 0:
            w_here *= 2.0
        obs[1:-1, j + 1] += w_next * chis[j]
        obs[1:-1, j] += w_here * chis[j]
    obs *= prop.mask[:, :, None]
    return obs.reshape(shape)


def _two_operator_adjoint(prop, phiT, forcing=None):
    """The backward sweep step by step with both operators of every step:
    forcing shares on both sides of each transposed solve, then the
    transposed explicit apply forms every level.  Returns the trajectory,
    the masked observation and the chi of every step."""
    n, m, theta, dt = prop.n, prop.m, prop.cfg.theta, prop.dt
    radii = prop.path.radii
    block = phiT.reshape(n + 1, -1)
    phi = np.zeros((n + 1, m + 1, block.shape[1]))
    phi[:, m] = block
    chis = [None] * m
    x = block[1:-1].copy()
    for j in range(m - 1, -1, -1):
        sub, dg, sup = (d[j] for d in prop._explicit)
        rhs = x
        if forcing is not None:
            rhs = rhs + dt * (1.0 - theta) * forcing[1:-1, j + 1]
        chi, info = pde._gttrs(*prop._factors[j], rhs, trans=b"T")
        assert info == 0
        val = dg * chi
        val[1:] += sup * chi[:-1]
        val[:-1] += sub * chi[1:]
        if forcing is not None:
            val = val + dt * theta * forcing[1:-1, j]
        x = (radii[j + 1] / radii[j]) * val
        chis[j] = chi
        phi[1:-1, j] = x
    shape = (n + 1, m + 1) + phiT.shape[1:]
    return phi.reshape(shape), _observation(prop, chis, shape), chis


def _carried_forward(prop, u0, src=None, reaction=None):
    """The forward sweep step by step in the arithmetic the sweep must
    reproduce: the explicit operator applied once, to u0; then per step
    the forcing of `_two_operator_forward`, one solve, and the next
    right-hand side carried as (x - (1-theta) rhs) / theta."""
    n, m, theta, dt = prop.n, prop.m, prop.cfg.theta, prop.dt
    block = u0.reshape(n + 1, -1)
    out = np.zeros((n + 1, m + 1, block.shape[1]))
    out[:, 0] = block
    rho_int = prop.rho[1:-1, None]
    x = block[1:-1].copy()
    sub, dg, sup = (d[0] for d in prop._explicit)
    rhs = dg * x
    rhs[1:] += sub * x[:-1]
    rhs[:-1] += sup * x[1:]
    for j, factors in enumerate(prop._factors):
        avg = None
        if src is not None:
            avg = theta * src[1:-1, j + 1] + (1.0 - theta) * src[1:-1, j]
        if reaction is not None:
            r_int = rho_int * prop.path.radii[j]
            lag = r_int * reaction.value(x / r_int)
            rhs = rhs + dt * (-lag if avg is None else avg - lag)
        elif avg is not None:
            rhs = rhs + dt * avg
        x, info = pde._gttrs(*factors, rhs)
        assert info == 0
        out[1:-1, j + 1] = x
        rhs = (x - (1.0 - theta) * rhs) / theta
    return out.reshape((n + 1, m + 1) + u0.shape[1:])


def _carried_adjoint(prop, phiT, forcing=None):
    """The backward sweep step by step in the arithmetic the sweep must
    reproduce: each transposed solve takes r_j (chi_j/theta + before_j) +
    after_{j-1} (r_j chi_j/theta as one product with no forcing) and gives
    chi_{j-1} once r_j ((1-theta)/theta) chi_j is subtracted; each level is
    then r_j (B_j^T chi_j + before_j).  Returns the trajectory and the
    masked observation."""
    n, m, theta, dt = prop.n, prop.m, prop.cfg.theta, prop.dt
    radii = prop.path.radii
    block = phiT.reshape(n + 1, -1)
    phi = np.zeros((n + 1, m + 1, block.shape[1]))
    phi[:, m] = block
    chis = [None] * m
    rhs = block[1:-1].copy()
    if forcing is not None:
        rhs = rhs + dt * (1.0 - theta) * forcing[1:-1, m]
    for j in range(m - 1, -1, -1):
        chi, info = pde._gttrs(*prop._factors[j], rhs, trans=b"T")
        assert info == 0
        if j + 1 < m:
            chi = chi - (radii[j + 2] / radii[j + 1]) * ((1.0 - theta) / theta) * chis[j + 1]
        chis[j] = chi
        r = radii[j + 1] / radii[j]
        if forcing is None:
            rhs = (r / theta) * chi
        elif j:
            rhs = (chi / theta + dt * theta * forcing[1:-1, j]) * r
            rhs = rhs + dt * (1.0 - theta) * forcing[1:-1, j]
    for j in range(m):
        sub, dg, sup = (d[j] for d in prop._explicit)
        chi = chis[j]
        val = dg * chi
        val[1:] += sup * chi[:-1]
        val[:-1] += sub * chi[1:]
        if forcing is not None:
            val = val + dt * theta * forcing[1:-1, j]
        phi[1:-1, j] = val * (radii[j + 1] / radii[j])
    shape = (n + 1, m + 1) + phiT.shape[1:]
    return phi.reshape(shape), _observation(prop, chis, shape)


def _moving_setup(n, m, theta, amp, freq, with_potential, radius, seed, T=0.4):
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = path_from_function(lambda t: 1.0 + amp * np.sin(freq * np.pi * t),
                              lambda t: amp * freq * np.pi * np.cos(freq * np.pi * t),
                              T, m)
    rng = np.random.default_rng(seed)
    pot = rng.uniform(-3.0, 3.0, size=(n + 1, m + 1)) if with_potential else None
    return Propagator(path, pot, cfg, control_radius=radius), rng


@settings(max_examples=30)
@given(n=st.integers(8, 32), m=st.integers(8, 40),
       theta=st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), with_potential=st.booleans(),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       cols=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_sweeps_match_step_by_step_arithmetic_bitwise(n, m, theta, amp, freq, with_potential,
                                                      radius, cols, seed):
    # the sweeps carry the right-hand side forward and chi backward, and
    # form their forcing averages, observations and backward levels outside
    # the step loop; every output must still carry the bits of the carried
    # recurrence written out above, for a column and for blocks, also when
    # those passes run in chunks of a prime number of values
    for chunk in (pde._CHUNK, _SMALL_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pde, "_CHUNK", chunk)
            _check_sweeps_match_step_by_step(n, m, theta, amp, freq, with_potential,
                                             radius, cols, seed)


def _check_sweeps_match_step_by_step(n, m, theta, amp, freq, with_potential, radius,
                                     cols, seed):
    prop, rng = _moving_setup(n, m, theta, amp, freq, with_potential, radius, seed)
    trailing = () if cols is None else (cols,)
    u0 = np.zeros((n + 1,) + trailing)
    u0[1:-1] = rng.standard_normal((n - 1,) + trailing)
    src = rng.standard_normal((n + 1, m + 1) + trailing)
    src3 = src.reshape(n + 1, m + 1, -1)
    masked = src3 * prop.mask[:, :, None]
    f = Nonlinearity.sine()

    def same(got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    same(prop.run_forward(u0), _carried_forward(prop, u0))
    same(prop.run_forward(u0, source=src), _carried_forward(prop, u0, src3))
    same(prop.run_forward(u0, source=src, source_role=ROLE_CONTROL),
         _carried_forward(prop, u0, masked))
    same(prop.run_forward(u0, reaction=f), _carried_forward(prop, u0, reaction=f))
    same(prop.run_forward(u0, source=src, source_role=ROLE_CONTROL, reaction=f),
         _carried_forward(prop, u0, masked, reaction=f))
    same(prop.run_adjoint(u0), _carried_adjoint(prop, u0)[0])
    same(prop.run_adjoint(u0, forcing=src), _carried_adjoint(prop, u0, src3)[0])
    same(prop.run_observation(u0), _carried_adjoint(prop, u0)[1])


@settings(max_examples=30)
@given(n=st.integers(8, 40), m=st.integers(8, 40),
       theta=st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), with_potential=st.booleans(),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_free_final_by_duality_matches_forward_sweep(n, m, theta, amp, freq, with_potential,
                                                     radius, seed):
    # the free state at T from the assembled t = 0 slice, against the
    # forward sweep it replaces, on moving paths under bounded potentials
    prop, rng = _moving_setup(n, m, theta, amp, freq, with_potential, radius, seed)
    u0 = np.zeros(n + 1)
    u0[1:-1] = rng.standard_normal(n - 1)
    want = prop.run_forward(u0)[:, -1]
    got = prop.free_final(u0)
    assert got.shape == want.shape and got[0] == got[-1] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_chunked_level_passes_keep_the_bits(monkeypatch):
    # chunks of a few levels, a count that does not divide m: the level
    # passes of run_adjoint and the observation ring wrap many times and
    # must still give the bits of the carried recurrence
    prop, rng = _moving_setup(24, 37, 0.7, 0.2, 2, True, 0.45, 3)
    n, m = prop.n, prop.m
    u0 = np.zeros((n + 1, 3))
    u0[1:-1] = rng.standard_normal((n - 1, 3))
    src = rng.standard_normal((n + 1, m + 1, 3))
    gram = prop.apply_gramian(u0)
    monkeypatch.setattr(pde, "_CHUNK", 5 * (n - 1) * 3)
    phi, _ = _carried_adjoint(prop, u0, src)
    assert prop.run_adjoint(u0, forcing=src).tobytes() == phi.tobytes()
    assert prop.run_observation(u0).tobytes() == _carried_adjoint(prop, u0)[1].tobytes()
    assert prop.apply_gramian(u0).tobytes() == gram.tobytes()


def _two_operator_forms(prop):
    """G and P from the two-operator backward sweep of the identity block,
    G accumulated level by level from level m down, as `assemble_forms` does."""
    n, m = prop.n, prop.m
    phi, obs, _ = _two_operator_adjoint(prop, np.eye(n + 1)[:, 1:-1])
    radii = prop.path.radii
    weight = prop.tau * radii / radii[-1]
    inside = prop.mask[1:-1] > 0.0
    G = np.zeros((n - 1, n - 1))
    for level in range(m, -1, -1):
        rows = obs[1:-1, level][inside[:, level]]
        G += weight[level] * (rows.T @ rows)
    return G, phi[1:-1, 0]


@settings(max_examples=60)
@given(n=st.integers(8, 32), m=st.integers(8, 40),
       theta=st.just(1.0) | st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), with_potential=st.booleans(),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       cols=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_carried_sweeps_match_two_operator_step(n, m, theta, amp, freq, with_potential,
                                                radius, cols, seed):
    # B_j = (1/theta) I - ((1-theta)/theta) A_j holds exactly, so carrying
    # the right-hand side and chi is the same theta scheme as applying B and
    # then solving with A at every step: every sweep agrees with that to
    # rounding, and bit for bit at theta = 1, where B = I
    prop, rng = _moving_setup(n, m, theta, amp, freq, with_potential, radius, seed)
    trailing = () if cols is None else (cols,)
    u0 = np.zeros((n + 1,) + trailing)
    u0[1:-1] = rng.standard_normal((n - 1,) + trailing)
    src = rng.standard_normal((n + 1, m + 1) + trailing)
    src3 = src.reshape(n + 1, m + 1, -1)
    masked = src3 * prop.mask[:, :, None]
    f = Nonlinearity.sine()

    def close(got, want):
        assert got.shape == want.shape
        if theta == 1.0:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    close(prop.run_forward(u0, source=src), _two_operator_forward(prop, u0, src3))
    close(prop.run_forward(u0, source=src, source_role=ROLE_CONTROL),
          _two_operator_forward(prop, u0, masked))
    close(prop.run_forward(u0, source=src, source_role=ROLE_CONTROL, reaction=f),
          _two_operator_forward(prop, u0, masked, reaction=f))
    for forcing in (None, src):
        ref_phi, _, _ = _two_operator_adjoint(prop, u0, None if forcing is None else src3)
        close(prop.run_adjoint(u0, forcing=forcing), ref_phi)
    _, ref_obs, _ = _two_operator_adjoint(prop, u0)
    close(prop.run_observation(u0), ref_obs)
    # the Gramian apply: the masked observation as the control of a forward
    # sweep from zero data, state at T
    ref_obs = ref_obs.reshape(src3.shape)
    ref = _two_operator_forward(prop, np.zeros_like(u0), ref_obs)[:, -1]
    close(prop.apply_gramian(u0), ref)
    G, P = prop.assemble_forms()
    ref_G, ref_P = _two_operator_forms(prop)
    close(G, ref_G)
    close(P, ref_P)


def test_carried_sweeps_do_not_drift():
    # a long Crank-Nicolson run, where the carry's rounding is least damped,
    # stays within the same bound of the two-operator step
    prop, rng = _moving_setup(200, 1000, 0.5, 0.3, 2, True, 0.3, 11)
    n, m = prop.n, prop.m
    u0 = np.zeros(n + 1)
    u0[1:-1] = rng.standard_normal(n - 1)
    src = rng.standard_normal((n + 1, m + 1))
    masked = (src * prop.mask)[:, :, None]
    f = Nonlinearity.sine()

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    close(prop.run_forward(u0, source=src, source_role=ROLE_CONTROL, reaction=f),
          _two_operator_forward(prop, u0, masked, reaction=f))
    ref_phi, _, _ = _two_operator_adjoint(prop, u0, src[:, :, None])
    close(prop.run_adjoint(u0, forcing=src), ref_phi)
    _, ref_obs, _ = _two_operator_adjoint(prop, u0)
    close(prop.run_observation(u0), ref_obs)
    ref = _two_operator_forward(prop, np.zeros(n + 1), ref_obs[:, :, None])[:, -1]
    close(prop.apply_gramian(u0), ref)


def test_block_inputs_validated_in_one_place():
    cfg = SchemeConfig(n=12, m=10)
    path = constant_path(1.0, 0.2, cfg.m)
    prop = Propagator(path, None, cfg, control_radius=0.4)
    good = np.zeros((cfg.n + 1, 2))
    good[1:-1] = 1.0
    for sweep in (prop.run_forward, prop.run_adjoint, prop.run_observation, prop.apply_gramian):
        with pytest.raises(GridError):
            sweep(np.zeros((cfg.n + 1, 2, 2)))      # a 3-D array
        with pytest.raises(GridError):
            sweep(np.zeros((cfg.n, 2)))             # wrong length
        with pytest.raises(GridError):
            sweep(np.zeros(cfg.n + 2))
        bad = good.copy()
        bad[-1, 1] = 1e-3                           # second column only
        with pytest.raises(EndpointConditionError, match="column 1"):
            sweep(bad)
        bad[-1, 1] = np.nan                         # a NaN endpoint is non-finite first
        with pytest.raises(GridError, match="must be finite"):
            sweep(bad)
        bad = good.copy()
        bad[3, 0] = np.inf
        with pytest.raises(GridError, match="must be finite"):
            sweep(bad)
    # a block's source carries the block's axis: a plain (n+1, m+1) source is refused
    with pytest.raises(GridError):
        prop.run_forward(good, source=np.ones((cfg.n + 1, cfg.m + 1)))
    with pytest.raises(GridError):
        prop.run_adjoint(good, forcing=np.ones((cfg.n + 1, cfg.m + 1, 3)))
    nan_block = np.zeros((cfg.n + 1, cfg.m + 1, 2))
    nan_block[2, 3, 1] = np.nan
    with pytest.raises(GridError, match="source must be finite"):
        prop.run_forward(good, source=nan_block, source_role=ROLE_CONTROL)
    with pytest.raises(GridError, match="source must be finite"):
        prop.run_adjoint(good, forcing=nan_block)
    # the coupled march takes one column only
    with pytest.raises(GridError):
        coupled_solve(good, PhysicalSetup(T=0.2), None, cfg)


def test_empty_blocks_refused():
    # LAPACK's gttrs with zero right-hand sides corrupted the heap, so an
    # (n+1, 0) block is refused before any step; each call runs in a child
    # process, so a regression fails here instead of killing the test run
    import stefanlab

    script = textwrap.dedent("""
        import numpy as np
        from stefanlab.domain import constant_path
        from stefanlab.errors import GridError
        from stefanlab.pde import Propagator, SchemeConfig

        prop = Propagator(constant_path(1.0, 0.1, 8), None, SchemeConfig(n=8, m=8),
                          control_radius=0.5)
        empty = np.zeros((9, 0))
        calls = {
            "forward": lambda: prop.run_forward(empty),
            "adjoint": lambda: prop.run_adjoint(empty),
            "observation": lambda: prop.run_observation(empty),
            "gramian": lambda: prop.apply_gramian(empty),
        }
        for name, call in calls.items():
            try:
                call()
                print(name, "returned")
            except GridError as exc:
                print(name, "refused:", exc)
    """)
    package_root = os.path.dirname(os.path.dirname(stefanlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["forward", "adjoint", "observation",
                                                     "gramian"]
    for line in lines:
        assert line.endswith("refused: initial data shape (9, 0) has no columns"), line


def test_block_control_source_masked_per_column():
    # values outside the control region change nothing, column by column,
    # and each column's masked source drives that column alone
    cfg = SchemeConfig(n=16, m=12)
    path = path_from_function(lambda t: 1.0 + 0.2 * t, lambda t: 0.2 + 0.0 * t, 0.3, cfg.m)
    prop = Propagator(path, None, cfg, control_radius=0.45)
    rng = np.random.default_rng(11)
    u0 = np.zeros((cfg.n + 1, 2))
    src = rng.standard_normal((cfg.n + 1, cfg.m + 1, 2))
    outside = src.copy()
    outside[prop.mask == 0.0] += np.array([5.0, -7.0])
    inside = prop.run_forward(u0, source=src, source_role=ROLE_CONTROL)
    assert np.array_equal(prop.run_forward(u0, source=outside, source_role=ROLE_CONTROL),
                          inside)
    assert not np.array_equal(prop.run_forward(u0, source=outside), prop.run_forward(u0, source=src))
    only_first = src.copy()
    only_first[..., 1] = 0.0
    both = prop.run_forward(u0, source=only_first, source_role=ROLE_CONTROL)
    assert np.array_equal(both[..., 0], inside[..., 0])
    assert not np.any(both[..., 1])
    # an adjoint forcing acts per column and is never masked
    g = prop.run_adjoint(u0, forcing=outside)
    assert np.array_equal(g[..., 1], prop.run_adjoint(u0[:, 1], forcing=outside[..., 1]))
    assert not np.array_equal(g, prop.run_adjoint(u0, forcing=src))


def test_every_forward_path_applies_the_control_operator_once():
    # a control weight that is not 0/1 tells B from B B: the Gramian apply,
    # the accumulated G and the forward sweep of an observation taken as a
    # control must all be L B B* L*, the observation applying B* once and
    # the forward side B once
    prop, _ = _moving_setup(16, 24, 0.5, 0.2, 2, True, 0.45, 5)
    n, m = prop.n, prop.m
    prop.mask *= np.linspace(0.3, 0.9, m + 1)
    unit = np.eye(n + 1)[:, 1:-1]
    images = prop.apply_gramian(unit)[1:-1]
    swept = np.stack([prop.run_forward(np.zeros(n + 1), source=prop.run_observation(e),
                                       source_role=ROLE_CONTROL)[1:-1, -1] for e in unit.T],
                     axis=1)
    G, _ = prop.assemble_forms()
    for want in (G, swept):
        assert np.max(np.abs(images - want)) <= 1e-13 * np.max(np.abs(want))


def test_boundary_flux_polynomial_exact():
    # the one-sided 3-point stencil differentiates quadratics exactly
    from stefanlab.domain import ROLE_STATE, SpaceTimeField

    cfg = SchemeConfig(n=20, m=8)
    path = constant_path(1.25, 0.1, cfg.m)
    rho = cfg.grid.nodes
    vals = np.repeat((rho * rho - rho)[:, None], cfg.m + 1, axis=1)
    probe = SpaceTimeField(vals, role=ROLE_STATE)
    # d/drho (rho^2 - rho) = 1 at rho = 1; physical flux divides by R
    flux = boundary_flux(probe, path, 3)
    assert flux == pytest.approx(1.0 / 1.25, rel=1e-12)


def test_semilinear_zero_kind_matches_linear_bitwise():
    cfg = SchemeConfig(n=24, m=32)
    path = constant_path(1.0, 0.2, cfg.m)
    u0 = 0.3 * np.sin(np.pi * cfg.grid.nodes)
    linear = solve_forward(u0, path, None, None, cfg)
    semi = solve_semilinear(u0, path, Nonlinearity.zero(), cfg)
    assert np.array_equal(linear.values, semi.values)
    none_given = solve_semilinear(u0, path, None, cfg)
    assert np.array_equal(linear.values, none_given.values)


def test_semilinear_linear_kind_matches_constant_potential():
    # f(s) = c s makes the lagged reaction a potential c on the previous
    # level; agreement with the potential solver is first order in dt
    c = 2.0
    cfg = SchemeConfig(n=24, m=400)
    path = constant_path(1.0, 0.1, cfg.m)
    u0 = 0.5 * np.sin(np.pi * cfg.grid.nodes)
    pot = np.full((cfg.n + 1, cfg.m + 1), c)
    ref = solve_forward(u0, path, pot, None, cfg)
    semi = solve_semilinear(u0, path, Nonlinearity.linear(slope=c), cfg)
    err = np.max(np.abs(ref.values[:, -1] - semi.values[:, -1]))
    assert err <= 5e-4 * np.max(np.abs(ref.values[:, -1]))


def test_semilinear_self_convergence():
    cfg = SchemeConfig(n=32, m=40)

    def run(scheme):
        path = constant_path(1.0, 0.2, scheme.m)
        rho = scheme.grid.nodes
        data = 0.4 * np.sin(np.pi * rho)
        return solve_semilinear(data, path, Nonlinearity.sine(), scheme)

    coarse = run(cfg)
    fine = run(SchemeConfig(n=cfg.n, m=4 * cfg.m))
    finer = run(SchemeConfig(n=cfg.n, m=16 * cfg.m))
    e1 = np.max(np.abs(coarse.values[:, -1] - finer.values[:, -1]))
    e2 = np.max(np.abs(fine.values[:, -1] - finer.values[:, -1]))
    assert e1 / e2 >= 3.0   # time refinement by 4 with a first-order lag


def test_adjoint_free_function_wrapper():
    cfg = SchemeConfig(n=16, m=20)
    path = constant_path(1.0, 0.2, cfg.m)
    phiT = np.sin(np.pi * cfg.grid.nodes)
    phiT[0] = phiT[-1] = 0.0
    field = solve_adjoint(phiT, path, None, None, cfg)
    assert field.values.shape == (cfg.n + 1, cfg.m + 1)
    assert np.array_equal(field.values[:, -1], phiT)
    assert np.all(field.values[0] == 0.0) and np.all(field.values[-1] == 0.0)



# -- swept blocks split into two column halves --------------------------------------

class _CountingPool:
    """The helper executor, keeping every future it is handed."""

    def __init__(self):
        self.pool = pde._helper_pool()
        self.futures = []

    def submit(self, *args):
        future = self.pool.submit(*args)
        self.futures.append(future)
        return future


def _split(patch, on, cpus=2):
    """Every swept block of two columns or more splits (on), or none does,
    with the CPU gate reading cpus; no operator set keeps its unit chi, so
    every unit pass sweeps.  Returns the counting helper pool."""
    pool = _CountingPool()
    patch.setattr(pde, "_KEEP_LEVELS", 0)
    patch.setattr(pde, "_SPLIT_COLUMNS", 2 if on else 1 << 30)
    patch.setattr(pde, "_usable_cpus", lambda: cpus)
    patch.setattr(pde, "_helper_pool", lambda: pool)
    return pool


def _outcome(call):
    """The bytes of a call's result, each call from an empty slot."""
    pde._last = threading.local()
    try:
        return np.asarray(call()).tobytes()
    except StefanlabError as exc:   # a failure must fail the same way
        return f"{type(exc).__name__}: {exc}"


def _split_outputs(path, pot, cfg, radius, block):
    """Every output a swept backward block feeds: G, P, the observation
    and the Gramian image of a block, the dense Gramian and both
    observability constants."""
    setup = PhysicalSetup()

    def prop():
        return pde.propagator(path, pot, cfg, radius)

    calls = (lambda: prop().assemble_forms()[0], lambda: prop().assemble_forms()[1],
             lambda: prop().run_observation(block), lambda: prop().apply_gramian(block),
             lambda: dense_gramian(path, pot, radius, cfg),
             lambda: observability.estimate_constant(path, pot, setup, cfg, b=radius).constant,
             lambda: observability.dense_constant(path, pot, setup, cfg, b=radius).constant)
    return [_outcome(call) for call in calls]


@settings(max_examples=20)
@given(n=st.integers(8, 40), m=st.integers(8, 40),
       theta=st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), with_potential=st.booleans(),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       cols=st.sampled_from([3, 5, 9]), seed=st.integers(0, 2**32 - 1))
def test_split_sweeps_keep_the_bits(n, m, theta, amp, freq, with_potential, radius, cols, seed):
    # swept as two column halves, the first on the helper thread, every
    # output keeps the bits of the block swept whole, for odd and even
    # widths, in one chunk of steps or in many
    prop, rng = _moving_setup(n, m, theta, amp, freq, with_potential, radius, seed)
    block = np.zeros((n + 1, cols))
    block[1:-1] = rng.standard_normal((n - 1, cols))
    for chunk in (pde._CHUNK, _SMALL_CHUNK):
        got = {}
        for on in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pde, "_CHUNK", chunk)
                pool = _split(patch, on)
                got[on] = _split_outputs(prop.path, prop.pot, prop.cfg, radius, block)
            assert bool(pool.futures) == on
        assert got[True] == got[False]


def _unit_forms(path, pot, cfg, radius):
    return [a.tobytes() for a in Propagator(path, pot, cfg, control_radius=radius).assemble_forms()]


@pytest.mark.parametrize("half", ["helper", "caller"])
def test_a_failing_half_raises_and_leaves_no_helper_work(monkeypatch, half):
    # an InstabilityError in either half leaves the sweep, after the helper
    # has stopped; the next split sweep gives the bits of a whole one
    prop, _ = _moving_setup(24, 30, 0.5, 0.1, 2, True, 0.45, 5)
    case = prop.path, prop.pot, prop.cfg, 0.45
    with pytest.MonkeyPatch.context() as patch:
        _split(patch, False)
        want = _unit_forms(*case)
    pool = _split(monkeypatch, True)
    caller, solve, steps = threading.current_thread(), pde._solve_implicit, []

    def failing(system, rhs, transposed=False):
        if transposed and (threading.current_thread() is caller) == (half == "caller"):
            steps.append(rhs.shape[1])
            if len(steps) == 7:
                raise InstabilityError("injected")
        elif transposed:
            time.sleep(1e-3)   # the other half is still at work when this one raises
        return solve(system, rhs, transposed)

    monkeypatch.setattr(pde, "_solve_implicit", failing)
    with pytest.raises(InstabilityError, match="injected"):
        _unit_forms(*case)
    assert pool.futures and all(future.done() for future in pool.futures)
    monkeypatch.setattr(pde, "_solve_implicit", solve)
    assert _unit_forms(*case) == want


def test_both_halves_run_under_the_callers_errstate(monkeypatch):
    pool = _split(monkeypatch, True)
    seen, solve = set(), pde._solve_implicit

    def recording(system, rhs, transposed=False):
        if transposed:
            seen.add((threading.current_thread().name, tuple(sorted(np.geterr().items()))))
        return solve(system, rhs, transposed)

    monkeypatch.setattr(pde, "_solve_implicit", recording)
    prop, _ = _moving_setup(16, 20, 0.5, 0.1, 2, True, 0.45, 1)
    with np.errstate(all="ignore", over="raise"):
        state = tuple(sorted(np.geterr().items()))
        prop.assemble_forms()
    assert pool.futures
    assert len({name for name, _ in seen}) == 2 and {s for _, s in seen} == {state}


def test_concurrent_split_sweeps_keep_their_bits(monkeypatch):
    # two caller threads share the one helper, switching often, a chunk of
    # one step at a time; each gets the bits of its sweep run whole, alone
    monkeypatch.setattr(pde, "_CHUNK", _SMALL_CHUNK)
    cases = []
    for n, m, theta, with_potential, radius, seed in ((40, 48, 0.5, True, 0.3, 1),
                                                      (35, 40, 0.8, False, 0.45, 2)):
        prop, _ = _moving_setup(n, m, theta, 0.1, 2, with_potential, radius, seed)
        cases.append((prop.path, prop.pot, prop.cfg, radius))
    with pytest.MonkeyPatch.context() as patch:
        _split(patch, False)
        want = [_unit_forms(*case) for case in cases]
    pool = _split(monkeypatch, True)
    barrier = threading.Barrier(len(cases), timeout=60)
    results, errors = [None] * len(cases), []

    def worker(i):
        try:
            barrier.wait()
            results[i] = [_unit_forms(*cases[i]) for _ in range(3)]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a split sweep deadlocked"
    assert not errors
    assert results == [[forms] * 3 for forms in want]
    assert pool.futures


def test_split_needs_two_usable_cpus_and_the_width(monkeypatch):
    # only a block of _SPLIT_COLUMNS columns or more splits, and only when
    # the process may run on two CPUs; otherwise nothing reaches the helper
    width, gate = pde._SPLIT_COLUMNS, pde._usable_cpus
    pool = _split(monkeypatch, True)
    monkeypatch.setattr(pde, "_SPLIT_COLUMNS", width)
    monkeypatch.setattr(pde, "_usable_cpus", gate)

    def hand_offs(cols):
        before = len(pool.futures)
        prop, _ = _moving_setup(cols + 1, 8, 0.5, 0.1, 1, True, 0.45, 0)
        prop.assemble_forms()
        return len(pool.futures) - before

    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert gate() == len(cpus)
        assert hand_offs(width - 1) == 0
        assert (hand_offs(width) > 0) == (len(cpus) > 1)
