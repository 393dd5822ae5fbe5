"""Reuse of a thread's last Propagator: the same bits as a fresh build, a
miss on any changed input, one build and one assembly per epsilon ladder
and per observability estimate with its dense oracle, one unit sweep
whichever of the forms and the Gramian oracles comes first, one build and
one unit sweep per radius ladder, and one slot per thread."""

import hashlib
import sys
import threading
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import pde
from stefanlab.control import (
    VARIANT_EXACT,
    VARIANT_QUADRATIC,
    HUMConfig,
    dense_gramian,
    solve_hum,
)
from stefanlab.domain import BoundaryPath, PhysicalSetup, SpaceTimeField, path_from_function
from stefanlab.errors import ConvergenceError, GridError
from stefanlab.observability import dense_constant, estimate_constant
from stefanlab.pde import Propagator, SchemeConfig, solve_forward


_B = 0.3


def _case(n, m, theta=0.5, amp=0.05, freq=2, with_potential=True, seed=0):
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = path_from_function(lambda t: 1.0 + amp * np.sin(freq * np.pi * t),
                              lambda t: amp * freq * np.pi * np.cos(freq * np.pi * t),
                              0.4, m)
    rng = np.random.default_rng(seed)
    pot = rng.uniform(-3.0, 3.0, size=(n + 1, m + 1)) if with_potential else None
    u0 = np.zeros(n + 1)
    u0[1:-1] = rng.standard_normal(n - 1)
    return cfg, path, pot, u0


def _clear_slot():
    # the autouse fixture restores the module's own slot after the test
    pde._last = threading.local()


def _ladder_step(case, radius, hum):
    """One solve of a ladder and the replay of its control."""
    cfg, path, pot, u0 = case
    out = solve_hum(u0, path, pot, radius, hum, cfg)
    replay = solve_forward(u0, path, pot, out.control, cfg, control_radius=radius)
    return out, replay


def _same_bits(a, b) -> bool:
    if isinstance(a, SpaceTimeField):
        return a.role == b.role and _same_bits(a.values, b.values)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_step(got, want):
    (out, replay), (out0, replay0) = got, want
    for f in fields(out):
        assert _same_bits(getattr(out, f.name), getattr(out0, f.name)), f.name
    assert _same_bits(replay, replay0)


@settings(max_examples=20)
@given(n=st.integers(8, 24), m=st.integers(8, 32),
       theta=st.floats(0.5, 1.0), amp=st.floats(0.0, 0.3),
       freq=st.integers(1, 3), with_potential=st.booleans(),
       radius=st.sampled_from([0.2, 0.3, 0.45, np.inf]),
       variant=st.sampled_from([VARIANT_QUADRATIC, VARIANT_EXACT]),
       exponents=st.lists(st.floats(-6.0, -1.0), min_size=2, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_ladder_reuse_equals_fresh_builds_bitwise(n, m, theta, amp, freq, with_potential,
                                                  radius, variant, exponents, seed):
    case = _case(n, m, theta, amp, freq, with_potential, seed)
    ladder = [HUMConfig(epsilon=10.0 ** e, variant=variant) for e in exponents]
    fresh = []
    for hum in ladder:
        _clear_slot()
        fresh.append(_step_or_error(case, radius, hum))
    _clear_slot()
    for hum, want in zip(ladder, fresh):
        got = _step_or_error(case, radius, hum)
        if isinstance(want, ConvergenceError):
            # an exact-variant root below G's rounding floor fails the same way
            assert isinstance(got, ConvergenceError) and str(got) == str(want)
            assert _same_bits(got.history, want.history)
        else:
            _assert_same_step(got, want)


def _step_or_error(case, radius, hum):
    try:
        return _ladder_step(case, radius, hum)
    except ConvergenceError as exc:
        return exc


def test_any_changed_input_misses():
    cfg, path, pot, u0 = _case(16, 24)
    key = (path, pot, cfg, _B)
    assert pde.propagator(*key) is pde.propagator(path, pot.copy(), cfg, _B)
    radii = path.radii.copy()
    radii[5] += 1e-9
    variants = {
        "radius": (path, pot, cfg, 0.31),
        "theta": (path, pot, SchemeConfig(n=cfg.n, m=cfg.m, theta=0.6), _B),
        "one path sample": (BoundaryPath(path.times, radii, path.slopes), pot, cfg, _B),
        "no potential": (path, None, cfg, _B),
        "no radius": (path, pot, cfg, None),
    }
    for name, args in variants.items():
        base = pde.propagator(*key)
        assert pde.propagator(*args) is not base, name
        assert pde.propagator(*key) is not base, f"{name}: the slot holds one entry"

    hum = HUMConfig(epsilon=1e-4)
    base = pde.propagator(*key)
    solve_hum(u0, path, pot, _B, hum, cfg)
    pot[3, 4] += 0.5                      # mutated in place after the call
    got = _ladder_step((cfg, path, pot, u0), _B, hum)
    assert pde.propagator(*key) is not base
    _clear_slot()
    _assert_same_step(got, _ladder_step((cfg, path, pot, u0), _B, hum))


def _count_work(monkeypatch):
    """Builds, the backward steps of unit sweeps (transposed solves of an
    (n-1)-column block) and the formations of P (levels formed from the
    level-0 chi; no test counting them runs an adjoint sweep)."""
    counts = {"build": 0, "unit_steps": 0, "P": 0}
    build, solve, levels = Propagator.__init__, pde._solve_implicit, Propagator._levels

    def counted_build(self, *args, **kwargs):
        counts["build"] += 1
        build(self, *args, **kwargs)

    def counted_solve(system, rhs, transposed=False):
        if transposed and rhs.shape[1] == rhs.shape[0]:
            counts["unit_steps"] += 1
        return solve(system, rhs, transposed)

    def counted_levels(self, first, *args, **kwargs):
        counts["P"] += first == 0
        return levels(self, first, *args, **kwargs)

    monkeypatch.setattr(Propagator, "__init__", counted_build)
    monkeypatch.setattr(pde, "_solve_implicit", counted_solve)
    monkeypatch.setattr(Propagator, "_levels", counted_levels)
    return counts


def test_ladder_costs_one_build_and_one_assembly(monkeypatch):
    counts = _count_work(monkeypatch)
    case = _case(20, 30)
    for eps in (1e-2, 1e-4, 1e-6):
        _ladder_step(case, _B, HUMConfig(epsilon=eps))
    assert counts == {"build": 1, "unit_steps": case[0].m, "P": 1}


def test_dense_oracle_reads_the_slice_the_estimate_assembled(monkeypatch):
    # after estimate_constant, dense_constant takes P and the unit columns'
    # chi, which the operators keep here, from the estimate's unit sweep:
    # its only transposed solves are the seed column's, one over m steps
    counts = _count_work(monkeypatch)
    columns = []
    solve = pde._solve_implicit

    def counted(factors, rhs, transposed=False):
        if transposed:
            columns.append(rhs.shape[1])
        return solve(factors, rhs, transposed)

    monkeypatch.setattr(pde, "_solve_implicit", counted)
    cfg, path, pot, _ = _case(20, 30)
    setup = PhysicalSetup()
    estimate_constant(path, pot, setup, cfg, b=_B)
    columns.clear()
    dense_constant(path, pot, setup, cfg, b=_B)
    assert counts == {"build": 1, "unit_steps": cfg.m, "P": 1}
    assert sum(columns) == cfg.m


@pytest.mark.parametrize("chunk", [None, 97])
@pytest.mark.parametrize("grid", [(20, 30), (32, 64)])
def test_forms_and_oracles_agree_in_any_order(monkeypatch, grid, chunk):
    # whichever of assemble_forms, dense_gramian and dense_constant runs
    # first on new inputs sets the forms; every output keeps its bits, with
    # the unit sweep's chi kept or, with nothing kept, swept again for each
    # later pass, in one chunk or in many (a prime chunk of 97 values).  The
    # estimate and the free final state multiply by P, so they see its
    # memory layout as well as its bits
    if chunk is not None:
        monkeypatch.setattr(pde, "_CHUNK", chunk)
    cfg, path, pot, u0 = _case(*grid)
    setup = PhysicalSetup()
    calls = {
        "forms": lambda: pde.propagator(path, pot, cfg, _B).assemble_forms(),
        "gramian": lambda: dense_gramian(path, pot, _B, cfg),
        "constant": lambda: dense_constant(path, pot, setup, cfg, b=_B).constant,
        "estimate": lambda: estimate_constant(path, pot, setup, cfg, b=_B).constant,
        "free": lambda: pde.propagator(path, pot, cfg, _B).free_final(u0),
    }
    results = []
    for keep in (pde._KEEP_LEVELS, 0):
        monkeypatch.setattr(pde, "_KEEP_LEVELS", keep)
        for first in calls:
            _clear_slot()
            got = {first: calls[first]()}
            for name in calls:
                if name not in got:
                    got[name] = calls[name]()
            G, P = got["forms"]
            results.append([np.asarray(a).tobytes() for a in
                            (G, P, got["gramian"], got["constant"], got["estimate"], got["free"])])
    assert all(r == results[0] for r in results)


def _held(prop):
    """The 3-D arrays a Propagator holds, those of its `_UnitSweep` included,
    besides the level-major operator diagonals."""
    unit = prop._unit
    values = [*vars(prop).values(), *(getattr(unit, name) for name in unit.__slots__)]
    return [v for v in values if isinstance(v, np.ndarray) and v.ndim == 3]


def test_only_the_kept_chi_outlive_a_call(monkeypatch):
    # the one 3-D array a Propagator holds is its operator set's unit chi,
    # within _KEEP_LEVELS; the Gramian oracle still sets the forms, so a
    # later assembly makes no solve
    cfg, path, pot, _ = _case(100, 200)
    prop = Propagator(path, pot, cfg, control_radius=_B)
    prop.assemble_forms()
    assert not _held(prop)

    _clear_slot()
    cfg, path, pot, _ = _case(64, 128)
    dense_gramian(path, pot, _B, cfg)
    prop = pde.propagator(path, pot, cfg, _B)
    assert not _held(prop)
    counts = _count_work(monkeypatch)
    prop.assemble_forms()
    assert counts == {"build": 0, "unit_steps": 0, "P": 0}

    # a small grid keeps its chi, read-only, through the oracle as well
    cfg, path, pot, _ = _case(20, 30)
    prop = pde.propagator(path, pot, cfg, _B)
    prop.assemble_forms()
    dense_gramian(path, pot, _B, cfg)
    assert _held(prop) == [prop._unit.chis]
    assert prop._unit.chis.shape == (cfg.m, cfg.n - 1, cfg.n - 1)
    assert prop._unit.chis.size <= pde._KEEP_LEVELS and not prop._unit.chis.flags.writeable


def test_oracle_after_the_forms_forms_them_once(monkeypatch):
    # the unit chi of this grid exceed _KEEP_LEVELS, so a Gramian oracle
    # after assemble_forms sweeps the unit columns again for its levels;
    # that sweep forms P no second time, keeps nothing, and the forms keep
    # their identity and their bits
    counts = _count_work(monkeypatch)
    cfg, path, pot, _ = _case(64, 128)
    prop = pde.propagator(path, pot, cfg, _B)
    G, P = prop.assemble_forms()
    bits = G.tobytes(), P.tobytes()
    dense_gramian(path, pot, _B, cfg)
    assert counts == {"build": 1, "unit_steps": 2 * cfg.m, "P": 1}
    assert not _held(prop)
    again = prop.assemble_forms()
    assert again[0] is G and again[1] is P
    assert (G.tobytes(), P.tobytes()) == bits


# the rungs of a radius ladder: None is no control radius at all, which the
# observation outputs refuse, and the observability functions read as the
# setup's radius
_RUNGS = (0.2, 0.3, 0.45, np.inf, None)


def _rung_calls(case, radius):
    """Every output of one rung of a radius ladder, each call taking its
    Propagator from the thread's slot."""
    cfg, path, pot, u0 = case
    setup = PhysicalSetup()

    def prop():
        return pde.propagator(path, pot, cfg, radius)

    return (lambda: prop().assemble_forms()[0], lambda: prop().assemble_forms()[1],
            lambda: prop().apply_gramian(u0), lambda: prop().run_observation(u0),
            lambda: estimate_constant(path, pot, setup, cfg, b=radius).constant,
            lambda: dense_constant(path, pot, setup, cfg, b=radius).constant,
            lambda: dense_gramian(path, pot, radius, cfg))


def _digest(call):
    try:
        return hashlib.sha256(np.asarray(call()).tobytes()).hexdigest()
    except GridError as exc:
        return str(exc)


# chunks of the unit passes: one; 1 or 2 steps (97 values); 3 to 15 steps
# at 32x64, 12 to 64 at 16x32 (2883 = 3 * 31^2 values), mostly not dividing
# m, so that the top chunk is partial
@pytest.mark.parametrize("chunk", [pde._CHUNK, 97, 2883])
@pytest.mark.parametrize("grid", [(16, 32), (32, 64)])
@settings(max_examples=8)
@given(theta=st.sampled_from([0.5, 1.0]),
       rungs=st.lists(st.sampled_from(_RUNGS), min_size=3, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_radius_ladder_equals_fresh_builds_bitwise(grid, chunk, theta, rungs, seed):
    # a ladder of radii on one path shares one build, whatever the order
    # and the repeats, and every output keeps the bits of a Propagator
    # built for it alone, with the unit levels kept or swept per chunk
    case = _case(*grid, theta=theta, seed=seed)
    with mock.patch.object(pde, "_CHUNK", chunk), pytest.MonkeyPatch.context() as mp:
        fresh = []
        for radius in rungs:
            row = []
            for call in _rung_calls(case, radius):
                _clear_slot()
                row.append(_digest(call))
            fresh.append(row)
        _clear_slot()
        counts = _count_work(mp)
        ladder = [[_digest(call) for call in _rung_calls(case, radius)] for radius in rungs]
    assert ladder == fresh
    assert counts["build"] == 1 and counts["P"] <= 1
    assert counts["unit_steps"] <= case[0].m


def test_radius_ladder_costs_one_build_and_one_unit_sweep(monkeypatch):
    # estimate and dense oracle over three radii: the first radius sweeps
    # the unit columns backward and keeps their chi, from which every
    # radius forms its levels; P's free columns sweep forward once
    counts = _count_work(monkeypatch)
    cfg, path, pot, _ = _case(24, 48)
    free_sweeps = []
    images = Propagator._gramian_images

    def counted_images(self, obs, free=None):
        if free is not None:
            free_sweeps.append(free.shape[1])
        return images(self, obs, free)

    monkeypatch.setattr(Propagator, "_gramian_images", counted_images)
    setup = PhysicalSetup()
    for b in (0.2, 0.3, 0.45):
        estimate_constant(path, pot, setup, cfg, b=b)
        dense_constant(path, pot, setup, cfg, b=b)
    assert counts["build"] == 1 and counts["P"] == 1
    assert counts["unit_steps"] <= cfg.m
    assert free_sweeps == [cfg.n - 1]


@pytest.mark.parametrize("grid", [(24, 48), (32, 64), (64, 128), (100, 200)],
                         ids=lambda grid: f"{grid[0]}x{grid[1]}")
def test_unit_sweep_chi_kept_within_the_bound(monkeypatch, grid):
    # an operator set keeps its unit sweep's chi, read-only and within
    # _KEEP_LEVELS, when m(n-1)^2 fits: a three-rung ladder of estimates
    # and dense oracles then makes one unit sweep in all; above the bound
    # nothing is kept and each radius sweeps the unit columns again
    counts = _count_work(monkeypatch)
    cfg, path, pot, _ = _case(*grid)
    setup = PhysicalSetup()
    props = []
    for b in (0.2, 0.3, 0.45):
        estimate_constant(path, pot, setup, cfg, b=b)
        if cfg.m <= 64:
            dense_constant(path, pot, setup, cfg, b=b)
        props.append(pde.propagator(path, pot, cfg, b))
    unit = props[0]._unit
    assert all(prop._unit is unit for prop in props)
    if cfg.m * (cfg.n - 1) ** 2 <= pde._KEEP_LEVELS:
        assert counts["unit_steps"] <= cfg.m
        assert unit.chis.shape == (cfg.m, cfg.n - 1, cfg.n - 1)
        assert not unit.chis.flags.writeable
        assert unit.chis.size <= pde._KEEP_LEVELS and unit.chis.nbytes <= 512 * 1024
    else:
        assert unit.chis is None
        assert counts["unit_steps"] == 3 * cfg.m


def test_derived_propagator_refuses_a_bad_radius():
    # a radius the constructor refuses is refused with its message when only
    # the radius differs from the slot, and the slot keeps its operators
    cfg, path, pot, _ = _case(16, 24)
    base = pde.propagator(path, pot, cfg, _B)
    for bad in (-0.1, np.nan):
        with pytest.raises(GridError) as built:
            Propagator(path, pot, cfg, control_radius=bad)
        with pytest.raises(GridError) as derived:
            pde.propagator(path, pot, cfg, bad)
        assert str(derived.value) == str(built.value) == f"control radius must be positive, got {bad}"
        assert pde.propagator(path, pot, cfg, _B) is base
    other = pde.propagator(path, pot, cfg, 0.45)
    assert other is not base and other._factors is base._factors


def test_ladder_rungs_cost_two_column_sweeps(monkeypatch):
    # once G and P are assembled, a rung is the observation sweep and the
    # verification sweep: 2m column solves, the free final state coming
    # from P by duality
    columns = []
    solve = pde._solve_implicit

    def counted(factors, rhs, transposed=False):
        columns.append(rhs.shape[1])
        return solve(factors, rhs, transposed)

    monkeypatch.setattr(pde, "_solve_implicit", counted)
    cfg, path, pot, u0 = _case(20, 30)
    costs = []
    for eps in (1e-2, 1e-4, 1e-6):
        columns.clear()
        solve_hum(u0, path, pot, _B, HUMConfig(epsilon=eps), cfg)
        costs.append(sum(columns))
    assert costs == [(cfg.n - 1) * cfg.m + 2 * cfg.m, 2 * cfg.m, 2 * cfg.m]


def test_assembled_forms_are_read_only():
    cfg, path, pot, _ = _case(12, 16)
    prop = Propagator(path, pot, cfg, control_radius=_B)
    G, P = prop.assemble_forms()
    again = prop.assemble_forms()
    assert again[0] is G and again[1] is P
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
    with pytest.raises(ValueError):
        P[0, 0] = 1.0


def test_threads_keep_their_own_slot(monkeypatch):
    # more threads than cores, switching often, each on its own inputs
    cases = [_case(16, 24, seed=1), _case(18, 20, amp=0.1, seed=2),
             _case(12, 16, theta=0.7, seed=3), _case(16, 24, with_potential=False, seed=4)]
    ladder = [HUMConfig(epsilon=eps) for eps in (1e-2, 1e-4, 1e-6)]
    sequential = [[_ladder_step(case, _B, hum) for hum in ladder] for case in cases]

    builds = []
    build = Propagator.__init__

    def counted_build(self, *args, **kwargs):
        builds.append(threading.get_ident())
        build(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "__init__", counted_build)
    barrier = threading.Barrier(len(cases), timeout=60)
    results, errors = [None] * len(cases), []

    def worker(i):
        try:
            steps = []
            for hum in ladder:
                barrier.wait()            # every thread takes each step together
                steps.append(_ladder_step(cases[i], _B, hum))
            results[i] = steps
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
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # one build per thread: no thread evicted another's entry
    assert len(builds) == len(cases) and len(set(builds)) == len(cases)
    for got, want in zip(results, sequential):
        for step, ref in zip(got, want):
            _assert_same_step(step, ref)
