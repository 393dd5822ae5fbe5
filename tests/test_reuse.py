"""Reuse of a thread's last Propagator: the same bits as a fresh build, a
miss on any changed input, one build and one assembly per epsilon ladder,
and one slot per thread."""

import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import pde
from stefanlab.control import (
    VARIANT_EXACT,
    VARIANT_QUADRATIC,
    HUMConfig,
    solve_hum,
)
from stefanlab.domain import BoundaryPath, SpaceTimeField, path_from_function
from stefanlab.errors import ConvergenceError
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


@settings(max_examples=20, derandomize=True, deadline=None)
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


def test_ladder_costs_one_build_and_one_assembly(monkeypatch):
    counts = {"build": 0, "assembly": 0}
    build, assemble = Propagator.__init__, Propagator._assemble_forms

    def counted_build(self, *args, **kwargs):
        counts["build"] += 1
        build(self, *args, **kwargs)

    def counted_assembly(self):
        counts["assembly"] += 1
        return assemble(self)

    monkeypatch.setattr(Propagator, "__init__", counted_build)
    monkeypatch.setattr(Propagator, "_assemble_forms", counted_assembly)
    case = _case(20, 30)
    for eps in (1e-2, 1e-4, 1e-6):
        _ladder_step(case, _B, HUMConfig(epsilon=eps))
    assert counts == {"build": 1, "assembly": 1}


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
