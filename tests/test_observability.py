"""Observability constant: dense oracle anchor, blocked-sweep agreement, geometry."""

import numpy as np
import pytest

from stefanlab import observability
from stefanlab.domain import PhysicalSetup, constant_path, path_from_function
from stefanlab.errors import GridError
from stefanlab.observability import (
    ObservabilityConfig,
    dense_constant,
    estimate_constant,
)
from stefanlab.pde import SchemeConfig

# dominant generalized eigenvalue at (16, 32), R = 1, zero potential,
# observation on [0, 0.3), T = 0.5; assembled densely and frozen
_ANCHOR_16_32 = 1.2983678787e-01


def _setting(n, m, T=0.5):
    setup = PhysicalSetup(T=T)
    cfg = SchemeConfig(n=n, m=m)
    path = constant_path(setup.R0, setup.T, cfg.m)
    return setup, cfg, path


def test_config_validation():
    with pytest.raises(GridError):
        ObservabilityConfig(relative_floor=2.0)


def test_dense_constant_matches_frozen_anchor():
    setup, cfg, path = _setting(16, 32)
    est = dense_constant(path, None, setup, cfg)
    assert est.constant == pytest.approx(_ANCHOR_16_32, rel=1e-9)
    assert est.iterations == 15   # one column per interior node


def test_matrix_free_matches_dense():
    setup, cfg, path = _setting(16, 32)
    dense = dense_constant(path, None, setup, cfg)
    free = estimate_constant(path, None, setup, cfg)
    assert abs(free.constant - dense.constant) <= 1e-6 * dense.constant
    assert free.iterations == 1   # one blocked sweep


@pytest.mark.parametrize("n, m", [(16, 32), (24, 48), (32, 64)])
def test_blocked_matches_dense_on_moving_path(n, m):
    # every radius of the ladder, the full window included, on a wobbling
    # path under a smooth potential
    setup = PhysicalSetup(T=0.5)
    cfg = SchemeConfig(n=n, m=m)
    path = path_from_function(lambda t: 1.0 + 0.02 * np.sin(4.0 * np.pi * t),
                              lambda t: 0.08 * np.pi * np.cos(4.0 * np.pi * t),
                              setup.T, m)
    rho = cfg.grid.nodes
    potential = np.repeat((0.5 + 0.5 * np.cos(np.pi * rho))[:, None], m + 1, axis=1)
    for b in (0.2, 0.3, 0.45, np.inf):
        free = estimate_constant(path, potential, setup, cfg, b=b)
        dense = dense_constant(path, potential, setup, cfg, b=b)
        assert abs(free.constant - dense.constant) <= 1e-9 * dense.constant, b


@pytest.mark.parametrize("theta", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("n, m", [(16, 32), (20, 30), (24, 48), (32, 64)])
def test_oracle_floor_equals_the_estimates(monkeypatch, n, m, theta):
    # the oracle reads its floor scalar s^T B s from its own Gramian
    # columns, the estimate s^T G s from the accumulated G: the same form
    # at the seed, up to rounding
    floors = []
    dominant = observability._dominant

    def captured(amat, bmat, seed_value, relative_floor, cfg):
        floors.append(seed_value)
        return dominant(amat, bmat, seed_value, relative_floor, cfg)

    monkeypatch.setattr(observability, "_dominant", captured)
    setup = PhysicalSetup(T=0.5)
    cfg = SchemeConfig(n=n, m=m, theta=theta)
    path = path_from_function(lambda t: 1.0 + 0.05 * np.sin(2.0 * np.pi * t),
                              lambda t: 0.1 * np.pi * np.cos(2.0 * np.pi * t),
                              setup.T, m)
    potential = np.random.default_rng(n * m).uniform(-3.0, 3.0, size=(n + 1, m + 1))
    for b in (0.2, 0.3, 0.45, np.inf):
        floors.clear()
        estimate_constant(path, potential, setup, cfg, b=b)
        dense_constant(path, potential, setup, cfg, b=b)
        estimate, dense = floors
        assert abs(dense - estimate) <= 1e-12 * estimate, b


def test_constant_nonincreasing_in_window():
    # widening the observation region strengthens the denominator form, so
    # the constant can only drop
    setup, cfg, path = _setting(24, 48)
    values = [estimate_constant(path, None, setup, cfg, b=b).constant
              for b in (0.2, 0.3, 0.45)]
    assert values[0] > values[1] > values[2]


def test_full_window_variant_runs():
    setup, cfg, path = _setting(16, 32)
    full = estimate_constant(path, None, setup, cfg, b=np.inf)
    partial = estimate_constant(path, None, setup, cfg)
    assert full.constant < partial.constant


def test_floor_keeps_potential_continuity():
    setup, cfg, path = _setting(16, 32)
    base = estimate_constant(path, None, setup, cfg).constant
    tiny = np.full((cfg.n + 1, cfg.m + 1), 1e-8)
    shifted = estimate_constant(path, tiny, setup, cfg).constant
    assert abs(shifted - base) <= 1e-6 * base


def test_potential_moves_the_constant():
    setup, cfg, path = _setting(16, 32)
    base = estimate_constant(path, None, setup, cfg).constant
    one = np.ones((cfg.n + 1, cfg.m + 1))
    shifted = estimate_constant(path, one, setup, cfg).constant
    assert shifted != pytest.approx(base, rel=1e-3)
    assert 0.5 * base <= shifted <= 2.0 * base


def test_dense_cap_guard():
    setup, cfg, path = _setting(48, 96)
    with pytest.raises(GridError):
        dense_constant(path, None, setup, cfg)


def test_observation_radius_guard():
    setup, cfg, path = _setting(16, 32)
    with pytest.raises(GridError):
        estimate_constant(path, None, setup, cfg, b=-0.1)
    with pytest.raises(GridError):
        estimate_constant(path, None, setup, cfg, b=float("nan"))
