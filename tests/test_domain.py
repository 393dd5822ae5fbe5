"""Geometry containers, norms, CSV interchange."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stefanlab

from stefanlab.domain import (
    BoundaryPath,
    PhysicalSetup,
    ReferenceGrid,
    SpaceTimeField,
    ROLE_CONTROL,
    ROLE_STATE,
    constant_path,
    h1_seminorm,
    line_l2_norm,
    path_from_function,
    read_field_csv,
    write_field_csv,
)
from stefanlab.errors import (
    EndpointConditionError,
    FieldRoleError,
    GridError,
    OutOfDomainError,
    RadiusBoundsError,
)
from stefanlab import pde, stefan, weights
from stefanlab.control import HUMConfig, solve_hum
from stefanlab.pde import SchemeConfig, solve_adjoint, solve_forward, solve_semilinear
from stefanlab.stefan import Nonlinearity, coupled_solve, linearize_and_control
from stefanlab.weights import CarlemanParams, carleman_sides


def test_reference_grid_nodes_and_spacing():
    grid = ReferenceGrid(10)
    assert grid.nodes.shape == (11,)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert grid.spacing == pytest.approx(0.1, abs=0.0)
    for bad in (1, 10.0, 2.5, True):
        with pytest.raises(GridError):
            ReferenceGrid(bad)


def test_setup_defaults_satisfy_ordering():
    setup = PhysicalSetup()
    assert 0.0 < setup.b0 < setup.b < setup.R_star < setup.R0 < setup.E


def test_setup_rejects_violated_ordering():
    with pytest.raises(RadiusBoundsError, match="0 < b0 < b < R_star < R0 < E"):
        PhysicalSetup(b=0.6)
    with pytest.raises(RadiusBoundsError):
        PhysicalSetup(R0=2.0)
    with pytest.raises(OutOfDomainError):
        PhysicalSetup(T=0.0)


def test_initial_line_field_defaults_to_zero():
    grid = ReferenceGrid(16)
    u0 = PhysicalSetup().initial_line_field(grid)
    assert np.array_equal(u0, np.zeros(17))


def test_initial_line_field_samples_and_snaps_endpoints():
    setup = PhysicalSetup(z0=lambda r: np.sin(np.pi * r / 1.0))
    grid = ReferenceGrid(32)
    u0 = setup.initial_line_field(grid)
    assert u0[0] == 0.0 and u0[-1] == 0.0
    assert np.allclose(u0[1:-1], np.sin(np.pi * grid.nodes[1:-1]))


def test_initial_line_field_rejects_nonvanishing_sampler():
    setup = PhysicalSetup(z0=lambda r: np.cos(r))
    with pytest.raises(EndpointConditionError):
        setup.initial_line_field(ReferenceGrid(16))
    # a NaN sample is refused, not snapped to zero at an endpoint
    for where in (0.0, 0.5, 1.0):
        setup = PhysicalSetup(z0=lambda r: np.where(r == where, np.nan, np.sin(np.pi * r)))
        with pytest.raises(GridError, match="initial sampler must be finite"):
            setup.initial_line_field(ReferenceGrid(16))


def test_constant_path_properties():
    path = constant_path(1.25, 0.5, 20)
    assert path.steps == 20
    assert path.dt == pytest.approx(0.025, rel=1e-15)
    assert path.horizon == pytest.approx(0.5, rel=1e-15)
    assert np.all(path.radii == 1.25)


def test_path_rejects_nonuniform_times():
    t = np.array([0.0, 0.1, 0.3])
    with pytest.raises(GridError):
        BoundaryPath(t, np.ones(3), np.zeros(3))


def test_path_rejects_nonpositive_radius():
    t = np.linspace(0.0, 1.0, 5)
    r = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
    with pytest.raises(RadiusBoundsError):
        BoundaryPath(t, r, np.zeros(5))


def test_path_rejects_nonfinite_slopes():
    t = np.linspace(0.0, 1.0, 5)
    for bad in (np.nan, np.inf):
        slopes = np.zeros(5)
        slopes[2] = bad
        with pytest.raises(GridError, match="slopes"):
            BoundaryPath(t, np.ones(5), slopes)


def test_radius_at_interpolates():
    path = path_from_function(lambda t: 1.0 + t, lambda t: np.ones_like(t), 1.0, 10)
    assert path.radius_at(0.35) == pytest.approx(1.35, rel=1e-14)
    with pytest.raises(OutOfDomainError):
        path.radius_at(1.5)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_radius_at_refuses_a_nonfinite_time(t):
    # NaN fails both range comparisons, so it must be refused, not interpolated
    path = path_from_function(lambda t: 1.0 + t, lambda t: np.ones_like(t), 1.0, 10)
    with pytest.raises(OutOfDomainError):
        path.radius_at(t)
    with pytest.raises(OutOfDomainError):   # not an all-NaN weight
        weights.weight_profile(np.linspace(0.0, 0.9, 5), t, PhysicalSetup(), path)


def test_line_l2_norm_sine_closed_form():
    # trapezoid integrates sin^2 over a full period exactly
    grid = ReferenceGrid(24)
    for radius in (1.0, 1.3):
        u = np.sin(np.pi * grid.nodes)
        assert line_l2_norm(u, radius, grid) == pytest.approx(
            np.sqrt(radius / 2.0), rel=1e-14)


def test_line_l2_norm_is_the_slice_norm_bitwise():
    # one trapezoid arithmetic for both: the norm a CLI summary reports for
    # a state is the bits solve_hum's slice norms give it
    cfg = SchemeConfig(n=40, m=8)
    path = path_from_function(lambda t: 1.3 + 0.2 * t, lambda t: 0.2 + 0.0 * t, 0.5, cfg.m)
    prop = pde.Propagator(path, None, cfg)
    rng = np.random.default_rng(48)
    for trial in range(100):
        k = trial % (cfg.m + 1)
        u = np.zeros(cfg.n + 1)
        u[1:-1] = rng.standard_normal(cfg.n - 1)
        want = prop.slice_norm(u, k)
        assert line_l2_norm(u, float(path.radii[k]), cfg.grid).hex() == want.hex(), trial


def test_h1_seminorm_linear_closed_form():
    # u(rho) = rho on [0, R]: u_r = 1/R, integral R * (1/R)^2 = 1/R
    grid = ReferenceGrid(16)
    for radius in (1.0, 2.0):
        sem = h1_seminorm(grid.nodes.copy(), radius, grid)
        assert sem == pytest.approx(1.0 / np.sqrt(radius), rel=1e-13)


def test_field_roles_enforced():
    vals = np.ones((5, 4))
    with pytest.raises(EndpointConditionError):
        SpaceTimeField(vals, role=ROLE_STATE)
    field = SpaceTimeField(vals, role=ROLE_CONTROL)   # control rows may be nonzero
    assert field.n_intervals == 4 and field.n_steps == 3
    with pytest.raises(FieldRoleError):
        SpaceTimeField(vals, role="flux")


def test_field_values_frozen():
    vals = np.zeros((4, 3))
    field = SpaceTimeField(vals, role=ROLE_STATE)
    with pytest.raises(ValueError):
        field.values[1, 1] = 2.0


def _entry_points():
    """(id, name the error gives the input, a good value of it, call with it)."""
    setup = PhysicalSetup(T=0.2, nonlinearity=Nonlinearity.sine(1.0))
    cfg = SchemeConfig(n=12, m=10)
    path = constant_path(setup.R0, setup.T, cfg.m)
    nl, hum = setup.nonlinearity, HUMConfig()
    u0 = np.sin(np.pi * cfg.grid.nodes)
    field = np.ones((cfg.n + 1, cfg.m + 1))
    block = np.zeros((cfg.n + 1, cfg.m + 1, 2))
    block[1:-1] = 1.0
    params = CarlemanParams.calibrate(1.0, 1e-4, 2, setup, path)
    prop = pde.Propagator(path, None, cfg, control_radius=setup.b)
    return [
        ("forward-u0", "initial data", u0,
         lambda x: solve_forward(x, path, None, None, cfg)),
        ("forward-source", "source", field,
         lambda x: solve_forward(u0, path, None, x, cfg)),
        ("adjoint-phiT", "initial data", u0,
         lambda x: solve_adjoint(x, path, None, None, cfg)),
        ("adjoint-forcing", "source", field,
         lambda x: solve_adjoint(u0, path, None, x, cfg)),
        ("semilinear-u0", "initial data", u0,
         lambda x: solve_semilinear(x, path, nl, cfg)),
        ("semilinear-control", "control source", field,
         lambda x: solve_semilinear(u0, path, nl, cfg, control=x, control_radius=setup.b)),
        ("hum-potential", "potential", field,
         lambda x: solve_hum(u0, path, x, setup.b, hum, cfg)),
        ("coupled-control", "control", field,
         lambda x: coupled_solve(u0, setup, x, cfg)),
        ("linearize-iterate", "iterate", field,
         lambda x: linearize_and_control(x, path, u0, setup, hum, cfg)),
        ("carleman-block", "adjoint block", block,
         lambda x: carleman_sides(x, None, params, setup, path)),
        ("carleman-forcing", "forcing", block,
         lambda x: carleman_sides(block, x, params, setup, path)),
        ("slice-inner-u", "slice vector u", u0, lambda x: prop.slice_inner(x, u0, 0)),
        ("slice-inner-v", "slice vector v", u0, lambda x: prop.slice_inner(u0, x, 0)),
        ("slice-norm", "slice vector u", u0, lambda x: prop.slice_norm(x, cfg.m)),
        ("control-cost", "control samples", field, prop.control_cost),
        ("line-l2-norm", "line field", u0, lambda x: line_l2_norm(x, setup.R0, cfg.grid)),
        ("h1-seminorm", "line field", u0, lambda x: h1_seminorm(x, setup.R0, cfg.grid)),
    ]


@pytest.mark.parametrize("fault", ["nan", "shape"])
@pytest.mark.parametrize("entry", [e[0] for e in _entry_points()])
def test_entry_points_refuse_bad_inputs_by_name(entry, fault, monkeypatch):
    # every public entry point refuses a NaN or a wrongly shaped input with
    # GridError naming that input, before any step or weight is formed
    _, name, good, call = next(e for e in _entry_points() if e[0] == entry)
    if fault == "nan":
        bad = good.copy()
        bad.flat[bad.size // 2] = np.nan      # an interior entry
        match = f"^{name} must be finite$"
    else:
        bad = good[:, :-1] if good.ndim > 1 else good[:-1]
        match = f"^{name} shape "

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the input was checked")

    for module, fn in ((pde, "_solve_implicit"), (stefan, "_solve_implicit"),
                       (weights, "_weights"), (weights, "_d1")):
        monkeypatch.setattr(module, fn, no_step)
    with pytest.raises(GridError, match=match):
        call(bad)


def test_field_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    grid = ReferenceGrid(12)
    vals = np.zeros((13, 7))
    vals[1:-1] = rng.standard_normal((11, 7))
    field = SpaceTimeField(vals, role=ROLE_STATE)
    target = tmp_path / "field.csv"
    write_field_csv(target, field, grid)
    back, back_grid = read_field_csv(target)
    assert back_grid.n == 12
    assert np.array_equal(back.values, vals)   # repr round trip is bitwise


def test_field_csv_bytes_match_scalar_repr(tmp_path):
    # the writer joins the reprs itself; its bytes must equal csv.writer's,
    # both on the scalar form repr(float(x)) and on the float rows, csv line
    # ends included
    import csv
    import io

    grid = ReferenceGrid(8)
    vals = np.random.default_rng(5).standard_normal((9, 6))
    vals[:, 1] = [-0.0, 5e-324, 1e300, -1e300, 3.0, -2.0, 0.0, 1e-310, 7.0]
    vals[:, 4] = [1e16, -1e16, 1e-5, -1e-5, 0.1 + 0.2, 2.0 / 3.0, 1.0000000000000002,
                  -2.2250738585072014e-308, 123456789.12345679]
    vals[4, 3] = 1e22
    field = SpaceTimeField(vals, role=ROLE_CONTROL)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(repr(float(x)) for x in grid.nodes)
    for j in range(vals.shape[1]):
        writer.writerow(repr(float(x)) for x in vals[:, j])
    as_floats = io.StringIO(newline="")
    csv.writer(as_floats).writerows([grid.nodes.tolist()] + vals.T.tolist())
    assert as_floats.getvalue() == expected.getvalue()
    target = tmp_path / "field.csv"
    write_field_csv(target, field, grid)
    assert target.read_bytes() == expected.getvalue().encode()
    assert b"1e+16" in target.read_bytes() and b"1e-05" in target.read_bytes()
    assert b"\r\n" in target.read_bytes()
    back, _ = read_field_csv(target, role=ROLE_CONTROL)
    assert back.values.tobytes() == vals.tobytes()


@pytest.mark.parametrize("level, match", [
    ("0.0,1.0,2.0", "row 4 has 3 cells"),
    ("0.0,x,0.0,1.0,0.0", "row 4: could not convert"),
], ids=["ragged-row", "non-number"])
def test_field_csv_rejects_malformed_rows(tmp_path, level, match):
    grid = ReferenceGrid(4)
    target = tmp_path / "field.csv"
    write_field_csv(target, SpaceTimeField(np.zeros((5, 2)), role=ROLE_STATE), grid)
    target.write_text(target.read_text() + level + "\n")
    with pytest.raises(GridError, match=match):
        read_field_csv(target)


def test_package_import_leaves_heavy_scipy_modules_out():
    # the quadratures are numpy's; scipy.integrate drags in scipy.special and
    # scipy.optimize and most of a process's start-up time
    probe = ("import sys, stefanlab; print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'special'], "
             "['scipy', 'optimize']))))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(stefanlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""
