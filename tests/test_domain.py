"""Geometry containers, radial conversions, norms, CSV interchange."""

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
    evaluate_in_ball,
    h1_seminorm,
    lift_radial,
    line_l2_norm,
    norm_equivalence,
    path_from_function,
    project_radial,
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


def test_reference_grid_nodes_and_spacing():
    grid = ReferenceGrid(10)
    assert grid.nodes.shape == (11,)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert grid.spacing == pytest.approx(0.1, abs=0.0)
    with pytest.raises(GridError):
        ReferenceGrid(1)


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


def test_constant_path_properties():
    path = constant_path(1.25, 0.5, 20)
    assert path.steps == 20
    assert path.dt == pytest.approx(0.025, rel=1e-15)
    assert path.horizon == pytest.approx(0.5, rel=1e-15)
    assert np.all(path.radii == 1.25)
    assert path.c1_defect() == 0.0


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


def test_path_require_bounds():
    path = constant_path(1.0, 1.0, 4)
    path.require_bounds(0.5, 1.5)
    with pytest.raises(RadiusBoundsError):
        path.require_bounds(1.1, 1.5)


def test_c1_defect_second_order():
    # quadratic path: centered differences reproduce the slope exactly,
    # a cubic leaves an O(dt^2) defect
    defects = []
    for m in (20, 40):
        path = path_from_function(lambda t: 1.0 + t ** 3,
                                  lambda t: 3.0 * t ** 2, 1.0, m)
        defects.append(path.c1_defect())
    assert defects[0] > 0.0
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.05)


def test_radius_at_interpolates():
    path = path_from_function(lambda t: 1.0 + t, lambda t: np.ones_like(t), 1.0, 10)
    assert path.radius_at(0.35) == pytest.approx(1.35, rel=1e-14)
    with pytest.raises(OutOfDomainError):
        path.radius_at(1.5)


def test_lift_project_roundtrip():
    rng = np.random.default_rng(0)
    r = np.linspace(0.0, 1.3, 41)
    z = rng.standard_normal(41)
    z[-1] = 0.0
    u = lift_radial(z, r)
    assert u[0] == 0.0 and u[-1] == 0.0
    back = project_radial(u, r)
    # away from the origin the division is exact; node 0 is a one-sided
    # derivative and only consistent for smooth profiles
    assert np.allclose(back[1:], z[1:], rtol=0.0, atol=1e-14)


def test_project_origin_value_consistent():
    r = np.linspace(0.0, 1.0, 201)
    z = np.cos(r) * (1.0 - r)            # smooth, z(1) = 0
    u = lift_radial(z, r)
    back = project_radial(u, r)
    assert back[0] == pytest.approx(z[0], abs=1e-4)


def test_lift_rejects_nonvanishing_boundary():
    r = np.linspace(0.0, 1.0, 11)
    with pytest.raises(EndpointConditionError):
        lift_radial(np.ones(11), r)


def test_project_rejects_nonvanishing_origin():
    r = np.linspace(0.0, 1.0, 11)
    with pytest.raises(EndpointConditionError):
        project_radial(np.ones(11), r)


def test_norm_equivalence_pointwise_identity():
    rng = np.random.default_rng(1)
    r = np.linspace(0.0, 0.9, 33)
    z = rng.standard_normal(33)
    z[-1] = 0.0
    u = lift_radial(z, r)
    weighted, flat = norm_equivalence(z, u, r)
    assert weighted == pytest.approx(flat, rel=1e-14)


def test_evaluate_in_ball_matches_profile():
    r = np.linspace(0.0, 1.0, 101)
    z = 1.0 - r * r
    pts = np.array([[0.3, 0.0, 0.0], [0.0, 0.4, 0.3], [0.0, 0.0, 0.0]])
    vals = evaluate_in_ball(z, r, pts)
    expected = 1.0 - np.array([0.09, 0.25, 0.0])
    assert np.allclose(vals, expected, atol=1e-4)


def test_evaluate_in_ball_rejects_outside():
    r = np.linspace(0.0, 1.0, 11)
    with pytest.raises(OutOfDomainError):
        evaluate_in_ball(np.ones(11), r, np.array([[1.2, 0.0, 0.0]]))


def test_line_l2_norm_sine_closed_form():
    # trapezoid integrates sin^2 over a full period exactly
    grid = ReferenceGrid(24)
    for radius in (1.0, 1.3):
        u = np.sin(np.pi * grid.nodes)
        assert line_l2_norm(u, radius, grid) == pytest.approx(
            np.sqrt(radius / 2.0), rel=1e-14)


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
    # the writer formats Python floats in bulk; its bytes must equal the
    # scalar form repr(float(x)) row by row, csv line ends included
    import csv
    import io

    grid = ReferenceGrid(8)
    vals = np.random.default_rng(5).standard_normal((9, 6))
    vals[:, 1] = [-0.0, 5e-324, 1e300, -1e300, 3.0, -2.0, 0.0, 1e-310, 7.0]
    vals[4, 3] = 1e22
    field = SpaceTimeField(vals, role=ROLE_CONTROL)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(repr(float(x)) for x in grid.nodes)
    for j in range(vals.shape[1]):
        writer.writerow(repr(float(x)) for x in vals[:, j])
    target = tmp_path / "field.csv"
    write_field_csv(target, field, grid)
    assert target.read_bytes() == expected.getvalue().encode()
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
