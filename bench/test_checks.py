"""Self-tests of the benchmark's checks: each one must fail on a wrong input.

Run from the checkout root, outside any timed run:

    python3 bench/test_checks.py          # or: python3 -m pytest bench/test_checks.py

Each test first shows that a check passes on the program's real output,
then that it fails once the output is deliberately broken.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from stefanlab import cli  # noqa: E402
from stefanlab.control import HUMConfig, dense_gramian, solve_hum  # noqa: E402
from stefanlab.domain import ROLE_CONTROL, PhysicalSetup, SpaceTimeField, constant_path  # noqa: E402
from stefanlab.observability import estimate_constant  # noqa: E402
from stefanlab.pde import SchemeConfig, solve_forward  # noqa: E402

B = inputs.CONTROL_RADIUS


def _small_case(n=24, m=48):
    d = inputs.draw(7, inputs.STREAM_HUM)
    return (SchemeConfig(n=n, m=m), inputs.moving_path(d, m), inputs.potential(d, n, m),
            inputs.initial_field(d, n))


def test_perturbed_control_breaks_eps_identity():
    cfg, path, pot, u0 = _small_case()
    eps = 1e-4
    out = solve_hum(u0, path, pot, B, HUMConfig(epsilon=eps), cfg)
    radius = float(path.radii[-1])
    assert checks.eps_identity(out.state.values[:, -1], out.phiT, eps, radius) == []
    rng = np.random.default_rng(0)
    scale = float(np.max(np.abs(out.control.values)))
    bumped = out.control.values + 1e-3 * scale * rng.standard_normal(out.control.values.shape)
    state = solve_forward(u0, path, pot, SpaceTimeField(bumped, role=ROLE_CONTROL), cfg,
                          control_radius=B)
    assert checks.eps_identity(state.values[:, -1], out.phiT, eps, radius) != []
    assert checks.replay(out.state.values, state.values) != []


def test_reversed_b_ladder_breaks_monotonicity():
    d = inputs.draw(3, inputs.STREAM_OBSERVABILITY)
    cfg = SchemeConfig(n=16, m=32)
    path, pot = inputs.moving_path(d, cfg.m), inputs.potential(d, cfg.n, cfg.m)
    ladder = (0.2, 0.3, 0.45)
    values = [estimate_constant(path, pot, PhysicalSetup(), cfg, b=b).constant for b in ladder]
    labels = [f"b={b:g}" for b in ladder]
    assert checks.non_increasing(values, labels) == []
    assert checks.non_increasing(values[::-1], labels[::-1]) != []


def test_wrong_decay_rate_breaks_closed_form_forward():
    cfg = SchemeConfig(n=50, m=100)
    amplitude, T = 0.8, 0.5
    u0 = amplitude * np.sin(np.pi * cfg.grid.nodes)
    u0[0] = u0[-1] = 0.0
    final = solve_forward(u0, constant_path(1.0, T, cfg.m), None, None, cfg).values[:, -1]
    assert checks.closed_form_forward(final, amplitude, 1.0, T, cfg.m) == []
    # a state that decayed at a wrong rate: exp(-lam_wrong T) in place of exp(-lam T)
    for wrong in (1.02 * math.pi ** 2, (2.0 * math.pi) ** 2):
        off = final * math.exp(-(wrong - math.pi ** 2) * T)
        assert checks.closed_form_forward(off, amplitude, 1.0, T, cfg.m) != []


def test_one_byte_breaks_summary_determinism():
    config = {"scenario": "forward", "scheme": {"n": 16, "m": 32},
              "physical": {"z0": {"kind": "sine", "amplitude": 1.0}}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "forward.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        summaries = []
        for k in range(2):
            out_dir = os.path.join(tmp, f"run{k}")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", "--config", path, "--out-dir", out_dir]) == 0
            with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
                summaries.append(fh.read())
    first, again = summaries
    assert checks.identical_bytes(first, again, "summary.json") == []
    altered = bytearray(again)
    altered[len(altered) // 2] ^= 0x01
    assert checks.identical_bytes(first, bytes(altered), "summary.json") != []


def test_direct_solve_needs_the_right_gramian():
    cfg, path, pot, u0 = _small_case(16, 32)
    eps = 1e-4
    out = solve_hum(u0, path, pot, B, HUMConfig(epsilon=eps), cfg)
    y_free = solve_forward(u0, path, pot, None, cfg).values[1:-1, -1]
    G = dense_gramian(path, pot, B, cfg)
    assert checks.direct_solve(out.phiT[1:-1], G, eps, y_free) == []
    assert checks.direct_solve(out.phiT[1:-1], G, 10.0 * eps, y_free) != []


def test_exact_variant_checks_norm_and_cap():
    cfg, path, pot, u0 = _small_case(16, 32)
    eps = 3e-3
    out = solve_hum(u0, path, pot, B, HUMConfig(epsilon=eps, variant="exact"), cfg)
    radius = float(path.radii[-1])
    y = out.state.values[:, -1]
    assert np.any(out.phiT != 0.0)
    assert checks.exact_variant(y, out.phiT, eps, radius, out.iterations, 4000) == []
    assert checks.exact_variant(1.01 * y, out.phiT, eps, radius, out.iterations, 4000) != []
    assert checks.exact_variant(y, out.phiT, eps, radius, 4000, 4000) != []


def test_property_checks_fail_on_wrong_values():
    assert checks.decayed(1e-3, 1.0) == [] and checks.decayed(2e-2, 1.0) != []
    assert checks.agree(1.0, 1.0 + 1e-9, "x") == []
    assert checks.agree(1.0, 1.0 + 1e-5, "x") != []
    assert checks.within(4.0, 3.5, 4.5, "x") == [] and checks.within(2.0, 3.5, 4.5, "x") != []
    assert checks.finite_positive(0.1, "x") == []
    assert checks.finite_positive(float("nan"), "x") != []
    assert checks.finite_positive(0.0, "x") != []
    assert checks.duality(1e-15) == [] and checks.duality(1e-9) != []
    radii = np.linspace(1.0, 1.1, 11)
    assert checks.boundary_path(radii, 0.5, 1.5) == []
    assert checks.boundary_path(radii[::-1], 0.5, 1.5) != []
    assert checks.boundary_path(radii + 0.5, 0.5, 1.5) != []
    good = {"converged": True, "R_min": 1.0, "R_max": 1.01, "final_norm": 1e-7}
    assert checks.fixed_point(good, 0.01, 0.5, 1.5) == []
    assert checks.fixed_point(dict(good, converged=False), 0.01, 0.5, 1.5) != []
    assert checks.fixed_point(dict(good, final_norm=1e-3), 0.01, 0.5, 1.5) != []
    report = {"max_ratio": 1e-12, "monotone_under_s_doubling": True}
    assert checks.carleman(report, 1e-5) == []
    assert checks.carleman(dict(report, max_ratio=1e-4), 1e-5) != []
    assert checks.carleman(dict(report, monotone_under_s_doubling=False), 1e-5) != []


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
