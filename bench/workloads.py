"""The three workloads: their fixed batch of operations and the checks on it.

A workload is built from its seed, runs one warm-up operation that is not
counted, and then exposes `ops()`: the ordered operations of one round.  An
operation is a call into stefanlab; it receives the outputs of the earlier
operations of its round, so a replay can use the control a solve returned.
`check()` runs after the round, outside the timed region, and returns the
failure messages of every unit the round attempted (an operation, or for
`lab_sweep` a config row).  `finish()` runs once after the last round, for
work that is checked but not timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from functools import partial

import numpy as np

import checks
import inputs
from stefanlab import cli, control, observability, pde
from stefanlab.control import HUMConfig
from stefanlab.domain import PhysicalSetup
from stefanlab.pde import SchemeConfig
from stefanlab.weights import EMPIRICAL_RATIO_BOUND

# Program functions are called through their modules, never bound here by
# name, so that the traced mode sees every call the benchmark makes.

B = inputs.CONTROL_RADIUS


class _Case:
    """Seeded path, potential and initial field on one grid."""

    def __init__(self, d: inputs.Draw, n: int, m: int):
        self.cfg = SchemeConfig(n=n, m=m)
        self.path = inputs.moving_path(d, m)
        self.potential = inputs.potential(d, n, m)
        self.u0 = inputs.initial_field(d, n)

    @property
    def final_radius(self) -> float:
        return float(self.path.radii[-1])


def _input_failed(name: str, outputs: dict, errors: dict) -> list[str]:
    if name in errors:
        return [f"raised {errors[name]}"]
    if name not in outputs:
        return ["did not run"]
    return []


# ---------------------------------------------------------------------------


class HumWorkload:
    """Penalised HUM on a frozen moving path with a bounded random potential."""

    name = "hum"
    KERNEL_REPEATS = 1
    LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    EXACT_EPS = (3e-3,)
    DIRECT_EPS = 1e-4

    def __init__(self, seed: int, out_dir: str):
        d = inputs.draw(seed, inputs.STREAM_HUM)
        self.main = _Case(d, 100, 200)
        self.small = _Case(inputs.draw(inputs.EXACT_DRAW_SEED, inputs.STREAM_HUM_EXACT),
                           24, 48)
        self.direct = _Case(d, 64, 128)

    def warm_up(self) -> None:
        c = self.small
        control.solve_hum(c.u0, c.path, c.potential, B, HUMConfig(epsilon=1e-4), c.cfg)

    @staticmethod
    def _solve(case: _Case, hum: HUMConfig, outputs: dict):
        return control.solve_hum(case.u0, case.path, case.potential, B, hum, case.cfg)

    @staticmethod
    def _replay(case: _Case, source: str, outputs: dict):
        outcome = outputs[source]
        return pde.solve_forward(case.u0, case.path, case.potential, outcome.control,
                             case.cfg, control_radius=B)

    def _solves(self):
        for eps in self.LADDER:
            yield f"quadratic-{eps:g}", self.main, HUMConfig(epsilon=eps)
        for eps in self.EXACT_EPS:
            yield f"exact-{eps:g}", self.small, HUMConfig(epsilon=eps, variant="exact")

    def ops(self):
        ops = []
        for name, case, hum in self._solves():
            ops.append((name, partial(self._solve, case, hum)))
            ops.append((f"replay-{name}", partial(self._replay, case, name)))
        c = self.direct
        ops.append(("free-64x128", lambda outputs: pde.solve_forward(
            c.u0, c.path, c.potential, None, c.cfg)))
        ops.append(("gramian-64x128", lambda outputs: control.dense_gramian(
            c.path, c.potential, B, c.cfg)))
        ops.append(("quadratic-64x128", partial(
            self._solve, c, HUMConfig(epsilon=self.DIRECT_EPS))))
        return ops

    def check(self, outputs: dict, errors: dict, extras: dict) -> dict:
        units = {name: _input_failed(name, outputs, errors) for name, _ in self.ops()}
        radius = self.main.final_radius
        finals = []
        for name, case, hum in self._solves():
            if units[name]:
                continue
            out = outputs[name]
            y_final = out.state.values[:, -1]
            if hum.variant == "quadratic":
                units[name] += checks.eps_identity(y_final, out.phiT, hum.epsilon,
                                                   case.final_radius)
                finals.append((name, inputs.l2_norm(y_final, radius)))
            else:
                units[name] += checks.exact_variant(y_final, out.phiT, hum.epsilon,
                                                    case.final_radius, out.iterations,
                                                    hum.prox_max_iter)
            replay = f"replay-{name}"
            if not units[replay]:
                units[replay] += checks.replay(out.state.values, outputs[replay].values)
        if len(finals) == len(self.LADDER):
            labels, values = zip(*finals)
            for message in checks.non_increasing(values, labels):
                units[labels[-1]].append(message)
            units[labels[-1]] += checks.decayed(
                values[-1], inputs.l2_norm(self.main.u0, float(self.main.path.radii[0])))
        if not any(units[k] for k in ("free-64x128", "gramian-64x128", "quadratic-64x128")):
            phi = outputs["quadratic-64x128"].phiT[1:-1]
            y_free = outputs["free-64x128"].values[1:-1, -1]
            units["quadratic-64x128"] += checks.direct_solve(
                phi, outputs["gramian-64x128"], self.DIRECT_EPS, y_free)
        return units

    def finish(self) -> dict:
        return {}


# ---------------------------------------------------------------------------


class ObservabilityWorkload:
    """estimate_constant over a radius ladder, against the dense oracle.

    The timed batch holds only calls of at most about 0.15 s.  The 100x200
    and 200x400 estimates (1 to 11 s each) run once per run after the
    rounds, for the refinement check: no kernel sample falls inside such a
    call, so host drift cannot be divided out of its time, and for 4 of 30
    seeds the 100x200 ascent stops after 4 or 5 sweeps instead of 8, so its
    work depends on the seed.
    """

    name = "observability"
    KERNEL_REPEATS = 1
    # b = inf (observation everywhere) is left out: estimate_constant stops
    # after one sweep on a non-dominant Ritz value for some seeds at 24x48
    LADDER = (0.2, 0.3, 0.45)
    GRIDS = ((16, 32), (24, 48), (32, 64))
    REFINEMENT = ((100, 200), (200, 400))
    REFINEMENT_B = 0.3

    def __init__(self, seed: int, out_dir: str):
        self.draw = inputs.draw(seed, inputs.STREAM_OBSERVABILITY)
        self.setup = PhysicalSetup()
        self.cases = {grid: _Case(self.draw, *grid) for grid in self.GRIDS}

    def warm_up(self) -> None:
        c = self.cases[(16, 32)]
        observability.estimate_constant(c.path, c.potential, self.setup, c.cfg,
                                        b=self.REFINEMENT_B)

    def _call(self, fn_name: str, grid, b, outputs):
        c = self.cases[grid]
        fn = getattr(observability, fn_name)
        return fn(c.path, c.potential, self.setup, c.cfg, b=b)

    def ops(self):
        ops = []
        for grid in self.GRIDS:
            for b in self.LADDER:
                tag = f"{grid[0]}x{grid[1]}-b{b:g}"
                ops.append((f"estimate-{tag}", partial(self._call, "estimate_constant", grid, b)))
                ops.append((f"dense-{tag}", partial(self._call, "dense_constant", grid, b)))
        return ops

    def check(self, outputs: dict, errors: dict, extras: dict) -> dict:
        units = {name: _input_failed(name, outputs, errors) for name, _ in self.ops()}
        for name in units:
            if not units[name]:
                units[name] += checks.finite_positive(outputs[name].constant, name)
        for grid in self.GRIDS:
            labels, values = [], []
            for b in self.LADDER:
                tag = f"{grid[0]}x{grid[1]}-b{b:g}"
                est, dense = f"estimate-{tag}", f"dense-{tag}"
                if units[est] or units[dense]:
                    break
                units[est] += checks.agree(outputs[est].constant, outputs[dense].constant,
                                           f"{est} against the dense oracle")
                labels.append(est)
                values.append(outputs[est].constant)
            else:
                for message in checks.non_increasing(values, labels):
                    units[labels[-1]].append(message)
        return units

    def finish(self) -> dict:
        """The refinement check, once per run and not timed."""
        units, constants = {}, []
        for n, m in self.REFINEMENT:
            name = f"estimate-{n}x{m}-b{self.REFINEMENT_B:g}"
            case = _Case(self.draw, n, m)
            try:
                est = observability.estimate_constant(case.path, case.potential, self.setup,
                                                      case.cfg, b=self.REFINEMENT_B)
            except Exception as exc:  # an operation that raises is a failed operation
                units[name] = [f"raised {type(exc).__name__}: {exc}"]
                continue
            units[name] = checks.finite_positive(est.constant, name)
            constants.append(est.constant)
        if len(constants) == 2 and not any(units.values()):
            coarse, fine = constants
            drift = abs(fine - coarse) / fine
            if not drift <= 0.1:
                units[name].append(f"refinement 100x200 -> 200x400 moves the constant by "
                                   f"{drift:.3%}, more than 10%")
        return units


# ---------------------------------------------------------------------------


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tree_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


class LabSweepWorkload:
    """`stefanlab sweep --workers 2` over one generated config per scenario.

    The config set is swept in five calls of two configs each, so both
    workers are busy in every call and the reference kernel, timed between
    calls, samples the host speed at five points per round instead of one.
    Over ten seeds, one ten-config sweep per round spread `batch_ref` 19 %
    (quartiles over median) against 11 % for the five calls (README).
    """

    name = "lab_sweep"
    # a sweep call lasts 0.05 to 2 s, so each gap between calls takes
    # several kernel samples to give the unit as many as the other workloads
    KERNEL_REPEATS = 4
    WORKERS = 2
    SETS = (("carleman", "fixedpoint-60x120"), ("fixedpoint-30x60", "stefan"),
            ("adjoint", "forward"), ("hum", "observability"),
            ("convergence", "semilinear"))

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.configs = inputs.sweep_configs(seed)
        self.config_dir = os.path.join(out_dir, "configs")
        for k, stems in enumerate(self.SETS):
            os.makedirs(os.path.join(self.config_dir, f"set{k}"), exist_ok=True)
            for stem in stems:
                with open(os.path.join(self.config_dir, f"set{k}", f"{stem}.json"), "w") as fh:
                    json.dump(self.configs[stem], fh, indent=2, sort_keys=True)
        self.repetition = 0
        self.first_summaries: dict[str, bytes] = {}

    def warm_up(self) -> None:
        _quiet_cli(["run", "--config", os.path.join(self.config_dir, "set2", "forward.json"),
                    "--out-dir", os.path.join(self.out_dir, "warm-up")])

    def _root(self, k: int) -> str:
        return os.path.join(self.out_dir, f"sweep-{self.repetition}", f"set{k}")

    def _sweep(self, k: int, outputs: dict):
        root = self._root(k)
        code = _quiet_cli(["sweep", "--configs", os.path.join(self.config_dir, f"set{k}", "*.json"),
                           "--out-dir", root, "--workers", str(self.WORKERS)])
        return code, root

    def ops(self):
        return [(f"sweep-set{k}", partial(self._sweep, k)) for k in range(len(self.SETS))]

    def check(self, outputs: dict, errors: dict, extras: dict) -> dict:
        units = {}
        try:
            for k, stems in enumerate(self.SETS):
                units.update(self._check_set(f"sweep-set{k}", stems, outputs, errors))
            extras["cli.artifact_bytes"] = _tree_bytes(
                os.path.join(self.out_dir, f"sweep-{self.repetition}"))
        finally:
            shutil.rmtree(os.path.join(self.out_dir, f"sweep-{self.repetition}"),
                          ignore_errors=True)
            self.repetition += 1
        return units

    def _check_set(self, op: str, stems, outputs: dict, errors: dict) -> dict:
        failed = _input_failed(op, outputs, errors)
        if failed:
            return {stem: list(failed) for stem in stems}
        code, root = outputs[op]
        rows = {os.path.splitext(os.path.basename(r["config"]))[0]: r
                for r in _read_csv_rows(os.path.join(root, "sweep.csv"))}
        units = {stem: self._check_row(stem, rows.get(stem), root) for stem in stems}
        if code != 0 and not any(units.values()):
            for stem in stems:
                units[stem].append(f"sweep exited {code} with every row ok")
        return units

    def _check_row(self, stem: str, row: dict | None, root: str) -> list[str]:
        if row is None:
            return ["no row in sweep.csv"]
        if row["status"] != "ok":
            return [f"status {row['status']}: {row['error']}"]
        run_dir = os.path.join(root, stem)
        summary_path = os.path.join(run_dir, "summary.json")
        if not (os.path.isfile(summary_path) and
                os.path.isfile(os.path.join(run_dir, "manifest.json"))):
            return [f"summary or manifest missing under {run_dir}"]
        with open(summary_path, "rb") as fh:
            raw = fh.read()
        failures = []
        first = self.first_summaries.setdefault(stem, raw)
        failures += checks.identical_bytes(first, raw, f"{stem}/summary.json")
        summary = json.loads(raw)
        failures += self._check_scenario(stem, summary, run_dir)
        return failures

    def _check_scenario(self, stem: str, summary: dict, run_dir: str) -> list[str]:
        cfg = self.configs[stem]
        physical = cfg.get("physical", {})
        setup = PhysicalSetup(T=physical.get("T", 0.5))
        scenario = cfg["scenario"]
        if scenario == "forward":
            with open(os.path.join(run_dir, "state.csv"), newline="") as fh:
                last = list(csv.reader(fh))[-1]
            return checks.closed_form_forward(
                np.array([float(x) for x in last]), physical["z0"]["amplitude"],
                setup.R0, setup.T, cfg["scheme"]["m"])
        if scenario == "adjoint":
            return checks.duality(summary["duality_defect"])
        if scenario == "stefan":
            rows = _read_csv_rows(os.path.join(run_dir, "boundary.csv"))
            radii = np.array([float(r["radius"]) for r in rows])
            return checks.boundary_path(radii, setup.R_star, setup.E)
        if scenario == "fixedpoint":
            n = cfg["scheme"]["n"]
            u0 = physical["z0"]["amplitude"] * np.sin(np.pi * np.linspace(0.0, 1.0, n + 1))
            u0[0] = u0[-1] = 0.0
            return checks.fixed_point(summary, inputs.l2_norm(u0, setup.R0),
                                      setup.R_star, setup.E)
        if scenario == "carleman":
            return checks.carleman(summary, EMPIRICAL_RATIO_BOUND)
        if scenario == "hum":
            return checks.within(summary["eps_identity_defect"], 0.0, 1e-6,
                                 "hum eps identity defect")
        if scenario == "observability":
            return checks.agree(summary["constant"], summary["dense_constant"],
                                "observability against the dense oracle")
        if scenario == "convergence":
            return checks.within(summary["error_ratio"], 3.5, 4.5,
                                 "grid-doubling error ratio of a second-order scheme")
        return checks.finite_positive(summary["final_norm"], f"{stem} final norm")

    def finish(self) -> dict:
        return {}


WORKLOADS = {
    w.name: w for w in (HumWorkload, ObservabilityWorkload, LabSweepWorkload)
}
