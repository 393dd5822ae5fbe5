"""Experiment runner: every pipeline as a subcommand with JSON configs.

Two commands::

    stefanlab run --config experiment.json [--out-dir DIR] [--seed N]
    stefanlab sweep --configs 'configs/*.json' [--out-dir DIR] [--workers K]

A config is a single JSON object selecting a scenario and filling the
sub-configurations.  Each section (`physical`, `scheme`, `hum`,
`fixedpoint`, `carleman`, `observability`) is read against the fields of
its dataclass, which fix its keys, defaults and value types; the nested
`physical.z0` and `physical.nonlinearity` objects check their keys per
kind.  Unknown keys and malformed, non-finite or invalid values fail fast
with the offending field path, e.g. `fixedpoint.epsilon_schedule[0]`, and
exit 2 before anything runs.  Every run writes `summary.json` (scalar diagnostics
only), `manifest.json` (the resolved config echoed back plus the package
version), and scenario-specific artifacts (state CSVs, `hum-summary.json`,
`carleman-report.json`, `observability.json`, `fixedpoint-history.csv`).
All files go through a temp-and-rename so readers never observe a partial
write.  Randomness enters only through the seed, so identical configs with
identical seeds produce identical summaries.

The output directory of `run` resolves in precedence order: the --out-dir
flag, the STEFANLAB_OUT_DIR environment variable, the config's own out_dir,
then `runs/<scenario>`.  A sweep puts every run in `<root>/<config-stem>`
under its root (--out-dir, then STEFANLAB_OUT_DIR, then `sweeps`), whatever
out_dir the config sets, and refuses configs that share a stem.  It runs
its entries on a pool of --workers threads (at least 1), one by default:
the runs are mostly Python-level stepping that holds the interpreter lock,
so more threads contend for it and a sweep gets slower, not faster.  Each
run starts from an empty propagator slot (`pde.propagator`), so what it
builds does not depend on which run its thread ran before.  It
collects one row per run, keyed by the config's file name, into
`sweep.csv` (standard CSV: a cell holding a comma or a quote, such as an
error message, is quoted), keeps going past individual failures, and
exits nonzero if any row failed.

Exit codes: 0 success, 1 scenario failure (any `StefanlabError` a run
raises; an exception from outside the package propagates), 2 configuration
or usage error.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, pde
from .control import HUMConfig, solve_hum
from .domain import PhysicalSetup, constant_path, line_l2_norm, write_field_csv
from .errors import ConfigError, ConvergenceError, StefanlabError
from .observability import _DENSE_NODE_CAP, _DENSE_STEP_CAP, ObservabilityConfig, dense_constant, estimate_constant
from .pde import SchemeConfig, boundary_flux, propagator, solve_adjoint, solve_forward, solve_semilinear
from .stefan import FixedPointConfig, Nonlinearity, coupled_solve, fixed_point_iterate, write_history_csv
from .weights import CarlemanConfig, CarlemanParams, carleman_sides, check_weight_profile

_ENV_OUT = "STEFANLAB_OUT_DIR"


# ---------------------------------------------------------------------------
# atomic output helpers


def _atomic_text(path: str, text: str) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)
    _atomic_via(path, write)


def _jsonable(obj):
    """Coerce numpy scalars and containers to plain JSON types."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _atomic_json(path: str, obj) -> None:
    _atomic_text(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _atomic_via(path: str, writer) -> None:
    """Run a path-taking writer against a sibling temp file, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config parsing with field paths

_TOP_KEYS = ("scenario", "physical", "scheme", "hum", "fixedpoint",
             "carleman", "observability", "seed", "out_dir")
_Z0_KEYS = {"zero": {}, "sine": {"amplitude": float, "mode": int}}
_NONLINEARITY_KEYS = {
    "zero": {},
    "linear": {"slope": float},
    "sine": {"amplitude": float},
    "table": {"s": tuple, "f": tuple, "slope_at_zero": float},
}


def _value(value, kind: type, field: str):
    """One config value as `kind`: str, int, float, or a tuple of floats.

    A bool is never a number, NaN and the infinities are refused, and an
    int takes only an integral number.
    """
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(field, f"expected a string, got {value!r}")
        return value
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(field, f"expected a list, got {type(value).__name__}")
        return tuple(_value(item, float, f"{field}[{k}]") for k, item in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(field, f"expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _section(raw: dict, name: str, cls, nested: dict | None = None):
    """Build the dataclass `cls` from the config section `name`.

    The section's keys, defaults and value types are the fields of `cls`,
    each typed by its default (see `_value`).  `nested` maps the fields
    that default to None to their own readers, called as
    reader(value, field path, the section's other values with defaults).
    """
    body = raw.get(name)
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ConfigError(name, f"expected an object, got {type(body).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    for key in body:
        if key not in defaults:
            raise ConfigError(f"{name}.{key}", "unknown key")
    nested = nested or {}
    values = {key: _value(value, type(defaults[key]), f"{name}.{key}")
              for key, value in body.items() if key not in nested}
    for key, reader in nested.items():
        values[key] = reader(body.get(key), f"{name}.{key}", {**defaults, **values})
    try:
        return cls(**values)
    except StefanlabError as exc:
        raise ConfigError(name, str(exc)) from exc


def _kind(body, field: str, keys: dict, what: str):
    """A nested object's kind and its other keys, typed by the kind's table."""
    if not isinstance(body, dict):
        raise ConfigError(field, f"expected an object, got {type(body).__name__}")
    kind = body.get("kind", "zero")
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"{field}.kind", f"unknown {what} kind {kind!r}")
    values = {}
    for key, value in body.items():
        if key == "kind":
            continue
        if key not in keys[kind]:
            raise ConfigError(f"{field}.{key}", "unknown key")
        values[key] = _value(value, keys[kind][key], f"{field}.{key}")
    return kind, values


def _nonlinearity_from(body, field: str, physical: dict):
    if body is None:
        return None
    kind, values = _kind(body, field, _NONLINEARITY_KEYS, "nonlinearity")
    try:
        if kind == "zero":
            return Nonlinearity.zero()
        if kind == "linear":
            return Nonlinearity.linear(**values)
        if kind == "sine":
            return Nonlinearity.sine(**values)
        return Nonlinearity.from_table(values.get("s", ()), values.get("f", ()),
                                       values.get("slope_at_zero"))
    except StefanlabError as exc:
        raise ConfigError(field, str(exc)) from exc


def _z0_from(body, field: str, physical: dict):
    if body is None:
        return None
    kind, values = _kind(body, field, _Z0_KEYS, "initial data")
    if kind == "zero":
        return None
    amplitude = values.get("amplitude", 1.0)
    mode = values.get("mode", 1)
    if mode < 1:
        raise ConfigError(f"{field}.mode", f"mode must be >= 1, got {mode}")
    R0 = physical["R0"]
    return lambda r: amplitude * np.sin(mode * np.pi * r / R0)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: scenario, typed sub-configs, seed, output dir."""

    scenario: str
    physical: PhysicalSetup
    scheme: SchemeConfig
    hum: HUMConfig
    fixedpoint: FixedPointConfig
    carleman: CarlemanConfig
    observability: ObservabilityConfig
    seed: int
    out_dir: str
    raw: dict


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    return raw


def resolve_config(raw: dict, out_dir: str | None = None,
                   seed: int | None = None) -> ExperimentConfig:
    """Validate a parsed config and apply flag/environment overrides."""
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")
    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or scenario not in _SCENARIO_TABLE:
        raise ConfigError("scenario",
                          f"expected one of {', '.join(_SCENARIO_TABLE)}, got {scenario!r}")
    if seed is None:
        seed = _value(raw.get("seed", 0), int, "seed")
    if seed < 0:
        raise ConfigError("seed", f"expected a non-negative integer, got {seed!r}")
    resolved_out = out_dir or os.environ.get(_ENV_OUT) or raw.get("out_dir") \
        or os.path.join("runs", scenario)
    if not isinstance(resolved_out, str):
        raise ConfigError("out_dir", f"expected a string, got {resolved_out!r}")
    echo = dict(raw)
    echo["seed"] = seed
    return ExperimentConfig(
        scenario=scenario,
        physical=_section(raw, "physical", PhysicalSetup,
                          {"z0": _z0_from, "nonlinearity": _nonlinearity_from}),
        scheme=_section(raw, "scheme", SchemeConfig),
        hum=_section(raw, "hum", HUMConfig),
        fixedpoint=_section(raw, "fixedpoint", FixedPointConfig),
        carleman=_section(raw, "carleman", CarlemanConfig),
        observability=_section(raw, "observability", ObservabilityConfig),
        seed=seed,
        out_dir=resolved_out,
        raw=echo,
    )


# ---------------------------------------------------------------------------
# scenarios


def _base_objects(ec: ExperimentConfig):
    setup, cfg = ec.physical, ec.scheme
    path = constant_path(setup.R0, setup.T, cfg.m)
    u0 = setup.initial_line_field(cfg.grid)
    return setup, cfg, path, u0


def _scenario_forward(ec: ExperimentConfig) -> dict:
    setup, cfg, path, u0 = _base_objects(ec)
    state = solve_forward(u0, path, None, None, cfg)
    _atomic_via(os.path.join(ec.out_dir, "state.csv"),
                lambda p: write_field_csv(p, state, cfg.grid))
    final = state.values[:, -1]
    return {
        "final_norm": line_l2_norm(final, setup.R0, cfg.grid),
        "initial_norm": line_l2_norm(u0, setup.R0, cfg.grid),
        "sup_state": float(np.max(np.abs(state.values))),
        "boundary_flux_T": boundary_flux(state, path, cfg.m),
    }


def _scenario_convergence(ec: ExperimentConfig) -> dict:
    setup, cfg = ec.physical, ec.scheme
    rows = []
    for scheme in (cfg, cfg.refined()):
        path = constant_path(setup.R0, setup.T, scheme.m)
        rho = scheme.grid.nodes
        u0 = np.sin(np.pi * rho)
        state = solve_forward(u0, path, None, None, scheme)
        decay = np.exp(-((np.pi / setup.R0) ** 2) * setup.T)
        exact = u0 * decay
        err = line_l2_norm(state.values[:, -1] - exact, setup.R0, scheme.grid)
        rows.append((scheme.n, scheme.m, err))
    lines = ["n,m,l2_error_T"] + [f"{n},{m},{e!r}" for n, m, e in rows]
    _atomic_text(os.path.join(ec.out_dir, "convergence.csv"), "\n".join(lines) + "\n")
    ratio = rows[0][2] / rows[1][2] if rows[1][2] > 0 else float("inf")
    return {
        "l2_error_T": rows[0][2],
        "l2_error_T_refined": rows[1][2],
        "error_ratio": ratio,
    }


def _scenario_semilinear(ec: ExperimentConfig) -> dict:
    setup, cfg, path, u0 = _base_objects(ec)
    state = solve_semilinear(u0, path, setup.nonlinearity, cfg)
    _atomic_via(os.path.join(ec.out_dir, "state.csv"),
                lambda p: write_field_csv(p, state, cfg.grid))
    return {
        "final_norm": line_l2_norm(state.values[:, -1], setup.R0, cfg.grid),
        "sup_state": float(np.max(np.abs(state.values))),
    }


def _scenario_adjoint(ec: ExperimentConfig) -> dict:
    setup, cfg, path, u0 = _base_objects(ec)
    rng = np.random.default_rng(ec.seed)
    n = cfg.n
    phiT = np.zeros(n + 1)
    phiT[1:-1] = rng.standard_normal(n - 1)
    if not np.any(u0):
        u0 = np.zeros(n + 1)
        u0[1:-1] = rng.standard_normal(n - 1)
    phi = solve_adjoint(phiT, path, None, None, cfg)
    _atomic_via(os.path.join(ec.out_dir, "adjoint.csv"),
                lambda p: write_field_csv(p, phi, cfg.grid))
    prop = propagator(path, None, cfg)
    forward_T = prop.run_forward(u0)[:, -1]
    lhs = prop.slice_inner(forward_T, phiT, cfg.m)
    rhs = prop.slice_inner(u0, phi.values[:, 0], 0)
    scale = max(prop.slice_norm(u0, 0) * prop.slice_norm(phiT, cfg.m), 1e-300)
    return {
        "duality_defect": abs(lhs - rhs) / scale,
        "pairing_final": lhs,
        "pairing_initial": rhs,
    }


def _scenario_hum(ec: ExperimentConfig) -> dict:
    setup, cfg, path, u0 = _base_objects(ec)
    outcome = solve_hum(u0, path, None, setup.b, ec.hum, cfg)
    _atomic_json(os.path.join(ec.out_dir, "hum-summary.json"), {
        "epsilon": ec.hum.epsilon,
        "variant": ec.hum.variant,
        "iterations": outcome.iterations,
        "J_value": outcome.J_value,
        "final_norm": outcome.final_norm,
        "cost": outcome.cost,
        "cost_ratio": outcome.cost_ratio,
    })
    _atomic_via(os.path.join(ec.out_dir, "control.csv"),
                lambda p: write_field_csv(p, outcome.control, cfg.grid))
    return {
        "final_norm": outcome.final_norm,
        "cost": outcome.cost,
        "cost_ratio": outcome.cost_ratio,
        "iterations": outcome.iterations,
        "J_value": outcome.J_value,
        "optimality_residual": outcome.optimality_residual,
        "eps_identity_defect": outcome.eps_identity_defect,
        "initial_norm": line_l2_norm(u0, setup.R0, cfg.grid),
    }


def _scenario_stefan(ec: ExperimentConfig) -> dict:
    setup, cfg, _, u0 = _base_objects(ec)
    state, realized = coupled_solve(u0, setup, None, cfg)
    lines = ["time,radius,slope"] + [
        f"{float(t)!r},{float(r)!r},{float(s)!r}" for t, r, s in
        zip(realized.times, realized.radii, realized.slopes)
    ]
    _atomic_text(os.path.join(ec.out_dir, "boundary.csv"), "\n".join(lines) + "\n")
    _atomic_via(os.path.join(ec.out_dir, "state.csv"),
                lambda p: write_field_csv(p, state, cfg.grid))
    return {
        "R_final": float(realized.radii[-1]),
        "R_min": float(np.min(realized.radii)),
        "R_max": float(np.max(realized.radii)),
        "final_norm": line_l2_norm(state.values[:, -1], float(realized.radii[-1]), cfg.grid),
        "sup_rate": float(np.max(np.abs(realized.slopes))),
    }


def _scenario_fixedpoint(ec: ExperimentConfig) -> dict:
    setup, cfg = ec.physical, ec.scheme
    history_path = os.path.join(ec.out_dir, "fixedpoint-history.csv")
    try:
        result = fixed_point_iterate(None, setup, ec.fixedpoint, ec.hum, cfg)
    except ConvergenceError as exc:
        if exc.history:
            _atomic_via(history_path, lambda p: write_history_csv(p, exc.history))
        raise
    _atomic_via(history_path, lambda p: write_history_csv(p, result.history))
    summary = {
        "converged": result.converged,
        "outer_iterations": result.iterations,
        "final_norm": result.hum.final_norm,
        "cost_ratio": result.hum.cost_ratio,
        "R_min": float(np.min(result.path.radii)),
        "R_max": float(np.max(result.path.radii)),
        "last_dz_sup": result.history[-1].dz_sup,
        "last_dR_sup": result.history[-1].dR_sup,
    }
    for rec in result.eps_history:
        summary[f"final_norm_eps_{rec.epsilon:g}"] = rec.final_norm
    return summary


def _scenario_carleman(ec: ExperimentConfig) -> dict:
    setup, cfg, path, _ = _base_objects(ec)
    section = ec.carleman
    params = CarlemanParams.calibrate(section.lam, section.s, section.k, setup, path)
    doubled = params.doubled_s()
    rng = np.random.default_rng(ec.seed)
    profile = check_weight_profile(setup, path)
    # one terminal datum per trial, six random sine modes each, swept
    # backward as one block
    coeffs = rng.standard_normal((section.trials, 6)) / (1.0 + np.arange(6))
    modes = np.sin(np.arange(1, 7)[:, None] * np.pi * cfg.grid.nodes)
    phiT = np.zeros((cfg.n + 1, section.trials))
    for k in range(6):
        phiT += coeffs[:, k] * modes[k][:, None]
    phiT /= np.maximum(np.max(np.abs(phiT), axis=0), 1e-300)
    block = propagator(path, None, cfg).run_adjoint(phiT)
    trials = []
    monotone = True
    reports, reports_doubled = carleman_sides(block, None, (params, doubled), setup, path)
    for report, report_doubled in zip(reports, reports_doubled):
        monotone = monotone and report_doubled.ratio <= report.ratio * (1 + 1e-12)
        row = report.as_dict()
        row["ratio_doubled_s"] = report_doubled.ratio
        trials.append(row)
    ratios = [t["ratio"] for t in trials]
    _atomic_json(os.path.join(ec.out_dir, "carleman-report.json"), {
        "lam": params.lam,
        "s": params.s,
        "k": params.k,
        "sup_alpha1": params.sup_alpha1,
        "boundary_profile_zero_max": profile.boundary_value_max,
        "profile": asdict(profile),
        "trials": trials,
    })
    return {
        "trials": len(trials),
        "max_ratio": max(ratios),
        "min_ratio": min(ratios),
        "max_ratio_doubled_s": max(t["ratio_doubled_s"] for t in trials),
        "monotone_under_s_doubling": monotone,
        "sup_alpha1": params.sup_alpha1,
    }


def _scenario_observability(ec: ExperimentConfig) -> dict:
    setup, cfg, path, _ = _base_objects(ec)
    estimate = estimate_constant(path, None, setup, cfg, ec.observability)
    summary = {
        "constant": estimate.constant,
        "iterations": estimate.iterations,
    }
    payload = {
        "constant": estimate.constant,
        "grid": {"n": cfg.n, "m": cfg.m, "theta": cfg.theta},
        "geometry": {"R0": setup.R0, "R_star": setup.R_star, "E": setup.E,
                     "T": setup.T, "b": setup.b},
        "potential": "zero",
        "iterations": estimate.iterations,
    }
    if cfg.n <= _DENSE_NODE_CAP and cfg.m <= _DENSE_STEP_CAP:
        dense = dense_constant(path, None, setup, cfg, ec.observability)
        summary["dense_constant"] = dense.constant
        summary["dense_gap"] = abs(estimate.constant - dense.constant) / abs(dense.constant)
        payload["dense_constant"] = dense.constant
    _atomic_json(os.path.join(ec.out_dir, "observability.json"), payload)
    return summary


_SCENARIO_TABLE = {
    "forward": _scenario_forward,
    "convergence": _scenario_convergence,
    "semilinear": _scenario_semilinear,
    "adjoint": _scenario_adjoint,
    "hum": _scenario_hum,
    "stefan": _scenario_stefan,
    "fixedpoint": _scenario_fixedpoint,
    "carleman": _scenario_carleman,
    "observability": _scenario_observability,
}


# ---------------------------------------------------------------------------
# commands


def run_experiment(ec: ExperimentConfig) -> dict:
    """Execute one resolved config; returns the summary it wrote."""
    os.makedirs(ec.out_dir, exist_ok=True)
    summary = _jsonable(_SCENARIO_TABLE[ec.scenario](ec))
    _atomic_json(os.path.join(ec.out_dir, "summary.json"), summary)
    _atomic_json(os.path.join(ec.out_dir, "manifest.json"), {
        "version": __version__,
        "scenario": ec.scenario,
        "seed": ec.seed,
        "config": ec.raw,
        "scheme": asdict(ec.scheme),
        "hum": asdict(ec.hum),
        "fixedpoint": asdict(ec.fixedpoint),
        "carleman": asdict(ec.carleman),
        "observability": asdict(ec.observability),
    })
    return summary


def _cmd_run(args) -> int:
    try:
        raw = load_config(args.config)
        ec = resolve_config(raw, out_dir=args.out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        run_experiment(ec)
    except StefanlabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(os.path.join(ec.out_dir, "summary.json"))
    return 0


def _sweep_row(path: str, base: str) -> dict:
    # an empty propagator slot, whichever row this pool thread ran before
    pde._last.entry = None
    stem = os.path.splitext(os.path.basename(path))[0]
    row = {"config": os.path.basename(path), "scenario": "", "status": "ok", "exit_code": 0,
           "error": ""}
    try:
        raw = load_config(path)
        ec = resolve_config(raw, out_dir=os.path.join(base, stem))
        row["scenario"] = ec.scenario
    except ConfigError as exc:
        row.update(status="error", exit_code=2, error=str(exc))
        return row
    try:
        summary = run_experiment(ec)
    except StefanlabError as exc:
        row.update(status="error", exit_code=1, error=f"{type(exc).__name__}: {exc}")
        return row
    for key, value in summary.items():
        if isinstance(value, (int, float, bool, str)):
            row[key] = value
    return row


def _cmd_sweep(args) -> int:
    paths = sorted(globmod.glob(args.configs))
    if not paths:
        print(f"no configs match {args.configs!r}", file=sys.stderr)
        return 2
    stems = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:
        print(f"configs share the output stem(s) {', '.join(shared)}; "
              f"each sweep entry needs its own", file=sys.stderr)
        return 2
    base = args.out_dir or os.environ.get(_ENV_OUT) or "sweeps"
    workers = min(args.workers, len(paths))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(lambda p: _sweep_row(p, base), paths))
    fixed = ["config", "scenario", "status", "exit_code", "error"]
    extra = sorted({k for row in rows for k in row} - set(fixed))
    columns = fixed + extra

    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([row.get(col, "") for col in columns] for row in rows)

    os.makedirs(base, exist_ok=True)
    sweep_path = os.path.join(base, "sweep.csv")
    _atomic_via(sweep_path, write)
    print(sweep_path)
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stefanlab",
        description="Run moving-boundary control experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep = sub.add_parser("sweep", help="run a batch of configs on a thread pool")
    p_sweep.add_argument("--configs", required=True, help="glob of JSON configs")
    p_sweep.add_argument("--out-dir", default=None, help="root for per-run output dirs")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="thread pool size (default 1; runs hold the interpreter lock)")
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
