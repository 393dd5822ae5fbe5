"""Experiment runner: every pipeline as a subcommand with JSON configs.

Two commands::

    stefanlab run --config experiment.json [--out-dir DIR] [--seed N]
    stefanlab sweep --configs 'configs/*.json' [--out-dir DIR] [--workers K]

A config is a single JSON object selecting a scenario and filling the
sub-configurations; unknown keys and invalid values fail fast with the
offending field path.  Every run writes `summary.json` (scalar diagnostics
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
its entries on a bounded worker pool, collects one row per run into
`sweep.csv`, keeps going past individual failures, and exits nonzero if any
row failed.

Exit codes: 0 success, 1 scenario failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .control import HUMConfig, solve_hum
from .domain import (
    PhysicalSetup,
    constant_path,
    line_l2_norm,
    write_field_csv,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateWeightError,
    EndpointConditionError,
    FieldRoleError,
    GridError,
    InstabilityError,
    OutOfDomainError,
    RadiusBoundsError,
    RadiusBreachError,
)
from .observability import ObservabilityConfig, dense_constant, estimate_constant
from .pde import Propagator, SchemeConfig, boundary_flux, solve_adjoint, solve_forward, solve_semilinear
from .stefan import FixedPointConfig, Nonlinearity, coupled_solve, fixed_point_iterate, write_history_csv
from .weights import CarlemanParams, carleman_sides, check_weight_profile

_ENV_OUT = "STEFANLAB_OUT_DIR"
_RUN_ERRORS = (
    GridError,
    FieldRoleError,
    EndpointConditionError,
    OutOfDomainError,
    DegenerateWeightError,
    RadiusBoundsError,
    RadiusBreachError,
    InstabilityError,
    ConvergenceError,
)


# ---------------------------------------------------------------------------
# atomic output helpers


def _atomic_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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

_SCENARIOS = ("forward", "convergence", "semilinear", "adjoint", "hum",
              "stefan", "fixedpoint", "carleman", "observability")
_TOP_KEYS = ("scenario", "physical", "scheme", "hum", "fixedpoint",
             "carleman", "observability", "seed", "out_dir")


def _section(raw: dict, name: str, allowed: tuple) -> dict:
    body = raw.get(name, {})
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ConfigError(name, f"expected an object, got {type(body).__name__}")
    for key in body:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown key")
    return body


def _number(body: dict, field: str, key: str, default, integer: bool = False):
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}.{key}", f"expected a number, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{field}.{key}", f"expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _nonlinearity_from(body, field: str):
    if body is None:
        return None
    if not isinstance(body, dict):
        raise ConfigError(field, f"expected an object, got {type(body).__name__}")
    kind = body.get("kind", "zero")
    try:
        if kind == "zero":
            return Nonlinearity.zero()
        if kind == "linear":
            return Nonlinearity.linear(_number(body, field, "slope", 1.0))
        if kind == "sine":
            return Nonlinearity.sine(_number(body, field, "amplitude", 1.0))
        if kind == "table":
            return Nonlinearity.from_table(
                body.get("s", ()), body.get("f", ()), body.get("slope_at_zero"))
    except GridError as exc:
        raise ConfigError(field, str(exc)) from exc
    raise ConfigError(f"{field}.kind", f"unknown nonlinearity kind {kind!r}")


def _z0_from(body, field: str, R0: float):
    if body is None:
        return None
    if not isinstance(body, dict):
        raise ConfigError(field, f"expected an object, got {type(body).__name__}")
    kind = body.get("kind", "zero")
    if kind == "zero":
        return None
    if kind == "sine":
        amplitude = _number(body, field, "amplitude", 1.0)
        mode = _number(body, field, "mode", 1, integer=True)
        if mode < 1:
            raise ConfigError(f"{field}.mode", f"mode must be >= 1, got {mode}")
        return lambda r: amplitude * np.sin(mode * np.pi * r / R0)
    raise ConfigError(f"{field}.kind", f"unknown initial data kind {kind!r}")


def _physical_from(raw: dict) -> PhysicalSetup:
    body = _section(raw, "physical",
                    ("R0", "R_star", "E", "T", "b", "b0", "z0", "nonlinearity"))
    R0 = _number(body, "physical", "R0", 1.0)
    try:
        return PhysicalSetup(
            R0=R0,
            R_star=_number(body, "physical", "R_star", 0.5),
            E=_number(body, "physical", "E", 1.5),
            T=_number(body, "physical", "T", 0.5),
            b=_number(body, "physical", "b", 0.3),
            b0=_number(body, "physical", "b0", 0.25),
            z0=_z0_from(body.get("z0"), "physical.z0", R0),
            nonlinearity=_nonlinearity_from(body.get("nonlinearity"),
                                            "physical.nonlinearity"),
        )
    except (RadiusBoundsError, OutOfDomainError) as exc:
        raise ConfigError("physical", str(exc)) from exc


def _scheme_from(raw: dict) -> SchemeConfig:
    body = _section(raw, "scheme", ("n", "m", "theta", "flux_order"))
    try:
        return SchemeConfig(
            n=_number(body, "scheme", "n", 50, integer=True),
            m=_number(body, "scheme", "m", 100, integer=True),
            theta=_number(body, "scheme", "theta", 0.5),
            flux_order=_number(body, "scheme", "flux_order", 2, integer=True),
        )
    except GridError as exc:
        raise ConfigError("scheme", str(exc)) from exc


def _hum_from(raw: dict) -> HUMConfig:
    body = _section(raw, "hum", ("epsilon", "variant", "prox_tol", "prox_max_iter"))
    variant = body.get("variant", "quadratic")
    if not isinstance(variant, str):
        raise ConfigError("hum.variant", f"expected a string, got {variant!r}")
    try:
        return HUMConfig(
            epsilon=_number(body, "hum", "epsilon", 1e-4),
            variant=variant,
            prox_tol=_number(body, "hum", "prox_tol", 1e-11),
            prox_max_iter=_number(body, "hum", "prox_max_iter", 4000, integer=True),
        )
    except GridError as exc:
        raise ConfigError("hum", str(exc)) from exc


def _fixedpoint_from(raw: dict) -> FixedPointConfig:
    body = _section(raw, "fixedpoint",
                    ("K", "K1", "fp_tol", "max_outer", "epsilon_schedule"))
    schedule = body.get("epsilon_schedule", ())
    if not isinstance(schedule, (list, tuple)):
        raise ConfigError("fixedpoint.epsilon_schedule",
                          f"expected a list, got {type(schedule).__name__}")
    try:
        return FixedPointConfig(
            K=_number(body, "fixedpoint", "K", 1.0),
            K1=_number(body, "fixedpoint", "K1", 1.0),
            fp_tol=_number(body, "fixedpoint", "fp_tol", 1e-6),
            max_outer=_number(body, "fixedpoint", "max_outer", 50, integer=True),
            epsilon_schedule=tuple(float(e) for e in schedule),
        )
    except GridError as exc:
        raise ConfigError("fixedpoint", str(exc)) from exc


def _carleman_from(raw: dict) -> dict:
    body = _section(raw, "carleman", ("lam", "s", "k", "trials"))
    return {
        "lam": _number(body, "carleman", "lam", 1.0),
        "s": _number(body, "carleman", "s", 1e-4),
        "k": _number(body, "carleman", "k", 2, integer=True),
        "trials": _number(body, "carleman", "trials", 24, integer=True),
    }


def _observability_from(raw: dict) -> ObservabilityConfig:
    body = _section(raw, "observability", ("relative_floor",))
    try:
        return ObservabilityConfig(
            relative_floor=_number(body, "observability", "relative_floor", 1e-4),
        )
    except GridError as exc:
        raise ConfigError("observability", str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: scenario, typed sub-configs, seed, output dir."""

    scenario: str
    physical: PhysicalSetup
    scheme: SchemeConfig
    hum: HUMConfig
    fixedpoint: FixedPointConfig
    carleman: dict
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
    if scenario not in _SCENARIOS:
        raise ConfigError("scenario",
                          f"expected one of {', '.join(_SCENARIOS)}, got {scenario!r}")
    if seed is None:
        seed = _number(raw, "config", "seed", 0, integer=True) if "seed" in raw else 0
    resolved_out = out_dir or os.environ.get(_ENV_OUT) or raw.get("out_dir") \
        or os.path.join("runs", scenario)
    if not isinstance(resolved_out, str):
        raise ConfigError("out_dir", f"expected a string, got {resolved_out!r}")
    echo = dict(raw)
    echo["seed"] = seed
    echo["out_dir"] = resolved_out
    return ExperimentConfig(
        scenario=scenario,
        physical=_physical_from(raw),
        scheme=_scheme_from(raw),
        hum=_hum_from(raw),
        fixedpoint=_fixedpoint_from(raw),
        carleman=_carleman_from(raw),
        observability=_observability_from(raw),
        seed=int(seed),
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
        "boundary_flux_T": boundary_flux(state, path, cfg.m, order=cfg.flux_order),
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
    prop = Propagator(path, None, cfg)
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
    params = CarlemanParams.calibrate(section["lam"], section["s"],
                                      section["k"], setup, path)
    doubled = params.doubled_s()
    rng = np.random.default_rng(ec.seed)
    profile = check_weight_profile(setup, path)
    trials = []
    monotone = True
    n = cfg.n
    rho = cfg.grid.nodes
    for _ in range(section["trials"]):
        coeffs = rng.standard_normal(6) / (1.0 + np.arange(6))
        phiT = np.zeros(n + 1)
        for k, c in enumerate(coeffs, start=1):
            phiT += c * np.sin(k * np.pi * rho)
        phiT /= max(np.max(np.abs(phiT)), 1e-300)
        phi = solve_adjoint(phiT, path, None, None, cfg)
        report = carleman_sides(phi, None, params, setup, path)
        report_doubled = carleman_sides(phi, None, doubled, setup, path)
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
        "residual": estimate.residual,
    }
    payload = {
        "constant": estimate.constant,
        "grid": {"n": cfg.n, "m": cfg.m, "theta": cfg.theta},
        "geometry": {"R0": setup.R0, "R_star": setup.R_star, "E": setup.E,
                     "T": setup.T, "b": setup.b},
        "potential": "zero",
        "iterations": estimate.iterations,
        "residual": estimate.residual,
    }
    if cfg.n <= 32 and cfg.m <= 64:
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
        "fixedpoint": {
            "K": ec.fixedpoint.K, "K1": ec.fixedpoint.K1,
            "fp_tol": ec.fixedpoint.fp_tol, "max_outer": ec.fixedpoint.max_outer,
            "epsilon_schedule": list(ec.fixedpoint.epsilon_schedule),
        },
        "carleman": ec.carleman,
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
    except _RUN_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(os.path.join(ec.out_dir, "summary.json"))
    return 0


def _sweep_row(path: str, base: str) -> dict:
    stem = os.path.splitext(os.path.basename(path))[0]
    row = {"config": path, "scenario": "", "status": "ok", "exit_code": 0, "error": ""}
    try:
        raw = load_config(path)
        ec = resolve_config(raw, out_dir=os.path.join(base, stem))
        row["scenario"] = ec.scenario
    except ConfigError as exc:
        row.update(status="error", exit_code=2, error=str(exc))
        return row
    try:
        summary = run_experiment(ec)
    except _RUN_ERRORS as exc:
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
    workers = max(1, min(args.workers, len(paths)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(lambda p: _sweep_row(p, base), paths))
    fixed = ["config", "scenario", "status", "exit_code", "error"]
    extra = sorted({k for row in rows for k in row} - set(fixed))
    columns = fixed + extra
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            cells.append(repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    os.makedirs(base, exist_ok=True)
    sweep_path = os.path.join(base, "sweep.csv")
    _atomic_text(sweep_path, "\n".join(lines) + "\n")
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
    p_sweep = sub.add_parser("sweep", help="run a batch of configs concurrently")
    p_sweep.add_argument("--configs", required=True, help="glob of JSON configs")
    p_sweep.add_argument("--out-dir", default=None, help="root for per-run output dirs")
    p_sweep.add_argument("--workers", type=int, default=4, help="worker pool size")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
