"""Experiment runner: configs, artifacts, exit codes, sweeps, determinism."""

import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from stefanlab import cli, errors
from stefanlab.cli import main, resolve_config
from stefanlab.control import HUMConfig
from stefanlab.domain import BoundaryPath, read_field_csv
from stefanlab.pde import Propagator, SchemeConfig, solve_forward
from stefanlab.stefan import FixedPointConfig
from stefanlab.weights import CarlemanConfig, ProfileReport

_SINE = {"kind": "sine", "amplitude": 0.05}


def _write(tmp_path, name, cfg):
    target = tmp_path / name
    target.write_text(json.dumps(cfg))
    return str(target)


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def test_run_forward_writes_summary_and_manifest(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "forward",
        "physical": {"T": 0.2, "z0": _SINE},
        "scheme": {"n": 16, "m": 16},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    summary = _load(out, "summary.json")
    assert summary["final_norm"] < summary["initial_norm"]
    manifest = _load(out, "manifest.json")
    assert manifest["scenario"] == "forward"
    assert manifest["scheme"]["n"] == 16
    assert "version" in manifest
    assert os.path.exists(os.path.join(out, "state.csv"))


def test_run_convergence_ratio_near_four(tmp_path):
    out = str(tmp_path / "conv")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "convergence",
        "physical": {"T": 0.1},
        "scheme": {"n": 20, "m": 40},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    summary = _load(out, "summary.json")
    assert summary["error_ratio"] == pytest.approx(4.0, rel=0.1)


def test_run_hum_writes_module_artifact(tmp_path):
    out = str(tmp_path / "hum")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "hum",
        "physical": {"z0": _SINE},
        "scheme": {"n": 16, "m": 24},
        "hum": {"epsilon": 1e-4},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    hum = _load(out, "hum-summary.json")
    assert hum["epsilon"] == 1e-4
    assert hum["iterations"] == 0
    assert hum["final_norm"] > 0.0
    assert os.path.exists(os.path.join(out, "control.csv"))


def test_run_fixedpoint_trivial_converges_in_one(tmp_path):
    out = str(tmp_path / "fp")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "fixedpoint",
        "scheme": {"n": 16, "m": 16},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    summary = _load(out, "summary.json")
    assert summary["converged"] is True
    assert summary["outer_iterations"] == 1
    assert os.path.exists(os.path.join(out, "fixedpoint-history.csv"))


def test_run_observability_writes_payload(tmp_path):
    out = str(tmp_path / "obs")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "observability",
        "scheme": {"n": 16, "m": 32},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    payload = _load(out, "observability.json")
    assert payload["constant"] > 0.0
    assert payload["iterations"] == 1
    assert payload["dense_constant"] == pytest.approx(payload["constant"], rel=1e-6)


def test_run_stefan_artifacts_replay_bitwise(tmp_path):
    out = str(tmp_path / "stefan")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "stefan",
        "physical": {"T": 0.3, "z0": {"kind": "sine", "amplitude": 0.3}},
        "scheme": {"n": 24, "m": 48},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "boundary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    path = BoundaryPath(*(np.array([float(r[k]) for r in rows])
                          for k in ("time", "radius", "slope")))
    state, _ = read_field_csv(os.path.join(out, "state.csv"))
    replay = solve_forward(state.values[:, 0], path, None, None, SchemeConfig(n=24, m=48))
    assert np.all(np.diff(path.radii) >= 0.0)
    assert _load(out, "summary.json")["R_final"] == path.radii[-1]
    assert np.array_equal(replay.values, state.values)


def test_manifest_records_observability_config(tmp_path):
    out = str(tmp_path / "obs")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "observability",
        "scheme": {"n": 16, "m": 32},
        "observability": {"relative_floor": 1e-3},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    assert _load(out, "manifest.json")["observability"] == {"relative_floor": 1e-3}


def test_manifest_does_not_record_its_directory(tmp_path):
    # a run's bytes do not depend on where it was written
    cfg = _write(tmp_path, "cfg.json", {"scenario": "forward",
                                        "scheme": {"n": 16, "m": 16}})
    outs = [str(tmp_path / "a"), str(tmp_path / "a-much-longer-name" / "b")]
    manifests = []
    for out in outs:
        assert main(["run", "--config", cfg, "--out-dir", out]) == 0
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            manifests.append(fh.read())
    assert manifests[0] == manifests[1]


def test_run_carleman_writes_trials(tmp_path):
    out = str(tmp_path / "carl")
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "carleman",
        "scheme": {"n": 16, "m": 16},
        "carleman": {"trials": 3},
        "out_dir": out,
    })
    assert main(["run", "--config", cfg]) == 0
    report = _load(out, "carleman-report.json")
    assert len(report["trials"]) == 3
    # the whole profile report, its boundary value also under the old key
    assert set(report["profile"]) == {f.name for f in fields(ProfileReport)}
    assert report["profile"]["boundary_value_max"] == report["boundary_profile_zero_max"]
    assert report["profile"]["annulus_min_abs_slope"] > 0.0
    summary = _load(out, "summary.json")
    assert set(summary) == {"trials", "max_ratio", "min_ratio", "max_ratio_doubled_s",
                            "monotone_under_s_doubling", "sup_alpha1"}
    assert summary["monotone_under_s_doubling"] is True
    assert summary["max_ratio"] == max(t["ratio"] for t in report["trials"])


def test_malformed_geometry_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "scenario": "forward",
        "physical": {"b": 0.6},
    })
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "physical" in err
    assert "0 < b0 < b < R_star < R0 < E" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    # flux_order chose between two boundary stencils; one is left, and the key is gone
    for key in ("nodes", "flux_order"):
        cfg = _write(tmp_path, "bad.json", {
            "scenario": "forward",
            "scheme": {key: 2},
        })
        assert main(["run", "--config", cfg]) == 2
        assert f"scheme.{key}" in capsys.readouterr().err


_TABLE = {"kind": "table", "s": [-1.0, 0.0, 1.0], "f": [-1.0, 0.0, 1.0]}


@pytest.mark.parametrize("section, body, path", [
    ("fixedpoint", {"epsilon_schedule": ["x"]}, "fixedpoint.epsilon_schedule[0]"),
    ("fixedpoint", {"epsilon_schedule": [True]}, "fixedpoint.epsilon_schedule[0]"),
    ("physical", {"nonlinearity": {**_TABLE, "s": ["a", "b"]}}, "physical.nonlinearity.s[0]"),
    ("physical", {"nonlinearity": {**_TABLE, "slope_at_zero": "x"}},
     "physical.nonlinearity.slope_at_zero"),
    ("physical", {"nonlinearity": {"kind": "sine", "slope": 2.0}}, "physical.nonlinearity.slope"),
    ("physical", {"z0": {**_SINE, "phase": 0.5}}, "physical.z0.phase"),
    ("carleman", {"trials": 0}, "carleman: trials"),
    ("carleman", {"k": 1}, "carleman: k"),
    ("hum", {"epsilon": float("nan")}, "hum.epsilon"),
    ("hum", {"prox_tol": -1}, "hum.prox_tol"),
    ("fixedpoint", {"fp_tol": float("nan")}, "fixedpoint.fp_tol"),
    ("fixedpoint", {"epsilon_schedule": [float("inf")]}, "fixedpoint.epsilon_schedule[0]"),
    ("carleman", {"lam": float("nan")}, "carleman.lam"),
    ("physical", {"T": float("inf")}, "physical.T"),
    ("seed", -1, "seed"),
], ids=["schedule-string", "schedule-bool", "table-strings", "table-slope-string",
        "sine-slope", "z0-phase", "carleman-trials", "carleman-k", "hum-epsilon-nan",
        "prox-tol-negative", "fp-tol-nan", "schedule-infinity", "carleman-lam-nan",
        "horizon-infinity", "seed-negative"])
def test_malformed_nested_value_exits_2(tmp_path, capsys, section, body, path):
    scenario = "carleman" if section == "carleman" else "fixedpoint"
    cfg = _write(tmp_path, "bad.json", {
        "scenario": scenario,
        "scheme": {"n": 16, "m": 16},
        section: body,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", cfg]) == 2
    assert path in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_section_values_take_their_dataclass_types():
    ec = resolve_config({"scenario": "forward", "physical": {"T": 1},
                         "scheme": {"n": 50.0}, "carleman": {"k": 3.0}})
    assert type(ec.physical.T) is float and ec.physical.T == 1.0
    assert type(ec.scheme.n) is int and ec.scheme.n == 50
    assert type(ec.carleman.k) is int and ec.carleman.k == 3
    defaults = resolve_config({"scenario": "forward"})
    assert defaults.hum == HUMConfig()
    assert defaults.fixedpoint == FixedPointConfig()
    assert defaults.carleman == CarlemanConfig()


def test_unknown_scenario_exits_2(tmp_path, capsys):
    # an unhashable value too is refused, not looked up
    for scenario in ("warp", ["hum"]):
        cfg = _write(tmp_path, "bad.json", {"scenario": scenario})
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: scenario: expected one of forward, convergence, semilinear, "
            f"adjoint, hum, stefan, fixedpoint, carleman, observability, got {scenario!r}\n")


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_scenario_failure_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "breach.json", {
        "scenario": "stefan",
        "physical": {"T": 1.0, "z0": {"kind": "sine", "amplitude": -2.0}},
        "scheme": {"n": 16, "m": 32},
        "out_dir": str(tmp_path / "breach"),
    })
    assert main(["run", "--config", cfg]) == 1
    assert "RadiusBreachError" in capsys.readouterr().err


def test_identical_seeds_identical_summaries(tmp_path):
    base = {
        "scenario": "adjoint",
        "scheme": {"n": 16, "m": 16},
        "seed": 5,
    }
    cfg = _write(tmp_path, "cfg.json", base)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out-dir", out1]) == 0
    assert main(["run", "--config", cfg, "--out-dir", out2]) == 0
    with open(os.path.join(out1, "summary.json"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "summary.json"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_seed_flag_changes_random_scenario(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "adjoint",
        "scheme": {"n": 16, "m": 16},
    })
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out-dir", out1, "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out-dir", out2, "--seed", "2"]) == 0
    a = _load(out1, "summary.json")
    b = _load(out2, "summary.json")
    assert a["pairing_final"] != b["pairing_final"]
    assert a["duality_defect"] <= 1e-12
    assert b["duality_defect"] <= 1e-12


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"scenario": "forward", "scheme": {"n": 16, "m": 16}})
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out-dir", out, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_env_var_sets_out_dir(tmp_path, monkeypatch):
    target = str(tmp_path / "envout")
    monkeypatch.setenv("STEFANLAB_OUT_DIR", target)
    cfg = _write(tmp_path, "cfg.json", {
        "scenario": "forward",
        "scheme": {"n": 16, "m": 16},
    })
    assert main(["run", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(target, "summary.json"))


def test_sweep_collects_rows_and_flags_failures(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for idx, eps in enumerate((1e-2, 1e-4, 1e-6)):
        _write(cfg_dir, f"hum-{idx}.json", {
            "scenario": "hum",
            "physical": {"z0": _SINE},
            "scheme": {"n": 16, "m": 24},
            "hum": {"epsilon": eps},
        })
    _write(cfg_dir, "zz-bad.json", {"scenario": "forward",
                                    "physical": {"b": 0.9}})
    base = str(tmp_path / "swp")
    code = main(["sweep", "--configs", str(cfg_dir / "*.json"),
                 "--out-dir", base, "--workers", "2"])
    assert code == 1
    with open(os.path.join(base, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    # each row names its config by file name, not by the path it was given
    assert [r["config"] for r in rows] == ["hum-0.json", "hum-1.json", "hum-2.json",
                                           "zz-bad.json"]
    assert [r["status"] for r in rows] == ["ok", "ok", "ok", "error"]
    finals = [float(r["final_norm"]) for r in rows[:3]]
    assert finals[0] >= finals[1] >= finals[2]
    assert rows[3]["exit_code"] == "2"
    assert "0 < b0" in rows[3]["error"]


def test_sweep_config_errors_become_whole_csv_rows(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    _write(cfg_dir, "bad.json", {"scenario": "fixedpoint",
                                 "fixedpoint": {"epsilon_schedule": ["x"]}})
    _write(cfg_dir, "warp.json", {"scenario": "warp"})
    _write(cfg_dir, "neg.json", {"scenario": "adjoint",
                                 "scheme": {"n": 16, "m": 16}, "seed": -1})
    _write(cfg_dir, "good.json", {"scenario": "forward",
                                  "scheme": {"n": 16, "m": 16}})
    base = str(tmp_path / "swp")
    assert main(["sweep", "--configs", str(cfg_dir / "*.json"),
                 "--out-dir", base, "--workers", "2"]) == 1
    with open(os.path.join(base, "sweep.csv"), newline="") as fh:
        rows = {os.path.basename(r["config"]): r for r in csv.DictReader(fh)}
    assert all(None not in row for row in rows.values())
    assert rows["good.json"]["status"] == "ok"
    assert rows["bad.json"]["exit_code"] == "2"
    assert "fixedpoint.epsilon_schedule[0]" in rows["bad.json"]["error"]
    assert rows["warp.json"]["exit_code"] == "2"
    assert rows["warp.json"]["error"] == (
        "scenario: expected one of forward, convergence, semilinear, adjoint, "
        "hum, stefan, fixedpoint, carleman, observability, got 'warp'")
    assert rows["warp.json"]["final_norm"] == ""
    assert rows["neg.json"]["exit_code"] == "2"
    assert rows["neg.json"]["error"].startswith("seed: ")


def test_sweep_all_ok_exits_0(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    _write(cfg_dir, "fwd.json", {"scenario": "forward",
                                 "scheme": {"n": 16, "m": 16}})
    base = str(tmp_path / "swp")
    assert main(["sweep", "--configs", str(cfg_dir / "*.json"),
                 "--out-dir", base]) == 0
    assert os.path.exists(os.path.join(base, "fwd", "summary.json"))


def test_sweep_ignores_config_out_dir(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    shared = str(tmp_path / "shared")
    for name, amplitude in (("a", 0.5), ("b", 1.5)):
        _write(cfg_dir, f"{name}.json", {
            "scenario": "forward",
            "physical": {"z0": {"kind": "sine", "amplitude": amplitude}},
            "scheme": {"n": 16, "m": 16},
            "out_dir": shared,
        })
    base = str(tmp_path / "swp")
    assert main(["sweep", "--configs", str(cfg_dir / "*.json"),
                 "--out-dir", base, "--workers", "2"]) == 0
    a = _load(os.path.join(base, "a"), "summary.json")
    b = _load(os.path.join(base, "b"), "summary.json")
    assert b["initial_norm"] == pytest.approx(3.0 * a["initial_norm"], rel=1e-12)
    assert not os.path.exists(shared)


def test_threaded_carleman_sweep_matches_sequential_run(tmp_path):
    # two threads evaluating the diagnostic at once write the same bytes as
    # each other and as a run on its own
    body = {"scenario": "carleman", "scheme": {"n": 24, "m": 40},
            "carleman": {"trials": 4}, "seed": 3}
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for stem in ("one", "two"):
        _write(cfg_dir, f"{stem}.json", body)
    base = str(tmp_path / "swp")
    assert main(["sweep", "--configs", str(cfg_dir / "*.json"),
                 "--out-dir", base, "--workers", "2"]) == 0
    alone = str(tmp_path / "alone")
    assert main(["run", "--config", str(cfg_dir / "one.json"), "--out-dir", alone]) == 0
    for name in ("summary.json", "carleman-report.json"):
        blobs = []
        for out in (os.path.join(base, "one"), os.path.join(base, "two"), alone):
            with open(os.path.join(out, name), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2], name


def test_sweep_shared_stem_exits_2(tmp_path, capsys):
    for sub in ("x", "y"):
        (tmp_path / sub).mkdir()
        _write(tmp_path / sub, "same.json", {"scenario": "forward",
                                             "scheme": {"n": 16, "m": 16}})
    base = str(tmp_path / "swp")
    assert main(["sweep", "--configs", str(tmp_path / "*" / "same.json"),
                 "--out-dir", base]) == 2
    assert "same" in capsys.readouterr().err
    assert not os.path.exists(base)


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_sweep_workers_below_one_exits_2(tmp_path, capsys, workers):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    _write(cfg_dir, "fwd.json", {"scenario": "forward", "scheme": {"n": 16, "m": 16}})
    base = str(tmp_path / "swp")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--configs", str(cfg_dir / "*.json"), "--out-dir", base,
              "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not os.path.exists(base)


def test_sweep_empty_glob_exits_2(tmp_path, capsys):
    assert main(["sweep", "--configs", str(tmp_path / "none" / "*.json")]) == 2
    assert "no configs match" in capsys.readouterr().err


def test_sweep_rows_start_from_an_empty_propagator_slot(tmp_path, monkeypatch):
    # a hum and an observability config on one grid key the same operators;
    # run on one thread, the second row still makes its own build, as it
    # does when the pool gives it a thread of its own
    builds = []
    build = Propagator.__init__

    def counted_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "__init__", counted_build)
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for scenario in ("hum", "observability"):
        _write(cfg_dir, f"{scenario}.json", {"scenario": scenario,
                                             "scheme": {"n": 24, "m": 48}})
    assert main(["sweep", "--configs", str(cfg_dir / "*.json"),
                 "--out-dir", str(tmp_path / "swp"), "--workers", "1"]) == 0
    assert len(builds) == 2


def _package_errors():
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, Exception)]


def test_every_package_error_is_a_stefanlab_error():
    classes = _package_errors()
    assert len(classes) == 11
    assert all(issubclass(cls, errors.StefanlabError) for cls in classes)
    assert all(issubclass(cls, (ValueError, RuntimeError)) for cls in classes
               if cls is not errors.StefanlabError)


@pytest.mark.parametrize("cls", [cls for cls in _package_errors()
                                 if cls is not errors.ConfigError], ids=lambda c: c.__name__)
def test_any_package_error_fails_the_run_with_exit_1(tmp_path, monkeypatch, capsys, cls):
    def failing(ec):
        raise cls("it broke, here")

    monkeypatch.setitem(cli._SCENARIO_TABLE, "forward", failing)
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    cfg = _write(cfg_dir, "fwd.json", {"scenario": "forward", "scheme": {"n": 16, "m": 16}})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"{cls.__name__}: it broke, here\n"
    base = str(tmp_path / "swp")
    assert main(["sweep", "--configs", str(cfg_dir / "*.json"), "--out-dir", base]) == 1
    with open(os.path.join(base, "sweep.csv")) as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["exit_code"]) == ("error", "1")
    assert row["error"] == f"{cls.__name__}: it broke, here"


def test_config_errors_exit_2_and_foreign_errors_propagate(tmp_path, monkeypatch, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    bad = _write(tmp_path, "bad.json", {"scenario": "forward", "scheme": {"n": 2}})
    assert main(["run", "--config", bad]) == 2
    assert capsys.readouterr().err.startswith("config error: scheme: ")

    def failing(ec):
        raise ZeroDivisionError("not the package's")

    monkeypatch.setitem(cli._SCENARIO_TABLE, "forward", failing)
    cfg = _write(cfg_dir, "fwd.json", {"scenario": "forward", "scheme": {"n": 16, "m": 16}})
    with pytest.raises(ZeroDivisionError):
        main(["run", "--config", cfg, "--out-dir", str(tmp_path / "run")])
    with pytest.raises(ZeroDivisionError):
        main(["sweep", "--configs", str(cfg_dir / "*.json"), "--out-dir", str(tmp_path / "swp")])
