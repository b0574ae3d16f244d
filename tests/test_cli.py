"""CLI contract: exit codes, report files, byte-level determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_readme import code_block

from qpkam import cli
from qpkam import qpfourier as qp
from qpkam import serialize
from qpkam.cli import CONFIG, MAP, ExperimentConfig, main
from qpkam.maps import MODELS

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

BASE = {
    "omega": [1.0, GOLDEN],
    "sigma0": 2.0,
    "K": 30,
    "gamma": 0.1,
    "tau": 2.5,
    "interval": [0.3, 1.1],
    "p": 8.0,
    "K_trunc": 8,
    "J": 6,
    "k_max": 8,
    "tol": 1e-8,
    "y_scale": 16.0,
    "seed": 2,
    "map": {
        "model": "kicked_twist",
        "lambda": 1e-4,
        "modes": [{"k": [1, 0], "c": 0.55}, {"k": [0, 1], "c": 0.45},
                  {"k": [1, 1], "c": 0.15}],
        "strip": [0.0, 1.7],
    },
}


NO_LAMBDA = {key: value for key, value in BASE["map"].items() if key != "lambda"}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_certify_ok(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "certify.json").read_text())
    assert doc["accepted"]
    assert doc["frequency"]["c"] > 0
    assert all(row["passed"] for row in doc["divisor_sums"])
    assert (out / "metadata.json").exists()


def test_certify_resonant_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, omega=[1.0, 2.0])
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_certify_rejected_alpha_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, alpha=2 * math.pi, interval=[0.0, 10.0])
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "(k, j)" in err


def test_certify_alpha_outside_interval_is_strict_json(tmp_path):
    cfg = write_cfg(tmp_path, alpha=1.2)
    out = tmp_path / "o"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    doc = json.loads((out / "certify.json").read_text(), parse_constant=_reject_constant)
    assert doc["reason"] == "interval" and doc["margin"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("overrides, reason", [
    ({"alpha": 1.2}, "interval"),                              # outside [0.3, 1.1]
    ({"alpha": 2 * math.pi, "interval": [0.0, 10.0]}, "divisor"),
])
def test_solve_rejected_alpha_exit_2(tmp_path, capsys, overrides, reason):
    cfg = write_cfg(tmp_path, **overrides)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert f"alpha = {overrides['alpha']} violates the {reason} condition" in lines[0]
    # a (k, j) pair only where the divisor condition names one
    assert ("(k, j)" in lines[0]) == (reason == "divisor")


def test_unknown_model_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, map={"model": "no_such_map", "strip": [0.0, 1.7]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unknown model 'no_such_map'" in err[0]


def test_y_scale_beyond_strip_margin_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, y_scale=1e4)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "intersection strip" in err[0]


def test_alpha_outside_the_map_strip_exit_1(tmp_path, capsys):
    # the strip holds no alpha of the interval: one line naming alpha and
    # the strip, not a negative distance to the strip boundary
    cfg = write_cfg(tmp_path, map={**BASE["map"], "strip": [0.69, 0.71]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: alpha = ")
    assert "not inside the map's strip (0.69, 0.71)" in err[0]


def test_k_trunc_beyond_cutoff_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, K=10, K_trunc=12)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "K_trunc" in err[0]


@pytest.mark.parametrize("key, value", [("K_trunc", "8"), ("J", 6.0), ("tol", "1e-8")])
def test_wrong_typed_field_exit_1(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, **{key: value})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and key in err[0]


DIOPHANTINE_ARGS = ["--omega", "1.0", str(2.0**0.5), "--gamma", "1e-3", "--K", "30",
                    "--interval", "0.4", "1.2", "--count", "200"]


@pytest.mark.parametrize("command, overrides", [
    ("certify", {"omega": [0.0, 1.0]}),                       # a zero frequency
    ("solve", {"tau": 1.5}),                                  # tau <= n
    ("certify", {"tau": 2.0}),
    ("certify", {"gamma": 0.7}),                              # gamma >= 1/2
    ("schedule", {"gamma": 0.7}),
    ("solve", {"q": 0.5}),                                    # q above its bound
    ("schedule", {"q": 0.5}),
    ("solve", {"p": 5.0}),                                    # p <= 2 tau + 1
    ("schedule", {"p": 5.0}),
    ("solve", {"map": {**BASE["map"], "modes": [{"k": [1, 0, 0], "c": 0.5}]}}),
    ("diophantine", ["--tau", "1.5"]),
    ("diophantine", ["--tau", "3.0", "--gamma", "0.7"]),
    # wrong types inside map and curves
    ("solve", {"map": [1]}),
    ("solve", {"map": {**BASE["map"], "model": 3}}),
    ("solve", {"map": {**BASE["map"], "modes": [{"k": 1}]}}),
    ("solve", {"map": {**BASE["map"], "modes": [{"k": [1, 0.5]}]}}),
    ("solve", {"map": {**BASE["map"], "modes": [{"k": [1, 0], "c": "x"}]}}),
    ("solve", {"map": {**BASE["map"], "modes": [3]}}),
    ("solve", {"map": {**BASE["map"], "modes": "abc"}}),
    ("solve", {"map": {**BASE["map"], "lambda": "big"}}),
    ("solve", {"map": {**BASE["map"], "flux": [0.1]}}),
    ("solve", {"map": {"model": "rigid_shift", "c": True}}),
    ("solve", {"map": {**BASE["map"], "strip": "ab"}}),
    ("diagnose", {"map": {**BASE["map"], "strip": "ab"}}),
    ("diagnose", {"map": {**BASE["map"], "strip": [0.0, 1.0, 2.0]}}),
    ("diagnose", {"map": [1]}),
    ("diagnose", {"curves": "abc"}),
    ("diagnose", {"curves": [1]}),
    ("diagnose", {"curves": [{"r0": "x", "amp": 0.0}]}),
    ("diagnose", {"curves": [{"r0": None, "amp": None}]}),
    ("diagnose", {"curves": [{"amp": 0.05, "K": 3.0}]}),
    ("diagnose", {"curves": [{"amp": 0.05, "K": 0}]}),         # e_1 outside the box
    # misspelled keys and keys the chosen model does not read
    ("solve", {"map": {**NO_LAMBDA, "lamda": 1e-4}}),
    ("solve", {"map": {**BASE["map"], "modes": [{"k": [1, 0], "amp": 0.55}]}}),
    ("diagnose", {"curves": [{"r0": None, "amplitude": 0.05}]}),
    ("solve", {"map": {"model": "rigid_shift", "lambda": 1e-4}}),
    ("solve", {"map": {"model": "pure_twist", "modes": BASE["map"]["modes"]}}),
    # an unknown model fails at load, also where the command builds no map
    ("certify", {"map": {"model": "no_such_map"}}),
    ("schedule", {"map": {"model": "no_such_map"}}),
    # values out of range
    ("solve", {"J": -1}),
    ("solve", {"K_trunc": -1}),
    ("solve", {"y_scale": 0}),
    ("solve", {"y_scale": -16.0}),
    # negative seeds, from the config and from the flags
    ("solve", {"seed": -1}),
    ("solve", ["--seed", "-2"]),
    ("diophantine", ["--tau", "3.0", "--seed", "-1"]),
    # a negative level count or tolerance
    ("schedule", {"k_max": -1}),
    ("solve", {"k_max": -1}),
    ("solve", {"tol": -1.0}),
    # NaN and infinities, in the config (json writes them as NaN/Infinity)
    # and in the diophantine flags
    ("certify", {"interval": [0.3, math.nan]}),
    ("solve", {"interval": [-math.inf, 1.1]}),
    ("certify", {"sigma0": math.nan}),
    ("solve", {"tol": math.inf}),
    ("solve", {"map": {**BASE["map"], "lambda": math.inf}}),
    ("solve", {"map": {**BASE["map"], "modes": [{"k": [1, 0], "c": math.nan}]}}),
    ("diagnose", {"curves": [{"r0": None, "amp": math.inf}]}),
    ("diophantine", ["--tau", "3.0", "--sigma0", "nan"]),
    ("diophantine", ["--tau", "3.0", "--interval", "0.4", "inf"]),
    # sigma0 below n - 1: no frequency vector is Diophantine (Dirichlet)
    ("certify", {"sigma0": -1.0}),
    ("solve", {"sigma0": 0.5}),
    ("diophantine", ["--tau", "3.0", "--sigma0", "0.5"]),
    # reversed or empty intervals and strips, also where the command never
    # draws a rotation number
    ("diagnose", {"interval": [1.1, 0.3]}),
    ("schedule", {"interval": [1.1, 0.3]}),
    ("certify", {"interval": [1.1, 0.3]}),
    ("solve", {"interval": [0.7, 0.7]}),
    ("diagnose", {"map": {**BASE["map"], "strip": [1.7, 0.0]}}),
    ("solve", {"map": {**BASE["map"], "strip": [1.0, 1.0]}}),
    ("diophantine", ["--tau", "3.0", "--interval", "1.2", "0.4"]),
    # a map.modes entry without its k
    ("solve", {"map": {**BASE["map"], "modes": [{"c": 0.55}]}}),
    # integers beyond the largest double in number fields
    ("schedule", {"p": 10**400}),
    ("solve", {"map": {**BASE["map"], "lambda": 10**400}}),
    ("diagnose", {"curves": [{"r0": None, "amp": 10**400}]}),
])
def test_bad_parameters_exit_1(tmp_path, capsys, command, overrides):
    # overrides: config fields (a dict) or flags (a list)
    out = str(tmp_path / "o")
    if command == "diophantine":
        argv = ["diophantine", *DIOPHANTINE_ARGS, *overrides, "--out", out]
    elif isinstance(overrides, list):
        argv = [command, "--config", str(write_cfg(tmp_path)), *overrides, "--out", out]
    else:
        argv = [command, "--config", str(write_cfg(tmp_path, **overrides)), "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "Traceback" not in err
    # a bad interval is named, not reported as the gamma bound it breaks
    if "interval" in overrides or "--interval" in overrides:
        assert "interval" in lines[0]


def test_schemas_cover_the_config_fields_and_the_models():
    assert set(CONFIG.kinds) == set(ExperimentConfig.__dataclass_fields__)
    assert set(MAP.kinds) == {"model"}.union(*(keys for keys, _ in MODELS.values()))


def test_nan_map_data_is_one_line_and_no_report(tmp_path, capsys):
    # flux 1e308 overflows the image radius: NaN coefficients fail the
    # reality check before diagnose.json is written
    cfg = write_cfg(tmp_path, map={**BASE["map"], "flux": 1e308})
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("RealityDefect:")
    assert not (out / "diagnose.json").exists()


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_that_cannot_be_a_directory_is_one_config_error(tmp_path, capsys, under):
    # --out names an existing file, or a path below one
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / under if under else taken
    assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert taken.read_text() == "keep\n"


def test_box_past_the_address_space_is_one_config_error(tmp_path, capsys):
    # a curve box of (2^32 + 1)^2 modes: numpy refuses it before allocating
    cfg = write_cfg(tmp_path, curves=[{"amp": 0.05, "K": 2**31}])
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: array is too big"), err
    assert not (out / "diagnose.json").exists()


@pytest.mark.parametrize("key, value, sized_by", [
    ("K", 10**6, "certify_frequency"),              # the half-box norms, 7.28 TiB
    ("sample_count", 10**13, "sample_admissible"),  # the draws, 72.8 TiB
])
def test_array_past_memory_is_one_config_error(tmp_path, capsys, monkeypatch, key, value,
                                                sized_by):
    # numpy's MemoryError for the array the field sizes, raised by a stand-in
    # so that the test requests no memory
    def refuse(*args, **kwargs):
        raise MemoryError(f"Unable to allocate the array that {key} = {value} sizes")

    monkeypatch.setattr(cli, sized_by, refuse)
    cfg = write_cfg(tmp_path, **{key: value})
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: Unable to allocate the array that {key} = {value} sizes"]


def test_dump_json_refuses_nan_without_writing(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        serialize.dump_json({"a": 1.0, "b": math.nan}, path)
    assert not path.exists()


def test_sigma0_at_the_dirichlet_bound_is_valid(tmp_path):
    cfg = write_cfg(tmp_path, omega=[1.0], sigma0=0.0, map={"model": "pure_twist"})
    assert ExperimentConfig.load(cfg).sigma0 == 0.0
    assert main(["diophantine", "--omega", "1.0", "--sigma0", "0", "--gamma", "1e-3",
                 "--tau", "3.0", "--interval", "0.4", "1.2", "--count", "20",
                 "--out", str(tmp_path / "d")]) == 0


def test_numeric_blow_up_is_one_stderr_line(tmp_path):
    # overflow inside the level's Chebyshev sums: the typed failure alone
    cfg = write_cfg(tmp_path, map={**BASE["map"], "lambda": 1e300})
    proc = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 3
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("not converged:")
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["solve", "schedule"])
def test_huge_p_does_not_overflow(tmp_path, capsys, command):
    # the geometric condition (1+q)^p/(1-q) <= 2^(p-1-2tau) holds at p = 1e300
    cfg = write_cfg(tmp_path, p=1e300)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tau", [170.0, 171.0])
def test_tau_without_a_positive_eps0_exit_1(tmp_path, capsys, tau):
    # Gamma(tau + 1) overflows at 171 and eps0 underflows to 0 at 170: both
    # are one config error naming tau, not a traceback or a zero schedule
    cfg = write_cfg(tmp_path, tau=tau, p=400.0)
    assert main(["schedule", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: tau = {tau}")
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "schedule.json").exists()


def test_root_find_failure_in_the_intersection_bound_is_recorded(tmp_path, capsys):
    # K_trunc 0 at y_scale 2 and lambda 1e-2: the intersection bound's
    # pullback Newton fails at level 6; the level records it and the run
    # ends in one "not converged:" line
    base_map = {**BASE["map"], "modes": BASE["map"]["modes"][:2], "lambda": 1e-2}
    cfg = write_cfg(tmp_path, K_trunc=0, y_scale=2.0, map=base_map)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("not converged:")
    levels = json.loads((out / "trace.json").read_text())["levels"]
    reports = [rec["intersection"] for rec in levels if "intersection" in rec]
    failed = [rep for rep in reports if not rep["pass"]]
    assert failed and all(rep["error"].startswith("root find failed") for rep in failed)


@pytest.mark.parametrize("command", ["certify", "diophantine"])
@pytest.mark.parametrize("gamma, tau, margin_null", [
    (1e-300, 2.5, False),       # gamma^-2 overflows the divisor-sum bound
    (0.1, 1e6, False),          # so does m^(2 tau)
    (1e-320, 2.5, True),        # and every margin dist*|k|^tau/gamma
])
def test_overflowing_bounds_are_null(tmp_path, command, gamma, tau, margin_null):
    out = tmp_path / "o"
    if command == "diophantine":
        argv = ["diophantine", "--omega", "1.0", str(GOLDEN), "--gamma", str(gamma),
                "--tau", str(tau), "--interval", "0.3", "1.1", "--count", "50"]
    else:
        argv = ["certify", "--config", str(write_cfg(tmp_path, gamma=gamma, tau=tau))]
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads((out / f"{command}.json").read_text(), parse_constant=_reject_constant)
    rows = doc["divisor_sums"]
    assert doc["accepted"] and rows and all(row["passed"] for row in rows)
    assert all(row["rhs"] is None for row in rows)
    margin = doc["rotation" if command == "certify" else "first_admissible"]["margin"]
    assert (margin is None) == margin_null


def test_kicked_twist_without_modes_solves(tmp_path):
    # an empty modes list is the zero kick, as for pure_twist
    cfg = write_cfg(tmp_path, map={**BASE["map"], "modes": []})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "curve.json").read_text())["defect"] == 0.0


def test_numerical_failure_exit_3(tmp_path, capsys):
    # a curve this wavy has an image that folds over: NotAGraph, not a rejection
    cfg = write_cfg(tmp_path, alpha=0.7, curves=[{"r0": 0.7, "amp": 2.0}])
    assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("NotAGraph:")
    assert "Traceback" not in err


def test_diagnose_three_frequencies(tmp_path):
    cfg = write_cfg(tmp_path, omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)], gamma=1e-2,
                    tau=3.5, alpha=0.7, curves=[{"r0": None, "amp": 0.05}],
                    map={**BASE["map"], "modes": [{"k": [1, 0, 0], "c": 0.55},
                                                  {"k": [0, 1, 0], "c": 0.45},
                                                  {"k": [0, 0, 1], "c": 0.15}]})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    row = json.loads((out / "diagnose.json").read_text())["curves"][0]
    assert row["witness_found"] and row["sign_change"]
    assert abs(row["exactness_defect"]) <= 1e-8


def test_malformed_config_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"omega": [1.0, GOLDEN]}))
    assert main(["certify", "--config", str(path2), "--out", str(tmp_path / "o")]) == 1
    # nesting deeper than the interpreter's recursion limit
    path3 = tmp_path / "deep.json"
    path3.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["certify", "--config", str(path3), "--out", str(tmp_path / "o")]) == 1


def test_solve_zero_perturbation(tmp_path):
    # tol 0 is a valid tolerance: the unperturbed twist meets it exactly
    cfg = write_cfg(tmp_path, tol=0.0, map={"model": "pure_twist", "strip": [0.0, 1.7]})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    curve = json.loads((out / "curve.json").read_text())
    assert curve["defect"] == 0.0
    assert curve["phi"]["K"] == 8
    assert not any(curve["phi"]["re"]) and not any(curve["phi"]["im"])
    trace = json.loads((out / "trace.json").read_text())
    assert trace["converged"]
    header, *rows = (out / "samples.csv").read_text().splitlines()
    assert header == "xi,theta,r" and len(rows) == 1001
    # every field is a plain number
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_solve_acceptance_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "curve.json").read_bytes() == (out2 / "curve.json").read_bytes()
    assert (out1 / "trace.json").read_bytes() == (out2 / "trace.json").read_bytes()
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    doc = json.loads((out1 / "trace.json").read_text())
    assert doc["levels"][-1]["defect"] <= 1e-8


def test_solve_large_perturbation_exit_3(tmp_path):
    big = json.loads(json.dumps(BASE["map"]))
    big["lambda"] = 0.5
    cfg = write_cfg(tmp_path, map=big, k_max=5)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    trace = json.loads((out / "trace.json").read_text())
    assert not trace["converged"]
    assert len(trace["levels"]) >= 1


def test_diagnose_pure_twist(tmp_path):
    cfg = write_cfg(tmp_path, map={"model": "pure_twist", "strip": [0.0, 1.7]},
                    alpha=0.7)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "diagnose.json").read_text())
    row = doc["curves"][0]
    assert row["witness_found"] and not row["sign_change"]
    assert abs(row["exactness_defect"]) < 1e-12


def test_diagnose_rigid_shift(tmp_path):
    cfg = write_cfg(tmp_path, map={"model": "rigid_shift", "c": 0.01,
                                   "strip": [0.0, 1.7]}, alpha=0.7)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "diagnose.json").read_text())
    assert not doc["curves"][0]["witness_found"]


def test_diagnose_rigid_shift_without_flux_is_the_pure_twist(tmp_path):
    # "c" defaults to 0: the identity twist, so exact and with intersection,
    # and the area functional of each curve is computed
    cfg = write_cfg(tmp_path, map={"model": "rigid_shift", "strip": [0.0, 1.7]})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "diagnose.json").read_text())
    assert doc["model"] == "rigid_shift"
    assert doc["declared"] == {"intersection": True, "exact_symplectic": True}
    for row in doc["curves"]:
        assert row["witness_found"] and abs(row["exactness_defect"]) < 1e-12
        assert max(map(abs, row["area_signs"])) < 1e-12


def test_diagnose_exact_catalog(tmp_path):
    cfg = write_cfg(tmp_path, alpha=0.7,
                    curves=[{"r0": 0.7, "amp": 0.0}, {"r0": 0.7, "amp": 0.05}])
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "diagnose.json").read_text())
    for row in doc["curves"]:
        assert row["witness_found"]
        assert abs(row["exactness_defect"]) <= 1e-8
        lo, hi = row["area_signs"]
        assert lo < 0 < hi


def test_schedule_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "r_k" in text and "M_k" in text
    doc = json.loads((out / "schedule.json").read_text())
    assert doc["s0"] == pytest.approx(2.0**-2.5 / 300.0)
    assert len(doc["levels"]) == BASE["k_max"] + 1


def test_diophantine_subcommand(tmp_path):
    out = tmp_path / "dio"
    code = main(["diophantine", "--omega", "1.0", str(2.0**0.5),
                 "--gamma", "1e-3", "--tau", "3.0", "--K", "30",
                 "--interval", "0.4", "1.2", "--count", "200", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "diophantine.json").read_text())
    assert doc["accepted"]
    assert doc["acceptance_fraction"] > 0.9
    assert all(row["passed"] for row in doc["divisor_sums"])


def test_diophantine_subcommand_resonant(tmp_path):
    code = main(["diophantine", "--omega", "1.0", "2.0", "--gamma", "1e-3",
                 "--tau", "3.0", "--interval", "0.4", "1.2",
                 "--out", str(tmp_path / "d2")])
    assert code == 2


def run_cli(argv, threads="1", check=False):
    """Run the CLI in a fresh process with QPKAM_THREADS set, capturing its output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    # the BLAS variables would take precedence over QPKAM_THREADS
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(QPKAM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "qpkam.cli", *argv], env=env, check=check,
                          capture_output=True, text=True)


def test_curve_json_identical_across_thread_counts(tmp_path):
    cfg = write_cfg(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        run_cli(["solve", "--config", str(cfg), "--out", str(out)], threads, check=True)
        outputs.append([(out / name).read_bytes()
                        for name in ("curve.json", "trace.json", "samples.csv")])
    assert outputs[0] == outputs[1]
    levels = json.loads(outputs[0][1])["levels"]
    assert all("band" in rec["evaluator"] for rec in levels)


def test_diagnose_json_identical_across_thread_counts(tmp_path):
    # eval_modes contracts through BLAS matrix products on this path
    cfg = write_cfg(tmp_path, alpha=0.7,
                    map={**BASE["map"], "lambda": 0.03, "strip": [-1.0, 3.0]},
                    curves=[{"r0": None, "amp": 0.0}] + [{"r0": None, "amp": 0.05, "K": 3}] * 3)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        run_cli(["diagnose", "--config", str(cfg), "--out", str(out)], threads, check=True)
        reports.append((out / "diagnose.json").read_bytes())
    assert reports[0] == reports[1]
    assert all(row["witness_found"] for row in json.loads(reports[0])["curves"])


def test_every_synthesized_box_is_hermitian(tmp_path, monkeypatch):
    # qp.synthesize reads the half box k_n >= 0 of c_{-k} = conj c_k; every
    # production call site must hand it such a box
    real_synthesize = qp.synthesize
    defects = []

    def checked(coeffs, n, N):
        flipped = np.flip(coeffs, axis=tuple(range(n))).conj()
        scale = 1.0 + np.max(np.abs(coeffs), initial=0.0)
        defects.append(np.max(np.abs(coeffs - flipped), initial=0.0) / scale)
        return real_synthesize(coeffs, n, N)

    monkeypatch.setattr(qp, "synthesize", checked)
    assert main(["solve", "--config", str(write_cfg(tmp_path)),
                 "--out", str(tmp_path / "s")]) == 0
    solve_calls = len(defects)
    cfg = write_cfg(tmp_path, "diag.json", alpha=0.7,
                    map={**BASE["map"], "lambda": 0.03, "strip": [-1.0, 3.0]},
                    curves=[{"r0": None, "amp": 0.0}, {"r0": None, "amp": 0.05, "K": 3}])
    assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    assert 0 < solve_calls < len(defects)
    assert max(defects) <= 1e-12


# ---------------------------------------------------------------------------
# fuzzed failure contract: one field of the README config changed at a time
# ---------------------------------------------------------------------------

HUGE = 10**400
FUZZ_CONFIG = {**json.loads(code_block("CLI", "json")),
               "curves": [{"r0": None, "amp": 0.05, "K": 3}]}
FUZZ_PATHS = ([(key,) for key in [*FUZZ_CONFIG, "alpha", "q", "sample_count"]]
              + [("map", key) for key in ("model", "lambda", "modes", "strip", "flux")]
              + [("map", "modes", 0), ("map", "modes", 0, "k"), ("map", "modes", 0, "c"),
                 ("curves", 0), ("curves", 0, "r0"), ("curves", 0, "amp"), ("curves", 0, "K")])
FUZZ_VALUES = ["8", True, None, [1.0], {}, math.nan, math.inf, -math.inf, 0, -1,
               1e308, -1e308, HUGE]
# these fields size lattices, so they get no HUGE
SIZE_FIELDS = ("K", "K_trunc", "J", "k_max", "sample_count")
FUZZ = settings(settings.get_profile("ci"), max_examples=400)


def mutated(path, mutation):
    """FUZZ_CONFIG with one change at path: ("set", value), ("delete",),
    ("reverse",) of a list, or ("extra",), an unknown key beside the field
    (inside the entry for a list entry); None where the change does not
    apply."""
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    *head, last = path
    obj = cfg
    for key in head:
        obj = obj[key]
    current = obj[last] if isinstance(obj, list) else obj.get(last)
    op, *value = mutation
    if op == "set":
        obj[last] = value[0]
    elif op == "delete":
        obj.pop(last) if isinstance(obj, list) else obj.pop(last, None)
    elif op == "extra":
        (obj if isinstance(obj, dict) else current)["extra"] = 1
    elif isinstance(current, list):
        obj[last] = current[::-1]
    else:
        return None
    return cfg


def assert_contract(argv, out: Path) -> None:
    """main in-process (an exception fails the test): an exit code in
    {0, 1, 2, 3}, at most one stderr line, and strict JSON outputs."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


# budget: at most 20 s for both fuzz tests (about 5 s on a 2-vCPU machine)
@FUZZ
@example(command="schedule", path=("p",), mutation=("set", HUGE))
@example(command="diagnose", path=("map", "flux"), mutation=("set", 1e308))
@example(command="solve", path=("map", "modes", 0, "k"), mutation=("delete",))
@given(command=st.sampled_from(["certify", "solve", "schedule", "diagnose"]),
       path=st.sampled_from(FUZZ_PATHS),
       mutation=st.one_of(st.sampled_from(FUZZ_VALUES).map(lambda v: ("set", v)),
                          st.sampled_from([("delete",), ("reverse",), ("extra",)])))
def test_fuzzed_config_keeps_the_failure_contract(command, path, mutation):
    assume(not (mutation == ("set", HUGE) and path[-1] in SIZE_FIELDS))
    cfg = mutated(path, mutation)
    assume(cfg is not None)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert_contract([command, "--config", str(config)], Path(tmp) / "out")


DIOPHANTINE_FLAGS = {"--omega": ["1.0", "1.4142135623730951"], "--sigma0": ["1.0"],
                     "--gamma": ["1e-3"], "--tau": ["3.0"], "--K": ["30"],
                     "--interval": ["0.4", "1.2"], "--count": ["50"], "--seed": ["0"]}


def diophantine_argv(flags: dict) -> list:
    argv = ["diophantine"]
    for name, values in flags.items():
        argv += [f"{name}={values[0]}"] if len(values) == 1 else [name, *values]
    return argv


@FUZZ
@given(flag=st.sampled_from(sorted(DIOPHANTINE_FLAGS)),
       change=st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", str(HUGE),
                               "x", "reverse", "delete", "unknown"]))
def test_fuzzed_diophantine_flags_keep_the_failure_contract(flag, change):
    # argparse's usage errors (a missing required flag, an unparsable value,
    # an unknown flag, "-inf" read as a flag) are inside the contract too
    flags = dict(DIOPHANTINE_FLAGS)
    if change == "delete":
        del flags[flag]
    elif change == "reverse":
        flags[flag] = flags[flag][::-1]
    elif change == "unknown":
        flags["--unknown"] = ["1"]
    else:
        # --K and --count size lattices
        assume(flag not in ("--K", "--count") or change != str(HUGE))
        flags[flag] = [change, *flags[flag][1:]]
    with tempfile.TemporaryDirectory() as tmp:
        assert_contract(diophantine_argv(flags), Path(tmp) / "out")


@pytest.mark.parametrize("flag, values", [
    ("--gamma", None),                 # a missing required flag
    ("--gamma", ["x"]),
    ("--unknown", ["1"]),
    ("--interval", ["-inf", "1.2"]),   # argparse reads "-inf" as a flag
])
def test_usage_errors_are_config_errors(tmp_path, capsys, flag, values):
    flags = dict(DIOPHANTINE_FLAGS)
    if values is None:
        del flags[flag]
    else:
        flags[flag] = values
    assert main([*diophantine_argv(flags), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert "--config" in capsys.readouterr().out
