"""CLI contract: exit codes, report files, byte-level determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpkam import qpfourier as qp
from qpkam.cli import ExperimentConfig, main

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


def test_solve_zero_perturbation(tmp_path):
    # tol 0 is a valid tolerance: the unperturbed twist meets it exactly
    cfg = write_cfg(tmp_path, tol=0.0, map={"model": "pure_twist", "strip": [0.0, 1.7]})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    curve = json.loads((out / "curve.json").read_text())
    assert curve["defect"] == 0.0
    assert curve["phi"]["coeffs"] == []
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
