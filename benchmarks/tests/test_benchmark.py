"""Self-tests of the benchmark: layer wrappers, gates, vetted seeds.

    python3 -m pytest benchmarks/tests -q

Each test runs real operations in-process, about two minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads
from qpkam.cli import main as qpkam_main

BENCH = Path(workloads.__file__).resolve().parent
ROOT = BENCH.parent

# layer metrics that must be nonzero on every op of a workload; the kam.*
# and maps.* spans must be zero where the workload does not reach them
SOLVE_NONZERO = (
    "qpfourier.eval_modes.calls", "qpfourier.eval_modes.macs",
    "qpfourier.synthesize.calls", "qpfourier.analyze.calls",
    "qpfourier.cheb_eval_rows.s", "diophantine.certify_frequency.s",
    "diophantine.sample_admissible.s", "diophantine.sample_admissible.peak_mb",
    "smoothing.smooth.calls", "cohomology.solve_coupled.calls",
    "kam.normalize.s", "kam.intersection_bound.s", "kam.inductive_step.self_s",
    "kam.compose_conjugacy.self_s", "kam.solve_back.self_s",
    "serialize.dump_json.s",
)
NONZERO = {
    "acceptance": SOLVE_NONZERO,
    "wide_modes": SOLVE_NONZERO,
    "three_freq": SOLVE_NONZERO,
    "diagnose": (
        "qpfourier.eval_modes.calls", "qpfourier.eval_modes.macs",
        "qpfourier.synthesize.calls", "qpfourier.analyze.calls",
        "qpfourier.compose_angle.s", "qpfourier.invert_angle_map.s",
        "diophantine.certify_frequency.s", "diophantine.sample_admissible.s",
        "maps.intersection_witness.s", "maps.image_curve.s",
        "maps.exactness_defect.s", "serialize.dump_json.s",
    ),
}


def run_op(wl, seed, work: Path, tracer=None):
    work.mkdir(parents=True, exist_ok=True)
    cfg, out = work / "cfg.json", work / "out"
    workloads.write_config(wl, seed, cfg)
    if tracer:
        tracer.reset()
    codes = [qpkam_main(workloads.op_argv(c, cfg, out)) for c in wl.commands]
    errors = workloads.check(wl, seed, codes, out,
                             workloads.load_reference(wl, seed))
    return out, errors


@pytest.fixture
def tracer():
    t = layers.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_wrappers_rebind_every_binding(tracer):
    import qpkam.cli
    import qpkam.kam

    originals = {id(orig) for _, _, orig in tracer._bindings}
    for name, mod in sys.modules.items():
        if name == "qpkam" or name.startswith("qpkam."):
            stale = [a for a, v in vars(mod).items() if id(v) in originals]
            assert not stale, f"{name} still binds unwrapped {stale}"
    # the from-imports in kam and cli go through the wrappers
    for mod, attr in ((qpkam.kam, "eval_modes"), (qpkam.kam, "smooth"),
                      (qpkam.kam, "solve_coupled"), (qpkam.kam, "synthesize"),
                      (qpkam.kam, "cheb_eval_rows"), (qpkam.cli, "sample_admissible"),
                      (qpkam.cli, "certify_frequency")):
        assert hasattr(getattr(mod, attr), "__wrapped_span__"), (mod.__name__, attr)


def test_uninstall_restores_originals():
    import qpkam.qpfourier

    orig = qpkam.qpfourier.eval_modes
    t = layers.Tracer()
    t.install()
    assert qpkam.qpfourier.eval_modes is not orig
    t.uninstall()
    assert qpkam.qpfourier.eval_modes is orig


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_metrics_nonzero_where_reached(name, tracer, tmp_path):
    wl = workloads.WORKLOADS[name]
    _, errors = run_op(wl, 0, tmp_path, tracer)
    assert not errors
    snap = tracer.snapshot()
    zero = [k for k in NONZERO[name] if not snap[k] > 0]
    assert not zero, f"zero on {name}: {zero}"
    if name == "diagnose":
        assert all(v == 0 for k, v in snap.items() if k.startswith("kam."))
    else:
        assert all(v == 0 for k, v in snap.items() if k.startswith("maps."))


def test_traced_outputs_byte_identical(tmp_path):
    wl = workloads.WORKLOADS["acceptance"]
    plain, errors = run_op(wl, 0, tmp_path / "plain")
    assert not errors
    t = layers.Tracer()
    t.install()
    try:
        traced, errors = run_op(wl, 0, tmp_path / "traced", t)
    finally:
        t.uninstall()
    assert not errors
    for name in ("curve.json", "trace.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_and_other_seed_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for seed in (0, 1):
        _, errors = run_op(wl, seed, tmp_path / f"s{seed}")
        assert not errors, (seed, errors)


def test_gates_reject_a_wrong_curve(tmp_path):
    wl = workloads.WORKLOADS["acceptance"]
    out, errors = run_op(wl, 0, tmp_path)
    assert not errors
    # the reference of another config seed is a different curve
    other = workloads.load_reference(wl, 1)
    assert workloads.check(wl, 0, [0], out, other)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "acceptance",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
