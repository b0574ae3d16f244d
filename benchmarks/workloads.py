"""Workload definitions: generated configs, the operation, correctness gates.

One operation of a workload is a fixed sequence of `qpkam` subcommands
called in-process through `qpkam.cli.main` on one generated config file,
which is all the program receives.  A workload has a short list of config
seeds (for `solve` the config seed picks alpha); each was run when the
references were recorded and passed every gate.  Benchmark seed s maps to
the config seed at position s mod len(seeds).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# max |theta - theta_ref|, |r - r_ref| over the reference sample rows; the
# solves stop at a defect <= 1e-8, so curves from a different but valid
# evaluation order agree far inside this
CURVE_TOL = 1e-7
# the diagnose curves carry no radial flux, so the exactness defect is roundoff
EXACTNESS_TOL = 1e-8
# every SAMPLE_STRIDE-th row of samples.csv goes into the reference
SAMPLE_STRIDE = 50

ACCEPTANCE_MAP = {
    "model": "kicked_twist",
    "lambda": 1e-4,
    "modes": [{"k": [1, 0], "c": 0.55}, {"k": [0, 1], "c": 0.45},
              {"k": [1, 1], "c": 0.15}],
    "strip": [0.0, 1.7],
}

# criterion-8 config of the acceptance suite
ACCEPTANCE = {
    "omega": [1.0, GOLDEN], "sigma0": 2.0, "K": 30,
    "gamma": 0.1, "tau": 2.5, "interval": [0.3, 1.1],
    "p": 8.0, "K_trunc": 8, "J": 6, "k_max": 8, "tol": 1e-8,
    "y_scale": 16.0, "map": ACCEPTANCE_MAP,
}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple          # CLI subcommands run in order, one operation
    base: dict               # config without its seed
    seeds: tuple             # vetted config seeds

    def config_seed(self, seed: int) -> int:
        return self.seeds[seed % len(self.seeds)]

    def config(self, seed: int) -> dict:
        cfg = json.loads(json.dumps(self.base))
        cfg["seed"] = self.config_seed(seed)
        return cfg


WORKLOADS = {wl.name: wl for wl in (
    # the contract config: a small box, so FFTs, Chebyshev evaluation and the
    # per-node loops weigh most around the eval_modes kernel
    Workload("acceptance", ("solve",), ACCEPTANCE, (0, 1, 2)),
    # kernel-bound: eval_modes, which grows like K^(2n), takes nearly all time
    Workload(
        "wide_modes", ("solve",),
        {**ACCEPTANCE, "K_trunc": 10, "J": 4, "tol": 1e-10,
         "map": {**ACCEPTANCE_MAP, "lambda": 1e-3}},
        (0, 1)),
    # n = 3: the three-axis lattice; the only workload where the Diophantine
    # sampling costs time and memory
    Workload(
        "three_freq", ("solve",),
        {"omega": [1.0, math.sqrt(2.0), math.sqrt(3.0)], "K": 30,
         "gamma": 1e-2, "tau": 3.5, "interval": [0.3, 1.1],
         "p": 9.0, "K_trunc": 3, "J": 4, "k_max": 8, "tol": 1e-8,
         "y_scale": 16.0,
         "map": {"model": "kicked_twist", "lambda": 1e-4,
                 "modes": [{"k": [1, 0, 0], "c": 0.55},
                           {"k": [0, 1, 0], "c": 0.45},
                           {"k": [0, 0, 1], "c": 0.15}],
                 "strip": [0.0, 1.7]}},
        (0, 1)),
    # shell inversion and the maps module on 16 curves, no KAM step: a
    # kam-only evaluator change should leave it unchanged
    Workload(
        "diagnose", ("certify", "diagnose"),
        {"omega": [1.0, GOLDEN], "sigma0": 2.0, "K": 30,
         "gamma": 0.1, "tau": 2.5, "interval": [0.3, 1.1],
         "map": {**ACCEPTANCE_MAP, "lambda": 0.03, "strip": [-1.0, 3.0]},
         "curves": [{"r0": None, "amp": 0.0}]
                   + [{"r0": None, "amp": 0.05, "K": 3}] * 15},
        (0, 2)),
)}


def write_config(wl: Workload, seed: int, path: Path) -> None:
    path.write_text(json.dumps(wl.config(seed), indent=1, sort_keys=True) + "\n")


def op_argv(command: str, config: Path, out: Path) -> list:
    return [command, "--config", str(config), "--out", str(out)]


# ---------------------------------------------------------------------------
# outputs and references
# ---------------------------------------------------------------------------

def observe(wl: Workload, out: Path) -> dict:
    """The outputs the gates and the references are made of."""
    if wl.commands == ("solve",):
        trace = json.loads((out / "trace.json").read_text())
        with open(out / "samples.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        samples = [[_number(v) for v in row] for row in rows[::SAMPLE_STRIDE]]
        return {"converged": trace["converged"],
                "defect": trace["levels"][-1]["defect"],
                "samples": samples}
    doc = json.loads((out / "diagnose.json").read_text())
    return {"witness_found": [row["witness_found"] for row in doc["curves"]],
            "exactness_defect": [row["exactness_defect"] for row in doc["curves"]]}


def _number(text: str) -> float:
    """A samples.csv field; numpy 2 writes repr() as 'np.float64(x)'."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def load_reference(wl: Workload, seed: int) -> dict:
    doc = json.loads((REFERENCE_DIR / f"{wl.name}.json").read_text())
    return doc[str(wl.config_seed(seed))]


def check(wl: Workload, seed: int, codes: list, out: Path, reference: dict) -> list:
    """Gate failures of one operation (empty when it passed)."""
    if any(codes):
        return [f"exit codes {codes}"]
    got = observe(wl, out)
    errors = []
    if wl.commands == ("solve",):
        tol = wl.config(seed)["tol"]
        if not got["converged"]:
            errors.append("not converged")
        if not got["defect"] <= tol:
            errors.append(f"defect {got['defect']:.3e} > tol {tol:.1e}")
        ref = reference["samples"]
        if len(ref) != len(got["samples"]):
            errors.append("sample count differs from the reference")
        else:
            dev = max(abs(a - b) for r1, r2 in zip(ref, got["samples"])
                      for a, b in zip(r1, r2))
            if not dev <= CURVE_TOL:
                errors.append(f"curve deviates {dev:.3e} from the reference")
    else:
        if got["witness_found"] != reference["witness_found"]:
            errors.append("witness_found differs from the reference")
        worst = max(abs(d) for d in got["exactness_defect"])
        if not worst <= EXACTNESS_TOL:
            errors.append(f"|exactness defect| {worst:.3e} > {EXACTNESS_TOL:.0e}")
    return errors
