"""Command-line front end: certify | solve | diagnose | schedule | diophantine.

The input is a JSON config file, or the diophantine flags.  One walk, _check,
checks it against one Schema per config object (CONFIG, MAP, MODE, CURVE)
and raises one ValueError naming the field; the rules that join fields are
in ExperimentConfig.load and maps.check_model_config.  All reports are JSON
(CSV only for plot-ready curve samples); identical config + seed reproduce
byte-identical outputs, with timestamps kept in a separate metadata file.
Exit codes: 0 ok, 1 config/parse error, 2 Diophantine rejection
(ResonantFrequency, NoneAdmissible or a rejected rotation number), 3 not
converged or another numerical failure (NotAGraph, NoConvergence, ...).
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serialize
from .diophantine import (
    RejectionReport,
    certify_frequency,
    certify_rotation,
    divisor_sum_bound_check,
    sample_admissible,
)
from .errors import ConfigError, NoneAdmissible, NotConverged, QpKamError, ResonantFrequency
from .kam import build_schedule, run, smallness_check
from .maps import (
    CurveGraph,
    check_model_config,
    exactness_defect,
    flat_curve,
    intersection_witness,
    model_from_config,
)
from .qpfourier import Frequency, ShellFunction


@dataclass(frozen=True)
class Schema:
    """The keys one config object may hold, each with its kind, and the keys
    it must hold.  A kind is a (description, test) pair, a Schema for a
    nested object, or [Schema] for a list of such objects."""

    kinds: dict
    required: tuple = ()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that converts to a finite double: JSON's NaN and
    Infinity, and an int beyond the largest double, are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


INT = ("an integer", _is_int)
COUNT = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
NUMBER = ("a finite number", _is_number)
NUMBER_OR_NULL = ("a finite number or null", lambda v: v is None or _is_number(v))
PAIR = ("two finite numbers [a, b] with a < b",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
        and v[0] < v[1])
MODE = Schema({"k": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
               "c": NUMBER}, required=("k",))
# the union of the keys of maps.MODELS; check_model_config rejects those the
# chosen model does not read
MAP = Schema({"model": ("a string", lambda v: isinstance(v, str)), "lambda": NUMBER,
              "flux": NUMBER, "c": NUMBER, "strip": PAIR, "modes": [MODE]})
CURVE = Schema({"r0": NUMBER_OR_NULL, "amp": NUMBER, "K": INT})
# the fields of ExperimentConfig; the diophantine flags are checked by it too
CONFIG = Schema({
    "omega": ("a nonempty list of finite numbers",
              lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))),
    "gamma": NUMBER, "tau": NUMBER, "interval": PAIR, "map": MAP,
    "sigma0": NUMBER_OR_NULL, "K": INT, "alpha": NUMBER_OR_NULL, "sample_count": INT,
    "p": NUMBER, "q": NUMBER_OR_NULL, "K_trunc": COUNT, "J": COUNT, "k_max": COUNT,
    "tol": ("a finite number >= 0", lambda v: _is_number(v) and v >= 0),
    "y_scale": ("a finite number > 0", lambda v: _is_number(v) and v > 0),
    "seed": COUNT, "curves": [CURVE],
}, required=("omega", "gamma", "tau", "interval"))


def _check(obj, schema: Schema, where: str) -> None:
    """Raise ValueError naming the first field of obj that schema rejects: a
    missing or unknown key, or a value of the wrong kind.  where prefixes
    the field names ("", "map.", "--" for flags)."""
    name = where.rstrip(".") or "config"
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be an object, got {obj!r}")
    missing = [key for key in schema.required if key not in obj]
    if missing:
        raise ValueError(f"{name} misses required keys {missing}")
    unknown = set(obj) - set(schema.kinds)
    if unknown:
        raise ValueError(f"{name} has unknown keys {sorted(unknown)}")
    for key, value in obj.items():
        kind = schema.kinds[key]
        if isinstance(kind, Schema):
            _check(value, kind, f"{where}{key}.")
        elif isinstance(kind, list):
            if not isinstance(value, list):
                raise ValueError(f"{where}{key} must be a list, got {value!r}")
            for i, item in enumerate(value):
                _check(item, kind[0], f"{where}{key}[{i}].")
        elif not kind[1](value):
            raise ValueError(f"{where}{key} must be {kind[0]}, got {value!r}")


def _check_sigma0(sigma0, n: int) -> None:
    """By Dirichlet's theorem no omega in R^n has |<k,omega>| >= c/|k|_1^sigma0
    for all k when sigma0 < n - 1: a certificate would only reflect the box."""
    if sigma0 is not None and sigma0 < n - 1:
        raise ValueError(f"sigma0 = {sigma0} is below n - 1 = {n - 1}: no frequency "
                         "vector is Diophantine with it")


@dataclass
class ExperimentConfig:
    """Parsed configuration; constraint relations are delegated to
    build_schedule and the certify operations."""

    omega: list
    gamma: float
    tau: float
    interval: list
    map: dict = field(default_factory=dict)
    sigma0: float | None = None
    K: int = 30
    alpha: float | None = None
    sample_count: int = 200
    p: float = 8.0
    q: float | None = None
    K_trunc: int = 8
    J: int = 6
    k_max: int = 8
    tol: float = 1e-8
    y_scale: float = 16.0
    seed: int = 0
    curves: list = field(default_factory=lambda: [{"r0": None, "amp": 0.0}])

    @staticmethod
    def load(path: str, seed: int | None = None) -> "ExperimentConfig":
        """The config of a JSON file, checked against CONFIG; seed, when
        given, overrides the file's seed."""
        with open(path) as fh:
            raw = json.load(fh)
        if seed is not None and isinstance(raw, dict):
            raw["seed"] = seed
        _check(raw, CONFIG, "")
        check_model_config(raw.get("map", {}), len(raw["omega"]))
        cfg = ExperimentConfig(**raw)
        if cfg.K_trunc > cfg.K:
            raise ValueError(f"K_trunc = {cfg.K_trunc} exceeds the certified cutoff K = {cfg.K}")
        _check_sigma0(cfg.sigma0, len(cfg.omega))
        return cfg


def _certificates(cfg: ExperimentConfig):
    """The frequency, the rotation number (or its RejectionReport) and the
    admissible sample it was drawn from (None for a configured alpha)."""
    freq = certify_frequency(cfg.omega, cfg.K, cfg.sigma0)
    if cfg.alpha is not None:
        rot = certify_rotation(cfg.alpha, freq, cfg.gamma, cfg.tau, cfg.interval, cfg.K)
        return freq, rot, None
    sample = sample_admissible(freq, cfg.gamma, cfg.tau, cfg.interval, cfg.K,
                               cfg.sample_count, cfg.seed)
    return freq, sample.first, sample


def _margin(rot) -> float | None:
    """The rotation margin for JSON: None (null) for an alpha outside the
    interval, and for a margin that overflows a double."""
    return rot.margin if rot.margin is not None and math.isfinite(rot.margin) else None


def _reject(out_dir: Path, name: str | None, why, report: dict) -> int:
    """Exit 2 for a Diophantine rejection: print its one stderr line and,
    unless name is None, write report with accepted false and the reason as
    out_dir/name.  why is a ResonantFrequency, a NoneAdmissible, or the
    RejectionReport of a rotation number, which names (k, j) for a divisor
    violation."""
    if isinstance(why, ResonantFrequency):
        line = f"ResonantFrequency at k = {why.k}"
        fields = {"reason": "ResonantFrequency", "k": list(why.k)}
    elif isinstance(why, NoneAdmissible):
        line, fields = str(why), {"reason": "NoneAdmissible"}
    else:
        line = f"alpha = {why.alpha} violates the {why.reason} condition"
        if why.k is not None:
            line += f" at (k, j) = ({why.k}, {why.j}), margin {why.margin}"
        fields = {"reason": why.reason, "k": list(why.k) if why.k else None, "j": why.j,
                  "margin": _margin(why)}
    print(f"rejection: {line}", file=sys.stderr)
    if name is not None:
        serialize.dump_json({**report, **fields, "accepted": False}, out_dir / name)
    return 2


def _report(out_dir: Path, name: str, report: dict, verbose: bool) -> int:
    """Exit 0: write report as out_dir/name, and print it when verbose."""
    serialize.dump_json(report, out_dir / name)
    if verbose:
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def _frequency(freq: Frequency) -> dict:
    return {"omega": list(freq.omega), "c": freq.c, "sigma0": freq.sigma0, "K": freq.cutoff}


def _divisor_sums(freq: Frequency, rot) -> list:
    return [vars(divisor_sum_bound_check(freq, rot, m)) for m in (5, 10, 20) if m <= rot.cutoff]


def cmd_certify(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    try:
        freq, rot, sample = _certificates(cfg)
    except (ResonantFrequency, NoneAdmissible) as exc:
        return _reject(out_dir, "certify.json", exc, {})
    report = {"accepted": True, "frequency": _frequency(freq)}
    if isinstance(rot, RejectionReport):
        return _reject(out_dir, "certify.json", rot, report)
    report["rotation"] = {"alpha": rot.alpha, "gamma": rot.gamma, "tau": rot.tau,
                          "K": rot.cutoff, "margin": _margin(rot)}
    if sample is not None:
        report["acceptance_fraction"] = sample.fraction
    report["divisor_sums"] = _divisor_sums(freq, rot)
    return _report(out_dir, "certify.json", report, verbose)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    # the sample's per-box arrays (|k|^tau, the bounds) are not kept alive through the run
    freq, rot = _certificates(cfg)[:2]
    if isinstance(rot, RejectionReport):
        return _reject(out_dir, None, rot, {})
    mp = model_from_config(cfg.map, freq)
    schedule = build_schedule(cfg.p, freq.n, cfg.tau, cfg.gamma, cfg.q, k_max=cfg.k_max)
    small = smallness_check(mp.sup_norm_fg, mp.cp_norm, schedule)
    try:
        result = run(mp, rot, schedule, tol=cfg.tol, K_trunc=cfg.K_trunc, J=cfg.J,
                     y_scale=cfg.y_scale)
    except NotConverged as exc:
        serialize.dump_json({"converged": False, "smallness": small, "levels": exc.trace},
                            out_dir / "trace.json")
        print(f"not converged: {exc}", file=sys.stderr)
        return 3
    curve = result.curve
    # the last level's box holds the curve; curve.json keeps the K_trunc box
    curve_doc = {"omega": list(freq.omega), "alpha": rot.alpha,
                 "defect": curve.defect,
                 "phi": serialize.shell_to_dict(curve.phi.pad_to(cfg.K_trunc)),
                 "psi": serialize.shell_to_dict(curve.psi.pad_to(cfg.K_trunc))}
    serialize.dump_json(curve_doc, out_dir / "curve.json")
    serialize.dump_json({"converged": True, "smallness": small, "y_scale": float(cfg.y_scale),
                         "levels": result.trace}, out_dir / "trace.json")
    xis = np.linspace(0.0, 100.0, 1001)
    th, r = curve.points(xis)
    lines = ["xi,theta,r"]
    lines += [f"{float(x)!r},{float(t)!r},{float(v)!r}" for x, t, v in zip(xis, th, r)]
    (out_dir / "samples.csv").write_text("\n".join(lines) + "\n")
    if verbose:
        for rec in result.trace:
            print(f"level {rec['k']}: defect {rec['defect']:.3e} [{rec['regime']}]")
    return 0


def _diagnose_curves(cfg: ExperimentConfig, freq: Frequency, alpha: float):
    rng = np.random.default_rng(cfg.seed)
    n = freq.n
    e_first, e_last = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    out = []
    for spec in cfg.curves:
        r0 = spec.get("r0")
        r0 = alpha if r0 is None else float(r0)
        amp = float(spec.get("amp", 0.0))
        if amp == 0.0:
            out.append(flat_curve(freq, r0))
            continue
        K = int(spec.get("K", 3))
        modes_phi = {e_first: amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))}
        modes_psi = {e_last: amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))}
        phi = ShellFunction.from_modes(freq, modes_phi, K=K)
        psi = ShellFunction.from_modes(freq, modes_psi, K=K) + r0
        out.append(CurveGraph(phi, psi))
    return out


def cmd_diagnose(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    freq = certify_frequency(cfg.omega, cfg.K, cfg.sigma0)
    alpha = cfg.alpha if cfg.alpha is not None else 0.5 * sum(cfg.interval)
    mp = model_from_config(cfg.map, freq)
    results = []
    for i, curve in enumerate(_diagnose_curves(cfg, freq, alpha)):
        witness = intersection_witness(mp, curve)
        defect = exactness_defect(mp, curve)
        results.append({
            "curve": i,
            "witness_found": witness.found,
            "sign_change": witness.sign_change,
            "xi_star": witness.xi_star,
            "area_signs": list(witness.area_signs) if witness.area_signs else None,
            "exactness_defect": defect,
        })
    report = {"model": mp.label, "declared": mp.declared, "curves": results}
    return _report(out_dir, "diagnose.json", report, verbose)


def cmd_schedule(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    schedule = build_schedule(cfg.p, len(cfg.omega), cfg.tau, cfg.gamma, cfg.q,
                              k_max=cfg.k_max)
    rows = [schedule.level(k) for k in range(schedule.k_max + 1)]
    doc = {"p": schedule.p, "tau": schedule.tau, "gamma": schedule.gamma,
           "q": schedule.q, "theta": schedule.theta, "s0": schedule.s0,
           "eps0": schedule.eps0, "M0": schedule.M0, "levels": rows}
    serialize.dump_json(doc, out_dir / "schedule.json")
    header = f"{'k':>3} {'r_k':>12} {'s_k':>12} {'eps_k':>12} {'M_k':>12} {'b_k':>12} {'B_k':>10}"
    print(header)
    for row in rows:
        print(f"{row['k']:>3} {row['r']:>12.5e} {row['s']:>12.5e} "
              f"{row['eps']:>12.5e} {row['M']:>12.5e} {row['b']:>12.5e} {row['B']:>10.6f}")
    return 0


def cmd_diophantine(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    """Flag-driven Diophantine reports: frequency certificate, admissible
    sample fractions and divisor sums, emitted as JSON."""
    try:
        freq = certify_frequency(cfg.omega, cfg.K, cfg.sigma0)
    except ResonantFrequency as exc:
        return _reject(out_dir, "diophantine.json", exc, {})
    report = {"frequency": _frequency(freq)}
    try:
        sample = sample_admissible(freq, cfg.gamma, cfg.tau, cfg.interval, cfg.K,
                                   cfg.sample_count, cfg.seed)
    except NoneAdmissible as exc:
        return _reject(out_dir, "diophantine.json", exc, report)
    rot = sample.first
    report.update({
        "accepted": True,
        "acceptance_fraction": sample.fraction,
        "first_admissible": {"alpha": rot.alpha, "margin": _margin(rot)},
        "divisor_sums": _divisor_sums(freq, rot),
    })
    return _report(out_dir, "diophantine.json", report, verbose)


class _Parser(argparse.ArgumentParser):
    """Usage errors (a missing, unknown or unparsable flag) raise ValueError:
    main reports them as config errors, exit 1 with one line."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="qpkam", description="invariant curves of quasi-periodic maps")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("certify", "solve", "diagnose", "schedule"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--out", default="qpkam_out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--verbose", action="store_true")

    dp = sub.add_parser("diophantine")
    dp.add_argument("--omega", type=float, nargs="+", required=True)
    dp.add_argument("--sigma0", type=float, default=None)
    dp.add_argument("--gamma", type=float, required=True)
    dp.add_argument("--tau", type=float, required=True)
    dp.add_argument("--K", type=int, default=30)
    dp.add_argument("--interval", type=float, nargs=2, required=True)
    dp.add_argument("--count", dest="sample_count", type=int, default=1000)
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--out", default="qpkam_out")
    dp.add_argument("--verbose", action="store_true")

    try:
        args = parser.parse_args(argv)
        if args.command == "diophantine":
            # the flags are config fields: the same schema checks them
            flags = {key: value for key, value in vars(args).items() if key in CONFIG.kinds}
            _check(flags, CONFIG, "--")
            _check_sigma0(args.sigma0, len(args.omega))
            cfg = ExperimentConfig(**flags)
        else:
            cfg = ExperimentConfig.load(args.config, args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, RecursionError) as exc:     # json.load of deep nesting
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    handler = {"certify": cmd_certify, "solve": cmd_solve, "diagnose": cmd_diagnose,
               "schedule": cmd_schedule, "diophantine": cmd_diophantine}[args.command]
    try:
        # a numeric blow-up ends in its typed error alone, without numpy's warnings
        with np.errstate(all="ignore"):
            code = handler(cfg, out_dir, args.verbose)
    except (ValueError, MemoryError) as exc:
        # a ConfigError, or numpy refusing an array that the config sizes past
        # memory (MemoryError) or, before it allocates, past the address space
        if not (isinstance(exc, (ConfigError, MemoryError))
                or str(exc).startswith("array is too big")):
            raise
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QpKamError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ResonantFrequency, NoneAdmissible)) else 3
    serialize.dump_json({"command": args.command, "timestamp": time.time()},
                        out_dir / "metadata.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
