"""Command-line front end: certify | solve | diagnose | schedule.

All reports are JSON (CSV only for plot-ready curve samples); identical
config + seed reproduce byte-identical outputs, with timestamps kept in a
separate metadata file.  Exit codes: 0 ok, 1 config/parse error, 2 Diophantine
rejection (ResonantFrequency, NoneAdmissible or a rejected rotation number),
3 not converged or another numerical failure (NotAGraph, NoConvergence, ...).
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

# fields checked for type by ExperimentConfig.load in the config and in its
# map, map.modes and curves objects (bools are not numbers)
INT_FIELDS = ("K", "K_trunc", "J", "k_max", "seed", "sample_count")
FLOAT_FIELDS = ("gamma", "tau", "sigma0", "alpha", "p", "q", "tol", "y_scale",
                "lambda", "flux", "c", "r0", "amp")
PAIR_FIELDS = ("interval", "strip")
NULLABLE_FIELDS = ("sigma0", "alpha", "q", "r0")
# the keys of one curves entry (the map keys are maps.MODEL_KEYS)
CURVE_KEYS = ("r0", "amp", "K")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float: JSON's NaN and Infinity are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_list_of(value, item_ok, length: int | None = None) -> bool:
    return (isinstance(value, list) and length in (None, len(value))
            and all(map(item_ok, value)))


def _check_sigma0(sigma0, n: int) -> None:
    """By Dirichlet's theorem no omega in R^n has |<k,omega>| >= c/|k|_1^sigma0
    for all k when sigma0 < n - 1: a certificate would only reflect the box."""
    if sigma0 is not None and sigma0 < n - 1:
        raise ValueError(f"sigma0 = {sigma0} is below n - 1 = {n - 1}: no frequency "
                         "vector is Diophantine with it")


def _check_fields(obj, where: str) -> None:
    """Type-check the INT_FIELDS, FLOAT_FIELDS and PAIR_FIELDS entries of one
    config object; where names the object in messages ("" for the top level)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where or 'config'} must be an object, got {obj!r}")
    for key, value in obj.items():
        name = f"{where}.{key}" if where else key
        if value is None and key in NULLABLE_FIELDS:
            continue
        if key in INT_FIELDS and not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if key in FLOAT_FIELDS and not _is_number(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        if key in PAIR_FIELDS and not (_is_list_of(value, _is_number, 2) and value[0] < value[1]):
            raise ValueError(f"{name} must be two finite numbers [a, b] with a < b, got {value!r}")


@dataclass
class ExperimentConfig:
    """Parsed configuration; constraint relations are delegated to
    build_schedule and the certify operations."""

    omega: list
    gamma: float
    tau: float
    interval: tuple
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
    def load(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        _check_fields(raw, "")
        required = ["omega", "gamma", "tau", "interval"]
        missing = [key for key in required if key not in raw]
        if missing:
            raise ValueError(f"config missing required keys: {missing}")
        unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if not (_is_list_of(raw["omega"], _is_number) and raw["omega"]):
            raise ValueError("omega must be a nonempty list of finite numbers")
        mp = raw.get("map", {})
        _check_fields(mp, "map")
        if not isinstance(mp.get("model", ""), str):
            raise ValueError(f"map.model must be a string, got {mp['model']!r}")
        for where, items in (("map.modes", mp.get("modes", [])),
                             ("curves", raw.get("curves", []))):
            if not isinstance(items, list):
                raise ValueError(f"{where} must be a list, got {items!r}")
            for i, item in enumerate(items):
                _check_fields(item, f"{where}[{i}]")
        if not all(_is_list_of(mode.get("k"), _is_int) for mode in mp.get("modes", [])):
            raise ValueError("every map.modes k must be a list of integers")
        check_model_config(mp, len(raw["omega"]))
        for i, curve in enumerate(raw.get("curves", [])):
            unknown = set(curve) - set(CURVE_KEYS)
            if unknown:
                raise ValueError(f"curves[{i}] has unknown keys {sorted(unknown)}")
        cfg = ExperimentConfig(**raw)
        if cfg.K_trunc > cfg.K:
            raise ValueError(f"K_trunc = {cfg.K_trunc} exceeds the certified cutoff K = {cfg.K}")
        for key in ("K_trunc", "J", "k_max", "tol"):
            if not getattr(cfg, key) >= 0:
                raise ValueError(f"{key} = {getattr(cfg, key)} must be >= 0")
        if not cfg.y_scale > 0:
            raise ValueError(f"y_scale = {cfg.y_scale} must be > 0")
        _check_sigma0(cfg.sigma0, len(cfg.omega))
        cfg.interval = tuple(cfg.interval)
        return cfg


def _write(out_dir: Path, name: str, obj) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.dump_json(obj, out_dir / name)


def _metadata(out_dir: Path, command: str) -> None:
    _write(out_dir, "metadata.json",
           {"command": command, "timestamp": time.time()})


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


def _rejection_line(rot: RejectionReport) -> str:
    """The one stderr line of a rejected rotation number."""
    line = f"rejection: alpha = {rot.alpha} violates the {rot.reason} condition"
    if rot.k is not None:
        line += f" at (k, j) = ({rot.k}, {rot.j}), margin {rot.margin}"
    return line


def cmd_certify(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    try:
        freq, rot, sample = _certificates(cfg)
    except ResonantFrequency as exc:
        print(f"rejection: ResonantFrequency at k = {exc.k}", file=sys.stderr)
        _write(out_dir, "certify.json",
               {"accepted": False, "reason": "ResonantFrequency", "k": list(exc.k)})
        return 2
    except NoneAdmissible as exc:
        print(f"rejection: {exc}", file=sys.stderr)
        _write(out_dir, "certify.json", {"accepted": False, "reason": "NoneAdmissible"})
        return 2
    report = {"accepted": True,
              "frequency": {"omega": list(freq.omega), "c": freq.c,
                            "sigma0": freq.sigma0, "K": freq.cutoff}}
    if isinstance(rot, RejectionReport):
        print(_rejection_line(rot), file=sys.stderr)
        report.update({"accepted": False, "reason": rot.reason,
                       "k": list(rot.k) if rot.k else None, "j": rot.j,
                       "margin": _margin(rot)})
        _write(out_dir, "certify.json", report)
        return 2
    report["rotation"] = {"alpha": rot.alpha, "gamma": rot.gamma, "tau": rot.tau,
                          "K": rot.cutoff, "margin": _margin(rot)}
    if sample is not None:
        report["acceptance_fraction"] = sample.fraction
    report["divisor_sums"] = [
        vars(divisor_sum_bound_check(freq, rot, m))
        for m in (5, 10, 20) if m <= rot.cutoff]
    _write(out_dir, "certify.json", report)
    if verbose:
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    # the sample's lattice box is not kept alive through the run
    freq, rot = _certificates(cfg)[:2]
    if isinstance(rot, RejectionReport):
        print(_rejection_line(rot), file=sys.stderr)
        return 2
    mp = model_from_config(cfg.map, freq)
    schedule = build_schedule(cfg.p, freq.n, cfg.tau, cfg.gamma, cfg.q, k_max=cfg.k_max)
    small = smallness_check(mp.sup_norm_fg, mp.cp_norm, schedule)
    try:
        result = run(mp, rot, schedule, tol=cfg.tol, K_trunc=cfg.K_trunc, J=cfg.J,
                     y_scale=cfg.y_scale)
    except NotConverged as exc:
        _write(out_dir, "trace.json", {"converged": False, "smallness": small,
                                       "levels": exc.trace})
        print(f"not converged: {exc}", file=sys.stderr)
        return 3
    curve = result.curve
    curve_doc = {"omega": list(freq.omega), "alpha": rot.alpha,
                 "defect": curve.defect,
                 "phi": serialize.shell_to_dict(curve.phi),
                 "psi": serialize.shell_to_dict(curve.psi)}
    _write(out_dir, "curve.json", curve_doc)
    _write(out_dir, "trace.json", {"converged": True, "smallness": small,
                                   "y_scale": result.y_scale,
                                   "levels": result.trace})
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
    _write(out_dir, "diagnose.json", report)
    if verbose:
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_schedule(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    schedule = build_schedule(cfg.p, len(cfg.omega), cfg.tau, cfg.gamma, cfg.q,
                              k_max=cfg.k_max)
    rows = [schedule.level(k) for k in range(schedule.k_max + 1)]
    doc = {"p": schedule.p, "tau": schedule.tau, "gamma": schedule.gamma,
           "q": schedule.q, "theta": schedule.theta, "s0": schedule.s0,
           "eps0": schedule.eps0, "M0": schedule.M0, "levels": rows}
    _write(out_dir, "schedule.json", doc)
    header = f"{'k':>3} {'r_k':>12} {'s_k':>12} {'eps_k':>12} {'M_k':>12} {'b_k':>12} {'B_k':>10}"
    print(header)
    for row in rows:
        print(f"{row['k']:>3} {row['r']:>12.5e} {row['s']:>12.5e} "
              f"{row['eps']:>12.5e} {row['M']:>12.5e} {row['b']:>12.5e} {row['B']:>10.6f}")
    return 0


def cmd_diophantine(args) -> int:
    """Flag-driven Diophantine reports: frequency certificate, admissible
    sample fractions and divisor sums, emitted as JSON."""
    out_dir = Path(args.out)
    try:
        freq = certify_frequency(args.omega, args.K, args.sigma0)
    except ResonantFrequency as exc:
        print(f"rejection: ResonantFrequency at k = {exc.k}", file=sys.stderr)
        _write(out_dir, "diophantine.json",
               {"accepted": False, "reason": "ResonantFrequency", "k": list(exc.k)})
        return 2
    report = {"frequency": {"omega": list(freq.omega), "c": freq.c,
                            "sigma0": freq.sigma0, "K": freq.cutoff}}
    try:
        sample = sample_admissible(freq, args.gamma, args.tau, tuple(args.interval),
                                   args.K, args.count, args.seed)
    except NoneAdmissible as exc:
        report.update({"accepted": False, "reason": "NoneAdmissible"})
        _write(out_dir, "diophantine.json", report)
        print(f"rejection: {exc}", file=sys.stderr)
        return 2
    rot = sample.first
    report.update({
        "accepted": True,
        "acceptance_fraction": sample.fraction,
        "first_admissible": {"alpha": rot.alpha, "margin": _margin(rot)},
        "divisor_sums": [vars(divisor_sum_bound_check(freq, rot, m))
                         for m in (5, 10, 20) if m <= rot.cutoff],
    })
    _write(out_dir, "diophantine.json", report)
    if args.verbose:
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qpkam",
                                     description="invariant curves of quasi-periodic maps")
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
    dp.add_argument("--count", type=int, default=1000)
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--out", default="qpkam_out")
    dp.add_argument("--verbose", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "diophantine":
            seed = args.seed
            for flag in ("omega", "sigma0", "gamma", "tau", "interval"):
                value = getattr(args, flag)
                if value is not None and not np.all(np.isfinite(value)):
                    raise ValueError(f"--{flag} = {value} must be finite")
            if not args.interval[0] < args.interval[1]:
                raise ValueError(f"--interval {args.interval} must be two numbers a < b")
            _check_sigma0(args.sigma0, len(args.omega))
        else:
            cfg = ExperimentConfig.load(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            seed = cfg.seed
        if seed < 0:
            raise ValueError(f"seed = {seed} must be >= 0")
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    try:
        # a numeric blow-up ends in its typed error alone, without numpy's warnings
        with np.errstate(all="ignore"):
            if args.command == "diophantine":
                code = cmd_diophantine(args)
            else:
                handler = {"certify": cmd_certify, "solve": cmd_solve,
                           "diagnose": cmd_diagnose, "schedule": cmd_schedule}[args.command]
                code = handler(cfg, out_dir, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QpKamError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ResonantFrequency, NoneAdmissible)) else 3
    _metadata(out_dir, args.command)
    return code


if __name__ == "__main__":
    sys.exit(main())
