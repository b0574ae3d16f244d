"""qpkam benchmark: one workload per invocation, run from the checkout root.

    python3 benchmarks/run.py --workload acceptance --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all       # every workload, one table

A run is one or more cycles.  A cycle starts one fresh workload process per
config of the workload, one after the other, in an order the seed picks.
Each process is a closed loop with one client: it times its set-up, then runs
a cold and a warm operation on its config, calling `qpkam.cli.main`
in-process, and checks both operations' outputs against the gates and the
recorded reference.  Cycles repeat until --seconds have passed.  PROBES more
processes only set up, for more set-up samples.  With --trace 1 the
processes wrap the layer entry points (layers.py) and the run reports
per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The environment and every per-operation
figure go to .bench_out/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

PROBES = 3
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "op_s": "s",
    "first_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "traced.op_s": "s",
    "qpfourier.eval_modes.calls": "count",
    "qpfourier.eval_modes.s": "s",
    "qpfourier.eval_modes.points": "count",
    "qpfourier.eval_modes.macs": "count",
    "qpfourier.synthesize.calls": "count",
    "qpfourier.synthesize.s": "s",
    "qpfourier.analyze.calls": "count",
    "qpfourier.analyze.s": "s",
    "qpfourier.cheb_eval_rows.s": "s",
    "qpfourier.compose_angle.s": "s",
    "qpfourier.invert_angle_map.s": "s",
    "diophantine.certify_frequency.s": "s",
    "diophantine.sample_admissible.s": "s",
    "diophantine.sample_admissible.peak_mb": "MB",
    "smoothing.smooth.calls": "count",
    "smoothing.smooth.s": "s",
    "cohomology.solve_coupled.calls": "count",
    "cohomology.solve_coupled.s": "s",
    "maps.intersection_witness.s": "s",
    "maps.image_curve.s": "s",
    "maps.exactness_defect.s": "s",
    "kam.normalize.s": "s",
    "kam.intersection_bound.s": "s",
    "kam.inductive_step.s": "s",
    "kam.inductive_step.self_s": "s",
    "kam.compose_conjugacy.s": "s",
    "kam.compose_conjugacy.self_s": "s",
    "kam.solve_back.s": "s",
    "kam.solve_back.self_s": "s",
    "kam.levels": "count",
    "kam.picard_iters": "count",
    "serialize.dump_json.s": "s",
}


class BenchError(Exception):
    pass


def threads() -> int:
    """QPKAM_THREADS for the workload processes: at most nproc, at most 2."""
    return min(2, len(os.sched_getaffinity(0)))


def environment() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": len(os.sched_getaffinity(0)),
            "mem_total_mb": round(pages / 2**20),
            "QPKAM_THREADS": str(threads()),
            "platform": platform.platform(),
            "computed_counts": ["qpfourier.eval_modes.points",
                                "qpfourier.eval_modes.macs"]}


def spawn(root: Path, deadline: float, **kw) -> dict:
    """Run worker.py to completion and return its result file."""
    result = Path(kw["result"])
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(root)]
    for key, val in kw.items():
        if val is True:
            argv.append(f"--{key.replace('_', '-')}")
        else:
            argv += [f"--{key.replace('_', '-')}", str(val)]
    env = dict(os.environ, QPKAM_THREADS=str(threads()))
    env.pop("PYTHONPATH", None)
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    argv += ["--t0", repr(t0)]
    proc = subprocess.Popen(argv, env=env, cwd=root, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded the run time limit: {argv}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.exists():
        raise BenchError(f"workload process failed with code {code}")
    return json.loads(result.read_text())


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = workloads.WORKLOADS[name]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = root / ".bench_work" / f"{name}_seed{seed}_trace{trace}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cycle = range(seed, seed + len(wl.seeds))
    for s in cycle:
        workloads.write_config(wl, s, work / f"config_{wl.config_seed(s)}.json")

    def start(s: int, **kw) -> dict:
        return spawn(root, deadline, workload=name, seed=s,
                     config=work / f"config_{wl.config_seed(s)}.json",
                     out=work / "out", result=work / "result.json", **kw)

    try:
        workers = []
        t_start = time.monotonic()
        while not workers or time.monotonic() - t_start < seconds:
            workers += [start(s, trace=trace) for s in cycle]
        probes = [start(seed, setup_only=True) for _ in range(PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workers, probes, trace)


def summarize(workers: list, probes: list, trace: int) -> dict:
    ops = [w[k] for w in workers for k in ("cold", "warm")]
    failed = sum(1 for op in ops if op["errors"])
    op_s = statistics.median(w["warm"]["s"] for w in workers)
    if trace:
        metrics = {"traced.op_s": op_s}
        traced = [w["warm"]["layers"] for w in workers if "layers" in w["warm"]]
        for key in PER_LAYER:
            if key != "traced.op_s":
                # no traced values only when every operation crashed
                metrics[key] = statistics.median(t[key] for t in traced) if traced else 0
        units = PER_LAYER
    else:
        metrics = {
            "op_s": op_s,
            "first_op_s": statistics.median(w["cold"]["s"] for w in workers),
            "setup_s": statistics.median(p["setup_s"] for p in workers + probes),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        }
        units = END_TO_END
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "errors": sorted({e for op in ops for e in op["errors"]}),
            "env": workers[0]["env"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "workers": workers,
            "probe_setup_s": [p["setup_s"] for p in probes]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qpkam" / "cli.py").is_file():
        print(f"benchmark: no qpkam sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        res["env"].update(env)
        res.update({"workload": name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace})
        (out_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(res, indent=1, sort_keys=True) + "\n")
        results[name] = res
        for err in res["errors"]:
            print(f"{name}: gate failed: {err}", file=sys.stderr)

    print("env: " + json.dumps(results[names[0]]["env"], sort_keys=True))
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"failed_frac {res['failed'] / res['attempted']:.3f}")
        for key, m in res["metrics"].items():
            print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
