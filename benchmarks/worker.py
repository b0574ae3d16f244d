"""One workload process: set up, run a cold and a warm operation, report.

Started by run.py as a fresh interpreter with QPKAM_THREADS already in its
environment.  Set-up is timed from the parent's clock reading taken just
before the spawn (--t0, time.monotonic, which is system-wide) to the moment
the config is loaded through qpkam's own loader.  Both operations run the
same config, so the cold one's excess over the warm one is the cost that
only a fresh process pays.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from layers import Tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, help="checkout holding src/qpkam")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True, help="output directory of the CLI")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from qpkam.cli import ExperimentConfig, main as qpkam_main
    ExperimentConfig.load(args.config)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_ops(args, qpkam_main))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


def run_ops(args, qpkam_main) -> dict:
    import numpy as np

    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(wl, args.seed)
    config, out = Path(args.config), Path(args.out)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def one_op() -> dict:
        if tracer:
            tracer.reset()
        t = time.perf_counter()
        try:
            codes = [qpkam_main(workloads.op_argv(c, config, out)) for c in wl.commands]
        except Exception as exc:   # a crash is a failed operation, not a lost run
            return {"s": time.perf_counter() - t, "errors": [f"{type(exc).__name__}: {exc}"]}
        rec = {"s": time.perf_counter() - t,
               "errors": workloads.check(wl, args.seed, codes, out, reference)}
        if tracer and not rec["errors"]:
            rec["layers"] = tracer.snapshot()
            rec["layers"].update(kam_counts(wl, out))
        return rec

    return {"config_seed": wl.config_seed(args.seed), "cold": one_op(), "warm": one_op(),
            "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                    "blas": blas_version(np)}}


def kam_counts(wl, out: Path) -> dict:
    """KAM levels and Picard iterations of the last solve, from trace.json."""
    if wl.commands != ("solve",):
        return {"kam.levels": 0, "kam.picard_iters": 0}
    levels = json.loads((out / "trace.json").read_text())["levels"]
    return {"kam.levels": len(levels),
            "kam.picard_iters": sum(rec.get("contraction_iters", 0) for rec in levels)}


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


if __name__ == "__main__":
    sys.exit(main())
