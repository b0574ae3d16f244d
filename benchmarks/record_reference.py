"""Record the reference outputs the correctness gates compare against.

    python3 benchmarks/record_reference.py [workload ...]

Runs every vetted config of each named workload (all by default) once,
untraced, from the checkout root, and writes benchmarks/reference/<name>.json
keyed by config seed.  Re-record only when a change is meant to alter the
curves or the diagnostics, and say so in the change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import workloads

ROOT = Path.cwd()
os.environ.setdefault("QPKAM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

from qpkam.cli import main as qpkam_main  # noqa: E402


def record(wl: workloads.Workload, work: Path) -> dict:
    doc = {}
    for i, cseed in enumerate(wl.seeds):
        cfg, out = work / f"{wl.name}_{cseed}.json", work / f"{wl.name}_{cseed}"
        workloads.write_config(wl, i, cfg)
        codes = [qpkam_main(workloads.op_argv(c, cfg, out)) for c in wl.commands]
        if any(codes):
            raise SystemExit(f"{wl.name} seed {cseed}: exit codes {codes}")
        doc[str(cseed)] = workloads.observe(wl, out)
        print(f"{wl.name} seed {cseed}: recorded", file=sys.stderr)
    return doc


def main(names) -> int:
    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names or sorted(workloads.WORKLOADS):
            doc = record(workloads.WORKLOADS[name], work)
            (workloads.REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
