"""Layer spans recorded from outside the program.

`Tracer.install` wraps the public entry points of each `qpkam` module and
rebinds every module attribute that refers to the wrapped function, so calls
through `from .qpfourier import eval_modes`-style bindings are counted too.
Spans nest on one stack; a span's self time is its inclusive time minus the
inclusive time of its direct traced children.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

LAYERS = {
    "qpfourier": ("eval_modes", "synthesize", "analyze", "cheb_eval_rows",
                  "compose_angle", "invert_angle_map"),
    "diophantine": ("certify_frequency", "sample_admissible"),
    "smoothing": ("smooth",),
    "cohomology": ("solve_coupled",),
    "maps": ("intersection_witness", "image_curve", "exactness_defect"),
    "kam": ("normalize", "intersection_bound", "inductive_step",
            "compose_conjugacy", "solve_back"),
    "serialize": ("dump_json",),
}
SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
# spans whose allocation peak is measured with tracemalloc
PEAK_MB = ("diophantine.sample_admissible",)


class Tracer:
    """Per-span call counts and times, plus eval_modes work counts."""

    def __init__(self):
        self._bindings = []          # (module, attribute, original)
        self._stack = []             # child-time accumulators of open spans
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.child = dict.fromkeys(SPANS, 0.0)
        self.peak_mb = dict.fromkeys(PEAK_MB, 0.0)
        self.points = 0
        self.macs = 0

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qpkam" or name.startswith("qpkam."))]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"qpkam.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._bindings.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._bindings):
            setattr(m, attr, orig)
        self._bindings = []

    def _wrap(self, name, fn):
        peak = name in PEAK_MB
        count_work = name == "qpfourier.eval_modes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_work:
                coeffs, theta_pts = args[0], args[1]
                P = theta_pts.shape[1]
                self.points += P
                self.macs += P * coeffs.size
            if peak:
                tracemalloc.start()
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.child[name] += self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                if peak:
                    _, top = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb[name], top / 2**20)

        wrapper.__wrapped_span__ = name
        return wrapper

    def snapshot(self) -> dict:
        """Per-layer metric values accumulated since the last reset."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.total[name] - self.child[name]
        for name in PEAK_MB:
            out[f"{name}.peak_mb"] = self.peak_mb[name]
        out["qpfourier.eval_modes.points"] = self.points
        out["qpfourier.eval_modes.macs"] = self.macs
        return out
