"""JSON serialization of shell functions (the phi and psi of curve.json).

Schema: {"omega": [...], "K": K, "re": [...], "im": [...]}: the real and
imaginary parts of the Hermitian half of the (2K+1)^n mode box, the c_k
with k up to and including k = 0 in lexicographic order; c_{-k} = conj c_k
gives the rest.  shell_from_dict ignores other keys.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import RealityDefect
from .qpfourier import Frequency, ShellFunction


def shell_to_dict(f: ShellFunction) -> dict:
    half = f.coeffs.reshape(-1)[:f.coeffs.size // 2 + 1]
    return {"omega": list(f.freq.omega), "K": f.K,
            "re": half.real.tolist(), "im": half.imag.tolist()}


def shell_from_dict(d: dict) -> ShellFunction:
    """The shell of a document.  ValueError for a document without K, re or
    im, without an omega array, or with re or im arrays of the wrong length
    or with a NaN or infinite entry; RealityDefect for a nonzero imaginary
    part at k = 0."""
    missing = [key for key in ("K", "re", "im") if key not in d]
    if missing:
        raise ValueError(f"a shell document needs the keys K, re and im; missing {missing}")
    if np.ndim(d.get("omega")) != 1:
        raise ValueError(f"a shell document needs omega as an array of frequencies, "
                         f"got {d.get('omega')!r}")
    freq = Frequency(tuple(d["omega"]))
    K, size = d["K"], None
    if isinstance(K, int) and K >= 0:
        size = (2 * K + 1) ** freq.n // 2 + 1
    re, im = np.asarray(d["re"], dtype=float), np.asarray(d["im"], dtype=float)
    if size is None or re.shape != (size,) or im.shape != (size,):
        raise ValueError(f"K = {K!r} at n = {freq.n} needs re and im arrays of "
                         f"{size} values, got shapes {re.shape} and {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("a shell document needs finite re and im values")
    if im[-1] != 0.0:
        raise RealityDefect(f"the mean c_0 = {re[-1]} + {im[-1]}j of a real function "
                            "must be real")
    half = re + 1j * im
    box = np.concatenate([half, half[-2::-1].conj()])
    return ShellFunction(freq, box.reshape((2 * K + 1,) * freq.n))


def dump_json(obj, path) -> None:
    """Canonical JSON dump: sorted keys, no whitespace variance.  Strict JSON:
    NaN and infinities raise ValueError, before the file is opened, so a
    failed dump leaves no partial file."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
