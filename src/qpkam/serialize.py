"""JSON serialization of shell functions (the phi and psi of curve.json).

Schema: {"omega": [...], "K": K, "re": [...], "im": [...]}: the real and
imaginary parts of the Hermitian half of the (2K+1)^n mode box, the c_k
with k up to and including k = 0 in lexicographic order; c_{-k} = conj c_k
gives the rest.  shell_from_dict also reads the older form {"omega": [...],
"coeffs": [{"k": [k1..kn], "re": .., "im": ..}]}, which lists every nonzero
c_k, and ignores other keys, such as the "width" that older files carry.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import RealityDefect
from .qpfourier import Frequency, ShellFunction, symmetrize


def shell_to_dict(f: ShellFunction) -> dict:
    half = f.coeffs.reshape(-1)[:f.coeffs.size // 2 + 1]
    return {"omega": list(f.freq.omega), "K": f.K,
            "re": half.real.tolist(), "im": half.imag.tolist()}


def shell_from_dict(d: dict) -> ShellFunction:
    """The shell of a document in either form.  Compact form: ValueError
    for re or im arrays of the wrong length, RealityDefect for a nonzero
    imaginary part at k = 0.  Older form: the smallest box that holds the
    entries; ValueError for an entry whose k has not n components."""
    freq = Frequency(tuple(d["omega"]))
    if "coeffs" not in d:
        K, size = d["K"], None
        if isinstance(K, int) and K >= 0:
            size = (2 * K + 1) ** freq.n // 2 + 1
        re, im = np.asarray(d["re"], dtype=float), np.asarray(d["im"], dtype=float)
        if size is None or re.shape != (size,) or im.shape != (size,):
            raise ValueError(f"K = {K!r} at n = {freq.n} needs re and im arrays of "
                             f"{size} values, got shapes {re.shape} and {im.shape}")
        if im[-1] != 0.0:
            raise RealityDefect(f"the mean c_0 = {re[-1]} + {im[-1]}j of a real function "
                                "must be real")
        half = re + 1j * im
        box = np.concatenate([half, half[-2::-1].conj()])
        return ShellFunction(freq, box.reshape((2 * K + 1,) * freq.n))
    entries = d["coeffs"]
    for e in entries:
        if len(e["k"]) != freq.n:
            raise ValueError(f"coefficient k = {e['k']} needs {freq.n} components")
    K = max((max(abs(int(v)) for v in e["k"]) for e in entries), default=0)
    coeffs = np.zeros((2 * K + 1,) * freq.n, dtype=complex)
    for e in entries:
        idx = tuple(int(v) + K for v in e["k"])
        coeffs[idx] = e["re"] + 1j * e["im"]
    # a real function lists c_{-k} = conj c_k: the synthesis reads half the box
    return ShellFunction(freq, symmetrize(coeffs, freq.n))


def dump_json(obj, path) -> None:
    """Canonical JSON dump: sorted keys, no whitespace variance.  Strict JSON:
    NaN and infinities raise ValueError, before the file is opened, so a
    failed dump leaves no partial file."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
