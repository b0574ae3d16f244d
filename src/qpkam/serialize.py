"""JSON serialization of shell functions (the phi and psi of curve.json).

Schema: {"omega": [...], "coeffs": [{"k": [k1..kn], "re": .., "im": ..}]}
Zero coefficients are omitted; entries are emitted in lexicographic order so
dumps are byte-stable for identical inputs.  shell_from_dict ignores other
keys, such as the "width" that older files carry.
"""

from __future__ import annotations

import json

import numpy as np

from .qpfourier import Frequency, ShellFunction, mode_vectors, symmetrize


def shell_to_dict(f: ShellFunction) -> dict:
    kvecs = mode_vectors(f.K, f.n).T
    flat = f.coeffs.reshape(-1)
    entries = []
    for k, c in zip(kvecs, flat):
        if c != 0:
            entries.append({"k": [int(v) for v in k], "re": float(c.real), "im": float(c.imag)})
    return {"omega": list(f.freq.omega), "coeffs": entries}


def shell_from_dict(d: dict) -> ShellFunction:
    """The shell of a shell_to_dict document, on the smallest box that holds
    its entries; ValueError for an entry whose k has not n components."""
    freq = Frequency(tuple(d["omega"]))
    entries = d.get("coeffs", [])
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
