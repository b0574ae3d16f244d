"""JSON serialization of shell functions (the phi and psi of curve.json).

Schema: {"omega": [...], "K": K, "re": [...], "im": [...]}: the real and
imaginary parts of the Hermitian half of the (2K+1)^n mode box, the c_k
with k up to and including k = 0 in lexicographic order; c_{-k} = conj c_k
gives the rest.  shell_from_dict ignores other keys.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import RealityDefect
from .qpfourier import Frequency, ShellFunction


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or float, not a bool, that converts to a finite double: JSON's
    NaN and Infinity, and an int beyond the largest double, are not numbers
    here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def shell_to_dict(f: ShellFunction) -> dict:
    half = f.coeffs.reshape(-1)[:f.coeffs.size // 2 + 1]
    return {"omega": list(f.freq.omega), "K": f.K,
            "re": half.real.tolist(), "im": half.imag.tolist()}


def shell_from_dict(d: dict) -> ShellFunction:
    """The shell of a document.  ValueError for a document without K, re or
    im, without an omega array of numbers, with a K that is no integer >= 0,
    or with re or im arrays of the wrong length or with an entry that is no
    finite number (is_int and is_number: a bool or a string is neither);
    RealityDefect for a nonzero imaginary part at k = 0."""
    missing = [key for key in ("K", "re", "im") if key not in d]
    if missing:
        raise ValueError(f"a shell document needs the keys K, re and im; missing {missing}")
    omega = d.get("omega")
    if np.ndim(omega) != 1 or not all(map(is_number, omega)):
        raise ValueError(f"a shell document needs omega as an array of frequencies, "
                         f"got {omega!r}")
    freq = Frequency(tuple(omega))
    K, size = d["K"], None
    if is_int(K) and K >= 0:
        size = (2 * K + 1) ** freq.n // 2 + 1
    re, im = np.asarray(d["re"], dtype=float), np.asarray(d["im"], dtype=float)
    if size is None or re.shape != (size,) or im.shape != (size,):
        raise ValueError(f"K = {K!r} at n = {freq.n} needs re and im arrays of "
                         f"{size} values, got shapes {re.shape} and {im.shape}")
    if not all(map(is_number, list(d["re"]) + list(d["im"]))):
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
