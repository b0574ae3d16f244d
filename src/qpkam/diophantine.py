"""Diophantine certification of frequencies and rotation numbers.

Certification is finite: conditions are verified for all lattice vectors in
the max-norm box 0 < |k|_inf <= K and the cutoff K is recorded, which covers
every divisor a truncated solver can touch.  Magnitudes |k| inside the bounds
are l1 norms.  Lattice scans run vectorized over the whole box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoneAdmissible, ResonantFrequency
from .qpfourier import Frequency, k1_norms, mode_vectors

RESONANCE_TOL = 1e-14
TIE_TOL = 1e-15      # equality slack: closed inequalities in exact arithmetic
# elements of one (alpha chunk x lattice) float temporary in _chunk_pass (4 MB)
ALPHA_CHUNK_ELEMS = 1 << 19


@functools.lru_cache(maxsize=16)
def _half_box(K: int, n: int) -> np.ndarray:
    """Flat mask of the box 0 < |k|_inf <= K that keeps one of each +-k pair:
    the k whose first nonzero component is positive."""
    kvecs = mode_vectors(K, n)                    # (n, (2K+1)^n)
    lead = np.zeros(kvecs.shape[1], dtype=bool)
    undecided = np.ones(kvecs.shape[1], dtype=bool)
    for d in range(n):
        lead |= undecided & (kvecs[d] > 0)
        undecided &= kvecs[d] == 0
    return lead


def _box_k1_and_kw(omega: np.ndarray, K: int):
    """l1 norms and <k,omega> on the half box, in its flat order."""
    n = len(omega)
    keep = _half_box(K, n)
    kw = (mode_vectors(K, n).T @ omega)[keep]
    return k1_norms(K, n).ravel()[keep], kw


def _half_box_vector(K: int, n: int, i: int) -> tuple:
    """The i-th lattice vector of the half box, for a report."""
    return tuple(int(v) for v in mode_vectors(K, n)[:, np.flatnonzero(_half_box(K, n))[i]])


def certify_frequency(omega, K: int, sigma0: float | None = None) -> Frequency:
    """Largest c with |<k,omega>| >= c/|k|_1^sigma0 on the box 0 < |k|_inf <= K."""
    if K < 1:
        raise ConfigError("K >= 1 required")
    om = Frequency(tuple(omega)).vec
    if sigma0 is None:
        sigma0 = float(len(om))
    k1, kw = _box_k1_and_kw(om, K)
    akw = np.abs(kw)
    worst = int(np.argmin(akw))
    if akw[worst] <= RESONANCE_TOL:
        raise ResonantFrequency(_half_box_vector(K, len(om), worst), akw[worst])
    c = float(np.min(akw * k1**sigma0))
    return Frequency(tuple(om), c=c, sigma0=float(sigma0), cutoff=int(K))


@dataclass(frozen=True)
class RotationNumber:
    """alpha with |<k,omega>alpha/(2pi) - j| >= gamma/|k|_1^tau up to cutoff K."""

    alpha: float
    freq: Frequency
    gamma: float
    tau: float
    cutoff: int
    margin: float = math.inf   # min over the box of dist*|k|^tau/gamma (>= 1)


@dataclass(frozen=True)
class RejectionReport:
    alpha: float
    reason: str
    k: tuple | None = None
    j: int | None = None
    margin: float | None = None     # None for an alpha outside the interval

    def __bool__(self):
        return False


def _admissible_interval(gamma: float, tau: float, interval, n: int, K: int):
    """The interval shrunk by gamma/12^3 at each end, after checking K >= 1,
    tau > n and 0 < gamma < min(1, 12^3(b-a))/2."""
    a, b = interval
    if K < 1:
        raise ConfigError("K >= 1 required")
    if not tau > n:
        raise ConfigError(f"tau = {tau} must exceed n = {n}")
    if not (0.0 < gamma < 0.5 * min(1.0, 12.0**3 * (b - a))):
        raise ConfigError(f"gamma = {gamma} outside (0, min(1, 12^3(b-a))/2)")
    pad = gamma / 12.0**3
    return a + pad, b - pad


def certify_rotation(alpha: float, freq: Frequency, gamma: float, tau: float,
                     interval, K: int):
    """Accept alpha into the admissible class or return a RejectionReport."""
    lo, hi = _admissible_interval(gamma, tau, interval, freq.n, K)
    if not (lo <= alpha <= hi):
        return RejectionReport(alpha, "interval")
    k1, kw = _box_k1_and_kw(freq.vec, K)
    x = kw * alpha / (2.0 * math.pi)
    # gamma < 1/2 and |k| >= 1: only the nearest integer can violate the bound
    j = np.round(x)
    dist = np.abs(x - j)
    k1_tau = k1**tau
    bound = gamma / k1_tau
    margins = dist * k1_tau / gamma
    bad = dist < bound - TIE_TOL
    if np.any(bad):
        worst = int(np.argmin(np.where(bad, margins, np.inf)))
        return RejectionReport(alpha, "divisor", k=_half_box_vector(K, freq.n, worst),
                               j=int(j[worst]), margin=float(margins[worst]))
    return RotationNumber(float(alpha), freq, float(gamma), float(tau), int(K),
                          float(np.min(margins)))


def _chunk_pass(alphas: np.ndarray, kw: np.ndarray, bound: np.ndarray,
                k1_tau: np.ndarray, gamma: float):
    """Per alpha of one chunk: whether every divisor line of the box holds, and
    the min margin dist*|k|^tau/gamma, with certify_rotation's elementwise
    operations.  The (chunk x lattice) temporaries reduce along contiguous
    rows and die when this returns."""
    x = np.multiply.outer(alphas, kw) / (2.0 * math.pi)
    dist = np.abs(x - np.round(x))
    return np.all(dist >= bound, axis=1), np.min(dist * k1_tau / gamma, axis=1)


class AdmissibleSample:
    """Draws certified in draw order, in chunks of 1, 1, 2, 4, ... draws, up
    to ALPHA_CHUNK_ELEMS (alpha x lattice) elements a chunk.

    Construction stops after the chunk that holds the first admissible draw,
    `first` (None if no draw is admissible).  The first read of mask,
    accepted or fraction certifies the remaining draws and drops the box.
    """

    def __init__(self, alphas: np.ndarray, inside: np.ndarray, freq: Frequency,
                 gamma: float, tau: float, K: int):
        k1, self._kw = _box_k1_and_kw(freq.vec, K)
        self._k1_tau = k1**tau
        self._bound = gamma / self._k1_tau - TIE_TOL
        self._step = max(1, ALPHA_CHUNK_ELEMS // len(self._kw))
        self._gamma = gamma
        self._cert = (freq, float(gamma), float(tau), int(K))   # of each RotationNumber
        self.alphas = alphas
        self._ok = inside                 # drawn inside the padded interval; becomes mask
        self._margin = np.empty(len(alphas))
        self._done = 0
        while self._done < len(alphas) and not self._ok[:self._done].any():
            self._certify_chunk()
        hits = np.flatnonzero(self._ok[:self._done])
        self.first = self._rotation(hits[0]) if len(hits) else None

    def _certify_chunk(self) -> None:
        i = self._done
        j = min(i + min(self._step, max(1, i)), len(self.alphas))
        ok, margin = _chunk_pass(self.alphas[i:j], self._kw, self._bound,
                                 self._k1_tau, self._gamma)
        self._ok[i:j] &= ok
        self._margin[i:j] = margin
        self._done = j
        if j == len(self.alphas):
            self._kw = self._bound = self._k1_tau = None

    def _rotation(self, i: int) -> RotationNumber:
        return RotationNumber(float(self.alphas[i]), *self._cert, float(self._margin[i]))

    @property
    def mask(self) -> np.ndarray:
        while self._done < len(self.alphas):
            self._certify_chunk()
        return self._ok

    @functools.cached_property
    def accepted(self) -> list:
        return [self._rotation(i) for i in np.flatnonzero(self.mask)]

    @property
    def fraction(self) -> float:
        return float(self.mask.mean())


def sample_admissible(freq: Frequency, gamma: float, tau: float, interval,
                      K: int, count: int, seed: int = 0) -> AdmissibleSample:
    """Uniform draws from the padded interval, certified in draw order up to
    the first admissible one; each accepted RotationNumber equals
    certify_rotation's for that alpha."""
    if count < 1:
        raise ConfigError("count >= 1 required")
    lo, hi = _admissible_interval(gamma, tau, interval, freq.n, K)
    alphas = np.random.default_rng(seed).uniform(lo, hi, count)
    inside = (alphas >= lo) & (alphas <= hi)
    sample = AdmissibleSample(alphas, inside, freq, gamma, tau, K)
    if sample.first is None:
        raise NoneAdmissible(
            f"0/{count} admissible at gamma = {gamma:.3e}; decrease gamma")
    return sample


# ---------------------------------------------------------------------------
# small divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorSumReport:
    m: int
    lhs: float
    rhs: float | None     # None where the bound overflows a double
    passed: bool


def divisor_sum_bound_check(freq: Frequency, alpha: RotationNumber, m: int) -> DivisorSumReport:
    """Direct sum of |e^{i<k,omega>alpha}-1|^{-2} over 0 < |k|_1 <= m against
    the bound (3^{n+3}/8) gamma^{-2} m^{2 tau}; m may not exceed the
    certified cutoff.  A bound beyond the largest double holds for every
    finite lhs."""
    if m > alpha.cutoff:
        raise ValueError(f"m = {m} exceeds certified cutoff {alpha.cutoff}")
    n = freq.n
    kvecs = mode_vectors(m, n)
    k1 = np.abs(kvecs).sum(axis=0)
    kw = kvecs[:, (k1 > 0) & (k1 <= m)].T @ freq.vec
    lhs = float(np.sum(np.abs(np.exp(1j * kw * alpha.alpha) - 1.0) ** -2.0))
    try:
        rhs = 3.0 ** (n + 3) / 8.0 * alpha.gamma**-2.0 * float(m) ** (2.0 * alpha.tau)
    except OverflowError:
        rhs = math.inf
    return DivisorSumReport(int(m), lhs, rhs if math.isfinite(rhs) else None,
                            bool(lhs <= rhs))
