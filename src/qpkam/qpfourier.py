"""Algebra of quasi-periodic shell functions and strip functions.

A quasi-periodic function f(t) = F(omega_1 t, ..., omega_n t) is represented by
the truncated Fourier coefficients of its shell function F on the n-torus,
stored on the centered lattice box {k : |k|_inf <= K}.  Functions of (x, y)
holomorphic on a strip D(r, s) = {|Im x| < r, |y| < s} carry an extra Chebyshev
index for the y dependence (basis T_j(y/s)).

Lattice magnitudes |k| inside analytic estimates (norm weights, Diophantine
bounds, divisor sums) are l1 norms; the storage/enumeration boxes are max-norm.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import (
    ConfigError,
    NoConvergence,
    NotMonotone,
    RealityDefect,
    SamplerNotFinite,
)

TWO_PI = 2.0 * np.pi

# Conjugate-symmetry defect above this (times scale) fails fast.
REALITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# frequency vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frequency:
    """Rationally independent frequency vector with optional Diophantine data.

    c and sigma0 certify |<k,omega>| >= c/|k|_1^sigma0 for all 0 < |k|_inf <= cutoff;
    they are filled in by diophantine.certify_frequency.
    """

    omega: tuple
    c: float | None = None
    sigma0: float | None = None
    cutoff: int = 0

    def __post_init__(self):
        om = tuple(float(w) for w in self.omega)
        if len(om) < 1:
            raise ConfigError("empty frequency vector")
        if not all(math.isfinite(w) and w != 0.0 for w in om):
            raise ConfigError("frequencies must be finite and nonzero")
        object.__setattr__(self, "omega", om)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.omega)


# ---------------------------------------------------------------------------
# lattice helpers (cached per (K, n))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _lattice(K: int, n: int):
    kstack = np.indices((2 * K + 1,) * n) - K     # (n,) + box shape
    k1 = np.abs(kstack).sum(axis=0)               # l1 norm, box shape
    return kstack, k1


def mode_vectors(K: int, n: int) -> np.ndarray:
    """All lattice vectors of the box |k|_inf <= K, shape (n, (2K+1)^n)."""
    kstack, _ = _lattice(K, n)
    return kstack.reshape(n, -1)


def k1_norms(K: int, n: int) -> np.ndarray:
    return _lattice(K, n)[1]


def k_dot_omega(K: int, omega: np.ndarray) -> np.ndarray:
    kstack, _ = _lattice(K, len(omega))
    return np.tensordot(np.asarray(omega), kstack, axes=1)


def _fft_indices(K: int, N: int) -> np.ndarray:
    return np.arange(-K, K + 1) % N


def synthesize(coeffs: np.ndarray, n: int, N: int) -> np.ndarray:
    """Real values of sum_k c_k e^{i<k,theta>} on the uniform (N,)*n torus
    grid, for a Hermitian box (c_{-k} = conj c_k along the torus axes).

    Reads the half box k_n >= 0 only.  One torus axis at a time, so each
    complex inverse FFT runs only over lines that hold modes: (2K+1)^(n-2-d)
    * (K+1) * N^d lines on axis d < n-1; then one irfft on the last axis.
    """
    K = (coeffs.shape[0] - 1) // 2
    if N < 2 * K + 1:
        raise ValueError(f"grid N={N} cannot hold modes up to K={K}")
    idx = _fft_indices(K, N)
    out = coeffs[(slice(None),) * (n - 1) + (slice(K, None),)]
    for ax in range(n - 1):
        spread = np.zeros(out.shape[:ax] + (N,) + out.shape[ax + 1:], dtype=complex)
        spread[(slice(None),) * ax + (idx,)] = out
        out = np.fft.ifft(spread, axis=ax, norm="forward")
    # irfft's own zero fill of a short last axis is slower than this one
    half = np.zeros(out.shape[:n - 1] + (N // 2 + 1,) + out.shape[n:], dtype=complex)
    half[(slice(None),) * (n - 1) + (slice(0, K + 1),)] = out
    return np.fft.irfft(half, n=N, axis=n - 1, norm="forward")


def synthesize_grid(coeffs: np.ndarray, n: int, N: int) -> np.ndarray:
    """synthesize on theta_grid(N, n) for any box size: a box wider than N
    is synthesized on the smallest multiple L*N >= 2K+1, keeping every L-th
    point."""
    L = -(-coeffs.shape[0] // N)
    return synthesize(coeffs, n, L * N)[(slice(None, None, L),) * n]


def analyze(values: np.ndarray, n: int, K: int) -> np.ndarray:
    """Centered mode box of real values on a uniform torus grid (extra axes
    kept): one rfftn over the torus axes gives the half box k_n >= 0, and
    c_{-k} = conj c_k the rest.  RealityDefect for complex values.

    Under an active grid_eval_log, also records the largest discarded band:
    sum |c_k| over the shells K < |k|_inf <= (N-1)//2 that the grid resolves
    but the projection drops, summed over the extra axes.
    """
    N = np.shape(values)[0]
    if N < 2 * K + 1:
        raise ValueError(f"grid N={N} cannot hold modes up to K={K}")
    if np.iscomplexobj(values):
        raise RealityDefect("complex values given to the real analysis")
    spectrum = np.fft.rfftn(values, axes=tuple(range(n)))
    if _grid_logs:
        band = _band_mass(spectrum, N, n, K)
        for log in _grid_logs:
            log["band"] = max(log["band"], band)
    half = spectrum[np.ix_(*[_fft_indices(K, N)] * (n - 1), np.arange(K + 1))] / N**n
    lower = np.flip(half[(slice(None),) * (n - 1) + (slice(1, None),)], axis=tuple(range(n)))
    return np.concatenate([lower.conj(), half], axis=n - 1)


def _band_mass(spectrum: np.ndarray, N: int, n: int, K: int) -> float:
    B = (N - 1) // 2
    if B <= K:
        return 0.0
    mass = np.abs(spectrum[(slice(None),) * (n - 1) + (slice(0, B + 1),)])
    mass = mass.reshape(mass.shape[:n] + (-1,)).sum(axis=-1)
    # drop the projected box and, on an even grid, the Nyquist planes
    mass[np.ix_(*[_fft_indices(K, N)] * (n - 1), np.arange(K + 1))] = 0.0
    for d in range(n - 1) if N % 2 == 0 else ():
        mass[(slice(None),) * d + (N // 2,)] = 0.0
    # each k_n > 0 stands for itself and its conjugate -k
    return float(mass.sum() + mass[..., 1:].sum()) / N**n


def theta_grid(N: int, n: int) -> np.ndarray:
    """Uniform torus grid, shape (n,) + (N,)*n."""
    return TWO_PI * np.indices((N,) * n) / N


def default_grid(K: int) -> int:
    """Oversampled grid size: twice the alias-free minimum.

    Its users: the shell algebra and strip sampling of this module
    (from_sampler, and compose_angle and invert_angle_map, whose shifted
    copies of this grid grid_shift_cheb synthesizes), smoothing, cohomology,
    the shell compositions in maps, and the sups of
    NormalizedMap.defect_sup and inductive_step.  The KAM collocation grids
    use kam.collocation_grid instead.
    """
    return max(2 * (2 * K + 1), 8)


# complex values of one eval_modes chunk's first product (512 KB)
EVAL_CHUNK = 2**15


def _powers(z: np.ndarray, out: np.ndarray) -> None:
    """out[k] = z^k for k = 0..len(out) - 1, by repeated multiplication: the
    error of z^k grows like k ulps of |z|^k, where exp(1j * k * theta) first
    rounds k * theta (an absolute error of k |theta| ulps)."""
    out[0] = 1.0
    for k in range(1, len(out)):
        np.multiply(out[k - 1], z, out=out[k])


def _phases(theta: np.ndarray, K: int) -> np.ndarray:
    """e^{ik theta} for k = -K..K on a new first axis, from one exp per entry:
    _powers of e^{i theta}, conjugated for k < 0 on real theta; complex theta,
    where e^{-ik theta} != conj(e^{ik theta}), takes _powers of e^{-i theta}."""
    out = np.empty((2 * K + 1,) + theta.shape, dtype=complex)
    _powers(np.exp(1j * theta), out[K:])
    if np.iscomplexobj(theta):
        _powers(np.exp(-1j * theta), out[K::-1])
    else:
        np.conjugate(out[:K:-1], out=out[:K])
    return out


def eval_modes(coeffs: np.ndarray, theta_pts: np.ndarray) -> np.ndarray:
    """Evaluate a centered mode box at scattered torus points.

    theta_pts has shape (n, P); returns shape (P,) + trailing axes of coeffs.
    The points go in chunks whose first product (the first torus axis)
    holds at most EVAL_CHUNK complex values; later axes contract per point.
    Each axis's phase table is _phases: one exp per point and axis (two on
    complex points), its powers for |k| <= K.
    """
    n, P = theta_pts.shape
    K = (coeffs.shape[0] - 1) // 2
    rows = coeffs.reshape(2 * K + 1, -1)
    step = max(1, EVAL_CHUNK // max(rows.shape[1], 1))
    out = np.empty((P, math.prod(coeffs.shape[n:])), dtype=complex)
    for lo in range(0, P, step):
        th = theta_pts[:, lo:lo + step]
        phase = _phases(th, K)                 # (2K+1, n, points)
        res = phase[:, 0].T @ rows
        for d in range(1, n):
            res = (phase[:, d].T[:, None, :] @ res.reshape(th.shape[1], 2 * K + 1, -1))[:, 0]
        out[lo:lo + step] = res
    return out.reshape((P,) + coeffs.shape[n:])


def symmetrize(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Average with the conjugate-reflected box.

    Enforces f_{-k} = conj(f_k) along the torus axes (reality class) on
    coefficients recovered from real data, where only roundoff breaks it: a
    defect above REALITY_TOL*(1 + scale), or a NaN one, fails fast.
    """
    flipped = np.flip(coeffs, axis=tuple(range(n))).conj()
    defect = float(np.max(np.abs(coeffs - flipped))) * 0.5 if coeffs.size else 0.0
    scale = 1.0 + float(np.max(np.abs(coeffs))) if coeffs.size else 1.0
    if not defect <= REALITY_TOL * scale:
        raise RealityDefect(f"symmetrization defect {defect:.3e} (scale {scale:.3e})")
    return 0.5 * (coeffs + flipped)


# ---------------------------------------------------------------------------
# Chebyshev helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def cheb_nodes(J: int) -> np.ndarray:
    """Roots of T_{J+1} on (-1, 1)."""
    m = np.arange(J + 1)
    return np.cos(np.pi * (2 * m + 1) / (2 * (J + 1)))


@lru_cache(maxsize=64)
def cheb_analysis_matrix(J: int) -> np.ndarray:
    """Matrix C with coeffs = values @ C.T for values at cheb_nodes(J)."""
    m = np.arange(J + 1)
    j = np.arange(J + 1)[:, None]
    C = np.cos(j * np.pi * (2 * m + 1) / (2 * (J + 1))) * (2.0 / (J + 1))
    C[0] *= 0.5
    return C


def cheb_eval_rows(coeffs: np.ndarray, t) -> np.ndarray:
    """Per-row Chebyshev series at per-row points t: the last axis of coeffs,
    shape (..., J+1), contracted with chebvander(t, J).

    t broadcasts against the leading shape.
    """
    J = coeffs.shape[-1] - 1
    basis = npcheb.chebvander(t, J).reshape(np.shape(t) + (J + 1,))
    return np.einsum("...j,...j->...", coeffs, basis)


def cheb_disc_bounds(J: int, t: float) -> np.ndarray:
    """M_j(t) = max_{|z|<=t} |T_j(z)| for j = 0..J (attained at z = i t)."""
    return np.abs(npcheb.chebvander(1j * t, J)[0])


# ---------------------------------------------------------------------------
# the uniform grid displaced along omega: Chebyshev interpolation in d
# ---------------------------------------------------------------------------

# orders of grid_shift_cheb: the smallest M whose interpolation bound meets
# SHIFT_TOL, tried up to SHIFT_MAX_ORDER (about W*delta = 11 for a single
# mode) before the callers' direct eval_modes fallback
SHIFT_TOL = 2.0**-53
SHIFT_MAX_ORDER = 40


def shift_order(amps: np.ndarray, kw: np.ndarray, delta: float) -> int | None:
    """Smallest M with sum_k a_k 2(|<k,omega>| delta/2)^(M+1)/(M+1)! <=
    SHIFT_TOL sum_k a_k for every column of amps (shape kw.shape + columns):
    the Chebyshev interpolation bound of d -> e^{i<k,omega>d} on an interval
    of half-width delta (Trefethen, ATAP ch. 7-8), weighted by each column's
    mode amplitudes a_k.  None when delta is not finite or no M <=
    SHIFT_MAX_ORDER meets the bound."""
    if not 0.0 <= delta < math.inf:
        return None
    k_axes = tuple(range(kw.ndim))
    half = 0.5 * delta * np.abs(kw).reshape(kw.shape + (1,) * (amps.ndim - kw.ndim))
    term = 2.0 * amps
    goal = SHIFT_TOL * np.sum(amps, axis=k_axes)
    for M in range(SHIFT_MAX_ORDER + 1):
        term *= half
        term /= M + 1
        if (term.sum(axis=k_axes) <= goal).all():
            return M
    return None


def _shift_phases(omega: np.ndarray, K: int, s: np.ndarray) -> np.ndarray:
    """e^{i<k,omega>s} on the mode box |k|_inf <= K for real s, shape (2K+1,)*n
    + s.shape: the product over the torus axes of the per-axis _phases of
    omega_d * s, n * s.size exp calls instead of one per mode and entry."""
    n = len(omega)
    table = 1.0
    for d in range(n):
        axis = _phases(omega[d] * s, K)                # (2K+1,) + s.shape
        table = table * axis.reshape((1,) * d + (2 * K + 1,) + (1,) * (n - 1 - d) + s.shape)
    return table


def grid_shift_cheb(coeffs: np.ndarray, omega: np.ndarray, theta, c: float,
                    delta: float) -> np.ndarray | None:
    """Chebyshev coefficients in d of a mode box (trailing axes kept) at
    theta + omega*d, for d in [c - delta, c + delta].

    theta is an int N, meaning the P = N^n points of theta_grid(N, n) in
    flattened order, or real scattered points of shape (n, P), as in
    eval_strip_stack.  Each mode's phase e^{i<k,omega>(c + delta t)}, taken
    as the product of per-axis power tables (_shift_phases), is fitted at
    t = cheb_nodes(M) on the mode box, and one batched synthesis
    (grid) or one eval_modes call (scattered) of the box times those fits
    gives the result, shape (P,) + trailing + (M+1,), which the callers
    evaluate at (d - c)/delta.  M = shift_order with one column per entry of
    the last trailing axis (a strip of a stack), amplitudes summed over the
    other trailing axes; the bound holds mode by mode, so at every point and
    real d each column's error is below SHIFT_TOL * its own sum|f_k|.  None
    (evaluate directly) for a non-finite c or delta or an order above
    SHIFT_MAX_ORDER.
    """
    n = len(omega)
    K = (coeffs.shape[0] - 1) // 2
    trailing = coeffs.shape[n:]
    kw = k_dot_omega(K, omega)
    columns = trailing[-1] if trailing else 1
    amps = np.abs(coeffs).reshape(kw.shape + (-1, columns)).sum(axis=-2)
    M = shift_order(amps, kw, delta) if math.isfinite(c) else None
    if M is None:
        return None
    phase = _shift_phases(omega, K, c + delta * cheb_nodes(M)) @ cheb_analysis_matrix(M).T
    boxes = coeffs[..., None] * phase.reshape(kw.shape + (1,) * len(trailing) + (M + 1,))
    if isinstance(theta, (int, np.integer)):
        return synthesize_grid(boxes, n, theta).reshape((theta**n,) + trailing + (M + 1,))
    return eval_modes(boxes, theta).real


def _displaced_points(omega: np.ndarray, theta, d: np.ndarray) -> np.ndarray:
    """The points theta + omega*d of a direct displaced evaluation, flattened
    to (n, d.size) in d's order.  theta is a grid size N (the P = N^n points
    of theta_grid(N, n), flattened) or scattered points of shape (n, P); d
    has shape (P,) or (P, Q), one displacement per point and column."""
    n = len(omega)
    if isinstance(theta, (int, np.integer)):
        theta = theta_grid(theta, n).reshape(n, -1)
    theta = theta.reshape(theta.shape + (1,) * (d.ndim - 1))
    return (theta + np.multiply.outer(omega, d)).reshape(n, d.size)


def _eval_shifted(coeffs, omega, N, d, cheb, c, delta) -> np.ndarray:
    """Values of a mode box at theta_grid(N, n) + omega*d, shape (N^n,) +
    trailing: cheb_eval_rows at (d - c)/delta of the box's grid_shift_cheb
    coefficients cheb, or eval_modes when cheb is None.
    """
    if cheb is None:
        return eval_modes(coeffs, _displaced_points(omega, N, d))
    t = (d - c) / delta if delta > 0 else np.zeros_like(d)
    return cheb_eval_rows(cheb, t.reshape(t.shape + (1,) * (cheb.ndim - 2)))


# ---------------------------------------------------------------------------
# the mode box shared by shell and strip functions
# ---------------------------------------------------------------------------

class _ModeBox:
    """Operations on a centered mode box: coeffs holds c_k for |k|_inf <= K on
    its first n axes, with any trailing axes (a strip's Chebyshev index) kept
    along, and freq is its Frequency.  Each result has the caller's type."""

    @property
    def n(self) -> int:
        return self.freq.n

    @property
    def K(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def __mul__(self, scalar):
        return replace(self, coeffs=self.coeffs * scalar)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * -1.0

    def _times_box(self, table: np.ndarray):
        """Mode k times table[k], table of shape (2K+1,)*n."""
        trailing = (1,) * (self.coeffs.ndim - self.n)
        return replace(self, coeffs=self.coeffs * table.reshape(table.shape + trailing))

    def dx(self):
        """d/dx along the shell: multiply mode k by i<k,omega>."""
        return self._times_box(1j * k_dot_omega(self.K, self.freq.vec))

    def _pair_bound(self, amps: np.ndarray, rho: float) -> float:
        """Conjugate-pair coefficient bound for the sup over |Im theta_j| <=
        rho, from the amplitudes amps on the box: each pair {k, -k} counts
        once, as max * e^{rho|k|_1} + min * e^{-rho|k|_1}."""
        k1 = k1_norms(self.K, self.n)
        flipped = np.flip(amps, axis=tuple(range(self.n)))
        big = np.maximum(amps, flipped)
        small = np.minimum(amps, flipped)
        return float(0.5 * np.sum(big * np.exp(rho * k1) + small * np.exp(-rho * k1)))


# ---------------------------------------------------------------------------
# shell functions (quasi-periodic functions of one variable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellFunction(_ModeBox):
    """Truncated Fourier series on the n-torus shell of a quasi-periodic f(t)."""

    freq: Frequency
    coeffs: np.ndarray    # complex, shape (2K+1,)*n

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(freq: Frequency, K: int) -> "ShellFunction":
        return ShellFunction(freq, np.zeros((2 * K + 1,) * freq.n, dtype=complex))

    @staticmethod
    def constant(freq: Frequency, value: float, K: int = 0) -> "ShellFunction":
        f = ShellFunction.zeros(freq, K)
        f.coeffs[(K,) * freq.n] = value
        return f

    @staticmethod
    def from_modes(freq: Frequency, modes: dict, K: int) -> "ShellFunction":
        """Real function from {k_tuple: amplitude}: each k != 0 also stores
        the conjugate amplitude at -k."""
        outside = [list(k) for k in modes if len(k) != freq.n or max(map(abs, k)) > K]
        if outside:
            raise ConfigError(f"modes {outside} need {freq.n} components in |k_i| <= K = {K}")
        coeffs = np.zeros((2 * K + 1,) * freq.n, dtype=complex)
        for k, a in modes.items():
            idx = tuple(int(ki) + K for ki in k)
            coeffs[idx] += a
            if any(ki != 0 for ki in k):
                ridx = tuple(-int(ki) + K for ki in k)
                coeffs[ridx] += np.conj(a)
            elif np.imag(a) != 0:
                raise ConfigError(f"the mean amplitude {a} of a real function must be real")
        return ShellFunction(freq, coeffs)

    @staticmethod
    def from_grid(values: np.ndarray, freq: Frequency, K: int) -> "ShellFunction":
        """Real values on the uniform (N,)*n torus grid; RealityDefect for
        complex ones."""
        return ShellFunction(freq, symmetrize(analyze(values, freq.n, K), freq.n))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x) -> np.ndarray | complex:
        """Evaluate f(x) = sum_k f_k e^{i<k,omega>x}; x scalar or array."""
        x_arr = np.asarray(x)
        theta = np.multiply.outer(self.freq.vec, x_arr.ravel())
        vals = eval_modes(self.coeffs, theta)
        vals = vals.reshape(x_arr.shape)
        return complex(vals) if vals.ndim == 0 else vals

    def sample(self, N: int) -> np.ndarray:
        """Real values on the uniform (N,)*n torus grid."""
        return synthesize(self.coeffs, self.n, N)

    # -- algebra -------------------------------------------------------------

    def pad_to(self, K: int) -> "ShellFunction":
        if K == self.K:
            return self
        if K < self.K:
            raise ValueError("cannot shrink mode box")
        pad = K - self.K
        coeffs = np.pad(self.coeffs, [(pad, pad)] * self.n)
        return ShellFunction(self.freq, coeffs)

    def __add__(self, other):
        if isinstance(other, ShellFunction):
            if self.freq.omega != other.freq.omega:
                raise ValueError("frequency mismatch")
            K = max(self.K, other.K)
            return ShellFunction(self.freq, self.pad_to(K).coeffs + other.pad_to(K).coeffs)
        f = ShellFunction(self.freq, self.coeffs.copy())
        f.coeffs[(self.K,) * self.n] += other
        return f

    def mean(self) -> float:
        return float(self.coeffs[(self.K,) * self.n].real)

    # -- norms ---------------------------------------------------------------

    def norm_upper(self, rho: float = 0.0) -> float:
        """Conjugate-pair coefficient bound for sup over the strip |Im theta_j| <= rho."""
        return self._pair_bound(np.abs(self.coeffs), rho)


def compose_angle(g: ShellFunction, f: ShellFunction, K_out: int) -> ShellFunction:
    """Quasi-periodic composition t -> g(t + f(t)) by shell collocation.

    g is interpolated in the displacement over the range of the sampled f
    (grid_shift_cheb, c its midpoint and delta its half-spread) and the
    interpolant is evaluated at the f values; direct eval_modes when the
    interpolant needs an order above SHIFT_MAX_ORDER.
    """
    if f.freq.omega != g.freq.omega:
        raise ValueError("frequency mismatch")
    N = default_grid(K_out)
    fvals = f.sample(N).ravel()
    lo, hi = float(np.min(fvals)), float(np.max(fvals))
    c, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    cheb = grid_shift_cheb(g.coeffs, f.freq.vec, N, c, delta)
    gvals = _eval_shifted(g.coeffs, f.freq.vec, N, fvals, cheb, c, delta).real
    return ShellFunction.from_grid(gvals.reshape((N,) * f.n), f.freq, K_out)


def invert_angle_map(h: ShellFunction, K_out: int) -> ShellFunction:
    """Inverse displacement h1 with (t + h(t)) o (tau + h1(tau)) = id.

    Safeguarded Newton iteration (bisection when a step leaves the bracket) on
    a collocation grid for the residual v + h(tau + v), to a residual below
    1e-13 in at most 60 iterations; the beta = 1 case of the quasi-periodic
    inverse lemma.  The root lies in -range(h), inside the bracket
    [c - delta, c + delta] with c = -[h] and delta = norm_upper(h - [h]) >=
    sup|h - [h]|; Newton starts at v = c.  One grid_shift_cheb call on [h, h']
    over that bracket serves every iteration as a cheb_eval_rows call.  Once
    the interpolated residual is below 1e-13 a direct eval_modes call checks
    it on the true h, and Newton goes on with direct values if the check
    fails.
    """
    n = h.n
    N = default_grid(max(K_out, h.K))
    dh = h.dx()
    dvals = dh.sample(N)
    if float(np.min(1.0 + dvals)) <= 0.0:
        raise NotMonotone(f"min(1 + h') = {float(np.min(1.0 + dvals)):.3e}")
    stacked = np.stack([h.coeffs, dh.coeffs], axis=-1)
    omega = h.freq.vec
    # per point the residual v + h(tau + v) is strictly increasing in v
    # (1 + h' > 0), so the root is unique; the pad keeps a root on the
    # bracket's end inside it under roundoff
    c = -h.mean()
    delta = (h - h.mean()).norm_upper(0.0) + 1e-12
    cheb = grid_shift_cheb(stacked, omega, N, c, delta)
    lo = np.full(N**n, c - delta)
    hi = np.full(N**n, c + delta)
    v = np.full(N**n, c)
    for _ in range(60):
        both = _eval_shifted(stacked, omega, N, v, cheb, c, delta).real
        res = v + both[:, 0]
        if cheb is not None and float(np.max(np.abs(res))) < 1e-13:
            cheb = None         # check on the true h, and go on with it
            both = _eval_shifted(stacked, omega, N, v, cheb, c, delta).real
            res = v + both[:, 0]
        hi = np.where(res > 0, np.minimum(hi, v), hi)
        lo = np.where(res <= 0, np.maximum(lo, v), lo)
        if float(np.max(np.abs(res))) < 1e-13:
            break
        slope = np.maximum(1.0 + both[:, 1], 1e-3)
        cand = v - res / slope
        # closed bracket: a converged point's step lands on its own endpoint
        inside = (cand >= lo) & (cand <= hi)
        v = np.where(inside, cand, 0.5 * (lo + hi))
    else:
        raise NoConvergence(
            f"angle inversion stalled at residual = {float(np.max(np.abs(res))):.3e}")
    return ShellFunction.from_grid(v.reshape((N,) * n), h.freq, K_out)


# ---------------------------------------------------------------------------
# strip functions (quasi-periodic in x, polynomial in y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripDomain:
    r: float
    s: float

    def __post_init__(self):
        if not (self.r > 0 and self.s > 0):
            raise ValueError("strip domain needs r > 0 and s > 0")

    def shrink_x(self, rho: float) -> "StripDomain":
        return StripDomain(self.r - rho, self.s)


@dataclass(frozen=True)
class StripFunction(_ModeBox):
    """Fourier (torus shell) x Chebyshev (y on [-s, s]) representation.

    coeffs has shape (2K+1,)*n + (J+1,); the last axis multiplies T_j(y/s).
    """

    freq: Frequency
    domain: StripDomain
    coeffs: np.ndarray

    @property
    def J(self) -> int:
        return self.coeffs.shape[-1] - 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(freq: Frequency, domain: StripDomain, K: int, J: int) -> "StripFunction":
        return StripFunction(freq, domain,
                             np.zeros((2 * K + 1,) * freq.n + (J + 1,), dtype=complex))

    @staticmethod
    def from_grid(values: np.ndarray, freq: Frequency, domain: StripDomain,
                  K: int, J: int) -> "StripFunction":
        """Real values on (theta grid)^n x cheb_nodes(J)*s, last axis the y
        nodes; RealityDefect for complex ones."""
        cheb = np.asarray(values) @ cheb_analysis_matrix(J).T
        return StripFunction(freq, domain, symmetrize(analyze(cheb, freq.n, K), freq.n))

    @staticmethod
    def from_sampler(sampler, freq: Frequency, domain: StripDomain, K: int,
                     J: int) -> "StripFunction":
        """Sample sampler(theta_stack, y) on the collocation grid and project,
        in one call: theta_stack has shape (n,) + (N,)*n + (1,), y holds the
        J+1 Chebyshev nodes and broadcasts against the point axes."""
        th = theta_grid(default_grid(K), freq.n)[..., None]
        vals = np.broadcast_to(sampler(th, domain.s * cheb_nodes(J)),
                               th.shape[1:-1] + (J + 1,))
        if not np.all(np.isfinite(vals)):
            raise SamplerNotFinite("sampler produced non-finite values")
        return StripFunction.from_grid(vals, freq, domain, K, J)

    # -- evaluation ----------------------------------------------------------

    def y_nodes(self) -> np.ndarray:
        return self.domain.s * cheb_nodes(self.J)

    def modes_at_y(self, y) -> np.ndarray:
        """Fourier mode boxes at fixed y values, shape (2K+1,)*n + np.shape(y)."""
        y = np.asarray(y)
        basis = npcheb.chebvander(y / self.domain.s, self.J).reshape(-1, self.J + 1)
        return (self.coeffs @ basis.T).reshape(self.coeffs.shape[:-1] + y.shape)

    # -- algebra -------------------------------------------------------------

    def _check_compatible(self, other: "StripFunction"):
        if self.freq.omega != other.freq.omega:
            raise ValueError("frequency mismatch")
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("shape mismatch")
        if not math.isclose(self.domain.s, other.domain.s, rel_tol=1e-12):
            raise ValueError("Chebyshev scale mismatch")

    def __add__(self, other: "StripFunction"):
        self._check_compatible(other)
        dom = StripDomain(min(self.domain.r, other.domain.r), self.domain.s)
        return StripFunction(self.freq, dom, self.coeffs + other.coeffs)

    def shift_x(self, a: float) -> "StripFunction":
        return self._times_box(np.exp(1j * k_dot_omega(self.K, self.freq.vec) * a))

    def scale_y(self, factor: float) -> "StripFunction":
        """Reinterpret f(x, factor*y): same coefficients on s -> s/factor."""
        return StripFunction(self.freq, StripDomain(self.domain.r, self.domain.s / factor),
                             self.coeffs)

    def with_domain(self, domain: StripDomain, J_new: int | None = None) -> "StripFunction":
        """Re-expand on a new Chebyshev scale (exact for J_new >= J)."""
        J_new = self.J if J_new is None else J_new
        basis = npcheb.chebvander(domain.s * cheb_nodes(J_new) / self.domain.s, self.J)
        return StripFunction(self.freq, domain,
                             self.coeffs @ (cheb_analysis_matrix(J_new) @ basis).T)

    def mean_value(self) -> np.ndarray:
        """Chebyshev coefficients (real) of [f](y), the k = 0 slice."""
        return self.coeffs[(self.K,) * self.n].real.copy()

    def mean_poly(self) -> np.ndarray:
        """Monomial coefficients b_m of [f](y) = sum_m b_m y^m."""
        cheb_c = self.mean_value()
        poly_t = npcheb.cheb2poly(cheb_c)            # in t = y/s
        return poly_t / self.domain.s ** np.arange(len(poly_t))

    # -- norms ---------------------------------------------------------------

    def norm_upper(self, rho: float | None = None, sigma: float | None = None) -> float:
        """Coefficient bound for sup over D(rho, sigma) (y on the complex disc)."""
        rho = self.domain.r if rho is None else rho
        sigma = self.domain.s if sigma is None else sigma
        Mj = cheb_disc_bounds(self.J, sigma / self.domain.s)
        return self._pair_bound(np.abs(self.coeffs) @ Mj, rho)


# active grid_eval_log records; eval_strip_stack's grid path and analyze update them
_grid_logs: list = []


@contextmanager
def grid_eval_log():
    """Collect, over the block, the node slices served by the grid_shift_cheb
    calls of eval_strip_stack's grid path and of kam's pullback Newton (each
    reported through log_shift_build), the largest Chebyshev order in the
    displacement d that those calls used, the node slices evaluated directly
    instead (fallbacks) and the largest discarded band of analyze."""
    log = {"nodes": 0, "max_order": 0, "fallbacks": 0, "band": 0.0}
    _grid_logs.append(log)
    try:
        yield log
    finally:
        _grid_logs.remove(log)


def log_shift_build(nodes: int, cheb: np.ndarray | None) -> None:
    """Count one grid_shift_cheb result serving `nodes` node slices in every
    active grid_eval_log; a None result (direct evaluation) counts them as
    fallbacks."""
    for log in _grid_logs:
        log["nodes"] += nodes
        log["fallbacks"] += nodes if cheb is None else 0
        log["max_order"] = max(log["max_order"], 0 if cheb is None else cheb.shape[-1] - 1)


def sample_strip_stack(strips, N: int, ys=None, shift=0.0) -> np.ndarray:
    """Real values of same-shape strips at (x + shift_j, y_j) on
    theta_grid(N, n), shape (N^n, len(ys), len(strips)): eval_strip_stack's
    layout.  ys defaults to the strips' own Chebyshev nodes; shift is a
    scalar or one value per y.  One synthesis covers every strip and every y.
    """
    f = strips[0]
    ys = f.y_nodes() if ys is None else np.asarray(ys)
    boxes = np.stack([g.modes_at_y(ys) for g in strips], axis=-1)
    if np.any(shift):
        kw = k_dot_omega(f.K, f.freq.vec)[..., None]
        boxes = boxes * np.exp(1j * kw * shift)[..., None]
    return synthesize(boxes, f.n, N).reshape(N**f.n, len(ys), len(strips))


def eval_strip_stack(strips, theta_pts, y_pts, disp=0.0) -> np.ndarray:
    """Values of same-shape strips at (theta_pts + omega*disp, y_pts).

    theta_pts is either scattered points of shape (n, P) or an int N, meaning
    the P = N^n points of theta_grid(N, n) in flattened order.  y_pts and disp
    are each a scalar, a (P,) array (one value per point, the same in every
    node column) or a (P,) + node shape array; the first axis is always the
    points.  Returns shape (P,) + node shape + (len(strips),).  Real inputs
    give real values, summed in float64.

    Grid: one grid_shift_cheb call on the stacked strips (one synthesis,
    whatever the number of nodes) interpolates in d over [c - delta, c +
    delta], the midpoint and half-width of every displacement of the call, at
    an order that bounds each strip's error by SHIFT_TOL times its own
    sum|f_kj|; two batched products then evaluate every node slice at once,
    chebvander(y/s) against the interpolant's y axis and chebvander((d -
    c)/delta) against its d axis.  Scattered points, complex or non-finite
    displacements, or an order above SHIFT_MAX_ORDER evaluate directly: one
    eval_modes call (memory bounded by its chunks) on all P*Q points, or on
    the P points alone when one disp column serves every node, then the sum
    over the Chebyshev rows at y/s as one batched matrix product;
    grid_eval_log counts the node slices of a grid call evaluated this way as
    fallbacks.
    """
    coeffs = np.stack([f.coeffs for f in strips], axis=-1)
    omega, J, m = strips[0].freq.vec, strips[0].J, len(strips)
    grid = isinstance(theta_pts, (int, np.integer))
    P = int(theta_pts) ** len(omega) if grid else theta_pts.shape[1]
    t = np.asarray(y_pts) / strips[0].domain.s
    disp = np.asarray(disp)
    nodes = np.broadcast_shapes(t.shape[1:], disp.shape[1:])
    Q = math.prod(nodes)
    # a (P,) array keeps its values on the points axis, not the node axis
    t, disp = (x.reshape(x.shape + (1,) * (len(nodes) + 1 - x.ndim)) if x.ndim else x
               for x in (t, disp))
    d = np.broadcast_to(disp, (P,) + nodes).reshape(P, Q)
    real = all(np.isrealobj(a) for a in (theta_pts, y_pts, disp))
    cheb = None
    if grid:
        if np.isrealobj(d):
            lo, hi = float(np.min(d)), float(np.max(d))
            c, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
            cheb = grid_shift_cheb(coeffs, omega, int(theta_pts), c, delta)
        log_shift_build(Q, cheb)
    ty = npcheb.chebvander(np.broadcast_to(t, (P,) + nodes), J).reshape(P, Q, J + 1)
    if cheb is not None:        # the sum in y on (P, Q, m, M+1), then the sum in d
        M = cheb.shape[-1] - 1
        cheb_y = (ty @ cheb.reshape(P, J + 1, m * (M + 1))).reshape(P, Q, m, M + 1)
        td = npcheb.chebvander((d - c) / delta if delta > 0 else np.zeros_like(d), M)
        return (cheb_y @ td[..., None]).reshape((P,) + nodes + (m,))
    cols = 1 if math.prod(disp.shape[1:]) == 1 else Q
    pts = _displaced_points(omega, theta_pts, d[:, :cols])
    rows = eval_modes(coeffs, pts).reshape(P, cols, J + 1, m)
    out = ty.reshape(P, cols, Q // cols, J + 1) @ (rows.real if real else rows)
    return out.reshape((P,) + nodes + (m,))
