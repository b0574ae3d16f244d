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
from dataclasses import dataclass
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
            raise ValueError("empty frequency vector")
        if not all(math.isfinite(w) and w != 0.0 for w in om):
            raise ValueError("frequencies must be finite and nonzero")
        object.__setattr__(self, "omega", om)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.omega)

    def same_omega(self, other: "Frequency") -> bool:
        return self.omega == other.omega


# ---------------------------------------------------------------------------
# lattice helpers (cached per (K, n))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _lattice(K: int, n: int):
    axes = [np.arange(-K, K + 1)] * n
    mesh = np.meshgrid(*axes, indexing="ij") if n > 1 else [axes[0]]
    kstack = np.stack(mesh)                       # (n,) + box shape
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


def extract_fft(grid_fft: np.ndarray, n: int, K: int) -> np.ndarray:
    """Centered mode box |k|_inf <= K of an (N,)*n FFT-layout array, divided
    by N^n."""
    N = grid_fft.shape[0]
    if N < 2 * K + 1:
        raise ValueError(f"grid N={N} cannot hold modes up to K={K}")
    idx = [_fft_indices(K, N)] * n
    return grid_fft[np.ix_(*idx)] / N**n


def synthesize(coeffs: np.ndarray, n: int, N: int) -> np.ndarray:
    """Values of sum_k c_k e^{i<k,theta>} on the uniform (N,)*n torus grid.

    One torus axis at a time, so each inverse FFT runs only over lines that
    hold modes: (2K+1)^(n-1-d) * N^d lines on axis d.
    """
    K = (coeffs.shape[0] - 1) // 2
    if N < 2 * K + 1:
        raise ValueError(f"grid N={N} cannot hold modes up to K={K}")
    idx = _fft_indices(K, N)
    out = coeffs
    for ax in range(n):
        spread = np.zeros(out.shape[:ax] + (N,) + out.shape[ax + 1:], dtype=complex)
        spread[(slice(None),) * ax + (idx,)] = out
        out = np.fft.ifft(spread, axis=ax, norm="forward")
    return out


def synthesize_grid(coeffs: np.ndarray, n: int, N: int) -> np.ndarray:
    """synthesize on theta_grid(N, n) for any box size: a box wider than N
    is synthesized on the smallest multiple L*N >= 2K+1, keeping every L-th
    point."""
    L = -(-coeffs.shape[0] // N)
    return synthesize(coeffs, n, L * N)[(slice(None, None, L),) * n]


def analyze(values: np.ndarray, n: int, K: int) -> np.ndarray:
    """Centered mode box from values on a uniform torus grid (extra axes kept).

    Under an active grid_eval_log, also records the largest discarded band:
    sum |c_k| over the shells K < |k|_inf <= (N-1)//2 that the grid resolves
    but the projection drops, summed over the extra axes.
    """
    grid_fft = np.fft.fftn(values, axes=tuple(range(n)))
    if _grid_logs:
        band = _band_mass(grid_fft, n, K)
        for log in _grid_logs:
            log["band"] = max(log["band"], band)
    return extract_fft(grid_fft, n, K)


def _band_mass(grid_fft: np.ndarray, n: int, K: int) -> float:
    B = (grid_fft.shape[0] - 1) // 2
    if B <= K:
        return 0.0
    mass = np.abs(extract_fft(grid_fft, n, B)).reshape((2 * B + 1,) * n + (-1,)).sum(axis=-1)
    mass[(slice(B - K, B + K + 1),) * n] = 0.0
    return float(mass.sum())


def theta_grid(N: int, n: int) -> np.ndarray:
    """Uniform torus grid, shape (n,) + (N,)*n."""
    t = TWO_PI * np.arange(N) / N
    mesh = np.meshgrid(*([t] * n), indexing="ij") if n > 1 else [t]
    return np.stack(mesh)


def default_grid(K: int) -> int:
    """Oversampled grid size: twice the alias-free minimum.

    Its users: the shell algebra and strip sampling of this module
    (shell_product, compose_angle, invert_angle_map, from_sampler),
    smoothing, cohomology, the shell compositions in maps and
    NormalizedMap.defect_sup.  The KAM collocation grids use
    kam.collocation_grid instead.
    """
    return max(2 * (2 * K + 1), 8)


def eval_modes(coeffs: np.ndarray, theta_pts: np.ndarray) -> np.ndarray:
    """Evaluate a centered mode box at scattered torus points.

    theta_pts has shape (n, P); returns shape (P,) + trailing axes of coeffs.
    Contracts one torus axis at a time to keep memory O(P * (2K+1)): the
    first as one matrix product, the later ones as a product per point.
    """
    n, P = theta_pts.shape
    K = (coeffs.shape[0] - 1) // 2
    ks = np.arange(-K, K + 1)
    phase = np.exp(1j * np.multiply.outer(theta_pts[0], ks))     # (P, 2K+1)
    res = phase @ coeffs.reshape(2 * K + 1, -1)
    for d in range(1, n):
        phase = np.exp(1j * np.multiply.outer(theta_pts[d], ks))
        res = res.reshape(P, 2 * K + 1, res.shape[1] // (2 * K + 1))
        res = (phase[:, None, :] @ res)[:, 0]
    return res.reshape((P,) + coeffs.shape[n:])


def symmetrize(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Average with the conjugate-reflected box.

    Enforces f_{-k} = conj(f_k) along the torus axes (reality class) on
    coefficients recovered from real data, where only roundoff breaks it: a
    defect above REALITY_TOL*(1 + scale) fails fast.
    """
    flipped = np.flip(coeffs, axis=tuple(range(n))).conj()
    defect = float(np.max(np.abs(coeffs - flipped))) * 0.5 if coeffs.size else 0.0
    scale = 1.0 + float(np.max(np.abs(coeffs))) if coeffs.size else 1.0
    if defect > REALITY_TOL * scale:
        raise RealityDefect(f"symmetrization defect {defect:.3e} (scale {scale:.3e})")
    return 0.5 * (coeffs + flipped)


def _pairwise_upper(amps: np.ndarray, n: int, weight_plus: np.ndarray,
                    weight_minus: np.ndarray) -> float:
    """Sum over conjugate pairs of max*e^{+} + min*e^{-} (each pair once)."""
    flipped = np.flip(amps, axis=tuple(range(n)))
    big = np.maximum(amps, flipped)
    small = np.minimum(amps, flipped)
    return float(0.5 * np.sum(big * weight_plus + small * weight_minus))


def sheet_sup(coeffs: np.ndarray, n: int, N: int) -> float:
    """Grid max of |f| on the real torus, over every mode box stacked on
    trailing axes.

    Boxes are synthesized one at a time: large grids stay cache-sized.
    """
    boxes = coeffs.reshape(coeffs.shape[:n] + (-1,))
    return max(float(np.max(np.abs(synthesize(boxes[..., b], n, N))))
               for b in range(boxes.shape[-1]))


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


def cheb_fit_last_axis(values: np.ndarray, J: int) -> np.ndarray:
    """Chebyshev coefficients along the last axis (values at cheb_nodes(J))."""
    return values @ cheb_analysis_matrix(J).T


def cheb_eval_rows(coeffs: np.ndarray, t) -> np.ndarray:
    """Clenshaw evaluation of per-row Chebyshev series at per-row points t.

    coeffs has shape (..., J+1); t broadcasts against the leading shape.
    """
    t = np.asarray(t)
    J = coeffs.shape[-1] - 1
    b1 = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], t.shape), dtype=coeffs.dtype)
    b2 = np.zeros_like(b1)
    for j in range(J, 0, -1):
        b1, b2 = 2 * t * b1 - b2 + coeffs[..., j], b1
    return t * b1 - b2 + coeffs[..., 0]


def cheb_disc_bounds(J: int, t: float) -> np.ndarray:
    """M_j(t) = max_{|z|<=t} |T_j(z)| for j = 0..J (attained at z = i t)."""
    out = np.empty(J + 1)
    out[0] = 1.0
    if J >= 1:
        out[1] = t
    for j in range(1, J):
        out[j + 1] = 2 * t * out[j] + out[j - 1]
    return out


# ---------------------------------------------------------------------------
# shell functions (quasi-periodic functions of one variable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellFunction:
    """Truncated Fourier series on the n-torus shell of a quasi-periodic f(t)."""

    freq: Frequency
    coeffs: np.ndarray    # complex, shape (2K+1,)*n

    @property
    def n(self) -> int:
        return self.freq.n

    @property
    def K(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

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
        return ShellFunction(freq, coeffs)

    @staticmethod
    def from_grid(values: np.ndarray, freq: Frequency, K: int) -> "ShellFunction":
        coeffs = symmetrize(analyze(np.asarray(values, dtype=complex), freq.n, K), freq.n)
        return ShellFunction(freq, coeffs)

    # -- evaluation ----------------------------------------------------------

    def eval(self, x) -> np.ndarray | complex:
        """Evaluate f(x) = sum_k f_k e^{i<k,omega>x}; x scalar or array."""
        x_arr = np.asarray(x, dtype=complex)
        theta = np.multiply.outer(self.freq.vec, x_arr.ravel())
        vals = eval_modes(self.coeffs, theta)
        vals = vals.reshape(x_arr.shape)
        return complex(vals) if vals.ndim == 0 else vals

    def sample(self, N: int) -> np.ndarray:
        """Real values on the uniform (N,)*n torus grid."""
        return synthesize(self.coeffs, self.n, N).real

    # -- algebra -------------------------------------------------------------

    def _aligned(self, other: "ShellFunction"):
        if not self.freq.same_omega(other.freq):
            raise ValueError("frequency mismatch")
        K = max(self.K, other.K)
        return self.pad_to(K), other.pad_to(K), K

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
            a, b, K = self._aligned(other)
            return ShellFunction(self.freq, a.coeffs + b.coeffs)
        f = ShellFunction(self.freq, self.coeffs.copy())
        f.coeffs[(self.K,) * self.n] += other
        return f

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, ShellFunction) else -other)

    def __mul__(self, scalar):
        return ShellFunction(self.freq, self.coeffs * scalar)

    __rmul__ = __mul__

    def derivative(self) -> "ShellFunction":
        """d/dt of f(t): multiply mode k by i<k,omega>."""
        kw = k_dot_omega(self.K, self.freq.vec)
        return ShellFunction(self.freq, self.coeffs * (1j * kw))

    def mean(self) -> float:
        return float(self.coeffs[(self.K,) * self.n].real)

    # -- norms ---------------------------------------------------------------

    def norm_upper(self, rho: float = 0.0) -> float:
        """Conjugate-pair coefficient bound for sup over the strip |Im theta_j| <= rho."""
        k1 = k1_norms(self.K, self.n)
        return _pairwise_upper(np.abs(self.coeffs), self.n,
                               np.exp(rho * k1), np.exp(-rho * k1))


def shell_product(f: ShellFunction, g: ShellFunction, K_out: int | None = None) -> ShellFunction:
    """Pointwise product computed on an alias-safe grid."""
    if not f.freq.same_omega(g.freq):
        raise ValueError("frequency mismatch")
    K_out = K_out if K_out is not None else f.K + g.K
    N = default_grid(max(K_out, f.K + g.K))
    vals = synthesize(f.coeffs, f.n, N) * synthesize(g.coeffs, g.n, N)
    return ShellFunction.from_grid(vals, f.freq, K_out)


def compose_angle(g: ShellFunction, f: ShellFunction, K_out: int) -> ShellFunction:
    """Quasi-periodic composition t -> g(t + f(t)) by shell collocation."""
    if not f.freq.same_omega(g.freq):
        raise ValueError("frequency mismatch")
    n = f.n
    N = default_grid(K_out)
    fvals = f.sample(N)
    theta = theta_grid(N, n).reshape(n, -1)
    shifted = theta + np.multiply.outer(f.freq.vec, fvals.ravel())
    gvals = eval_modes(g.coeffs, shifted).reshape((N,) * n)
    return ShellFunction.from_grid(gvals, f.freq, K_out)


def invert_angle_map(h: ShellFunction, K_out: int) -> ShellFunction:
    """Inverse displacement h1 with (t + h(t)) o (tau + h1(tau)) = id.

    Safeguarded Newton iteration (bisection when a step leaves the bracket) on
    a collocation grid for the residual v + h(tau + v), to a residual below
    1e-13 in at most 60 iterations; the beta = 1 case of the quasi-periodic
    inverse lemma.
    """
    n = h.n
    N = default_grid(max(K_out, h.K))
    dh = h.derivative()
    dvals = dh.sample(N)
    if float(np.min(1.0 + dvals)) <= 0.0:
        raise NotMonotone(f"min(1 + h') = {float(np.min(1.0 + dvals)):.3e}")
    theta = theta_grid(N, n).reshape(n, -1)
    stacked = np.stack([h.coeffs, dh.coeffs], axis=-1)
    omega = h.freq.vec
    # per point the residual v + h(tau + v) is strictly increasing in v
    # (1 + h' > 0), so the root is unique and bracketed by +-sup|h|
    bound = h.norm_upper(0.0) + 1e-12
    lo = np.full(theta.shape[1], -bound)
    hi = np.full(theta.shape[1], bound)
    v = np.zeros(theta.shape[1])
    for _ in range(60):
        shifted = theta + np.multiply.outer(omega, v)
        both = eval_modes(stacked, shifted).real
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
class StripFunction:
    """Fourier (torus shell) x Chebyshev (y on [-s, s]) representation.

    coeffs has shape (2K+1,)*n + (J+1,); the last axis multiplies T_j(y/s).
    """

    freq: Frequency
    domain: StripDomain
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.freq.n

    @property
    def K(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

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
        """Values on (theta grid)^n x cheb_nodes(J)*s, last axis the y nodes."""
        cheb = cheb_fit_last_axis(np.asarray(values, dtype=complex), J)
        return StripFunction(freq, domain, symmetrize(analyze(cheb, freq.n, K), freq.n))

    @staticmethod
    def from_sampler(sampler, freq: Frequency, domain: StripDomain, K: int,
                     J: int) -> "StripFunction":
        """Sample sampler(theta_stack, y), one y node per call, on the
        collocation grid and project."""
        th = theta_grid(default_grid(K), freq.n)
        vals = np.stack([np.broadcast_to(sampler(th, y), th.shape[1:])
                         for y in domain.s * cheb_nodes(J)], axis=-1)
        if not np.all(np.isfinite(vals)):
            raise SamplerNotFinite("sampler produced non-finite values")
        return StripFunction.from_grid(vals, freq, domain, K, J)

    # -- evaluation ----------------------------------------------------------

    def y_nodes(self) -> np.ndarray:
        return self.domain.s * cheb_nodes(self.J)

    def modes_at_y(self, y) -> np.ndarray:
        """Fourier mode boxes at fixed y values, shape (2K+1,)*n + np.shape(y)."""
        y = np.asarray(y)
        rows = self.coeffs.reshape(self.coeffs.shape[:-1] + (1,) * y.ndim + (self.J + 1,))
        return cheb_eval_rows(rows, y / self.domain.s)

    def sample(self, N: int | None = None, ys: np.ndarray | None = None,
               shift=0.0) -> np.ndarray:
        """Real values at (x + shift_j, y_j) on the torus grid, shape
        (N,)*n + (len(ys),); ys defaults to the Chebyshev nodes and shift is a
        scalar or one value per y.  One FFT synthesis covers all y."""
        N = N or default_grid(self.K)
        boxes = self.modes_at_y(self.y_nodes() if ys is None else np.asarray(ys))
        if np.any(shift):
            kw = k_dot_omega(self.K, self.freq.vec)[..., None]
            boxes = boxes * np.exp(1j * kw * shift)
        return synthesize_grid(boxes, self.n, N).real

    # -- algebra -------------------------------------------------------------

    def _check_compatible(self, other: "StripFunction"):
        if not self.freq.same_omega(other.freq):
            raise ValueError("frequency mismatch")
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("shape mismatch")
        if not math.isclose(self.domain.s, other.domain.s, rel_tol=1e-12):
            raise ValueError("Chebyshev scale mismatch")

    def __add__(self, other):
        if isinstance(other, StripFunction):
            self._check_compatible(other)
            dom = StripDomain(min(self.domain.r, other.domain.r), self.domain.s)
            return StripFunction(self.freq, dom, self.coeffs + other.coeffs)
        f = StripFunction(self.freq, self.domain, self.coeffs.copy())
        f.coeffs[(self.K,) * self.n + (0,)] += other
        return f

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, StripFunction) else -other)

    def __mul__(self, scalar):
        return StripFunction(self.freq, self.domain, self.coeffs * scalar)

    __rmul__ = __mul__

    def dx(self) -> "StripFunction":
        kw = k_dot_omega(self.K, self.freq.vec)
        return StripFunction(self.freq, self.domain, self.coeffs * (1j * kw[..., None]))

    def dy(self) -> "StripFunction":
        der = npcheb.chebder(np.moveaxis(self.coeffs, -1, 0), axis=0) / self.domain.s
        out = np.zeros_like(self.coeffs)
        out[..., : der.shape[0]] = np.moveaxis(der, 0, -1)
        return StripFunction(self.freq, self.domain, out)

    def shift_x(self, a: float) -> "StripFunction":
        kw = k_dot_omega(self.K, self.freq.vec)
        return StripFunction(self.freq, self.domain,
                             self.coeffs * np.exp(1j * kw * a)[..., None])

    def scale_y(self, factor: float) -> "StripFunction":
        """Reinterpret f(x, factor*y): same coefficients on s -> s/factor."""
        return StripFunction(self.freq, StripDomain(self.domain.r, self.domain.s / factor),
                             self.coeffs)

    def with_domain(self, domain: StripDomain, J_new: int | None = None) -> "StripFunction":
        """Re-expand on a new Chebyshev scale (exact for J_new >= J)."""
        J_new = self.J if J_new is None else J_new
        t_new = domain.s * cheb_nodes(J_new) / self.domain.s
        rows = cheb_eval_rows(self.coeffs[..., None, :],
                              np.broadcast_to(t_new, self.coeffs.shape[:-1] + (J_new + 1,)))
        return StripFunction(self.freq, domain, cheb_fit_last_axis(rows, J_new))

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
        amps = np.abs(self.coeffs) @ Mj
        k1 = k1_norms(self.K, self.n)
        return _pairwise_upper(amps, self.n, np.exp(rho * k1), np.exp(-rho * k1))


# Taylor orders of the grid path: the smallest M whose remainder bound meets
# TAYLOR_TOL, tried up to TAYLOR_MAX_ORDER before the direct fallback
TAYLOR_TOL = 2.0**-53
TAYLOR_MAX_ORDER = 24

# active grid_eval_log records; eval_strip_stack's grid path and analyze update them
_grid_logs: list = []


@contextmanager
def grid_eval_log():
    """Collect, over the block, the node slices evaluated on the grid path of
    eval_strip_stack, the largest Taylor order used, the direct fallbacks and
    the largest discarded band of analyze."""
    log = {"nodes": 0, "max_order": 0, "fallbacks": 0, "band": 0.0}
    _grid_logs.append(log)
    try:
        yield log
    finally:
        _grid_logs.remove(log)


def taylor_order(x: float) -> int | None:
    """Smallest M with x^(M+1)/(M+1)! * e^x <= TAYLOR_TOL, where x = W*delta
    bounds |<k,omega>| times the displacement spread; None when x is not
    finite or no M <= TAYLOR_MAX_ORDER meets the bound."""
    # for M + 1 <= x the term x^(M+1)/(M+1)! is >= 1: no order can pass
    if not 0.0 <= x < TAYLOR_MAX_ORDER + 1:
        return None
    term = math.exp(x)
    for M in range(TAYLOR_MAX_ORDER + 1):
        term *= x / (M + 1)
        if term <= TAYLOR_TOL:
            return M
    return None


def eval_strip_stack(strips, theta_pts, y_pts, disp=0.0) -> np.ndarray:
    """Values of same-shape strips at (theta_pts + omega*disp, y_pts).

    theta_pts is either scattered points of shape (n, P) or an int N, meaning
    the P = N^n points of theta_grid(N, n) in flattened order.  y_pts and disp
    broadcast to (P,) or to (P, nodes).  Returns shape (P,) + node shape +
    (len(strips),).  Real inputs give real values.

    Scattered points: each node slice is one eval_modes call on P points,
    which bounds the phase-tensor memory.  Grid: per node slice, with c the
    midpoint of its real displacements and delta = max|d - c|,
    f(theta + omega*(c + d)) = sum_{m <= M} d^m/m! IFFT[(i<k,omega>)^m
    e^{i<k,omega>c} f_k], with M = taylor_order(W*delta) and W = max|<k,omega>|
    (a relative remainder below TAYLOR_TOL of sum|f_k|).  A slice with no such
    M falls back to the direct eval_modes slice.
    """
    coeffs = np.stack([f.coeffs for f in strips], axis=-1)
    omega = strips[0].freq.vec
    grid = isinstance(theta_pts, (int, np.integer))
    if grid:
        N, n = int(theta_pts), len(omega)
        P = N**n
        kw = k_dot_omega(strips[0].K, omega)
        W = float(np.max(np.abs(kw)))
    else:
        P = theta_pts.shape[1]
    t = np.asarray(y_pts) / strips[0].domain.s
    disp = np.asarray(disp)
    nodes = np.broadcast_shapes(t.shape[1:], disp.shape[1:])
    t = np.broadcast_to(t, (P,) + nodes)
    d = np.broadcast_to(disp, (P,) + nodes)
    out = np.empty((P,) + nodes + (len(strips),), dtype=complex)
    for j in np.ndindex(*nodes):
        sl = (slice(None),) + j
        M = None
        if grid:
            dj = d[sl]
            c = 0.5 * (np.max(dj.real) + np.min(dj.real))
            dj = dj - c
            M = taylor_order(W * float(np.max(np.abs(dj))))
            for log in _grid_logs:
                log["nodes"] += 1
                if M is None:
                    log["fallbacks"] += 1
                else:
                    log["max_order"] = max(log["max_order"], M)
        if M is None:
            th = theta_grid(N, n).reshape(n, -1) if grid else theta_pts
            rows = eval_modes(coeffs, th + np.multiply.outer(omega, d[sl]))  # (P, J+1, m)
        else:
            # derivative boxes (i<k,omega>)^m/m! e^{i<k,omega>c} f_k, m = 0..M
            ms = np.arange(M + 1)
            fac = (1j * kw[..., None]) ** ms / np.array([math.factorial(m) for m in ms])
            fac = fac * np.exp(1j * kw * c)[..., None]
            derivs = synthesize_grid(coeffs[..., None, :, :] * fac[..., None, None], n, N)
            derivs = derivs.reshape((P, M + 1) + coeffs.shape[n:])
            rows = derivs[:, M]
            for m in range(M - 1, -1, -1):          # Horner in d
                rows = rows * dj[:, None, None] + derivs[:, m]
        out[sl] = cheb_eval_rows(np.moveaxis(rows, -1, -2), t[sl][..., None])
        derivs = rows = None        # free this slice before the next synthesis
    if all(np.isrealobj(a) for a in (theta_pts, y_pts, disp)):
        return out.real
    return out
