"""Analytic smoothing of finitely differentiable quasi-periodic data.

The operator h -> h_delta multiplies shell Fourier coefficients by a C-infinity
low-pass symbol equal to 1 for |k|_1 <= 1/(2 delta) and 0 for |k|_1 >= 1/delta;
this is convolution with a kernel whose transform is that symbol (the flat
mollifier realization).  The Chebyshev index plays the role of the y-frequency
and is filtered by the same symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QTooLarge
from .qpfourier import (
    Frequency,
    StripDomain,
    StripFunction,
    default_grid,
    k1_norms,
    sheet_sup,
    symmetrize,
)


def lowpass_symbol(knorm: np.ndarray, delta: float) -> np.ndarray:
    """C-infinity ramp: 1 for |k| <= 1/(2 delta), 0 for |k| >= 1/delta."""
    lo = 0.5 / delta
    hi = 1.0 / delta
    t = np.clip((np.asarray(knorm, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return b / (a + b)


def q_bound(p: float, tau: float) -> tuple[float, float]:
    """The two branches of the q constraint: ((p-2tau-1)/(p+1))log2 and 1e-2*4^-tau."""
    return (p - 2.0 * tau - 1.0) / (p + 1.0) * math.log(2.0), 1e-2 * 4.0**-tau


@dataclass
class SampledCpFunction:
    """Finitely differentiable quasi-periodic map data.

    shell_sampler(theta_stack, y) evaluates the shell function F(theta, y) on
    stacked torus coordinates (shape (n, ...)); the line trace h(x, y) =
    F(omega*x, y) is derived.  p may be fractional; cp_norm is the declared
    C^p bound used by smallness checks.
    """

    shell_sampler: callable
    p: float
    cp_norm: float
    freq: Frequency

    def sample_line(self, x, y):
        x_arr = np.asarray(x, dtype=float)
        theta = np.multiply.outer(self.freq.vec, x_arr)
        return self.shell_sampler(theta, y)


def smooth(h: SampledCpFunction, delta: float, K_trunc: int, J: int = 0,
           domain_s: float | None = None) -> StripFunction:
    """Analytic approximant h_delta as a Fourier x Chebyshev projection with
    coefficient mollification; holomorphic (as a truncated series) on E_delta.

    Quasi-periodicity and reality are preserved; the member is represented on
    D(delta, domain_s) with domain_s <= delta covering the disc in y.
    """
    if delta > 1.0:
        raise ValueError("delta <= 1 required")
    n = h.freq.n
    s_box = float(domain_s if domain_s is not None else delta)
    f = StripFunction.from_sampler(h.shell_sampler, h.freq, StripDomain(delta, s_box),
                                   K_trunc, J)
    sym_x = lowpass_symbol(k1_norms(K_trunc, n), delta)
    sym_y = lowpass_symbol(np.arange(J + 1), delta)
    coeffs = f.coeffs * sym_x[..., None] * sym_y
    coeffs, _ = symmetrize(coeffs, n)
    return StripFunction(h.freq, StripDomain(delta, s_box), coeffs)


# frozen calibration constants for Lemma-2.9-type inequalities; fitted once on
# a corpus of known-norm trig data (see tests) and used by smallness reports
FROZEN_CONSTANTS = {"c0": 2.0, "c1": 2.0, "c2": 2.0}


@dataclass
class SmoothingFamily:
    deltas: np.ndarray
    members: list
    c0: float
    c1: float
    c2: float
    report: dict = field(default_factory=dict)


def _family_fit(h: SampledCpFunction, deltas, members) -> dict:
    """Measured ratios behind the three smoothing inequalities."""
    sup_h = float(np.max(np.abs(h.sample_line(np.linspace(0.0, 200.0, 2048), 0.0))))
    xs = np.linspace(0.0, 200.0, 1024)
    h_line = h.sample_line(xs, 0.0)
    out = {"bounded": [], "approx": [], "cauchy_pairs": []}
    for delta, hd in zip(deltas, members):
        lhs = hd.norm_lower(delta, hd.domain.s)
        out["bounded"].append(lhs / max(sup_h, 1e-300))
        err = float(np.max(np.abs(h_line - hd.eval_xy(xs, 0.0).real)))
        out["approx"].append(err / max(h.cp_norm * delta**h.p, 1e-300))
    for i in range(len(members)):           # delta' = deltas[i]
        for jj in range(i + 1, len(members)):   # delta = deltas[jj] < delta'
            small, big = members[jj], members[i]
            ys = np.linspace(-small.domain.s, small.domain.s, 5)
            diff_sup = member_gap(small, big, ys, deltas[jj])
            out["cauchy_pairs"].append(
                diff_sup / max(h.cp_norm * deltas[i]**h.p, 1e-300))
    return out


def member_gap(f: StripFunction, g: StripFunction, ys, rho: float = 0.0) -> float:
    """Grid sup of |f - g| at the y points ys and, for rho > 0, on the
    imaginary-x corner sheets |Im x| = rho at y = 0; f and g share K."""
    if f.K != g.K:
        raise ValueError(f"mode boxes differ: K = {f.K} and {g.K}")
    N = default_grid(f.K)
    gap = sheet_sup(f.modes_at_y(ys) - g.modes_at_y(ys), f.n, N)
    if rho > 0:
        gap = max(gap, sheet_sup(f.modes_at_y(0.0) - g.modes_at_y(0.0), f.n, N, rho))
    return gap


def build_family(h: SampledCpFunction, q: float, depth: int, tau: float,
                 K_trunc: int, J: int = 0) -> SmoothingFamily:
    """Members h_{delta_k}, delta_k = ((1+q)/2)^k, with empirically fitted
    constants making the three smoothing inequalities hold on the family."""
    b_smooth, b_abs = q_bound(h.p, tau)
    if not 0.0 < q <= min(b_smooth, b_abs) + 1e-15:
        raise QTooLarge(q, b_smooth, b_abs)
    deltas = ((1.0 + q) / 2.0) ** np.arange(depth + 1)
    members = [smooth(h, d, K_trunc, J) for d in deltas]
    fit = _family_fit(h, deltas, members)
    c0 = max(max(fit["bounded"], default=0.0), 1.0)
    c1 = max(max(fit["approx"], default=0.0), 1e-12)
    c2 = max(max(fit["cauchy_pairs"], default=0.0), 1e-12)
    return SmoothingFamily(deltas, members, c0, c1, c2, fit)
