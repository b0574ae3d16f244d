"""Analytic smoothing of finitely differentiable quasi-periodic data.

The operator h -> h_delta multiplies shell Fourier coefficients by a C-infinity
low-pass symbol equal to 1 for |k|_1 <= 1/(2 delta) and 0 for |k|_1 >= 1/delta;
this is convolution with a kernel whose transform is that symbol (the flat
mollifier realization).  The Chebyshev index plays the role of the y-frequency
and is filtered by the same symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    stacked torus coordinates (shape (n, ...)) of the line trace h(x, y) =
    F(omega*x, y).  p may be fractional; cp_norm is the declared C^p bound.
    """

    shell_sampler: callable
    p: float
    cp_norm: float
    freq: Frequency


def smooth(h: SampledCpFunction, delta: float, K_trunc: int, J: int,
           domain_s: float) -> StripFunction:
    """Analytic approximant h_delta as a Fourier x Chebyshev projection with
    coefficient mollification; holomorphic (as a truncated series) on E_delta.

    Quasi-periodicity and reality are preserved; the member is represented on
    D(delta, domain_s) with domain_s <= delta covering the disc in y.
    """
    if delta > 1.0:
        raise ValueError("delta <= 1 required")
    n = h.freq.n
    dom = StripDomain(delta, float(domain_s))
    f = StripFunction.from_sampler(h.shell_sampler, h.freq, dom, K_trunc, J)
    sym_x = lowpass_symbol(k1_norms(K_trunc, n), delta)
    sym_y = lowpass_symbol(np.arange(J + 1), delta)
    coeffs = f.coeffs * sym_x[..., None] * sym_y
    return StripFunction(h.freq, dom, symmetrize(coeffs, n))


# constants of the Lemma-2.9-type smoothing inequalities, used by
# smallness_check and normalize's level-0 bound; the tests fit them on
# lacunary data of known C^p norm and check that the fits stay below these
FROZEN_CONSTANTS = {"c0": 2.0, "c1": 2.0, "c2": 2.0}


def member_gap(f: StripFunction, g: StripFunction, ys) -> float:
    """Grid sup of |f - g| on the real torus at the y points ys; f and g
    share K."""
    if f.K != g.K:
        raise ValueError(f"mode boxes differ: K = {f.K} and {g.K}")
    return sheet_sup(f.modes_at_y(ys) - g.modes_at_y(ys), f.n, default_grid(f.K))
