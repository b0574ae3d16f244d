"""Analytic smoothing of finitely differentiable quasi-periodic data.

The operator h -> h_delta multiplies shell Fourier coefficients by a C-infinity
low-pass symbol equal to 1 for |k|_1 <= 1/(2 delta) and 0 for |k|_1 >= 1/delta;
this is convolution with a kernel whose transform is that symbol (the flat
mollifier realization).  The Chebyshev index plays the role of the y-frequency
and is filtered by the same symbol.
"""

from __future__ import annotations

import math

import numpy as np

from .qpfourier import (
    StripDomain,
    StripFunction,
    default_grid,
    k1_norms,
    symmetrize,
    synthesize,
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


def smooth(projection: StripFunction, delta: float) -> StripFunction:
    """Analytic approximant h_delta of the map data h(x, y) = F(omega*x, y):
    the coefficient mollification of its Fourier x Chebyshev projection
    (StripFunction.from_sampler), holomorphic (as a truncated series) on
    E_delta.

    The projection does not depend on delta, so one serves every delta with
    the same Chebyshev scale s.  Quasi-periodicity and reality are preserved;
    the member is represented on D(delta, s) with s <= delta covering the
    disc in y.
    """
    if delta > 1.0:
        raise ValueError("delta <= 1 required")
    n = projection.n
    sym_x = lowpass_symbol(k1_norms(projection.K, n), delta)
    sym_y = lowpass_symbol(np.arange(projection.J + 1), delta)
    coeffs = projection.coeffs * sym_x[..., None] * sym_y
    return StripFunction(projection.freq, StripDomain(delta, projection.domain.s),
                         symmetrize(coeffs, n))


# constants of the Lemma-2.9-type smoothing inequalities, used by
# smallness_check; the tests fit them on lacunary data of known C^p norm and
# check that the fits stay below these
FROZEN_CONSTANTS = {"c0": 2.0, "c1": 2.0, "c2": 2.0}


def member_gap(fs, gs, ys) -> float:
    """Grid sup of |f - g| on the real torus at the y points ys over the
    pairs of the lists fs and gs, in one synthesis; every strip shares K."""
    if len({f.K for f in (*fs, *gs)}) > 1:
        raise ValueError("mode boxes differ in K")
    diff = np.stack([f.modes_at_y(ys) - g.modes_at_y(ys) for f, g in zip(fs, gs)], axis=-1)
    return float(np.max(np.abs(synthesize(diff, fs[0].n, default_grid(fs[0].K)))))
