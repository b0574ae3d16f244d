"""Smoothing operator: reproduction, order-p error decay, family inequalities."""

import math

import numpy as np
import pytest
from conftest import SampledCpFunction, build_family, eval_xy, sample_line

from qpkam.errors import SamplerNotFinite
from qpkam.qpfourier import Frequency, ShellFunction, StripDomain, StripFunction, eval_modes
from qpkam.smoothing import FROZEN_CONSTANTS, lowpass_symbol, q_bound, smooth

FREQ = Frequency((1.0, math.sqrt(2.0)))
NU = 1.0 + math.sqrt(2.0)


def lacunary_norm(p, cs, mults, n_grid=400_001):
    """Exact C^p norm of sum_j c_j cos(m_j nu x): the function is periodic in
    u = nu*x, so even-derivative sups are attained at u = 0 and odd ones on a
    dense single period."""
    u = np.linspace(0.0, 2.0 * math.pi, n_grid)
    sines = np.sin(np.multiply.outer(mults, u))
    norm = 0.0
    for i in range(int(p) + 1):
        amps = cs * (mults * NU) ** i
        if i % 2 == 0:
            norm += float(np.sum(amps))
        else:
            norm += float(np.max(np.abs(amps @ sines)))
    return norm


def lacunary(p=6.0, jmax=8, base=64.0, exact_norm=False):
    """h(x) = sum_j c_j cos(2^{j-1} nu x), modes k_j = (2^{j-1}, 2^{j-1}).

    Commensurate harmonics make h periodic in u = nu*x; |k_j|_1 = 2^j puts
    each mode exactly at a dyadic filter edge.  With exact_norm=False the
    cheap even-sum surrogate is declared (under-estimates the true norm, so
    fitted ratios are conservative).
    """
    js = np.arange(1, jmax + 1)
    cs = base * 2.0 ** (-p * js)
    mults = 2.0 ** (js - 1)

    def shell(theta, y):
        u = theta[0] + theta[1]
        return np.sum(cs[:, None] * np.cos(np.multiply.outer(mults, np.ravel(u))),
                      axis=0).reshape(np.shape(u))

    if exact_norm:
        norm = lacunary_norm(p, cs, mults)
    else:
        norm = sum(float(np.sum(cs * (mults * NU) ** i)) for i in range(0, int(p) + 1, 2))
    h = SampledCpFunction(shell, p, norm, FREQ)
    return h, js, cs, mults


def test_lowpass_symbol_edges():
    delta = 0.25
    ks = np.array([0.0, 1.0, 2.0, 2.0001, 3.0, 3.9999, 4.0, 5.0])
    sym = lowpass_symbol(ks, delta)
    assert np.all(sym[ks <= 2.0] == 1.0)
    assert np.all(sym[ks >= 4.0] == 0.0)
    assert np.all(np.diff(sym) <= 1e-15)


def test_smooth_reproduces_trig_polynomial():
    # all modes |k|_1 <= 2 pass exactly once 1/(2 delta) >= 2
    modes = {(1, 0): 0.3, (0, 1): 0.2 - 0.1j, (1, 1): 0.05}
    f = ShellFunction.from_modes(FREQ, modes, K=2)
    proj = StripFunction.from_sampler(
        lambda th, y: eval_modes(f.coeffs, th.reshape(2, -1)).real.reshape(th.shape[1:]),
        FREQ, StripDomain(0.25, 0.25), K=4, J=0)
    hd = smooth(proj, 0.25)
    xs = np.linspace(0, 20, 100)
    assert np.max(np.abs(eval_xy(hd, xs, 0.0).real - f.eval(xs).real)) < 1e-12


def test_smooth_zero():
    proj = StripFunction.from_sampler(lambda th, y: np.zeros(th.shape[1:]), FREQ,
                                      StripDomain(0.5, 0.5), K=4, J=2)
    hd = smooth(proj, 0.5)
    assert float(np.max(np.abs(hd.coeffs))) == 0.0


def test_smooth_rejects_nonfinite():
    with pytest.raises(SamplerNotFinite):
        smooth(StripFunction.from_sampler(lambda th, y: np.full(th.shape[1:], np.nan), FREQ,
                                          StripDomain(0.5, 0.5), 4, 0), 0.5)


def test_smoothing_order_slope():
    p = 6.0
    h, js, cs, mults = lacunary(p=p)
    xs = np.linspace(0.0, 40.0, 4001)     # includes x = 0 where tails align
    h_line = sample_line(h, xs, 0.0)
    deltas = 2.0 ** -np.arange(3, 9)
    errs = []
    for d in deltas:
        hd = smooth(StripFunction.from_sampler(h.shell_sampler, FREQ, StripDomain(d, d),
                                               K=130, J=0), d)
        errs.append(float(np.max(np.abs(h_line - eval_xy(hd, xs, 0.0).real))))
        # exact tail oracle: blocked coefficients sum
        tail = float(np.sum(cs[2.0**js >= 1.0 / d]))
        assert errs[-1] == pytest.approx(tail, rel=1e-6, abs=1e-14)
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert abs(slope - p) <= 0.3


def test_q_bound_example():
    b_smooth, b_abs = q_bound(8.0, 2.5)
    assert b_smooth == pytest.approx((8 - 6) / 9 * math.log(2), rel=1e-12)
    assert b_smooth == pytest.approx(0.15403, abs=1e-5)
    assert b_abs == pytest.approx(3.125e-4, rel=1e-12)
    assert min(b_smooth, b_abs) == pytest.approx(3.125e-4, rel=1e-12)


def test_build_family_depth_zero():
    h, *_ = lacunary(jmax=3)
    fam = build_family(h, q=3e-4, depth=0, K_trunc=16, J=0)
    assert len(fam.members) == 1
    assert fam.deltas[0] == 1.0


def test_family_constants_and_inequalities():
    h, *_ = lacunary(jmax=5)
    fam = build_family(h, q=4e-4, depth=7, K_trunc=36, J=0)
    assert fam.c0 >= 1.0
    # the frozen config constants must dominate measured ratios on fresh
    # instances (the per-family fits only certify their own family)
    for base in (17.0, 3.0):
        fam2 = build_family(lacunary(p=6.0, jmax=5, base=base)[0],
                            q=4e-4, depth=7, K_trunc=36, J=0)
        assert fam2.c0 <= FROZEN_CONSTANTS["c0"]
        assert fam2.c1 <= FROZEN_CONSTANTS["c1"]
        assert fam2.c2 <= FROZEN_CONSTANTS["c2"]


def test_family_convergence_monotone_slack():
    h, *_ = lacunary(jmax=5)
    fam = build_family(h, q=4e-4, depth=7, K_trunc=36, J=0)
    xs = np.linspace(0.0, 40.0, 2001)
    h_line = sample_line(h, xs, 0.0)
    errs = [float(np.max(np.abs(h_line - eval_xy(m, xs, 0.0).real)))
            for m in fam.members]
    for a, b in zip(errs, errs[1:]):
        assert b <= 2.0 * a + 1e-14
    assert errs[-1] < errs[0]


def test_norm_equivalence_axis_modes():
    # for F = cos(m theta_d): ||F||_p = sum_i m^i, ||h||_p = sum_i (m w_d)^i;
    # they bracket each other within max(1, max_j |omega_j|^p)
    p = 4
    factor = max(1.0, float(np.max(np.abs(FREQ.vec))) ** p)
    for d, w in enumerate(FREQ.omega):
        for m in (1, 2, 5):
            norm_F = sum(m**i for i in range(p + 1))
            norm_h = sum((m * w) ** i for i in range(p + 1))
            assert norm_F <= factor * norm_h * (1 + 1e-12)
            assert norm_h <= factor * norm_F * (1 + 1e-12)
