"""Difference-equation solvers: closed-form coefficients, residual oracles, bounds."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import (
    coupled_residuals,
    epsilon_of,
    eval_xy,
    single_residual,
    symmetrized,
    thm44_holds,
    thm45_holds,
)
from hypothesis import strategies as st

import qpkam
from qpkam import qpfourier as qp
from qpkam.cohomology import RESIDUAL_TOL, solve_coupled, solve_single
from qpkam.diophantine import certify_frequency, sample_admissible
from qpkam.errors import UncertifiedDivisor
from qpkam.qpfourier import StripDomain, StripFunction

FREQ = certify_frequency((1.0, math.sqrt(2.0)), 40, 2.0)
ALPHA = sample_admissible(FREQ, 1e-2, 3.0, (0.4, 1.2), K=40, count=200, seed=5).accepted[0]
DOM = StripDomain(1.0, 0.3)
EPS = epsilon_of(0.2, ALPHA.gamma, ALPHA.tau, 2)     # eps(rho) at rho = 0.2


def strip_constant(value, K, J):
    """The constant StripFunction value on DOM with a (K, J) box."""
    f = StripFunction.zeros(FREQ, DOM, K, J)
    f.coeffs[(K,) * FREQ.n + (0,)] = value
    return f


def random_strip(rng, K=8, J=4, scale=1.0, decay=0.6, dom=DOM):
    shape = (2 * K + 1,) * 2 + (J + 1,)
    coeffs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs *= np.exp(-decay * qp.k1_norms(K, 2))[..., None]
    coeffs *= 0.5 ** np.arange(J + 1)
    return symmetrized(StripFunction(FREQ, dom, coeffs))


# ---------------------------------------------------------------------------
# epsilon_of
# ---------------------------------------------------------------------------

def test_epsilon_unity_case():
    assert epsilon_of(1.0, 1.0, 1.0, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_epsilon_formula_oracle():
    # direct formula evaluation; Gamma(3.5) = 3.3233509704478426
    got = epsilon_of(1.0 / 6.0, 0.1, 2.5, 2)
    want = 6.0**-1.5 * (0.1 / math.gamma(3.5)) * (1.0 / 6.0) ** 2.5
    assert math.gamma(3.5) == pytest.approx(3.3233509704478426, rel=1e-14)
    assert got == pytest.approx(want, rel=1e-14)


def test_epsilon_monotonicity():
    base = epsilon_of(0.5, 0.1, 2.5, 2)
    assert epsilon_of(0.6, 0.1, 2.5, 2) > base        # increasing in rho
    assert epsilon_of(0.5, 0.2, 2.5, 2) > base        # increasing in gamma
    assert epsilon_of(0.5, 0.1, 2.6, 2) < base        # decreasing in tau (rho < 1)


# ---------------------------------------------------------------------------
# solve_single
# ---------------------------------------------------------------------------

def test_single_constant_rhs():
    f = strip_constant(3.7, K=4, J=2)
    u = solve_single(f, ALPHA, rho=0.2)
    assert float(np.max(np.abs(u.coeffs))) < 1e-14
    assert single_residual(f, u, ALPHA) < 1e-14


def test_single_mode_closed_form():
    # u = 2 Re[e^{i<k0,omega>x}/(e^{i<k0,omega>alpha}-1)] for f = 2 Re e^{i<k0,omega>x}
    k0 = (2, -1)
    f = StripFunction.zeros(FREQ, DOM, K=3, J=0)
    f.coeffs[(k0[0] + 3, k0[1] + 3, 0)] = 1.0
    f.coeffs[(-k0[0] + 3, -k0[1] + 3, 0)] = 1.0
    u = solve_single(f, ALPHA, rho=0.2)
    kw = k0[0] * 1.0 + k0[1] * math.sqrt(2.0)
    d = np.exp(1j * kw * ALPHA.alpha) - 1.0
    xs = np.linspace(0, 9, 40)
    oracle = 2.0 * np.real(np.exp(1j * kw * xs) / d)
    got = eval_xy(u, xs, np.zeros_like(xs)).real
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_single_random_residual():
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = random_strip(rng)
        u = solve_single(f, ALPHA, rho=0.2)
        scale = 1.0 + f.norm_upper(0.0, DOM.s)
        assert single_residual(f, u, ALPHA) <= 1e-10 * scale
        assert thm44_holds(f, u, ALPHA, 0.2)


def test_single_uniqueness_and_linearity():
    rng = np.random.default_rng(3)
    f1, f2 = random_strip(rng), random_strip(rng)
    a, b = 0.8, -1.7
    u1 = solve_single(f1, ALPHA, 0.2)
    u1_again = solve_single(f1, ALPHA, 0.2)
    assert np.max(np.abs(u1.coeffs - u1_again.coeffs)) < 1e-13
    u2 = solve_single(f2, ALPHA, 0.2)
    comb = StripFunction(FREQ, DOM, a * f1.coeffs + b * f2.coeffs)
    u_comb = solve_single(comb, ALPHA, 0.2)
    assert np.max(np.abs(u_comb.coeffs - a * u1.coeffs - b * u2.coeffs)) < 1e-12


def test_single_reality_preserved():
    rng = np.random.default_rng(4)
    f = random_strip(rng)
    u = solve_single(f, ALPHA, 0.2)
    flipped = np.flip(u.coeffs, axis=(0, 1)).conj()
    assert np.max(np.abs(u.coeffs - flipped)) < 1e-13


def test_single_mean_is_zero():
    rng = np.random.default_rng(5)
    f = random_strip(rng)
    u = solve_single(f, ALPHA, 0.2)
    assert np.max(np.abs(u.mean_value())) == 0.0


def test_uncertified_divisor():
    alpha_small = sample_admissible(FREQ, 1e-2, 3.0, (0.4, 1.2), K=3, count=50,
                                    seed=6).accepted[0]
    rng = np.random.default_rng(6)
    f = random_strip(rng, K=8)
    with pytest.raises(UncertifiedDivisor):
        solve_single(f, alpha_small, 0.2)


def test_partial_sum_chain_bound():
    # g_m(y) = sum_{1<=|k|_1<=m} |f_k(y)/(e^{i<k,omega>alpha}-1)| e^{|k|_1 r},
    # m = 1..K n, is bounded by 6^{(n+1)/2} m^tau/gamma * |f|_{r,s}
    rng = np.random.default_rng(7)
    n = FREQ.n
    for _ in range(5):
        f = random_strip(rng)
        fnorm = f.norm_upper(DOM.r, DOM.s)
        k1 = qp.k1_norms(f.K, n)
        div = np.abs(np.exp(1j * qp.k_dot_omega(f.K, FREQ.vec) * ALPHA.alpha) - 1.0)
        ms = np.arange(1, f.K * n + 1)
        bound = 6.0 ** ((n + 1) / 2.0) * ms ** ALPHA.tau / ALPHA.gamma * fnorm
        for y in (0.0, 0.2, -0.29):
            terms = np.where(k1 > 0, np.abs(f.modes_at_y(y)) / np.where(k1 > 0, div, 1.0)
                             * np.exp(f.domain.r * k1), 0.0)
            sums = np.array([terms[(k1 >= 1) & (k1 <= m)].sum() for m in ms])
            assert np.all(sums <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# solve_coupled
# ---------------------------------------------------------------------------

def test_coupled_zero():
    z = StripFunction.zeros(FREQ, DOM, K=4, J=2)
    u, v = solve_coupled(z, z, ALPHA, rho=0.2, epsilon=EPS)
    assert float(np.max(np.abs(u.coeffs))) == 0.0
    assert float(np.max(np.abs(v.coeffs))) == 0.0


def test_coupled_constant_f():
    f = strip_constant(2.5, K=4, J=2)
    g = StripFunction.zeros(FREQ, DOM, K=4, J=2)
    u, v = solve_coupled(f, g, ALPHA, rho=0.2, epsilon=EPS)
    assert float(np.max(np.abs(u.coeffs))) < 1e-13
    want_v = -2.5 / EPS
    assert v.mean_value()[0] == pytest.approx(want_v, rel=1e-13)
    off_mean = v.coeffs.copy()
    off_mean[(4, 4, 0)] = 0.0
    assert float(np.max(np.abs(off_mean))) < 1e-13


def test_coupled_random_residuals_and_bounds():
    rng = np.random.default_rng(8)
    for _ in range(5):
        f, g = random_strip(rng), random_strip(rng)
        u, v = solve_coupled(f, g, ALPHA, rho=0.2, epsilon=EPS)
        scale = 1.0 + max(f.norm_upper(0.0, DOM.s), g.norm_upper(0.0, DOM.s))
        assert max(coupled_residuals(f, g, u, v, ALPHA, EPS)) <= 1e-9 * scale
        assert thm45_holds(f, g, u, v, ALPHA, 0.2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(0, 8), J=st.integers(0, 4),
       log_scale=st.floats(-8.0, 2.0), epsilon=st.sampled_from([EPS, 0.05, 3.0]))
def test_coupled_residuals_within_tolerance(seed, K, J, log_scale, epsilon):
    rng = np.random.default_rng(seed)
    f, g = (random_strip(rng, K, J, scale=10.0**log_scale) for _ in range(2))
    u, v = solve_coupled(f, g, ALPHA, rho=0.2, epsilon=epsilon)
    scale = 1.0 + max(f.norm_upper(0.0, DOM.s), g.norm_upper(0.0, DOM.s))
    assert max(coupled_residuals(f, g, u, v, ALPHA, epsilon)) <= RESIDUAL_TOL * scale
    # the same equations at scattered real points, off the collocation grid
    x = rng.uniform(0.0, 100.0, 50)
    y = rng.uniform(-DOM.s, DOM.s, 50)
    a = ALPHA.alpha
    g_mean = StripFunction(FREQ, DOM, np.where(qp.k1_norms(K, 2)[..., None] == 0, g.coeffs, 0))
    res1 = (eval_xy(u, x + a, y) - eval_xy(u, x, y) - epsilon * eval_xy(v, x, y)
            - eval_xy(f, x, y))
    res2 = eval_xy(v, x + a, y) - eval_xy(v, x, y) - eval_xy(g, x, y) + eval_xy(g_mean, x, y)
    assert max(np.max(np.abs(res1)), np.max(np.abs(res2))) <= RESIDUAL_TOL * scale


def test_coupled_mean_conditions():
    rng = np.random.default_rng(9)
    f, g = random_strip(rng), random_strip(rng)
    u, v = solve_coupled(f, g, ALPHA, rho=0.2, epsilon=EPS)
    assert np.max(np.abs(u.mean_value())) == 0.0
    got = v.mean_value()
    want = -f.mean_value() / EPS
    assert np.max(np.abs(got - want)) < 1e-10 * (1 + np.max(np.abs(want)))


def test_coupled_epsilon_override():
    rng = np.random.default_rng(10)
    f, g = random_strip(rng, scale=1e-3), random_strip(rng, scale=1e-3)
    u, v = solve_coupled(f, g, ALPHA, rho=0.2, epsilon=0.05)
    scale = 1.0 + max(f.norm_upper(0.0, DOM.s), g.norm_upper(0.0, DOM.s))
    assert max(coupled_residuals(f, g, u, v, ALPHA, 0.05)) <= 1e-9 * scale
    # the coupling is 0.05: the mean condition [v] = -[f]/0.05
    want = -f.mean_value() / 0.05
    assert np.max(np.abs(v.mean_value() - want)) < 1e-10 * (1 + np.max(np.abs(want)))


def test_residual_postconditions_raise_under_python_O():
    # the residual checks are typed errors, not asserts, so -O keeps them
    script = textwrap.dedent("""
        import math
        from qpkam import cohomology
        from qpkam.diophantine import certify_frequency, sample_admissible
        from qpkam.errors import ResidualDefect
        from qpkam.qpfourier import StripDomain, StripFunction

        freq = certify_frequency((1.0, math.sqrt(2.0)), 20, 2.0)
        alpha = sample_admissible(freq, 1e-2, 3.0, (0.4, 1.2), K=20, count=50,
                                  seed=5).accepted[0]
        f = StripFunction.zeros(freq, StripDomain(1.0, 0.3), K=2, J=1)
        cohomology.RESIDUAL_TOL = -1.0     # every residual now fails its check
        raised = 0
        for solve in (lambda: cohomology.solve_single(f, alpha, 0.2),
                      lambda: cohomology.solve_coupled(f, f, alpha, 0.2, 0.05)):
            try:
                solve()
            except ResidualDefect:
                raised += 1
        print(__debug__, raised)
    """)
    src = str(Path(qpkam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "2"]
