"""KAM machinery: schedule formulas, inductive step, solve-back, driver runs."""

import math
import time

import numpy as np
import pytest
from conftest import apply_map, conjugacy_residual, eval_xy, symmetrized
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as npcheb

from qpkam import cohomology, kam
from qpkam import qpfourier as qp
from qpkam.diophantine import certify_frequency, sample_admissible
from qpkam.errors import (
    ConfigError,
    NotConverged,
    RootFindFailed,
    SmoothnessTooLow,
)
from qpkam.kam import (
    ConjugacyMap,
    NormalizedMap,
    _pullback_grid,
    build_schedule,
    compose_conjugacy,
    inductive_step,
    intersection_bound,
    normalize,
    power_truncation,
    run,
    smallness_check,
    solve_back,
)
from qpkam.maps import CurveGraph, kicked_twist, pure_twist, rigid_shift
from qpkam.qpfourier import StripDomain, StripFunction, eval_strip_stack
from qpkam.smoothing import FROZEN_CONSTANTS, q_bound, smooth

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
FREQ = certify_frequency((1.0, GOLDEN), 30, 2.0)
ALPHA = sample_admissible(FREQ, 0.1, 2.5, (0.3, 1.1), K=30, count=200, seed=2).accepted[3]
MODES = [((1, 0), 0.55), ((0, 1), 0.45), ((1, 1), 0.15)]
STRIP = (ALPHA.alpha - 0.8, ALPHA.alpha + 0.8)
OMEGAS = {1: (1.0,), 2: (1.0, GOLDEN), 3: (1.0, math.sqrt(2.0), math.sqrt(3.0))}


def make_schedule(**kw):
    args = dict(p=8.0, n=2, tau=2.5, gamma=0.1, k_max=10)
    args.update(kw)
    return build_schedule(**args)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_s0_value():
    sched = make_schedule()
    assert sched.s0 == pytest.approx(2.0**-2.5 / 300.0, rel=1e-14)
    assert sched.s0 == pytest.approx(5.8926e-4, abs=1e-7)


def test_schedule_default_q_binding_branch():
    sched = make_schedule()
    assert sched.q == pytest.approx(3.125e-4, rel=1e-12)


def test_schedule_Mk_ratio_exact():
    sched = make_schedule()
    ks = np.arange(sched.k_max + 1)
    assert np.allclose(sched.M / sched.M0, 2.0 ** (-(sched.tau + 1) * ks), rtol=1e-14)


def test_schedule_geometric_condition():
    sched = make_schedule()
    p, q, tau = sched.p, sched.q, sched.tau
    assert (1 + q) ** p / (1 - q) <= 2.0 ** (p - 1 - 2 * tau)


def test_schedule_smoothness_too_low():
    with pytest.raises(SmoothnessTooLow):
        make_schedule(p=6.0, tau=2.5)          # needs p > 6


@pytest.mark.parametrize("tau", [2.5, 3.5, 20.0, 40.0])
def test_schedule_q_bound_holds_at_every_tau(tau):
    # the default q is the bound min(b_smooth, b_abs) and passes; twice the
    # bound is refused even where the bound is far below 1e-15 (tau 20, 40)
    p = 2 * tau + 30
    bound = min(q_bound(p, tau))
    assert build_schedule(p, 2, tau, 0.1, k_max=2).q == bound
    with pytest.raises(ConfigError, match="^q = "):
        build_schedule(p, 2, tau, 0.1, 2 * bound, k_max=2)


def test_schedule_domain_nesting():
    sched = make_schedule()
    assert np.all(sched.r <= sched.r_prime + 1e-15)
    assert np.all(sched.s <= sched.s_prime + 1e-15)


# ---------------------------------------------------------------------------
# smallness check
# ---------------------------------------------------------------------------

def test_smallness_zero_passes():
    rep = smallness_check(0.0, 0.0, make_schedule())
    assert rep["pass"] and rep["lhs0"] == 0.0


def test_smallness_rhs0_formula():
    sched = make_schedule()
    rep = smallness_check(0.0, 0.0, sched)
    want = (6.0**-3 / 3.0) * (sched.q / (300.0 * FROZEN_CONSTANTS["c0"])) \
        * (1.0 / 72.0) ** 2.5 * (0.1 / math.gamma(3.5)) ** 2
    assert rep["rhs0"] == pytest.approx(want, rel=1e-12)


def test_smallness_gamma_square_scaling():
    r1 = smallness_check(0.0, 0.0, make_schedule(gamma=0.1))
    r2 = smallness_check(0.0, 0.0, make_schedule(gamma=0.2))
    assert r2["rhs0"] == pytest.approx(4.0 * r1["rhs0"], rel=1e-12)


# ---------------------------------------------------------------------------
# lemma helpers
# ---------------------------------------------------------------------------

def test_power_truncation_monomial():
    # f(z) = z^3, m = 3: truncation is identically zero and the bound is tight
    coeffs = [0.0, 0.0, 0.0, 1.0]
    trunc = power_truncation(coeffs, 3, 0.5)
    assert np.all(trunc == 0.0)
    r = 1.0
    q = 0.5
    lhs = (q * r) ** 3                       # sup_{|z|<=qr} |z^3|
    rhs = q**3 * r**3                        # q^m sup_{|z|<r} |f|
    assert lhs == pytest.approx(rhs)


def test_power_truncation_bound_random_polys():
    rng = np.random.default_rng(3)
    angles = np.exp(2j * np.pi * np.arange(512) / 512)
    for _ in range(100):
        deg = int(rng.integers(0, 13))
        coeffs = rng.uniform(-1, 1, deg + 1)
        m = int(rng.integers(1, 5))
        q = float(rng.choice([0.1, 0.3, 0.5]))
        r = float(rng.uniform(0.5, 2.0))
        trunc = power_truncation(coeffs, m, q)
        inner = np.polyval(coeffs[::-1], q * r * angles) \
            - np.polyval(trunc[::-1], q * r * angles)
        lhs = float(np.max(np.abs(inner)))
        rhs = q**m * float(np.max(np.abs(np.polyval(coeffs[::-1], r * angles))))
        assert lhs <= rhs * (1 + 1e-12)


def test_cauchy_estimate_on_strip_functions():
    # Lipschitz constant on D - d never exceeds sup_D |w| / d
    rng = np.random.default_rng(4)
    dom = StripDomain(0.5, 0.1)
    shape = (7, 7, 4)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs *= np.exp(-qp.k1_norms(3, 2))[..., None] * 0.3 ** np.arange(4)
    w = symmetrized(StripFunction(FREQ, dom, coeffs))
    d = 0.04
    sup = w.norm_upper()                     # >= true sup over D
    for _ in range(40):
        x1, x2 = rng.uniform(0, 2 * math.pi, 2) + 1j * rng.uniform(-(dom.r - d), dom.r - d, 2)
        y1, y2 = rng.uniform(-(dom.s - d), dom.s - d, 2)
        num = abs(complex(eval_xy(w, x1, y1)) - complex(eval_xy(w, x2, y2)))
        den = max(abs(x1 - x2), abs(y1 - y2))
        assert num <= sup / d * den * (1 + 1e-6)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_zero_perturbation():
    sched = make_schedule()
    _, family = normalize(pure_twist(FREQ, STRIP), ALPHA, sched, K_trunc=6, J=4, y_scale=8.0)
    for k in (0, 1, 3):
        assert family(k).defect_sup() == 0.0


def test_normalize_strip_containment():
    sched = make_schedule()
    tight = kicked_twist(FREQ, 1e-4, MODES, strip=(ALPHA.alpha - 1e-4, ALPHA.alpha + 1e-4))
    with pytest.raises(ValueError):
        normalize(tight, ALPHA, sched, K_trunc=6, J=4, y_scale=1.0)


def level0_bound_holds(mp, family, y_scale):
    """The (c7)-style level-0 estimate, y_scale in eps0's role:
    |A_0 - Omega| <= c0 * (|f| + |g|) / y_scale."""
    return family(0).defect_sup() <= FROZEN_CONSTANTS["c0"] * mp.sup_norm_fg / y_scale


def test_normalize_level0_bound():
    sched = make_schedule()
    mp = kicked_twist(FREQ, 1e-4, MODES, strip=STRIP)
    _, family = normalize(mp, ALPHA, sched, K_trunc=6, J=4, y_scale=8.0)
    assert level0_bound_holds(mp, family, 8.0)


# ---------------------------------------------------------------------------
# a level map's domain is its strips' domain
# ---------------------------------------------------------------------------

def test_level_maps_read_their_domain_from_their_strips():
    # member k on D(delta_k, min(delta_k, y_strip)), a restriction on the
    # domain it is given, Phi_plus on D(r/2, s/2) and the solve-back's H on
    # Phi_plus's domain
    sched, sigma = make_schedule(k_max=8), 16.0
    mp = acceptance_map()
    _, member = normalize(mp, ALPHA, sched, K_trunc=8, J=6, y_scale=sigma)
    y_strip = min(1.0, min(ALPHA.alpha - mp.strip[0], mp.strip[1] - ALPHA.alpha) / sigma)
    for k in range(sched.k_max + 1):
        d = float(sched.delta[k])
        assert member(k).domain == StripDomain(d, min(d, y_strip)) == member(k).fy.domain
    D = StripDomain(float(sched.r[0]), float(sched.s[0]))
    H = member(0).restricted(D)
    assert H.domain == D == H.fy.domain
    step = inductive_step(H, ALPHA, sched.theta, sched.q, float(sched.M[0]), H.defect_sup())
    assert step.phi_plus.domain == StripDomain(D.r / 2, D.s / 2) == step.phi_plus.fy.domain
    Z = ConjugacyMap.identity(FREQ, StripDomain(float(sched.r_prime[1]),
                                                float(sched.s_prime[1])), 8, 6)
    H_next, _ = solve_back(Z, member(1), step.phi_plus, member(0))
    assert H_next.domain == step.phi_plus.domain == H_next.fy.domain


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collocated_is_from_grid_per_strip(n):
    # a strided slice of a stacked array, as the contraction leaves it, and
    # a contiguous array: bit for bit the strips of from_grid one at a time
    freq, K, J = qp.Frequency(OMEGAS[n]), 2, 3
    like = StripFunction.zeros(freq, StripDomain(0.5, 0.01), K, J)
    dom = StripDomain(0.25, 0.005)
    N = kam.collocation_grid(K)
    stack = np.random.default_rng(n).standard_normal((N**n, J + 1, 2))
    values = [stack[..., 0], stack[..., 1] + 1.0]
    got = kam._collocated(values, like, dom)
    assert len(got) == 2
    for f, v in zip(got, values):
        want = StripFunction.from_grid(v.reshape((N,) * n + (J + 1,)), freq, dom, K)
        assert f.freq == freq and f.domain == dom and (f.K, f.J) == (K, J)
        np.testing.assert_array_equal(f.coeffs, want.coeffs)


# ---------------------------------------------------------------------------
# the working box of a level
# ---------------------------------------------------------------------------

def filled_map(entries, K=6, J=4):
    """A level map on the (K, J) box on D(0.5, 1e-3) with twist 16: fx holds
    each value at its (k, j) of entries; the floor is about 1.9e-16."""
    fx = StripFunction.zeros(FREQ, StripDomain(0.5, 1e-3), K, J)
    for k, j, value in entries:
        fx.coeffs[(K + k[0], K + k[1], j)] = value
    return NormalizedMap(ALPHA.alpha, 16.0, fx, StripFunction.zeros(FREQ, fx.domain, K, J))


ZERO_MAP = filled_map([])


@pytest.mark.parametrize("t, u", [(0, 0), (1, 0), (2, 3), (5, 1)])
def test_level_box_is_the_content_plus_one_guard(t, u):
    # content through shell t and row u, and sub-floor coefficients beyond
    H = filled_map([((t, -min(t, 1)), u, 1e-6), ((0, 0), 0, 1e-3),
                    ((6, 6), 4, 1e-17), ((-6, 2), 3, 1e-20)])
    assert kam.level_box(H, ZERO_MAP, 8, 6, first=False) == (t + 1, u + 1)


@pytest.mark.parametrize("k, j, box", [((6, 0), 1, (8, 2)), ((-3, 6), 0, (8, 1)),
                                       ((1, 1), 4, (2, 6)), ((6, -6), 4, (8, 6))])
def test_level_box_returns_to_the_cap_where_the_guard_is_filled(k, j, box):
    # the box grows only back to the cap: H fills its outer shell 6 or its top row 4
    H = filled_map([(k, j, 1e-12), ((1, 0), 0, 1e-6)])
    assert kam.level_box(H, ZERO_MAP, 8, 6, first=False) == box


def test_level_box_of_the_zero_map():
    # no content: the box is the guard alone, on the first level at the cap's J
    assert kam.level_box(ZERO_MAP, ZERO_MAP, 8, 6, first=False) == (0, 0)
    assert kam.level_box(ZERO_MAP, ZERO_MAP, 8, 6, first=True) == (0, 6)
    H = ZERO_MAP.boxed(0, 0)
    assert H.fx.coeffs.shape == H.fy.coeffs.shape == (1, 1, 1)


@pytest.mark.parametrize("t, box", [(1, 4), (2, 7), (3, 8)])
def test_level_box_of_the_first_level_holds_the_products_of_the_data(t, box):
    # the largest coefficient 1e-5 keeps three factors above the floor (1e-15,
    # not 1e-20): K = 3t + 1, at most the cap 8; J stays at the cap
    H = filled_map([((t, 0), 0, 1e-5), ((0, 1), 1, 1e-7)], K=8, J=6)
    assert kam.level_box(H, ZERO_MAP, 8, 6, first=True) == (box, 6)


def test_level_box_holds_the_member_it_solves_against():
    # the member's data on shell 4 stays in the box; its rows do not count
    H = filled_map([((1, 0), 1, 1e-6)])
    A = filled_map([((4, -2), 5, 1e-9)], K=8, J=6)
    assert kam.level_box(H, A, 8, 6, first=False) == (5, 2)


# configs whose curves need their box: a rule that trims real content stalls them
def test_run_stress_map_converges_on_its_box():
    # K_trunc 8 stalls near 7.8e-9
    mp = kicked_twist(FREQ, 1e-3, STRESS_MODES, strip=STRIP)
    out = run(mp, ALPHA, make_schedule(k_max=10), tol=1e-10, K_trunc=12, J=6, y_scale=16.0)
    assert out.curve.defect <= 1e-10


POWER_MODES = [((a, b), 0.5 * (abs(a) + abs(b)) ** -9.0)
               for a in range(-6, 7) for b in range(-6, 7) if (a, b) > (0, 0)]


def test_run_power_law_spectrum_converges_on_its_box():
    # 84 modes up to |k|_inf = 6 of amplitude 0.5 |k|_1^-9; K_trunc 6 repeats 4e-11
    assert len(POWER_MODES) == 84
    mp = kicked_twist(FREQ, 1e-3, POWER_MODES, strip=STRIP)
    out = run(mp, ALPHA, make_schedule(k_max=8), tol=1e-12, K_trunc=10, J=6, y_scale=16.0)
    assert out.curve.defect <= 1e-12


# ---------------------------------------------------------------------------
# inductive step
# ---------------------------------------------------------------------------

def zero_normalized(r, s, eps, K=6, J=4):
    dom = StripDomain(r, s)
    z = StripFunction.zeros(FREQ, dom, K, J)
    return NormalizedMap(ALPHA.alpha, eps, z, z)


def test_step_zero_perturbation():
    sched = make_schedule()
    H = zero_normalized(1.0, sched.s0, sched.eps0)
    step = inductive_step(H, ALPHA, sched.theta, sched.q, sched.M0, H.defect_sup())
    assert float(np.max(np.abs(step.w_u.coeffs))) == 0.0
    assert float(np.max(np.abs(step.w_v.coeffs))) == 0.0
    np.testing.assert_array_equal(step.Q.coef, np.zeros(3))
    assert step.phi_plus.fx.norm_upper() == 0.0
    assert step.report["contraction_iters"] <= 2


@pytest.mark.parametrize("J", [0, 1])
def test_step_truncation_polynomial_has_three_coefficients(J):
    # the mean's power series has J + 1 < 3 terms: Q is zero-padded to degree 2
    sched = make_schedule()
    H = zero_normalized(1.0, sched.s0, sched.eps0, J=J)
    step = inductive_step(H, ALPHA, sched.theta, sched.q, sched.M0, H.defect_sup())
    assert step.Q.coef.shape == (3,)
    np.testing.assert_array_equal(step.Q.coef, np.zeros(3))


def test_step_contraction_factor_proof_scale():
    # perturbation sized M = q*eps*s/3 for a measurable q: successive Picard
    # deltas must contract by at least that factor
    tau, gamma, q = 2.05, 0.15, 0.3
    alpha = sample_admissible(FREQ, gamma, tau, (0.3, 1.1), K=30, count=2000,
                              seed=11).accepted[0]
    theta = 2.0**-tau
    r = 1.0
    s = theta * (r / 6.0) / 50.0
    eps = 6.0**-1.5 * gamma / math.gamma(tau + 1.0) * (r / 6.0) ** tau
    M = q * eps * s / 3.0
    dom = StripDomain(r, s)
    K, J = 5, 3
    fx = StripFunction.zeros(FREQ, dom, K, J)
    fy = StripFunction.zeros(FREQ, dom, K, J)
    fx.coeffs[(K + 1, K, 0)] = 0.4999 * M
    fx.coeffs[(K - 1, K, 0)] = 0.4999 * M
    fy.coeffs[(K, K + 1, 0)] = -0.4999j * M
    fy.coeffs[(K, K - 1, 0)] = 0.4999j * M
    H = NormalizedMap(alpha.alpha, eps, fx, fy)
    assert H.defect_sup() <= M * (1 + 1e-12)          # the proof regime
    step = inductive_step(H, alpha, theta, q, M, H.defect_sup())
    deltas = step.report["contraction_deltas"]
    floor = 1e-13 * max(deltas)
    for d0, d1 in zip(deltas, deltas[1:]):
        if d1 > floor and d0 > floor:
            assert d1 <= q * d0 * 1.05
    # (e6): |W - Theta| <= (2/3) q s in the proof regime
    assert step.report["w_minus_theta"] <= 2.0 / 3.0 * q * s * (1 + 1e-9)
    # (e8): |Phi+ - Omega+ - Q| <= (5/48) theta M
    assert step.report["phi_minus_omega_minus_q"] <= 5.0 / 48.0 * theta * M * (1 + 1e-9)


def test_step_bilipschitz_sample():
    # measured Lipschitz ratios of W = Theta + w on random pairs in D'_plus
    tau, gamma, q = 2.05, 0.15, 0.3
    alpha = sample_admissible(FREQ, gamma, tau, (0.3, 1.1), K=30, count=2000,
                              seed=11).accepted[0]
    theta = 2.0**-tau
    r, s = 1.0, theta / 300.0
    eps = 6.0**-1.5 * gamma / math.gamma(tau + 1.0) * (r / 6.0) ** tau
    M = q * eps * s / 3.0
    dom = StripDomain(r, s)
    fx = StripFunction.zeros(FREQ, dom, 5, 3)
    fx.coeffs[(6, 5, 0)] = 0.4999 * M
    fx.coeffs[(4, 5, 0)] = 0.4999 * M
    H = NormalizedMap(alpha.alpha, eps, fx, StripFunction.zeros(FREQ, dom, 5, 3))
    assert H.defect_sup() <= M * (1 + 1e-12)          # the proof regime
    step = inductive_step(H, alpha, theta, q, M, H.defect_sup())
    rng = np.random.default_rng(5)
    n_points = 128                        # 64 pairs: point 2i against 2i + 1
    rp_plus, sp_plus = 4.0 / 3.0 * (r / 2 - s / 2), 4.0 / 3.0 * (s / 2)    # D'_plus
    x = (rng.uniform(0, 2 * math.pi, n_points)
         + 1j * rng.uniform(-rp_plus, rp_plus, n_points))
    y = rng.uniform(-sp_plus, sp_plus, n_points)
    wx = x + eval_xy(step.w_u, x, y)
    wy = theta * y + eval_xy(step.w_v, x, y)
    num = np.maximum(np.abs(wx[::2] - wx[1::2]), np.abs(wy[::2] - wy[1::2]))
    den = np.maximum(np.abs(x[::2] - x[1::2]), np.abs(y[::2] - y[1::2]))
    ratios = num / den
    assert ratios.min() >= theta * (1 - q) * (1 - 1e-6)
    assert ratios.max() <= (1 + q) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# solve-back
# ---------------------------------------------------------------------------

def small_conjugacy(dom, K=4, J=3, amp=2e-4, L=1.0, seed=0, freq=FREQ):
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * freq.n + (J + 1,)
    mk = lambda: symmetrized(StripFunction(
        freq, dom,
        (amp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
         * np.exp(-qp.k1_norms(K, freq.n))[..., None] * 0.3 ** np.arange(J + 1))
    ))
    return ConjugacyMap(mk(), mk(), L, 1.0 - 1e-3)


def small_normalized(dom, alpha, twist, K=4, J=3, amp=1e-4, seed=1):
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * 2 + (J + 1,)
    mk = lambda: symmetrized(StripFunction(
        FREQ, dom,
        (amp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
         * np.exp(-qp.k1_norms(K, 2))[..., None] * 0.3 ** np.arange(J + 1))
    ))
    return NormalizedMap(alpha, twist, mk(), mk())


def test_solve_back_same_member_returns_seed():
    dom = StripDomain(0.5, 0.01)
    Z = small_conjugacy(dom, seed=4, amp=1e-4)
    phi = small_normalized(dom, ALPHA.alpha, 0.2, seed=5, amp=5e-5)
    # when A_next is the exact push-forward of phi through Z, H == phi; phi
    # is zero-padded to the oracle's box, which its collocation grid holds
    A_push = push_forward(Z, phi, dom)
    pad = [(A_push.fx.K - phi.fx.K,) * 2] * 2 + [(0, 0)]
    phi = NormalizedMap(phi.alpha, phi.twist, *(StripFunction(FREQ, dom, np.pad(f.coeffs, pad))
                                                 for f in (phi.fx, phi.fy)))
    H, rep = solve_back(Z, A_push, phi, A_push)
    assert float(np.max(np.abs(H.fx.coeffs - phi.fx.coeffs))) < 1e-11
    assert float(np.max(np.abs(H.fy.coeffs - phi.fy.coeffs))) < 1e-11
    assert rep["family_gap"] < 1e-13


def test_solve_back_identity_conjugacy():
    dom = StripDomain(0.5, 0.01)
    A = small_normalized(dom, ALPHA.alpha, 0.2, seed=6)
    Z = ConjugacyMap.identity(FREQ, dom, 4, 3)
    seed = NormalizedMap(ALPHA.alpha, 0.2,
                         StripFunction.zeros(FREQ, dom, 4, 3),
                         StripFunction.zeros(FREQ, dom, 4, 3))
    H, _ = solve_back(Z, A, seed, A)
    assert float(np.max(np.abs(H.fx.coeffs - A.fx.coeffs))) < 1e-11
    assert float(np.max(np.abs(H.fy.coeffs - A.fy.coeffs))) < 1e-11


def push_forward(Z: ConjugacyMap, H: NormalizedMap, dom: StripDomain,
                 K: int | None = None, J: int | None = None) -> NormalizedMap:
    """A = Z o H o Z^{-1} assembled on the collocation grid (forward oracle)."""
    freq = H.fx.freq
    K = 3 * H.fx.K if K is None else K
    J = 2 * H.fx.J if J is None else J
    N = qp.default_grid(K)
    th = qp.theta_grid(N, 2)
    thf = th.reshape(2, -1)
    ys = dom.s * qp.cheb_nodes(J)
    zeros = np.zeros(thf.shape[1])
    fx_vals = np.empty((N, N, J + 1))
    fy_vals = np.empty((N, N, J + 1))
    for j, y in enumerate(ys):
        # eta = Z^{-1}(grid point)
        a, ey, _ = _pullback_grid(Z, N, zeros, zeros + y, zeros, zeros + y, 1e-14)
        th_eta = thf + np.multiply.outer(freq.vec, a)
        hv = eval_strip_stack([H.fx, H.fy], th_eta, ey)
        h_disp = H.alpha + H.twist * ey + hv[..., 0]
        h_y = ey + hv[..., 1]
        th_h = th_eta + np.multiply.outer(freq.vec, h_disp)
        zv = eval_strip_stack([Z.P, Z.S], th_h, h_y)
        img_disp = a + h_disp + zv[..., 0]            # x-displacement of Z(H(eta))
        img_y = Z.L * h_y + zv[..., 1]
        fx_vals[..., j] = (img_disp - H.alpha - H.twist * y).reshape(N, N)
        fy_vals[..., j] = (img_y - y).reshape(N, N)
    fx = StripFunction.from_grid(fx_vals, freq, dom, K)
    fy = StripFunction.from_grid(fy_vals, freq, dom, K)
    return NormalizedMap(H.alpha, H.twist, fx, fy)


def pullback_oracle(Z, thf, targets_theta_disp, targets_y, seeds_disp, seeds_y, tol):
    """kam._pullback_grid by direct evaluation at every step: the values of Z
    by eval_strip_stack at the points thf (n, P) and its Jacobian [[1+Px,
    Py], [Sx, L+Sy]] from the four derivative strips; returns the solution
    and the Newton steps taken."""
    def dy(f):
        der = npcheb.chebder(f.coeffs, axis=-1) / f.domain.s
        out = np.zeros_like(f.coeffs)
        out[..., :der.shape[-1]] = der
        return StripFunction(f.freq, f.domain, out)

    strips = [Z.P.dx(), dy(Z.P), Z.S.dx(), dy(Z.S)]
    a, yv = seeds_disp.copy(), seeds_y.copy()
    for it in range(40):
        vals = eval_strip_stack([Z.P, Z.S], thf, yv, a)
        r1 = (a + vals[..., 0]) - targets_theta_disp
        r2 = (Z.L * yv + vals[..., 1]) - targets_y
        if max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))) < tol:
            return a, yv, it
        jac = eval_strip_stack(strips, thf, yv, a)
        j11, j12, j21, j22 = 1.0 + jac[..., 0], jac[..., 1], jac[..., 2], Z.L + jac[..., 3]
        det = j11 * j22 - j12 * j21
        a = a - (j22 * r1 - j12 * r2) / det
        yv = yv - (-j21 * r1 + j11 * r2) / det
    raise AssertionError("the oracle's Newton did not converge")


def pullback_case(n, seeds="spread", K=3, J=3, amp=1e-4, seed=0):
    """A near-identity Z on n frequencies, the grid size N, the N^n grid
    points and targets near the seeds: the seeds spread over 0.3 + 0.02 *
    (node index), or all equal 0.3."""
    freq = qp.Frequency(OMEGAS[n])
    dom = StripDomain(0.5, 0.01)
    Z = small_conjugacy(dom, K=K, J=J, amp=amp, seed=seed, freq=freq)
    N = qp.default_grid(K) if n < 3 else 8
    P = N**n
    ys = dom.s * qp.cheb_nodes(J)
    rng = np.random.default_rng(seed + 1)
    spread = 0.02 * np.arange(J + 1) if seeds == "spread" else np.zeros(J + 1)
    seed_disp = np.broadcast_to(0.3 + spread, (P, J + 1)).copy()
    seed_y = np.broadcast_to(ys, (P, J + 1)).copy()
    t_disp = seed_disp + 1e-4 * rng.standard_normal((P, J + 1))
    t_y = seed_y + 1e-4 * rng.standard_normal((P, J + 1))
    return Z, N, qp.theta_grid(N, n).reshape(n, -1), (t_disp, t_y, seed_disp, seed_y)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seeds", ["spread", "equal"])
@pytest.mark.parametrize("grid", [True])        # the pullback takes grid points only
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pullback_matches_direct_oracle(n, grid, seeds):
    # one interpolant per solve (values and Jacobian) against direct
    # evaluation at every step; equal seeds are the zero-width case
    Z, N, points, args = pullback_case(n, seeds)
    a, yv, newton = _pullback_grid(Z, N, *args, 1e-13)
    a_ref, yv_ref, iters_ref = pullback_oracle(Z, points, *args, 1e-13)
    assert newton["newton_iters"] == iters_ref > 0
    assert newton["newton_residual"] < 1e-13
    assert np.max(np.abs(a - a_ref)) <= 1e-13 and np.max(np.abs(yv - yv_ref)) <= 1e-13
    if seeds == "spread":
        assert newton["newton_builds"] == 1


def counted(monkeypatch, name):
    """Record the results of a qpfourier function where GridShift calls it."""
    results = []
    fn = getattr(qp, name)
    monkeypatch.setattr(qp, name, lambda *args: results.append(fn(*args)) or results[-1])
    return results


def test_pullback_builds_once(monkeypatch):
    builds = counted(monkeypatch, "grid_shift_cheb")
    Z, N, _, args = pullback_case(2)
    with qp.grid_eval_log() as log:
        _, _, newton = _pullback_grid(Z, N, *args, 1e-13)
    assert newton["newton_iters"] > 0
    assert len(builds) == newton["newton_builds"] == 1
    M = builds[0].shape[-1] - 1
    assert log == {"nodes": 4, "max_order": M, "fallbacks": 0, "band": 0.0}


def test_pullback_rebuilds_outside_the_doubled_interval(monkeypatch):
    # the targets sit 0.5 beyond seeds spread over 0.06: the first step
    # leaves [c - delta, c + delta] and the interpolant is built again
    builds = counted(monkeypatch, "grid_shift_cheb")
    Z, N, points, (t_disp, t_y, seed_disp, seed_y) = pullback_case(2)
    args = (t_disp + 0.5, t_y, seed_disp, seed_y)
    a, yv, newton = _pullback_grid(Z, N, *args, 1e-13)
    assert len(builds) == newton["newton_builds"] == 2
    assert builds[1].shape == builds[0].shape[:-1] + builds[1].shape[-1:]
    a_ref, yv_ref, iters_ref = pullback_oracle(Z, points, *args, 1e-13)
    assert newton["newton_iters"] == iters_ref
    assert np.max(np.abs(a - a_ref)) <= 1e-13 and np.max(np.abs(yv - yv_ref)) <= 1e-13


def test_pullback_evaluates_directly_above_the_order_cap(monkeypatch):
    # seeds spread over W * delta of about 60: no order up to SHIFT_MAX_ORDER
    # meets the bound, so each residual (with d/dy) is one eval_modes call on
    # [P, S], and each Newton step one more, on [P.dx, S.dx]
    builds = counted(monkeypatch, "grid_shift_cheb")
    evals = counted(monkeypatch, "eval_modes")
    Z, N, points, (t_disp, t_y, seed_disp, seed_y) = pullback_case(2)
    widen = 2.0 * np.arange(seed_disp.shape[1])
    args = (t_disp + widen, t_y, seed_disp + widen, seed_y)
    with qp.grid_eval_log() as log:
        a, yv, newton = _pullback_grid(Z, N, *args, 1e-13)
    steps = newton["newton_iters"] + 1
    assert newton["newton_builds"] == 0 and builds == [None] * steps
    assert len(evals) == steps + newton["newton_iters"]
    assert all(v.shape[-1] == 2 for v in evals)
    assert log["fallbacks"] == log["nodes"] == 4 * steps and log["max_order"] == 0
    a_ref, yv_ref, iters_ref = pullback_oracle(Z, points, *args, 1e-13)
    assert newton["newton_iters"] == iters_ref > 0
    assert np.max(np.abs(a - a_ref)) <= 1e-13 and np.max(np.abs(yv - yv_ref)) <= 1e-13


def test_pullback_singular_jacobian_raises():
    # Z(x, y) = (x, y - y (1 + cos x) / 2): d(Z_y)/dy = (1 - cos x) / 2 vanishes
    # at the grid point x = 0 and nowhere else on the grid
    freq = qp.Frequency((1.0,))
    dom = StripDomain(0.5, 1.0)
    S = np.zeros((3, 2), dtype=complex)
    S[:, 1] = [-0.25, -0.5, -0.25]          # coefficient of T_1(y/s) = y
    Z = ConjugacyMap(StripFunction.zeros(freq, dom, 1, 1), StripFunction(freq, dom, S),
                     1.0, 1.0)
    zeros = np.zeros(8)
    j22 = (1.0 - np.cos(qp.theta_grid(8, 1)[0])) / 2.0
    Zy = Z.L + eval_strip_stack([Z.S], 8, 1.0)[:, 0]     # Z_y is linear in y: Z_y(x, 1) = j22
    np.testing.assert_allclose(Zy, j22, rtol=0.0, atol=1e-15)
    assert abs(j22[0]) < 1e-14 and np.min(np.abs(j22[1:])) > 0.1
    with pytest.raises(RootFindFailed) as info:
        _pullback_grid(Z, 8, zeros, zeros + 0.1, zeros, zeros, 1e-12)
    assert info.value.point == (0.0, 0.0)


@pytest.mark.parametrize("grid", [True])        # the pullback takes grid points only
def test_pullback_grid_node_axis_matches_per_node_calls(grid):
    # a (P, nodes) solve agrees with one (P,) solve per node column
    dom = StripDomain(0.5, 0.01)
    Z = small_conjugacy(dom, seed=3, amp=1e-4)
    N = qp.default_grid(Z.P.K)
    P = N**2
    ys = dom.s * qp.cheb_nodes(Z.P.J)
    rng = np.random.default_rng(8)
    t_disp = 0.3 + 1e-4 * rng.standard_normal((P, ys.size))
    t_y = ys + 1e-4 * rng.standard_normal((P, ys.size))
    seed_disp = np.full((P, ys.size), 0.3)
    seed_y = np.broadcast_to(ys, (P, ys.size))
    a, yv, newton = _pullback_grid(Z, N, t_disp, t_y, seed_disp, seed_y, 1e-13)
    assert a.shape == yv.shape == (P, ys.size)
    assert 0 < newton["newton_iters"] < 40 and newton["newton_residual"] < 1e-13
    for j in range(ys.size):
        aj, yj, newton_j = _pullback_grid(Z, N, t_disp[:, j], t_y[:, j],
                                          seed_disp[:, j], seed_y[:, j], 1e-13)
        assert newton_j["newton_iters"] <= newton["newton_iters"]
        assert np.max(np.abs(a[:, j] - aj)) <= 1e-13
        assert np.max(np.abs(yv[:, j] - yj)) <= 1e-13


def test_solve_back_reconstructs_synthetic():
    dom = StripDomain(0.5, 0.01)
    Z = small_conjugacy(dom, seed=7, amp=1e-4)
    H_true = small_normalized(dom, ALPHA.alpha, 0.2, seed=8, amp=1e-4)
    A = push_forward(Z, H_true, dom)
    K_rep, J_rep = A.fx.K, A.fx.J
    seed = NormalizedMap(ALPHA.alpha, 0.2,
                         StripFunction.zeros(FREQ, dom, K_rep, J_rep),
                         StripFunction.zeros(FREQ, dom, K_rep, J_rep))
    H_rec, _ = solve_back(Z, A, seed, A)
    pad = (K_rep - H_true.fx.K, J_rep - H_true.fx.J)
    fx_ref = np.pad(H_true.fx.coeffs, [(pad[0], pad[0])] * 2 + [(0, pad[1])])
    fy_ref = np.pad(H_true.fy.coeffs, [(pad[0], pad[0])] * 2 + [(0, pad[1])])
    assert float(np.max(np.abs(H_rec.fx.coeffs - fx_ref))) < 1e-10
    assert float(np.max(np.abs(H_rec.fy.coeffs - fy_ref))) < 1e-10


# ---------------------------------------------------------------------------
# intersection bound
# ---------------------------------------------------------------------------

def test_intersection_zero_displacement():
    sched = make_schedule()
    exact, _ = normalize(pure_twist(FREQ, STRIP), ALPHA, sched, K_trunc=4, J=3, y_scale=8.0)
    dom = StripDomain(0.5, 0.01)
    Z = ConjugacyMap.identity(FREQ, dom, 4, 3)
    Q = Polynomial(np.zeros(3))
    rep = intersection_bound(Z, exact, Q, s_plus=0.005, eps_plus=8.0 * sched.theta, K_map=0)
    assert rep["pass"]
    assert len(rep["witnesses"]) == 7


def exact_map(n, y_scale=8.0, flux=2e-4):
    """The exact normalized map of a kicked twist on n frequencies whose
    radial kick, with the flux, takes both signs."""
    modes = [(tuple(int(i == j) for i in range(n)), 0.5 - 0.1 * j) for j in range(n)]
    modes.append(((2,) + (0,) * (n - 1), 0.3))
    return kam.ExactNormalizedMap(kicked_twist(qp.Frequency(OMEGAS[n]), 1e-3, modes, flux=flux),
                                  0.8, y_scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_intersection_bound_with_identity_Z_reads_the_exact_map_on_the_torus(n):
    # Z = identity makes Psi the exact map: N_measured and every witness
    # against hx and hy sampled directly on theta_grid(8, n), the grid of a
    # box K = 3; |Psi^(2) - eta - Q| is the larger part of N
    exact = exact_map(n, y_scale=1.0)
    Z = ConjugacyMap.identity(qp.Frequency(OMEGAS[n]), StripDomain(0.5, 0.01), 3, 3)
    Q = Polynomial([1e-3, 2e-2, 3.0])
    s_plus, eps_plus = 0.005, 0.9
    rep = intersection_bound(Z, exact, Q, s_plus=s_plus, eps_plus=eps_plus, K_map=2)
    th = qp.theta_grid(8, n).reshape(n, -1)[..., None]
    etas = np.linspace(-0.9 * s_plus, 0.9 * s_plus, 7)
    d = exact.hy(th, etas)                                  # Psi^(2) - eta, (P, 7)
    psi1 = (exact.y_scale - eps_plus) * etas + exact.hx(th, etas)
    N_ref = max(float(np.max(np.abs(d - Q(etas)))), float(np.max(np.abs(psi1))))
    assert N_ref > float(np.max(np.abs(psi1)))
    assert rep["N_measured"] == pytest.approx(N_ref, rel=1e-12)
    assert [w[0] for w in rep["witnesses"]] == etas.tolist()
    for (_, angles), d_eta in zip(rep["witnesses"], d.T):
        # the witness is the grid point of its column's least |d|
        i = np.ravel_multi_index(tuple(np.rint(np.array(angles) * 8 / qp.TWO_PI).astype(int)),
                                 (8,) * n)
        assert angles == th[:, i, 0].tolist()
        assert abs(d_eta[i]) <= np.min(np.abs(d_eta)) + 1e-17


def test_intersection_bound_on_box_zero_samples_eight_points_per_axis(monkeypatch):
    # the grid holds Z's box with the 8-point floor: K = 0 still samples
    # theta_grid(8, n), and the bound passes
    grids = []
    sample = kam.sample_strip_stack
    monkeypatch.setattr(kam, "sample_strip_stack",
                        lambda strips, N, *args: grids.append(N) or sample(strips, N, *args))
    Z = ConjugacyMap.identity(FREQ, StripDomain(0.5, 0.01), 0, 0)
    rep = intersection_bound(Z, exact_map(2), Polynomial(np.zeros(3)), s_plus=0.005,
                             eps_plus=8.0, K_map=2)
    assert grids == [8] and rep["pass"] and len(rep["witnesses"]) == 7
    points = qp.theta_grid(8, 2).reshape(2, -1).T.tolist()
    assert all(angles in points for _, angles in rep["witnesses"])


def test_intersection_polynomial_extraction_chain():
    # |a + b eta + c eta^2| <= N on |eta| < s forces the 3N bound
    rng = np.random.default_rng(9)
    s = 0.3
    etas = np.linspace(-s, s, 512)
    for _ in range(50):
        a, b, c = rng.uniform(-1, 1, 3)
        N = float(np.max(np.abs(Polynomial([a, b, c])(etas))))
        assert abs(a) <= N + 1e-12
        assert abs(b) * s + abs(c) * s**2 <= 2 * N + 1e-12
        assert abs(a) + abs(b) * s + abs(c) * s * s <= 3 * N + 1e-12


def test_intersection_rigid_shift_no_witness():
    sched = make_schedule()
    mp = rigid_shift(FREQ, 5e-3, STRIP)
    exact, _ = normalize(mp, ALPHA, sched, K_trunc=4, J=3, y_scale=8.0)
    dom = StripDomain(0.5, 0.01)
    Z = ConjugacyMap.identity(FREQ, dom, 4, 3)
    Q = Polynomial(np.zeros(3))
    # d = Psi^(2) - eta is the flux c / y_scale on every column: the first
    # column fails, and the report is that failure alone
    rep = intersection_bound(Z, exact, Q, s_plus=0.005, eps_plus=8.0 * sched.theta, K_map=0)
    d = 5e-3 / 8.0
    assert rep == {"pass": False, "error": f"no radial sign change at eta = {-0.9 * 0.005:.3e} "
                                           f"(min d = {d:.3e}, max d = {d:.3e})"}


# ---------------------------------------------------------------------------
# composition consistency and containment
# ---------------------------------------------------------------------------

def test_compose_conjugacy_consistency():
    sched = make_schedule()
    dom_prime = StripDomain(float(sched.r_prime[1]), float(sched.s_prime[1]))
    rng = np.random.default_rng(13)

    def low_order(dom, amp, J=3, K=12, k_fill=2):
        shape = (2 * K + 1,) * 2 + (J + 1,)
        coeffs = np.zeros(shape, dtype=complex)
        lo = slice(K - k_fill, K + k_fill + 1)
        blk = (rng.standard_normal((2 * k_fill + 1,) * 2 + (J + 1,))
               + 1j * rng.standard_normal((2 * k_fill + 1,) * 2 + (J + 1,)))
        coeffs[lo, lo, :] = amp * blk * 0.3 ** np.arange(J + 1)
        return symmetrized(StripFunction(FREQ, dom, coeffs))

    Z = ConjugacyMap(low_order(dom_prime, 1e-4, J=5), low_order(dom_prime, 1e-4, J=5),
                     1.0, 1.0 - 1e-3)
    r, s, theta = float(sched.r[1]), float(sched.s[1]), sched.theta
    dom_w = StripDomain(r - 2 * r / 6.0, s / theta)
    w_u, w_v = low_order(dom_w, 3e-6, J=5), low_order(dom_w, 3e-6, J=5)
    Z_new = compose_conjugacy(Z, w_u, w_v, theta, sched.q, StripDomain(
        float(sched.r_prime[2]), float(sched.s_prime[2])))
    # random sample of D_{k+1}
    xs = rng.uniform(0, 2 * math.pi, 30)
    ys = rng.uniform(-s / 2, s / 2, 30)
    th = np.stack([xs * 0 + xs, GOLDEN * 0 + xs * 0])  # placeholder, rebuilt below
    th = np.stack([xs, xs * GOLDEN])
    # direct: Z(W(point))
    wv = eval_strip_stack([w_u, w_v], th, ys)
    u_val, v_val = wv[..., 0], wv[..., 1]
    wy = theta * ys + v_val
    th_w = th + np.multiply.outer(FREQ.vec, u_val)
    zv = eval_strip_stack([Z.P, Z.S], th_w, wy)
    direct_disp = u_val + zv[..., 0]
    direct_y = Z.L * wy + zv[..., 1]
    # composed representation
    got = eval_strip_stack([Z_new.P, Z_new.S], th, ys)
    assert float(np.max(np.abs(got[..., 0] - direct_disp))) < 1e-11
    assert float(np.max(np.abs(Z_new.L * ys + got[..., 1] - direct_y))) < 1e-11


def test_imaginary_part_containment():
    # |Im Z(zeta)| <= B * max(r, s) on sampled zeta (real map, Z near identity)
    dom = StripDomain(0.05, 0.01)
    Z = small_conjugacy(dom, amp=1e-4, seed=14)
    rng = np.random.default_rng(15)
    B = 1.0 + 1e-3          # B_1 = 1 + q for the q of small_conjugacy's b = 1 - q
    bound = B * max(dom.r, dom.s)
    for _ in range(20):
        x = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-dom.r, dom.r)
        y = rng.uniform(-dom.s, dom.s)
        th = np.multiply.outer(FREQ.vec, np.array([complex(x)]))
        vals = eval_strip_stack([Z.P, Z.S], th, np.array([y + 0j]))
        zx = x + vals[0, 0]
        zy = Z.L * y + vals[0, 1]
        assert max(abs(zx.imag), abs(zy.imag)) <= bound * (1 + 1e-9)


def sampled_containment(Z, domain, target):
    """The oracle: |Im Z_x| and |Z_y| sampled at 24 points of Re x in
    [0, 2 pi), Im x in {-r, 0, r} and y in {-s, 0, s}, against target."""
    xs = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    im = np.repeat([-domain.r, 0.0, domain.r], 3)[None, :]
    y = np.tile([-domain.s, 0.0, domain.s], 3)[None, :]
    vals = eval_strip_stack([Z.P, Z.S], np.multiply.outer(Z.P.freq.vec, xs), y, 1j * im)
    zx = xs[:, None] + 1j * im + vals[..., 0]
    zy = Z.L * y + vals[..., 1]
    return bool(np.max(np.abs(zx.imag)) <= target.r and np.max(np.abs(zy)) <= target.s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_range_containment_implies_the_sampled_check(n):
    # the coefficient bound covers all of D: wherever it holds, every
    # boundary sample lies inside the target too
    freq = qp.Frequency(OMEGAS[n])
    dom_Z, dom = StripDomain(0.4, 0.02), StripDomain(0.3, 0.015)
    held = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        Z = small_conjugacy(dom_Z, K=3, amp=10 ** rng.uniform(-4, -1.5),
                            L=rng.uniform(0.5, 1.5), seed=seed, freq=freq)
        target = StripDomain(rng.uniform(0.3, 0.5), rng.uniform(0.01, 0.04))
        if Z.range_containment(dom, target):
            held += 1
            assert sampled_containment(Z, dom, target)
    assert 0 < held < 40


def test_range_containment_fails_past_the_margin():
    dom, target = StripDomain(0.3, 0.01), StripDomain(0.4, 0.02)
    Z = ConjugacyMap.identity(FREQ, dom, 3, 2)
    assert Z.range_containment(dom, target) and sampled_containment(Z, dom, target)
    mean, e1 = (3, 3, 0), (4, 3, 0)
    # |P|_D = 0.11 above the margin 0.1 of Im x: refused, although a real
    # constant P moves no Im Z_x sample
    P = Z.P.coeffs.copy()
    P[mean] = 0.11
    wide = ConjugacyMap(StripFunction(FREQ, dom, P), Z.S, 1.0, 1.0)
    assert not wide.range_containment(dom, target)
    assert sampled_containment(wide, dom, target)
    # P = 0.5 sin(x_1): Im Z_x reaches 0.3 + 0.5 sinh(0.3) = 0.45 > 0.4
    P = Z.P.coeffs.copy()
    P[e1], P[(2, 3, 0)] = -0.25j, 0.25j
    sine = ConjugacyMap(StripFunction(FREQ, dom, P), Z.S, 1.0, 1.0)
    assert not sine.range_containment(dom, target)
    assert not sampled_containment(sine, dom, target)
    # |Z_y| = s + 0.011 > 0.02 at y = s
    S = Z.S.coeffs.copy()
    S[mean] = 0.011
    high = ConjugacyMap(Z.P, StripFunction(FREQ, dom, S), 1.0, 1.0)
    assert not high.range_containment(dom, target)
    assert not sampled_containment(high, dom, target)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def acceptance_map(lam=1e-4, flux=0.0):
    return kicked_twist(FREQ, lam, MODES, flux=flux, strip=STRIP)


def test_run_zero_perturbation():
    sched = make_schedule(k_max=6)
    out = run(pure_twist(FREQ, STRIP), ALPHA, sched, tol=1e-8,
              K_trunc=6, J=4, y_scale=8.0)
    assert len(out.trace) == 1             # converged before any step
    assert out.trace[-1]["defect"] == 0.0
    assert out.curve.phi.norm_upper() == 0.0
    assert out.curve.psi.mean() == pytest.approx(ALPHA.alpha)


def test_run_acceptance_instance():
    sched = make_schedule(k_max=8)
    out = run(acceptance_map(), ALPHA, sched, tol=1e-8,
              K_trunc=8, J=6, y_scale=16.0)
    defects = [r["defect"] for r in out.trace]
    assert defects[-1] <= 1e-8
    assert out.trace[-1]["k"] <= 6
    for a, b in zip(defects, defects[1:]):
        assert b <= a / 4.0
    for rec in out.trace[:-1]:
        assert rec["intersection"]["pass"]
        # the pullback Newton of the bound: at most 40 steps, to its tolerance
        assert 0 <= rec["intersection"]["newton_iters"] < 40
        assert rec["intersection"]["newton_residual"] < 1e-12 * (1.0 + ALPHA.alpha)
        # each pullback Newton solves on one interpolant
        assert rec["intersection"]["newton_builds"] == rec["solve_back"]["newton_builds"] == 1
    # the collocation grid drops no resolved mass here: no aliasing to guard
    assert all(rec["evaluator"]["band"] <= 1e-12 for rec in out.trace)
    # each stepped level records its working box, within the caps and
    # trimmed; the first keeps the cap's J, and Z ends on the last box
    boxes = [rec["box"] for rec in out.trace[:-1]]
    assert "box" not in out.trace[-1]
    assert all(0 <= K <= 8 and 0 <= J <= 6 for K, J in boxes)
    assert boxes[0][1] == 6 and max(K for K, _ in boxes) < 8
    assert (out.Z.P.K, out.Z.P.J) == tuple(boxes[-1])


# a kicked twist with modes up to |k|_inf = 4 at lambda 3e-3: its level fields
# fill the K_trunc 12 box, so the 3K+2 collocation grid runs close to aliasing
STRESS_MODES = MODES + [((3, -2), 0.1), ((2, 3), 0.08), ((4, 1), 0.05)]
# per-level defects of this run with the collocation on default_grid, 2(2K+1) points
STRESS_DEFECTS_2X = [3.6995e-3, 1.1066e-3, 6.7401e-4, 5.1429e-5, 7.4170e-7, 2.0654e-8]


def test_run_stress_collocation_grid_matches_oversampled_grid():
    t0 = time.monotonic()
    mp = kicked_twist(FREQ, 3e-3, STRESS_MODES, strip=STRIP)
    # k_max 6 stops this run above tol 1e-10: its trace comes with NotConverged
    with pytest.raises(NotConverged) as info:
        run(mp, ALPHA, make_schedule(k_max=6), tol=1e-10, K_trunc=12, J=6,
            y_scale=16.0)
    elapsed = time.monotonic() - t0
    trace = info.value.trace
    defects = [r["defect"] for r in trace]
    assert len(defects) == len(STRESS_DEFECTS_2X)
    for got, ref in zip(defects, STRESS_DEFECTS_2X):
        assert got == pytest.approx(ref, rel=0.05)
    bands = [r["evaluator"]["band"] for r in trace]
    assert max(bands) > 1e-6               # the indicator sees the near-aliasing
    assert all(r["solve_back"]["newton_residual"] < 1e-11 for r in trace[:-1])
    assert elapsed <= 20.0, f"{elapsed:.1f}s over the 20 s budget"


def test_run_level1_defect_scales_linearly():
    sched = make_schedule(k_max=8)
    lams = [1e-3, 1e-4, 1e-5]
    d1 = []
    for lam in lams:
        out = run(acceptance_map(lam), ALPHA, sched, tol=1e-8,
                  K_trunc=8, J=6, y_scale=16.0)
        d1.append([r for r in out.trace if r["k"] == 1][0]["defect"])
    slope = np.polyfit(np.log(lams), np.log(d1), 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_run_twist_is_the_product_chain_of_theta(monkeypatch):
    # each level's twist is read from H: eps_{k+1} = theta * eps_k exactly,
    # the twist Phi_plus carries, not sigma * theta**(k - k0) by pow, which
    # differs from the chain in the last bit from k - k0 = 5 on
    eps = []
    solve_coupled = kam.solve_coupled
    monkeypatch.setattr(kam, "solve_coupled",
                        lambda *args, **kw: eps.append(kw["epsilon"]) or solve_coupled(*args, **kw))
    sched = make_schedule(k_max=8)
    with pytest.raises(NotConverged):           # tol 0 is out of reach: every level runs
        run(acceptance_map(), ALPHA, sched, tol=0.0, K_trunc=8, J=6, y_scale=16.0)
    assert len(eps) >= 6 and eps[0] == 16.0
    for prev, cur in zip(eps, eps[1:]):
        assert cur == sched.theta * prev


def test_run_large_perturbation_not_converged():
    sched = make_schedule(k_max=6)
    with pytest.raises(NotConverged) as exc:
        run(acceptance_map(0.5), ALPHA, sched, tol=1e-8,
            K_trunc=8, J=6, y_scale=16.0)
    assert len(exc.value.trace) >= 1


def test_run_checks_the_coupled_residuals(monkeypatch):
    # every stepped level verifies the coupled equations: a residual above
    # tolerance ends the run in NotConverged, recorded as the level's failure
    monkeypatch.setattr(cohomology, "_grid_residual", lambda us, rhss, alpha: [1.0] * len(us))
    with pytest.raises(NotConverged) as info:
        run(acceptance_map(), ALPHA, make_schedule(k_max=8), tol=1e-8,
            K_trunc=8, J=6, y_scale=16.0)
    trace = info.value.trace
    assert len(trace) == 1
    assert trace[0]["failure"].startswith("ResidualDefect:")


def test_run_curve_quality_and_orbit():
    sched = make_schedule(k_max=8)
    mp = acceptance_map()
    out = run(mp, ALPHA, sched, tol=1e-8, K_trunc=8, J=6, y_scale=16.0)
    rng = np.random.default_rng(0)
    xis = rng.uniform(0, 100, 1000)
    assert conjugacy_residual(out.curve, mp, xis) <= 1e-8
    # orbit stays near the curve for 10^4 iterates
    from qpkam.qpfourier import compose_angle, invert_angle_map

    inv = invert_angle_map(out.curve.phi, K_out=16)
    r_hat = compose_angle(out.curve.psi, inv, K_out=16)
    th, r = out.curve.points(np.array([0.35]))
    pt = (float(th[0]), float(r[0]))
    worst = 0.0
    for _ in range(10_000):
        pt = apply_map(mp, pt)
        worst = max(worst, abs(pt[1] - float(r_hat.eval(pt[0]).real)))
    assert worst <= 10.0 * math.sqrt(1e-8)


def test_run_measures_each_level_once(monkeypatch):
    calls = []
    defect_sup = NormalizedMap.defect_sup
    monkeypatch.setattr(NormalizedMap, "defect_sup",
                        lambda self: calls.append(1) or defect_sup(self))
    mp = acceptance_map()
    out = run(mp, ALPHA, make_schedule(k_max=8), tol=1e-8, K_trunc=8, J=6,
              y_scale=16.0)
    k0 = out.trace[0]["k"]
    # one per trace record and one in the start-level scan: the members
    # below k0 are the twist by their coefficient bounds, with no grid sup
    assert k0 >= 1 and len(out.trace) > 1
    assert len(calls) == len(out.trace) + 1
    # the trace defect is the returned curve's invariance defect on the hull
    # torus theta_grid(default_grid(K), n), recomputed here from out.Z in
    # (theta, r) units: theta = x + P, r = alpha + sigma S at y = 0
    assert isinstance(out.curve, CurveGraph)
    assert out.curve.defect == out.trace[-1]["defect"]
    Z, alpha, sigma = out.Z, ALPHA.alpha, 16.0
    N = qp.default_grid(max(Z.P.K, mp.K))
    th = qp.theta_grid(N, 2).reshape(2, -1)
    P, S, P1, S1 = (qp.synthesize(f.modes_at_y(0.0), 2, N).ravel()
                    for f in (Z.P, Z.S, Z.P.shift_x(alpha), Z.S.shift_x(alpha)))
    r = alpha + sigma * S
    th_curve = th + np.multiply.outer(FREQ.vec, P)
    torus = max(np.max(np.abs(P + r + mp.f_shell(th_curve, r) - (alpha + P1))),
                np.max(np.abs(r + mp.g_shell(th_curve, r) - (alpha + sigma * S1))))
    assert out.curve.defect == pytest.approx(torus, rel=1e-5)
    # the orbit of 1,000 random xi reads the same sup within 5%
    orbit = conjugacy_residual(out.curve, mp, np.random.default_rng(0).uniform(0.0, 240.0, 1000))
    assert orbit == pytest.approx(out.curve.defect, rel=0.05)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_run_defect_of_a_kick_on_the_unit_vectors_at_K_trunc_0(n):
    # no mode of the kick fits the K_trunc 0 box, so Z stays the identity and
    # every level's defect is the kick's sup on the hull torus: lam sum|c_i|
    # at sin(theta_i) = sign(c_i), which the N = 8 grid holds (theta = pi/2,
    # 3 pi/2).  The x-part reads A o Z's x-displacement, which carries alpha,
    # so it resolves the defect to an ulp of alpha.
    tau = n + 0.5
    freq = certify_frequency(OMEGAS[n], 30)
    alpha = sample_admissible(freq, 1e-2, tau, (0.3, 1.1), K=30, count=200, seed=0).first
    lam, cs = 1e-4, [0.55, -0.45, 0.15][:n]
    modes = [(tuple(int(i == j) for i in range(n)), c) for j, c in enumerate(cs)]
    mp = kicked_twist(freq, lam, modes, strip=(0.0, 1.7))
    sched = build_schedule(p=2 * tau + 2, n=n, tau=tau, gamma=1e-2, k_max=4)
    with pytest.raises(NotConverged) as info:
        run(mp, alpha, sched, tol=1e-8, K_trunc=0, J=3, y_scale=16.0)
    defects = [rec["defect"] for rec in info.value.trace]
    assert len(defects) == 5
    want = lam * sum(abs(c) for c in cs)
    for defect in defects:
        assert defect == pytest.approx(want, rel=1e-14, abs=np.spacing(alpha.alpha))


@pytest.mark.parametrize("k, K_trunc", [(4, 0), (5, 2)])
def test_run_defect_resolves_kick_modes_beyond_the_box(k, K_trunc):
    # sin(k theta) vanishes on theta_grid(2k, 1), which default_grid(K_trunc)
    # is here: a defect grid sized by Z's box alone reads 0 and returns a
    # curve whose invariance error is lam |c|.  Sized by the kick's modes too,
    # it reads above 0.98 lam |c| (sin 80 degrees) on every level.  So does
    # the intersection bound's N_measured, which read about 2e-18 at (4, 0)
    # on the 8 points of the K_trunc 0 box alone (sin(4 theta) is 0 there).
    freq = certify_frequency(OMEGAS[1], 30)
    alpha = sample_admissible(freq, 1e-2, 1.5, (0.3, 1.1), K=30, count=200, seed=0).first
    lam, c = 1e-4, 0.55
    mp = kicked_twist(freq, lam, [((k,), c)], strip=(0.0, 1.7))
    sched = build_schedule(p=5.0, n=1, tau=1.5, gamma=1e-2, k_max=4)
    with pytest.raises(NotConverged) as info:
        run(mp, alpha, sched, tol=1e-8, K_trunc=K_trunc, J=3, y_scale=16.0)
    assert all(0.98 * lam * c <= rec["defect"] <= 1.01 * lam * c for rec in info.value.trace)
    bounds = [rec["intersection"] for rec in info.value.trace if "intersection" in rec]
    assert len(bounds) == 4
    assert all(bound["N_measured"] >= 0.98 * lam * c for bound in bounds)


# y_strip = 0.8/sigma: at sigma 16 levels 0-4 share one s_box, at sigma 2
# levels 0 and 1 share the first of several
@pytest.mark.parametrize("sigma", [16.0, 2.0])
def test_run_projects_the_map_data_once_per_chebyshev_scale(monkeypatch, sigma):
    # smoothing is a multiplier on the projection of the map data, which
    # depends on the level only through s_box = min(delta_k, y_strip)
    scales = []
    from_sampler = StripFunction.from_sampler

    def counted(sampler, freq, domain, K, J):
        scales.append(domain.s)
        return from_sampler(sampler, freq, domain, K, J)

    monkeypatch.setattr(StripFunction, "from_sampler", staticmethod(counted))
    members = {}
    normalize_ = kam.normalize

    def recorded(*args, **kwargs):
        exact, member = normalize_(*args, **kwargs)
        return exact, lambda k: members.setdefault(k, member(k))

    monkeypatch.setattr(kam, "normalize", recorded)
    mp, sched = acceptance_map(), make_schedule(k_max=8)
    run(mp, ALPHA, sched, tol=1e-8, K_trunc=8, J=6, y_scale=sigma)
    s_boxes = {A.domain.s for A in members.values()}
    assert sorted(scales) == sorted(2 * list(s_boxes))
    assert len(members) > len(s_boxes)             # a projection serves several levels
    # each member equals the one smoothed from its own level's projection
    for k, A in members.items():
        d = float(sched.delta[k])
        dom = StripDomain(d, A.domain.s)
        fx = from_sampler(lambda th, y: mp.f_shell(th, ALPHA.alpha + sigma * y), FREQ, dom, 8, 6)
        fy = from_sampler(lambda th, y: mp.g_shell(th, ALPHA.alpha + sigma * y) / sigma,
                          FREQ, dom, 8, 6)
        for got, want in ((A.fx, smooth(fx, d)), (A.fy, smooth(fy, d))):
            assert got.domain == want.domain == dom
            np.testing.assert_array_equal(got.coeffs, want.coeffs)


def test_trace_BM_trend_and_containment():
    sched = make_schedule(k_max=8)
    out = run(acceptance_map(), ALPHA, sched, tol=1e-8,
              K_trunc=8, J=6, y_scale=16.0)
    bms = [r["BM_k"] for r in out.trace]
    for a, b in zip(bms, bms[1:]):
        assert b < a                      # B_k M_k -> 0 trend
    k_last = out.trace[-1]["k"]
    dom = StripDomain(float(sched.r[k_last]), float(sched.s[k_last]))
    target = StripDomain(float(sched.r[0]), float(sched.s[0]))
    assert out.Z.range_containment(dom, target)
    # the driver records the same check after every step
    assert len(out.trace) > 1
    assert all(r["Z_contained"] for r in out.trace[:-1])


def test_family_estimates_report():
    sched = make_schedule()
    mp = acceptance_map()
    exact, family = normalize(mp, ALPHA, sched, K_trunc=8, J=6, y_scale=16.0)
    assert level0_bound_holds(mp, family, 16.0)
    # |A - A_1| on the real grid: level 1 admits the |k|_1 = 1 modes, so the
    # gap to A is the blocked (1,1) part
    m1 = family(1)
    N = qp.default_grid(m1.fx.K)
    ys = m1.fx.y_nodes()
    th = qp.theta_grid(N, FREQ.n).reshape(FREQ.n, -1, 1)
    f_exact = mp.f_shell(th, exact.alpha + exact.y_scale * ys)
    gap = float(np.max(np.abs(f_exact - qp.sample_strip_stack([m1.fx], N, ys)[..., 0])))
    assert gap == pytest.approx(1e-4 * 0.15, rel=2e-2)
