"""Property tests of the evaluation primitives: eval_modes against FFT
synthesis and the explicit mode sum, and the strip evaluators against
per-node and direct scattered-evaluation oracles; and of the Fourier/Chebyshev
algebra: symmetrize, with_domain, and invert_angle_map with compose_angle."""

import itertools
import math

import numpy as np
import pytest
from conftest import corner_sheet_sup, eval_xy, symmetric_box, symmetrized
from hypothesis import given, settings
from hypothesis import strategies as st

from qpkam import qpfourier as qp
from qpkam.qpfourier import (
    Frequency,
    ShellFunction,
    StripDomain,
    StripFunction,
    compose_angle,
    eval_strip_stack,
    invert_angle_map,
)

OMEGAS = {1: (1.0,), 2: (1.0, math.sqrt(2.0)), 3: (1.0, math.sqrt(2.0), math.sqrt(3.0))}
PROPS = settings(max_examples=40, deadline=None)


def random_strip(rng, n, K, J, s=0.4):
    shape = (2 * K + 1,) * n + (J + 1,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs *= np.exp(-0.5 * qp.k1_norms(K, n))[..., None]
    return symmetrized(StripFunction(Frequency(OMEGAS[n]), StripDomain(0.7, s), coeffs))


def random_box(rng, n, K, trailing):
    shape = (2 * K + 1,) * n + trailing
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


TRAILING = st.sampled_from([(), (1,), (3,), (2, 3)])


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       extra=st.integers(0, 3), trailing=TRAILING)
def test_eval_modes_matches_synthesize_on_grid(seed, n, K, extra, trailing):
    rng = np.random.default_rng(seed)
    coeffs = random_box(rng, n, K, trailing)
    N = 2 * K + 1 + extra
    got = qp.eval_modes(coeffs, qp.theta_grid(N, n).reshape(n, -1))
    want = qp.synthesize(coeffs, n, N).reshape((N**n,) + trailing)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.sum(np.abs(coeffs))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       P=st.integers(1, 20), trailing=TRAILING, imag=st.sampled_from([0.0, 0.3]))
def test_eval_modes_matches_explicit_sum(seed, n, K, P, trailing, imag):
    rng = np.random.default_rng(seed)
    coeffs = random_box(rng, n, K, trailing)
    theta = rng.uniform(-qp.TWO_PI, qp.TWO_PI, (n, P)) + 1j * imag * rng.uniform(-1.0, 1.0, (n, P))
    # sum over every k of c_k e^{i<k, theta_p>}
    phase = np.exp(1j * qp.mode_vectors(K, n).T @ theta)          # ((2K+1)^n, P)
    want = np.tensordot(phase, coeffs.reshape((-1,) + trailing), axes=([0], [0]))
    got = qp.eval_modes(coeffs, theta)
    assert got.shape == (P,) + trailing
    bound = np.sum(np.abs(coeffs)) * math.exp(imag * n * K)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * bound


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       J=st.integers(0, 5), nodes=st.integers(1, 6), per_node=st.booleans())
def test_sample_matches_per_node_synthesis(seed, n, K, J, nodes, per_node):
    rng = np.random.default_rng(seed)
    f = random_strip(rng, n, K, J)
    ys = rng.uniform(-f.domain.s, f.domain.s, nodes)
    shift = rng.uniform(-3.0, 3.0, nodes) if per_node else float(rng.uniform(-3.0, 3.0))
    N = qp.default_grid(K)
    got = f.sample(N, ys, shift)
    kw = qp.k_dot_omega(K, f.freq.vec)
    for j, a in enumerate(np.broadcast_to(shift, ys.shape)):
        want = qp.synthesize(f.modes_at_y(ys[j]) * np.exp(1j * kw * a), n, N).real
        assert np.max(np.abs(got[..., j] - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(0, 4),
       J=st.integers(0, 4), P=st.integers(1, 12), nodes=st.integers(1, 4))
def test_node_sliced_evaluator_matches_eval_xy(seed, n, K, J, P, nodes):
    rng = np.random.default_rng(seed)
    f, g = random_strip(rng, n, K, J), random_strip(rng, n, K, J)
    x = rng.uniform(0.0, 40.0, P)
    disp = rng.uniform(-0.5, 0.5, (P, nodes))
    y = rng.uniform(-f.domain.s, f.domain.s, (P, nodes))
    got = eval_strip_stack([f, g], np.multiply.outer(f.freq.vec, x), y, disp)
    assert got.shape == (P, nodes, 2) and np.isrealobj(got)
    for m, h in enumerate((f, g)):
        want = eval_xy(h, x[:, None] + disp, y).real
        assert np.max(np.abs(got[..., m] - want)) <= 1e-11 * (1.0 + np.max(np.abs(want)))
    # without a node axis the evaluator is plain scattered evaluation
    flat = eval_strip_stack([f], np.multiply.outer(f.freq.vec, x), y[:, 0])[..., 0]
    err = np.max(np.abs(flat - eval_xy(f, x, y[:, 0]).real))
    assert err <= 1e-11 * (1.0 + np.max(np.abs(flat)))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(0, 4),
       batch=st.integers(1, 3), rho=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_sheet_sup_matches_brute_force_sheets(seed, n, K, batch, rho):
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * n + (batch,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    N = qp.default_grid(K)
    grid = qp.theta_grid(N, n).reshape(n, -1)
    sheets = [np.zeros(n)]
    if rho > 0:
        sheets += [rho * np.array(c) for c in itertools.product((-1.0, 1.0), repeat=n)]
    brute = max(float(np.max(np.abs(qp.eval_modes(coeffs[..., b], grid + 1j * v[:, None]))))
                for v in sheets for b in range(batch))
    assert abs(corner_sheet_sup(coeffs, n, N, rho) - brute) <= 1e-12 * brute
    if rho == 0:                        # the real torus alone: qp.sheet_sup
        assert abs(qp.sheet_sup(coeffs, n, N) - brute) <= 1e-12 * brute


def coeff_scale(strips, tmax):
    """sum |f_kj| M_j(tmax) over the stack: bounds every value at |y/s| <= tmax."""
    Mj = qp.cheb_disc_bounds(strips[0].J, tmax)
    return sum(float(np.sum(np.abs(f.coeffs) @ Mj)) for f in strips)


def order_threshold(M):
    """Largest x with taylor_order(x) <= M (bisection on the remainder bound)."""
    lo, hi = 0.0, qp.TAYLOR_MAX_ORDER + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** (M + 1) / math.factorial(M + 1) * math.exp(mid) <= qp.TAYLOR_TOL:
            lo = mid
        else:
            hi = mid
    return lo


def grid_vs_direct(strips, N, y, disp):
    n = strips[0].n
    with qp.grid_eval_log() as log:
        got = eval_strip_stack(strips, N, y, disp)
    want = eval_strip_stack(strips, qp.theta_grid(N, n).reshape(n, -1), y, disp)
    return got, want, log


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       J=st.integers(0, 4), m=st.integers(1, 3), nodes=st.integers(1, 3),
       N=st.integers(2, 12), spread=st.floats(0.0, 0.05), complex_y=st.booleans())
def test_grid_path_matches_direct_oracle(seed, n, K, J, m, nodes, N, spread, complex_y):
    # N ranges below 2K+1 as well: those boxes are synthesized on a multiple of N
    if n == 3:
        N = min(N, 8)
    rng = np.random.default_rng(seed)
    strips = [random_strip(rng, n, K, J) for _ in range(m)]
    P = N**n
    s = strips[0].domain.s
    disp = rng.uniform(-1.0, 1.0, nodes) + spread * rng.uniform(-1.0, 1.0, (P, nodes))
    y = rng.uniform(-s, s, (P, nodes))
    if complex_y:
        y = y + 1j * rng.uniform(-s, s, (P, nodes))
    got, want, log = grid_vs_direct(strips, N, y, disp)
    assert got.shape == (P, nodes, m) and np.iscomplexobj(got) == complex_y
    assert log["nodes"] == nodes and log["fallbacks"] == 0
    tmax = float(np.max(np.abs(y))) / s
    assert np.max(np.abs(got - want)) <= 1e-14 * coeff_scale(strips, tmax)


@pytest.mark.parametrize("M", range(qp.TAYLOR_MAX_ORDER + 1))
def test_grid_path_runs_every_taylor_order(M):
    rng = np.random.default_rng(M)
    n, K, N = 2, 3, 10
    strips = [random_strip(rng, n, K, 3) for _ in range(2)]
    W = float(np.max(np.abs(qp.k_dot_omega(K, strips[0].freq.vec))))
    lo = order_threshold(M - 1) if M > 0 else 0.0
    x = 0.5 * (lo + order_threshold(M))
    # displacements spread exactly +-x/W around 0.7
    disp = 0.7 + x / W * np.linspace(-1.0, 1.0, N**n)[rng.permutation(N**n)]
    y = rng.uniform(-0.4, 0.4, N**n)
    got, want, log = grid_vs_direct(strips, N, y, disp)
    assert log == {"nodes": 1, "max_order": M, "fallbacks": 0, "band": 0.0}
    assert np.max(np.abs(got - want)) <= 1e-14 * coeff_scale(strips, 1.0)


@pytest.mark.parametrize("bad", ["wide", "nan", "inf"])
def test_grid_path_falls_back_to_direct_slice(bad):
    rng = np.random.default_rng(1)
    n, K, N = 2, 3, 10
    strips = [random_strip(rng, n, K, 2)]
    W = float(np.max(np.abs(qp.k_dot_omega(K, strips[0].freq.vec))))
    disp = rng.uniform(-1.0, 1.0, (N**n, 2)) * np.array([1e-3, 1.0])
    if bad == "wide":
        disp[:, 1] *= 2.0 * order_threshold(qp.TAYLOR_MAX_ORDER) / W + 1.0
    else:
        disp[3, 1] = float(bad)
    y = rng.uniform(-0.4, 0.4, (N**n, 2))
    with np.errstate(invalid="ignore"):
        got, want, log = grid_vs_direct(strips, N, y, disp)
    assert log["nodes"] == 2 and log["fallbacks"] == 1
    # the fallback node is the direct slice itself
    np.testing.assert_array_equal(got[:, 1], want[:, 1])
    assert np.max(np.abs(got[:, 0] - want[:, 0])) <= 1e-14 * coeff_scale(strips, 1.0)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.0, 3.0))
def test_taylor_order_is_the_smallest_passing_order(x):
    def remainder(M):
        return x ** (M + 1) / math.factorial(M + 1) * math.exp(x)

    M = qp.taylor_order(x)
    if M is None:
        assert all(remainder(m) > qp.TAYLOR_TOL for m in range(qp.TAYLOR_MAX_ORDER + 1))
    else:
        assert remainder(M) <= qp.TAYLOR_TOL
        assert M == 0 or remainder(M - 1) > qp.TAYLOR_TOL


def test_taylor_order_rejects_non_finite_and_wide():
    for x in (math.nan, math.inf, -1.0, 25.0, 1e300):
        assert qp.taylor_order(x) is None
    assert qp.taylor_order(0.0) == 0


# ---------------------------------------------------------------------------
# Fourier/Chebyshev algebra
# ---------------------------------------------------------------------------

@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       trailing=TRAILING)
def test_symmetrize_is_idempotent(seed, n, K, trailing):
    coeffs = random_box(np.random.default_rng(seed), n, K, trailing)
    sym = symmetric_box(coeffs, n)
    # a symmetric box passes the reality check and comes back unchanged
    np.testing.assert_array_equal(qp.symmetrize(sym, n), sym)


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(0, 3),
       J=st.integers(0, 5), extra=st.integers(0, 3), ratio=st.floats(0.2, 1.5))
def test_with_domain_is_exact_for_wider_chebyshev_order(seed, n, K, J, extra, ratio):
    rng = np.random.default_rng(seed)
    f = random_strip(rng, n, K, J)
    g = f.with_domain(StripDomain(0.5, ratio * f.domain.s), J + extra)
    assert g.J == J + extra
    ys = g.domain.s * rng.uniform(-1.0, 1.0, 7)
    tmax = max(1.0, ratio)
    err = np.max(np.abs(g.modes_at_y(ys) - f.modes_at_y(ys)))
    assert err <= 1e-13 * coeff_scale([f], tmax)


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(1, 3))
def test_invert_then_compose_is_identity(seed, n, K):
    rng = np.random.default_rng(seed)
    box = random_box(rng, n, K, ()) * np.exp(-0.5 * qp.k1_norms(K, n))
    h = symmetrized(ShellFunction(Frequency(OMEGAS[n]), box))
    # |h| <= 0.15 and |h'| <= 0.1 keep the inverse's tail at K_out 24 below
    # 1e-11 (n = 1) and 1e-13 (n = 2), far inside the 1e-9 budget
    h = h * min(0.15 / h.norm_upper(0.0), 0.1 / h.derivative().norm_upper(0.0))
    h1 = invert_angle_map(h, K_out=24)
    # displacement of t -> t + h(t) + h1(t + h(t)), the identity's being 0
    assert (compose_angle(h1, h, K_out=24) + h).norm_upper(0.0) < 1e-9
