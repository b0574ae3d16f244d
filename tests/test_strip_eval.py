"""Property tests of the evaluation primitives: eval_modes against FFT
synthesis and the explicit mode sum, and the strip evaluators against
per-node and direct scattered-evaluation oracles; and of the Fourier/Chebyshev
algebra: analyze against synthesize and the full FFT, symmetrize,
with_domain, boxed, and invert_angle_map with compose_angle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import corner_sheet_sup, eval_xy, mode_vectors, symmetric_box, symmetrized
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from qpkam import qpfourier as qp
from qpkam.errors import RealityDefect
from qpkam.qpfourier import (
    Frequency,
    ShellFunction,
    StripDomain,
    StripFunction,
    compose_angle,
    eval_strip_stack,
    invert_angle_map,
    sample_strip_stack,
)
from qpkam.smoothing import member_gap

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


def hermitian_box(rng, n, K, trailing):
    """random_box with c_{-k} = conj c_k: the boxes qp.synthesize takes."""
    return symmetric_box(random_box(rng, n, K, trailing), n)


TRAILING = st.sampled_from([(), (1,), (3,), (2, 3)])


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       scalar=st.floats(-3.0, 3.0), rho=st.floats(0.0, 0.5))
def test_shell_and_one_row_strip_share_the_mode_box_algebra(seed, n, K, scalar, rho):
    # a strip with one Chebyshev row (J = 0) on a shell's box: the same
    # coefficients under *, - and dx, each in its own type, and the same
    # conjugate-pair bound
    rng = np.random.default_rng(seed)
    freq, dom = Frequency(OMEGAS[n]), StripDomain(0.7, 0.4)
    a, b = random_box(rng, n, K, ()), random_box(rng, n, K, ())
    f, g = ShellFunction(freq, a), ShellFunction(freq, b)
    fs, gs = StripFunction(freq, dom, a[..., None]), StripFunction(freq, dom, b[..., None])
    for shell, strip in ((f * scalar, fs * scalar), (scalar * f, scalar * fs),
                         (f - g, fs - gs), (f.dx(), fs.dx())):
        assert type(shell) is ShellFunction and type(strip) is StripFunction
        assert strip.domain == dom
        assert np.array_equal(strip.coeffs[..., 0], shell.coeffs)
    assert f.norm_upper(rho) == fs.norm_upper(rho, dom.s)


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       extra=st.integers(0, 3), trailing=TRAILING)
def test_eval_modes_matches_synthesize_on_grid(seed, n, K, extra, trailing):
    # extra covers even and odd N
    rng = np.random.default_rng(seed)
    coeffs = hermitian_box(rng, n, K, trailing)
    N = 2 * K + 1 + extra
    got = qp.eval_modes(coeffs, qp.theta_grid(N, n).reshape(n, -1))
    want = qp.synthesize(coeffs, n, N)
    assert want.shape == (N,) * n + trailing and np.isrealobj(want)
    want = want.reshape((N**n,) + trailing)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.sum(np.abs(coeffs))
    # only the half box k_n >= 0 is read
    lower = (slice(None),) * (n - 1) + (slice(0, K),)
    coeffs[lower] = np.nan
    np.testing.assert_array_equal(qp.synthesize(coeffs, n, N).reshape(want.shape), want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_narrower_than_the_box_raises(n):
    # every grid holds the box it synthesizes: N = 2K is refused, on the
    # synthesis, on the grid path of the shift interpolant (also where it
    # would evaluate directly: a non-finite midpoint) and on eval_strip_stack's
    # grid path (also with complex displacements, which never interpolate)
    rng = np.random.default_rng(n)
    K = 3
    coeffs = hermitian_box(rng, n, K, (2,))
    f = random_strip(rng, n, K, 2)
    for call in (lambda: qp.synthesize(coeffs, n, 2 * K),
                 lambda: qp.grid_shift_cheb(coeffs, np.array(OMEGAS[n]), 2 * K, 0.5, 0.1),
                 lambda: qp.grid_shift_cheb(coeffs, np.array(OMEGAS[n]), 2 * K, math.nan, 0.1),
                 lambda: eval_strip_stack([f], 2 * K, 0.1, 0.2),
                 lambda: eval_strip_stack([f], 2 * K, 0.1, 0.2 + 0.1j)):
        with pytest.raises(ValueError, match="cannot hold"):
            call()


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       P=st.integers(1, 20), trailing=TRAILING, imag=st.sampled_from([0.0, 0.3]),
       chunk=st.sampled_from([1, 50, 2**15]))
def test_eval_modes_matches_explicit_sum(seed, n, K, P, trailing, imag, chunk):
    rng = np.random.default_rng(seed)
    coeffs = random_box(rng, n, K, trailing)
    theta = rng.uniform(-qp.TWO_PI, qp.TWO_PI, (n, P)) + 1j * imag * rng.uniform(-1.0, 1.0, (n, P))
    # sum over every k of c_k e^{i<k, theta_p>}
    phase = np.exp(1j * mode_vectors(K, n).T @ theta)          # ((2K+1)^n, P)
    want = np.tensordot(phase, coeffs.reshape((-1,) + trailing), axes=([0], [0]))
    # EVAL_CHUNK from one point per chunk up to every point in one chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "EVAL_CHUNK", chunk)
        got = qp.eval_modes(coeffs, theta)
    assert got.shape == (P,) + trailing
    bound = np.sum(np.abs(coeffs)) * math.exp(imag * n * K)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * bound


# grid sizes N >= 2K+1 past the box: odd, even and prime offsets
GRID_EXTRA = st.integers(0, 9)


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       extra=GRID_EXTRA, trailing=TRAILING)
@example(seed=0, n=3, K=3, extra=6, trailing=(2,))          # N = 13, prime
@example(seed=1, n=2, K=4, extra=2, trailing=())            # N = 11, prime
@example(seed=2, n=1, K=2, extra=3, trailing=(3,))          # N = 8, even
def test_analyze_inverts_synthesize(seed, n, K, extra, trailing):
    rng = np.random.default_rng(seed)
    coeffs = hermitian_box(rng, n, K, trailing)
    N = 2 * K + 1 + extra
    got = qp.analyze(qp.synthesize(coeffs, n, N), n, K)
    assert got.shape == coeffs.shape
    assert np.max(np.abs(got - coeffs)) <= 1e-14 * np.sum(np.abs(coeffs))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       extra=GRID_EXTRA, trailing=TRAILING)
@example(seed=0, n=3, K=1, extra=8, trailing=(2,))          # N = 11, prime
@example(seed=1, n=2, K=2, extra=5, trailing=())            # N = 10, even
def test_band_mass_of_the_half_spectrum_matches_the_full_fft(seed, n, K, extra, trailing):
    # grid values with every resolved mode present, so the band is not zero
    rng = np.random.default_rng(seed)
    N = 2 * K + 1 + extra
    values = rng.standard_normal((N,) * n + trailing)
    B = (N - 1) // 2
    full = np.fft.fftn(values, axes=tuple(range(n)))
    box = full[np.ix_(*[np.arange(-B, B + 1) % N] * n)] / N**n
    inner = np.zeros(box.shape[:n], dtype=bool)
    inner[(slice(B - K, B + K + 1),) * n] = True
    want = float(np.sum(np.abs(box[~inner])))
    with qp.grid_eval_log() as log:
        qp.analyze(values, n, K)
    assert log["band"] == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_from_grid_refuses_complex_values(n):
    # complex data are not cast to real: even a zero imaginary part is refused
    freq, N, K, J = Frequency(OMEGAS[n]), 8, 2, 2
    values = np.ones((N,) * n, dtype=complex)
    with pytest.raises(RealityDefect, match="complex values"):
        ShellFunction.from_grid(values, freq, K)
    with pytest.raises(RealityDefect, match="complex values"):
        StripFunction.from_grid(np.ones((N,) * n + (J + 1,), dtype=complex), freq,
                                StripDomain(0.7, 0.4), K)
    assert ShellFunction.from_grid(values.real, freq, K).mean() == 1.0


def extended_eval(coeffs, theta):
    """The mode sum with e^{ik theta} in np.clongdouble from the same float64
    theta: k * theta (53 + 3 bits for |k| <= 6) is exact in the 64-bit
    mantissa, so only the extended exp and sums round."""
    n, P = theta.shape
    K = (coeffs.shape[0] - 1) // 2
    phase = np.exp(1j * np.multiply.outer(theta.astype(np.longdouble), np.arange(-K, K + 1)))
    res = phase[0] @ coeffs.astype(np.clongdouble).reshape(2 * K + 1, -1)
    for d in range(1, n):
        res = (phase[d][:, None, :] @ res.reshape(P, 2 * K + 1, -1))[:, 0]
    return res.reshape((P,) + coeffs.shape[n:])


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 6),
       P=st.integers(1, 40), trailing=TRAILING, scale=st.sampled_from([1.0, 1e3, 1e6]))
def test_eval_modes_power_table_meets_the_extended_oracle(seed, n, K, P, trailing, scale):
    # powers of one exp per point and axis lose about k ulps at mode k,
    # whatever |theta| is; an exp of the rounded k * theta loses k |theta| ulps
    rng = np.random.default_rng(seed)
    coeffs = random_box(rng, n, K, trailing)
    theta = scale * rng.uniform(-qp.TWO_PI, qp.TWO_PI, (n, P))
    err = np.max(np.abs(qp.eval_modes(coeffs, theta) - extended_eval(coeffs, theta)),
                 initial=0.0)
    assert err <= (K + 1) * n * 2.0**-52 * np.sum(np.abs(coeffs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shift_phases_match_the_mode_phase_exp(n):
    # grid_shift_cheb's separable table against exp(1j * <k,omega> * s), and
    # the interpolant built on each table
    rng = np.random.default_rng(n)
    K, omega = 5, np.array(OMEGAS[n])
    kw = qp.k_dot_omega(K, omega)
    s = rng.uniform(-4.0, 4.0, 9)
    want = np.exp(1j * np.multiply.outer(kw, s))
    got = qp._shift_phases(omega, K, s)
    assert got.shape == want.shape
    scale = 1.0 + float(np.max(np.abs(np.multiply.outer(kw, s))))
    assert np.max(np.abs(got - want)) <= 4 * (K + 1) * n * 2.0**-52 * scale
    coeffs = hermitian_box(rng, n, K, (2,))
    cheb = qp.grid_shift_cheb(coeffs, omega, 2 * K + 1, 0.5, 0.4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "_shift_phases",
                   lambda om, K, s: np.exp(1j * np.multiply.outer(qp.k_dot_omega(K, om), s)))
        oracle = qp.grid_shift_cheb(coeffs, omega, 2 * K + 1, 0.5, 0.4)
    assert cheb is not None and cheb.shape == oracle.shape
    assert np.max(np.abs(cheb - oracle)) <= 1e-14 * np.sum(np.abs(coeffs))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 5),
       shape=st.sampled_from([(), (1,), (7,), (3, 4)]))
def test_shell_eval_on_real_x_matches_complex_x(seed, n, K, shape):
    rng = np.random.default_rng(seed)
    f = ShellFunction(Frequency(OMEGAS[n]),
                      hermitian_box(rng, n, K, ()) * np.exp(-qp.k1_norms(K, n)) / 4.0)
    x = rng.uniform(-50.0, 50.0, shape)
    got, want = f.eval(x), f.eval(np.asarray(x, dtype=complex))
    assert np.shape(got) == shape
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-15


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 3),
       J=st.integers(0, 3), P=st.integers(1, 30), nodes=st.integers(1, 5),
       is_complex=st.booleans())
def test_direct_path_shared_displacement_matches_general_form(seed, n, K, J, P, nodes,
                                                              is_complex):
    # disp of shape (P, 1) broadcasts over the node columns: the same values
    # as those values repeated per column
    rng = np.random.default_rng(seed)
    f, g = random_strip(rng, n, K, J), random_strip(rng, n, K, J)
    theta = np.multiply.outer(f.freq.vec, rng.uniform(0.0, 40.0, P))
    y = rng.uniform(-f.domain.s, f.domain.s, (P, nodes))
    disp = rng.uniform(-0.5, 0.5, (P, 1))
    if is_complex:
        disp = disp + 1j * rng.uniform(-0.1, 0.1, (P, 1))
    shared = eval_strip_stack([f, g], theta, y, disp)
    general = eval_strip_stack([f, g], theta, y, np.repeat(disp, nodes, axis=1))
    assert shared.shape == general.shape == (P, nodes, 2)
    assert np.iscomplexobj(shared) == np.iscomplexobj(general) == is_complex
    tmax = float(np.max(np.abs(y))) / f.domain.s
    bound = coeff_scale([f, g], tmax) * math.exp(0.1 * float(np.sum(np.abs(f.freq.vec))) * K)
    assert np.max(np.abs(shared - general)) <= 1e-14 * bound


def test_direct_path_memory_is_bounded_at_n3():
    # n = 3, K 4, J 4, two strips on 14^3 grid points: a complex displacement
    # forces the direct path; one contraction of all points over the first
    # torus axis would hold 14^3 * 9^2 * 5 * 2 complex values (36 MB)
    rng = np.random.default_rng(3)
    strips = [random_strip(rng, 3, 4, 4) for _ in range(2)]
    N = 14
    y = rng.uniform(-0.4, 0.4, N**3)
    disp = rng.uniform(-0.5, 0.5, N**3) + 0.01j
    eval_strip_stack(strips, N, y, disp)                  # warm caches
    tracemalloc.start()
    try:
        with qp.grid_eval_log() as log:
            out = eval_strip_stack(strips, N, y, disp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log["fallbacks"] == log["nodes"] == 1
    assert out.shape == (N**3, 2)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       J=st.integers(0, 5), m=st.integers(1, 3), nodes=st.integers(1, 6),
       per_node=st.booleans())
def test_sample_strip_stack_matches_per_node_synthesis(seed, n, K, J, m, nodes, per_node):
    rng = np.random.default_rng(seed)
    strips = [random_strip(rng, n, K, J) for _ in range(m)]
    ys = rng.uniform(-strips[0].domain.s, strips[0].domain.s, nodes)
    shift = rng.uniform(-3.0, 3.0, nodes) if per_node else float(rng.uniform(-3.0, 3.0))
    N = qp.default_grid(K)
    calls = []
    synthesize = qp.synthesize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "synthesize", lambda c, n, N: calls.append(1) or synthesize(c, n, N))
        got = sample_strip_stack(strips, N, ys, shift)
    assert len(calls) == 1
    assert got.shape == (N**n, nodes, m) and np.isrealobj(got)
    kw = qp.k_dot_omega(K, strips[0].freq.vec)
    scale = coeff_scale(strips, 1.0)
    for s, f in enumerate(strips):
        for j, a in enumerate(np.broadcast_to(shift, ys.shape)):
            want = synthesize(f.modes_at_y(ys[j]) * np.exp(1j * kw * a), n, N)
            assert np.max(np.abs(got[:, j, s] - want.ravel())) <= 1e-15 * scale
    # without ys: the strips' own Chebyshev nodes
    own = sample_strip_stack(strips, N)
    np.testing.assert_array_equal(own, sample_strip_stack(strips, N, strips[0].y_nodes()))


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


@pytest.mark.parametrize("per_point", ["disp", "y"])
@pytest.mark.parametrize("P,nodes", [(5, 3), (4, 4)])
def test_points_axis_array_matches_per_point_oracle(P, nodes, per_point):
    # a (P,) disp or y_pts next to a (P, nodes) array holds one value per
    # point, the same in every node column; P = nodes must not align it with
    # the node axis instead
    rng = np.random.default_rng(P + nodes)
    f, g = random_strip(rng, 2, 3, 3), random_strip(rng, 2, 3, 3)
    x = rng.uniform(0.0, 40.0, P)
    disp = rng.uniform(-0.5, 0.5, (P, nodes))
    y = rng.uniform(-f.domain.s, f.domain.s, (P, nodes))
    if per_point == "disp":
        disp = disp[:, 0]
    else:
        y = y[:, 0]
    got = eval_strip_stack([f, g], np.multiply.outer(f.freq.vec, x), y, disp)
    assert got.shape == (P, nodes, 2)
    disp_pq, y_pq = (np.broadcast_to(v.reshape(P, -1), (P, nodes)) for v in (disp, y))
    for p, q in itertools.product(range(P), range(nodes)):
        for m, h in enumerate((f, g)):
            want = eval_xy(h, np.array([x[p] + disp_pq[p, q]]), y_pq[p, q])[0].real
            assert abs(got[p, q, m] - want) <= 1e-12 * (1.0 + abs(want))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(0, 4),
       batch=st.integers(1, 3), rho=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_sheet_sup_matches_brute_force_sheets(seed, n, K, batch, rho):
    rng = np.random.default_rng(seed)
    coeffs = hermitian_box(rng, n, K, (batch,))
    N = qp.default_grid(K)
    grid = qp.theta_grid(N, n).reshape(n, -1)
    sheets = [np.zeros(n)]
    if rho > 0:
        sheets += [rho * np.array(c) for c in itertools.product((-1.0, 1.0), repeat=n)]
    brute = max(float(np.max(np.abs(qp.eval_modes(coeffs[..., b], grid + 1j * v[:, None]))))
                for v in sheets for b in range(batch))
    assert abs(corner_sheet_sup(coeffs, n, N, rho) - brute) <= 1e-12 * brute
    if rho == 0:
        # the real torus alone: member_gap of a strip whose mode boxes at its
        # batch Chebyshev nodes are the batch boxes, against the zero strip
        dom = StripDomain(0.7, 0.4)
        f = StripFunction(Frequency(OMEGAS[n]), dom, coeffs @ qp.cheb_analysis_matrix(batch - 1).T)
        zero = StripFunction.zeros(f.freq, dom, K, batch - 1)
        assert abs(member_gap([f], [zero], f.y_nodes()) - brute) <= 1e-12 * brute


def coeff_scale(strips, tmax):
    """sum |f_kj| M_j(tmax) over the stack: bounds every value at |y/s| <= tmax."""
    Mj = qp.cheb_disc_bounds(strips[0].J, tmax)
    return sum(float(np.sum(np.abs(f.coeffs) @ Mj)) for f in strips)


def stack_remainders(strips, delta, M):
    """Per strip, the interpolation bound of order M over a displacement
    half-width delta, against SHIFT_TOL * sum|f_kj|: the order rule of
    eval_strip_stack's grid path, one strip at a time."""
    kw = qp.k_dot_omega(strips[0].K, strips[0].freq.vec)
    amps = [np.abs(f.coeffs).sum(axis=-1) for f in strips]
    return [(shift_remainder(a, kw, delta, M), qp.SHIFT_TOL * float(np.sum(a))) for a in amps]


def order_threshold(strips, M):
    """Largest half-width delta at which order M meets the bound for every
    strip (bisection)."""
    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if all(rem <= goal for rem, goal in stack_remainders(strips, mid, M)):
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
# node offsets 0.978 apart: W*delta = 16.2 needs an order above SHIFT_MAX_ORDER
@example(seed=1051, n=3, K=4, J=0, m=1, nodes=2, N=2, spread=0.03125, complex_y=False)
def test_grid_path_matches_direct_oracle(seed, n, K, J, m, nodes, N, spread, complex_y):
    # the grid holds the box: N >= 2K+1, and at most 9 points per axis at n = 3
    N = max(N, 2 * K + 1)
    if n == 3:
        N = min(N, 9)
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
    # the offsets span up to 2 in d, so some draws need an order above
    # SHIFT_MAX_ORDER: every node slice then falls back to the direct path
    kw = qp.k_dot_omega(K, strips[0].freq.vec)
    amps = np.abs(np.stack([f.coeffs for f in strips], axis=-1)).reshape(kw.shape + (-1, m))
    direct = qp.shift_order(amps.sum(axis=-2), kw, 0.5 * (np.max(disp) - np.min(disp))) is None
    assert log["nodes"] == nodes and log["fallbacks"] == (nodes if direct else 0)
    tmax = float(np.max(np.abs(y))) / s
    assert np.max(np.abs(got - want)) <= 1e-14 * coeff_scale(strips, tmax)


@pytest.mark.parametrize("M", range(qp.SHIFT_MAX_ORDER + 1))
def test_grid_path_runs_every_taylor_order(M):
    """The grid path at every order M of its polynomial in d (a Chebyshev
    interpolant), 0..SHIFT_MAX_ORDER."""
    rng = np.random.default_rng(M)
    n, K, N = 2, 3, 10
    strips = [random_strip(rng, n, K, 3) for _ in range(2)]
    lo = order_threshold(strips, M - 1) if M > 0 else 0.0
    delta = 0.5 * (lo + order_threshold(strips, M))
    # displacements spread exactly +-delta around 0.7, over two nodes
    disp = 0.7 + delta * np.linspace(-1.0, 1.0, 2 * N**n)[rng.permutation(2 * N**n)]
    y = rng.uniform(-0.4, 0.4, (N**n, 2))
    got, want, log = grid_vs_direct(strips, N, y, disp.reshape(N**n, 2))
    assert log == {"nodes": 2, "max_order": M, "fallbacks": 0, "band": 0.0}
    assert np.max(np.abs(got - want)) <= 1e-14 * coeff_scale(strips, 1.0)


@pytest.mark.parametrize("bad", ["wide", "nan", "inf", "complex"])
def test_grid_path_falls_back_to_direct_slice(bad):
    rng = np.random.default_rng(1)
    n, K, N = 2, 3, 10
    strips = [random_strip(rng, n, K, 2)]
    disp = rng.uniform(-1.0, 1.0, (N**n, 2)) * np.array([1e-3, 1.0])
    if bad == "wide":
        disp[:, 1] *= 2.0 * order_threshold(strips, qp.SHIFT_MAX_ORDER) + 1.0
    elif bad == "complex":
        disp = disp + 1e-3j
    else:
        disp[3, 1] = float(bad)
    y = rng.uniform(-0.4, 0.4, (N**n, 2))
    with np.errstate(invalid="ignore"):
        got, want, log = grid_vs_direct(strips, N, y, disp)
    # one bad displacement sends every node of the call to the direct slice
    assert log["nodes"] == 2 and log["fallbacks"] == 2 and log["max_order"] == 0
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n,nodes", itertools.product((1, 2, 3), (1, 2, 3)))
def test_grid_path_synthesizes_once_per_call(n, nodes, monkeypatch):
    rng = np.random.default_rng(10 * n + nodes)
    K, N = 3, 8
    strips = [random_strip(rng, n, K, 2) for _ in range(2)]
    calls = []
    synthesize = qp.synthesize
    monkeypatch.setattr(qp, "synthesize", lambda c, n, N: calls.append(1) or synthesize(c, n, N))
    # the nodes' displacements differ by far more than each node's own spread
    disp = 0.1 * np.arange(nodes) + 1e-4 * rng.uniform(-1.0, 1.0, (N**n, nodes))
    y = rng.uniform(-0.4, 0.4, (N**n, nodes))
    with qp.grid_eval_log() as log:
        eval_strip_stack(strips, N, y, disp)
    assert len(calls) == 1 and log["nodes"] == nodes and log["fallbacks"] == 0


def test_grid_path_bounds_each_strip():
    # a strip 1e-12 times smaller than its neighbour, whose modes are all at
    # k = 0: an order that only met the bound of the stack's summed
    # amplitudes (9 here) leaves the small strip's error at about 5e-7 of
    # its own scale
    rng = np.random.default_rng(7)
    n, K, N = 2, 4, 12
    small = random_strip(rng, n, K, 3) * 1e-12
    center = (K,) * n
    flat = np.zeros_like(small.coeffs)
    flat[center] = random_strip(rng, n, K, 3).coeffs[center]
    big = StripFunction(small.freq, small.domain, flat)
    strips = [big, small]
    W = float(np.max(np.abs(qp.k_dot_omega(K, small.freq.vec))))
    disp = 0.3 + 4.0 / W * rng.uniform(-1.0, 1.0, (N**n, 2))       # W*delta about 4
    y = rng.uniform(-0.4, 0.4, (N**n, 2))
    got, want, log = grid_vs_direct(strips, N, y, disp)
    assert log["fallbacks"] == 0
    for m, f in enumerate(strips):
        assert np.max(np.abs(got[..., m] - want[..., m])) <= 1e-14 * coeff_scale([f], 1.0)


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       N=st.integers(2, 12), trailing=TRAILING, spread=st.floats(0.0, 8.0),
       c=st.floats(-3.0, 3.0))
def test_shift_interpolant_matches_direct_oracle(seed, n, K, N, trailing, spread, c):
    # the grid holds the box: N >= 2K+1, and at most 9 points per axis at n = 3
    N = max(N, 2 * K + 1)
    if n == 3:
        N = min(N, 9)
    rng = np.random.default_rng(seed)
    coeffs = hermitian_box(rng, n, K, trailing)
    omega = np.array(OMEGAS[n])
    W = float(np.max(np.abs(qp.k_dot_omega(K, omega))))
    delta = spread / W if W > 0 else spread          # W*delta = spread
    theta = qp.theta_grid(N, n).reshape(n, -1)
    cheb = qp.grid_shift_cheb(coeffs, omega, N, c, delta)
    assert cheb is not None and cheb.shape[:-1] == (N**n,) + trailing and np.isrealobj(cheb)
    d = c + delta * rng.uniform(-1.0, 1.0, N**n)
    t = (d - c) / delta if delta > 0 else np.zeros_like(d)
    got = qp.cheb_eval_rows(cheb, t.reshape(t.shape + (1,) * len(trailing)))
    want = qp.eval_modes(coeffs, theta + np.multiply.outer(omega, d))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * (1.0 + np.sum(np.abs(coeffs)))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 3),
       J=st.integers(0, 3), m=st.integers(1, 2), nodes=st.integers(1, 3),
       delta=st.floats(1e-3, 0.5), c=st.floats(-3.0, 3.0))
def test_grid_shift_fit_matches_direct_values_and_dx_strips(seed, n, K, J, m, nodes, delta, c):
    # one stack at theta + omega*d three ways: the fit on the grid, the
    # direct path on the grid (a NaN interval) and the same points given as
    # scattered points; values, and the derivative in d against the dx()
    # strips' values.  Each grid build counts its node slices once in the
    # log; scattered points count nothing.
    rng = np.random.default_rng(seed)
    strips = [random_strip(rng, n, K, J) for _ in range(m)]
    coeffs = np.stack([f.coeffs for f in strips], axis=-1)
    omega = strips[0].freq.vec
    N = max(2 * K + 1, 3)
    P = N**n
    d = c + delta * rng.uniform(-1.0, 1.0, (P, nodes))
    basis = npcheb.chebvander(rng.uniform(-1.0, 1.0, (P, nodes)), J)
    with qp.grid_eval_log() as log:
        fit = qp.GridShift(coeffs, omega, N, c, delta, nodes)
        M = fit.cheb.shape[-1] - 1
        assert log == {"nodes": nodes, "max_order": M, "fallbacks": 0, "band": 0.0}
        direct = qp.GridShift(coeffs, omega, N, math.nan, math.nan, nodes)
        assert direct.cheb is None and log["nodes"] == log["fallbacks"] + nodes == 2 * nodes
        theta = qp.theta_grid(N, n).reshape(n, -1)
        scattered = qp.GridShift(coeffs, omega, theta, c, delta, nodes)
        dx_strips = qp.GridShift(np.stack([f.dx().coeffs for f in strips], axis=-1), omega,
                                 theta, c, delta, nodes)
        assert log["nodes"] == 2 * nodes and log["max_order"] == M
    assert scattered.cheb is None
    assert fit.covers(d)
    assert not fit.covers(np.full((P, nodes), c + 1.001 * delta + 1e-9))
    assert not direct.covers(d) and not scattered.covers(d)
    scale = coeff_scale(strips, 1.0)
    values = fit.at(d, basis)
    assert values.shape == (P, nodes, m) and np.isrealobj(values)
    for other in (direct, scattered):
        assert np.max(np.abs(values - other.at(d, basis))) <= 1e-14 * scale
    # the direct derivative is the dx() box at the same points, bit for bit
    want = dx_strips.at(d, basis)
    np.testing.assert_array_equal(direct.at(d, basis, dd=True), want)
    np.testing.assert_array_equal(scattered.at(d, basis, dd=True), want)
    W = float(np.max(np.abs(qp.k_dot_omega(K, omega))))
    assert np.max(np.abs(fit.at(d, basis, dd=True) - want)) <= 1e-11 * (1.0 + W) * scale


def shift_remainder(amps, kw, delta, M):
    """sum_k a_k 2(|<k,omega>| delta/2)^(M+1)/(M+1)!, the bound shift_order meets."""
    return float(np.sum(amps * 2.0 * (0.5 * delta * np.abs(kw)) ** (M + 1))) / math.factorial(M + 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 30), spread=st.floats(0.0, 14.0),
       decay=st.floats(0.0, 3.0))
def test_shift_order_is_the_smallest_passing_order(seed, modes, spread, decay):
    rng = np.random.default_rng(seed)
    kw = rng.uniform(-1.0, 1.0, modes)
    amps = rng.uniform(0.0, 1.0, modes) * np.exp(-decay * np.abs(kw))
    delta = spread / np.max(np.abs(kw))
    goal = qp.SHIFT_TOL * float(np.sum(amps))
    M = qp.shift_order(amps, kw, delta)
    if M is None:
        assert all(shift_remainder(amps, kw, delta, m) > goal
                   for m in range(qp.SHIFT_MAX_ORDER + 1))
    else:
        assert shift_remainder(amps, kw, delta, M) <= goal
        assert M == 0 or shift_remainder(amps, kw, delta, M - 1) > goal


def test_shift_order_cap_and_non_finite():
    kw = np.array([0.0, 1.0, -2.0])
    amps = np.array([1.0, 0.5, 0.25])
    assert qp.shift_order(amps, kw, 0.0) == 0
    assert qp.shift_order(np.zeros(3), kw, 5.0) == 0         # nothing to interpolate
    for delta in (math.nan, math.inf, -1.0, 20.0):
        assert qp.shift_order(amps, kw, delta) is None
    box = np.ones((3, 3), dtype=complex)
    for c, delta in ((math.nan, 0.1), (0.0, math.inf), (0.0, 20.0)):
        assert qp.grid_shift_cheb(box, np.array(OMEGAS[2]), 6, c, delta) is None


# ---------------------------------------------------------------------------
# the Chebyshev evaluator
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), leading=st.sampled_from([(), (1,), (5,), (3, 4)]),
       J=st.integers(0, 12), points=st.sampled_from(["scalar", "rows", "broadcast"]),
       is_complex=st.booleans())
def test_cheb_eval_rows_matches_chebval(seed, leading, J, points, is_complex):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(leading + (J + 1,))
    if is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    # one t, one t per row, or one t per row of the leading axes but the last
    t_shape = {"scalar": (), "rows": leading, "broadcast": leading[:-1] + (1,) * bool(leading)}
    t = rng.uniform(-1.0, 1.0, t_shape[points])
    got = qp.cheb_eval_rows(coeffs, t)
    assert got.shape == leading
    rows_t = np.broadcast_to(t, leading)
    for i in np.ndindex(*leading):
        want = npcheb.chebval(rows_t[i], coeffs[i])
        assert abs(got[i] - want) <= 1e-14 * np.sum(np.abs(coeffs[i]))


def disc_bound_recurrence(J, t):
    """M_0 = 1, M_1 = t, M_{j+1} = 2t M_j + M_{j-1}: |T_j(i t)| by the
    three-term recurrence."""
    out = np.empty(J + 1)
    out[0] = 1.0
    if J >= 1:
        out[1] = t
    for j in range(1, J):
        out[j + 1] = 2 * t * out[j] + out[j - 1]
    return out


def test_cheb_disc_bounds_equal_the_recurrence():
    for J in range(31):
        for t in np.linspace(0.0, 10.0, 501):
            np.testing.assert_array_equal(qp.cheb_disc_bounds(J, t), disc_bound_recurrence(J, t))


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
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       J=st.integers(0, 4), K_new=st.integers(0, 5), J_new=st.integers(0, 5))
def test_boxed_pads_with_zeros_and_cuts_the_rest(seed, n, K, J, K_new, J_new):
    f = random_strip(np.random.default_rng(seed), n, K, J)
    g = f.boxed(K_new, J_new)
    assert (g.K, g.J, g.freq, g.domain) == (K_new, J_new, f.freq, f.domain)
    # the box both hold keeps its coefficients; the rest of g is zero
    Kc, Jc = min(K, K_new), min(J, J_new)
    common = lambda h: (slice(h.K - Kc, h.K + Kc + 1),) * n + (slice(0, Jc + 1),)
    np.testing.assert_array_equal(g.coeffs[common(g)], f.coeffs[common(f)])
    rest = g.coeffs.copy()
    rest[common(g)] = 0.0
    assert not np.any(rest)
    # padding, then cutting back, returns the strip
    np.testing.assert_array_equal(f.boxed(K + 1, J + 2).boxed(K, J).coeffs, f.coeffs)
    assert f.boxed(K, J) is f


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(1, 3))
def test_invert_then_compose_is_identity(seed, n, K):
    rng = np.random.default_rng(seed)
    box = random_box(rng, n, K, ()) * np.exp(-0.5 * qp.k1_norms(K, n))
    h = symmetrized(ShellFunction(Frequency(OMEGAS[n]), box))
    # |h| <= 0.15 and |h'| <= 0.1 keep the inverse's tail at K_out 24 below
    # 1e-11 (n = 1) and 1e-13 (n = 2), far inside the 1e-9 budget
    h = h * min(0.15 / h.norm_upper(0.0), 0.1 / h.dx().norm_upper(0.0))
    h1 = invert_angle_map(h, K_out=24)
    # displacement of t -> t + h(t) + h1(t + h(t)), the identity's being 0
    assert (compose_angle(h1, h, K_out=24) + h).norm_upper(0.0) < 1e-9
