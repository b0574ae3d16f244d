"""Shell/strip function algebra: examples with independent oracles, invariants."""

import math

import numpy as np
import pytest
from conftest import eval_xy, mode_vectors, shell_norm_lower, symmetrized

from qpkam import qpfourier as qp
from qpkam.errors import ConfigError, NotMonotone, RealityDefect
from qpkam.qpfourier import (
    Frequency,
    ShellFunction,
    StripDomain,
    StripFunction,
    compose_angle,
    invert_angle_map,
)

FREQ2 = Frequency((1.0, math.sqrt(2.0)))


def random_shell(rng, freq, K, scale=1.0, decay=0.5):
    coeffs = scale * (rng.standard_normal((2 * K + 1,) * freq.n)
                      + 1j * rng.standard_normal((2 * K + 1,) * freq.n))
    coeffs *= np.exp(-decay * qp.k1_norms(K, freq.n))
    return symmetrized(ShellFunction(freq, coeffs))


def random_strip(rng, freq, domain, K, J, scale=1.0, decay=0.5):
    shape = (2 * K + 1,) * freq.n + (J + 1,)
    coeffs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs *= np.exp(-decay * qp.k1_norms(K, freq.n))[..., None]
    coeffs *= 0.5 ** np.arange(J + 1)
    return symmetrized(StripFunction(freq, domain, coeffs))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_constant():
    f = ShellFunction.constant(FREQ2, 2.0)
    assert f.eval(17.3) == pytest.approx(2.0, abs=1e-14)


def test_eval_cosine_at_zero():
    f = ShellFunction.from_modes(FREQ2, {(1, 0): 0.5}, K=1)
    assert f.eval(0.0).real == pytest.approx(1.0, abs=1e-14)


def test_from_modes_rejects_modes_outside_the_box():
    # a 3-vector on a 2-torus box used to fill a whole slice of it silently
    with pytest.raises(ConfigError, match="need 2 components"):
        ShellFunction.from_modes(FREQ2, {(1, 0, 0): 0.5}, K=1)
    with pytest.raises(ConfigError):
        ShellFunction.from_modes(FREQ2, {(1,): 0.5}, K=1)
    with pytest.raises(ConfigError, match="K = 1"):
        ShellFunction.from_modes(FREQ2, {(2, 0): 0.5}, K=1)


def test_from_modes_rejects_a_complex_mean():
    # the real synthesis would drop the imaginary part of a k = 0 amplitude
    with pytest.raises(ConfigError, match="must be real"):
        ShellFunction.from_modes(FREQ2, {(0, 0): 0.5 + 0.1j}, K=1)
    f = ShellFunction.from_modes(FREQ2, {(0, 0): 0.5 + 0j, (1, 0): 0.2j}, K=1)
    assert f.mean() == 0.5


def test_eval_mixed_mode_oracle():
    # direct scalar oracle: f(t) = cos((1+sqrt(2)) t) at t = 1
    f = ShellFunction.from_modes(FREQ2, {(1, 1): 0.5}, K=1)
    expected = math.cos(1.0 + math.sqrt(2.0))   # -0.746920 (frozen from oracle)
    assert expected == pytest.approx(-0.7469196454668814, abs=1e-12)
    assert f.eval(1.0).real == pytest.approx(expected, abs=1e-13)


def test_eval_real_output():
    rng = np.random.default_rng(7)
    f = random_shell(rng, FREQ2, K=4)
    vals = f.eval(np.linspace(0, 10, 50))
    assert np.max(np.abs(vals.imag)) < 1e-12


# ---------------------------------------------------------------------------
# sup norm: norm_upper against the grid max on the corner sheets
# ---------------------------------------------------------------------------

def sup_norm(f, rho):
    """[grid max on the real torus and corner sheets, norm_upper] brackets |f|_rho."""
    return shell_norm_lower(f, rho), f.norm_upper(rho)


def test_sup_norm_constant():
    f = ShellFunction.constant(FREQ2, 2.0)
    lo, hi = sup_norm(f, 0.7)
    assert lo == pytest.approx(2.0, abs=1e-13)
    assert hi == pytest.approx(2.0, abs=1e-13)


def test_sup_norm_cosine():
    f = ShellFunction.from_modes(FREQ2, {(1, 0): 0.5}, K=1)
    lo, hi = sup_norm(f, 0.0)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    # closed-form weighted sum oracle at rho = 1: pairing gives cosh(1)
    lo1, hi1 = sup_norm(f, 1.0)
    assert hi1 == pytest.approx(math.cosh(1.0), rel=1e-12)
    assert lo1 == pytest.approx(math.cosh(1.0), rel=1e-9)
    assert hi1 >= lo1 - 1e-12


def test_sup_norm_upper_dominates_lower():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_shell(rng, FREQ2, K=5)
        rho = rng.uniform(0, 0.8)
        lo, hi = sup_norm(f, rho)
        assert hi >= lo - 1e-12


# ---------------------------------------------------------------------------
# mean value
# ---------------------------------------------------------------------------

def test_mean_value_oscillation_averages_out():
    # f(x,y) = y + cos(omega_1 x) -> [f](y) = y
    dom = StripDomain(1.0, 0.5)
    f = StripFunction.zeros(FREQ2, dom, K=1, J=1)
    f.coeffs[(1, 1, 1)] = dom.s          # y = s*T_1(y/s), k = 0
    f.coeffs[(2, 1, 0)] = 0.5            # k = (1,0)
    f.coeffs[(0, 1, 0)] = 0.5            # k = (-1,0)
    mv = f.mean_value()
    poly = f.mean_poly()
    assert mv[1] == pytest.approx(dom.s)
    assert poly[0] == pytest.approx(0.0, abs=1e-15)
    assert poly[1] == pytest.approx(1.0, rel=1e-12)


def test_mean_value_zero():
    f = StripFunction.zeros(FREQ2, StripDomain(1.0, 0.5), K=2, J=2)
    assert np.allclose(f.mean_value(), 0.0)


def test_mean_value_birkhoff_oracle():
    # f(x,y) = (3 + sin(omega_2 x)) y^2 -> [f](y) = 3 y^2
    dom = StripDomain(1.0, 0.5)

    def sampler(theta, y):
        return (3.0 + np.sin(theta[1])) * y**2

    f = StripFunction.from_sampler(sampler, FREQ2, dom, K=2, J=4)
    poly = f.mean_poly()
    assert poly[2] == pytest.approx(3.0, rel=1e-12)

    # long-time Birkhoff average of the sampled formula (independent oracle)
    y0 = 0.3
    T = 1.0e6
    xs = np.linspace(0.0, T, 2_000_001)
    vals = (3.0 + np.sin(math.sqrt(2.0) * xs)) * y0**2
    birkhoff = np.trapezoid(vals, xs) / T
    mean_at_y0 = qp.cheb_eval_rows(f.mean_value().astype(complex), y0 / dom.s).real
    assert mean_at_y0 == pytest.approx(birkhoff, abs=1e-3)


# ---------------------------------------------------------------------------
# compose_angle
# ---------------------------------------------------------------------------

def test_compose_identity_displacement():
    rng = np.random.default_rng(3)
    g = random_shell(rng, FREQ2, K=4)
    f = ShellFunction.zeros(FREQ2, K=4)
    h = compose_angle(g, f, K_out=4)
    assert np.max(np.abs(h.coeffs - g.coeffs)) < 1e-12


def test_compose_constant_g():
    g = ShellFunction.constant(FREQ2, 4.2, K=3)
    rng = np.random.default_rng(4)
    f = random_shell(rng, FREQ2, K=3, scale=0.1)
    h = compose_angle(g, f, K_out=3)
    assert h.mean() == pytest.approx(4.2, abs=1e-12)
    assert h.norm_upper(0.0) == pytest.approx(4.2, abs=1e-10)


def test_compose_translation_by_pi():
    # g = cos(omega_1 t), f = pi: g(t + pi) = -cos on the omega_1 harmonic? No:
    # cos(omega_1 (t + pi)) = cos(omega_1 t + pi) only if omega_1 = 1 -- it is.
    g = ShellFunction.from_modes(FREQ2, {(1, 0): 0.5}, K=1)
    f = ShellFunction.constant(FREQ2, math.pi, K=1)
    h = compose_angle(g, f, K_out=1)
    xs = np.linspace(0, 7, 40)
    oracle = np.cos(xs + math.pi)
    assert np.max(np.abs(h.eval(xs).real - oracle)) < 1e-12


def test_compose_angle_with_a_box_wider_than_twice_k_out():
    # g.K = 9 > 2 K_out: compose_angle samples on default_grid(max(K_out, g.K)),
    # invert_angle_map's rule, which holds g's box; oracle: g evaluated
    # directly at the displaced points of that grid, then projected
    rng = np.random.default_rng(8)
    g = random_shell(rng, FREQ2, K=9)
    f = random_shell(rng, FREQ2, K=2, scale=0.05)
    h = compose_angle(g, f, K_out=3)
    N = qp.default_grid(9)
    th = qp.theta_grid(N, 2).reshape(2, -1)
    vals = qp.eval_modes(g.coeffs, th + np.multiply.outer(FREQ2.vec, f.sample(N).ravel())).real
    want = ShellFunction.from_grid(vals.reshape(N, N), FREQ2, 3)
    assert h.K == 3
    assert np.max(np.abs(h.coeffs - want.coeffs)) <= 1e-13 * np.sum(np.abs(g.coeffs))


# ---------------------------------------------------------------------------
# invert_angle_map
# ---------------------------------------------------------------------------

def test_invert_zero():
    h = ShellFunction.zeros(FREQ2, K=3)
    h1 = invert_angle_map(h, K_out=3)
    assert np.max(np.abs(h1.coeffs)) < 1e-13


def test_invert_constant():
    h = ShellFunction.constant(FREQ2, 0.37, K=2)
    h1 = invert_angle_map(h, K_out=2)
    assert h1.mean() == pytest.approx(-0.37, abs=1e-12)


def test_invert_sine_residual():
    # h = 0.1 sin(omega_1 t); oracle is the forward-inverse residual
    h = ShellFunction.from_modes(FREQ2, {(1, 0): -0.05j}, K=8)
    h1 = invert_angle_map(h, K_out=12)
    taus = np.linspace(0, 20, 300)
    t = taus + h1.eval(taus).real
    residual = t + h.eval(t).real - taus
    assert np.max(np.abs(residual)) < 1e-10


def test_invert_not_monotone():
    h = ShellFunction.from_modes(FREQ2, {(1, 0): -0.9j}, K=2)  # 1.8 sin
    with pytest.raises(NotMonotone):
        invert_angle_map(h, K_out=2)


def test_compose_then_invert_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(5):
        h = random_shell(rng, FREQ2, K=3, scale=1.0)
        # |h|_0 <= 0.2 per the invariant; the derivative cap keeps the
        # inverse's spectral tail below the 1e-9 budget at K_out = 24
        h = h * min(0.15 / h.norm_upper(0.0), 0.25 / h.dx().norm_upper(0.0))
        assert h.norm_upper(0.0) <= 0.2
        h1 = invert_angle_map(h, K_out=24)
        # displacement of the composed map t -> t + h + h1(t + h)
        comp = compose_angle(h1, h, K_out=24) + h
        assert comp.norm_upper(0.0) < 1e-9


def count_eval_modes(monkeypatch):
    calls = []
    eval_modes = qp.eval_modes
    monkeypatch.setattr(qp, "eval_modes", lambda c, t: calls.append(1) or eval_modes(c, t))
    return calls


def test_invert_converges_at_newton_speed(monkeypatch):
    # shaped like the angle displacement of a diagnose image curve: mean 0.7,
    # oscillation about +-0.3, K 8; the iterations evaluate the interpolant,
    # and direct eval_modes only checks the final residual (twice at most)
    freq = Frequency((1.0, (1.0 + math.sqrt(5.0)) / 2.0))
    h = ShellFunction.from_modes(freq, {(0, 0): 0.7, (1, 0): 0.08 - 0.05j, (0, 1): -0.06j,
                                        (1, 1): 0.03, (2, -1): 0.01j}, K=8)
    calls = count_eval_modes(monkeypatch)
    h1 = invert_angle_map(h, K_out=24)
    assert len(calls) <= 2
    taus = np.linspace(0, 20, 300)
    t = taus + h1.eval(taus).real
    assert np.max(np.abs(t + h.eval(t).real - taus)) < 1e-10


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_round_trip_grid_recovery():
    rng = np.random.default_rng(12)
    for K in (3, 8, 16):
        f = random_shell(rng, FREQ2, K=K)
        N = 2 * (2 * K + 1)
        g = ShellFunction.from_grid(f.sample(N), FREQ2, K)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_and_grid_match_meshgrid(n):
    # <k, omega> and |k|_1 over the box, and the torus grid, bit for bit
    # against the meshgrid construction
    omega = np.sqrt(np.arange(1.0, n + 1.0))
    for K, N in ((0, 1), (1, 4), (3, 9)):
        axis = np.arange(-K, K + 1)
        kstack = np.stack(np.meshgrid(*[axis] * n, indexing="ij"))
        np.testing.assert_array_equal(qp.k_dot_omega(K, omega),
                                      np.tensordot(omega, kstack, axes=1))
        np.testing.assert_array_equal(qp.k1_norms(K, n), np.abs(kstack).sum(axis=0))
        t = qp.TWO_PI * np.arange(N) / N
        np.testing.assert_array_equal(qp.theta_grid(N, n),
                                      np.stack(np.meshgrid(*[t] * n, indexing="ij")))


def test_analyze_refuses_a_grid_too_small_for_the_box():
    # N = 6 holds |k| <= 2 only: K = 4 would wrap modes onto each other
    with pytest.raises(ValueError, match="N=6 cannot hold modes up to K=4"):
        qp.analyze(np.random.default_rng(0).random((6, 6)), 2, 4)
    assert qp.analyze(np.ones((5, 5)), 2, 2).shape == (5, 5)


def test_analyze_logs_the_discarded_band():
    # values of a K = 6 box analyzed to K = 3: the band 3 < |k|_inf <= 6 is
    # exactly the coefficient mass that the projection drops
    rng = np.random.default_rng(16)
    f = random_shell(rng, FREQ2, K=6)
    kmax = np.max(np.abs(mode_vectors(6, 2)), axis=0).reshape(f.coeffs.shape)
    with qp.grid_eval_log() as log:
        qp.analyze(f.sample(26), 2, 3)
        qp.analyze(f.sample(26), 2, 6)
    assert log["band"] == pytest.approx(float(np.sum(np.abs(f.coeffs[kmax > 3]))),
                                        rel=1e-12)


def test_bessel_lemma_check():
    rng = np.random.default_rng(13)
    n = FREQ2.n
    for _ in range(20):
        f = random_shell(rng, FREQ2, K=6)
        r = rng.uniform(0.0, 0.7)
        lhs = float(np.sum(np.abs(f.coeffs) ** 2 * np.exp(2 * r * qp.k1_norms(f.K, n))))
        assert lhs <= 2**n * f.norm_upper(r) ** 2 * (1 + 1e-12)


def test_strip_round_trip():
    rng = np.random.default_rng(14)
    dom = StripDomain(0.8, 0.3)
    f = random_strip(rng, FREQ2, dom, K=5, J=6)
    N = qp.default_grid(f.K)
    vals = qp.sample_strip_stack([f], N)[..., 0].reshape((N, N, f.J + 1))
    g = StripFunction.from_grid(vals, FREQ2, dom, K=5)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


@pytest.mark.parametrize("uses_y", [True, False])
def test_from_sampler_calls_its_sampler_once(uses_y):
    dom = StripDomain(0.7, 0.4)
    K, J = 3, 4

    def shell(theta, y):
        base = np.sin(theta[0]) + 0.3 * np.cos(theta[0] - 2.0 * theta[1])
        return base * (1.0 + y - 2.0 * y**3) if uses_y else base

    calls = []

    def counted(theta, y):
        calls.append(np.shape(y))
        return shell(theta, y)

    f = StripFunction.from_sampler(counted, FREQ2, dom, K, J)
    assert calls == [(J + 1,)]
    # the oracle: one y node per call, stacked on a last axis
    th = qp.theta_grid(qp.default_grid(K), 2)
    vals = np.stack([np.broadcast_to(shell(th, y), th.shape[1:])
                     for y in dom.s * qp.cheb_nodes(J)], axis=-1)
    want = StripFunction.from_grid(vals, FREQ2, dom, K)
    assert np.max(np.abs(f.coeffs - want.coeffs)) <= 1e-15


def test_strip_eval_matches_series():
    rng = np.random.default_rng(15)
    dom = StripDomain(0.8, 0.3)
    f = random_strip(rng, FREQ2, dom, K=4, J=5)
    xs = rng.uniform(0, 10, 20)
    ys = rng.uniform(-0.3, 0.3, 20)
    direct = np.zeros(20, dtype=complex)
    kvecs = mode_vectors(4, 2)
    for idx in range(kvecs.shape[1]):
        k = kvecs[:, idx]
        kw = k @ FREQ2.vec
        row = f.coeffs.reshape(-1, f.J + 1)[idx]
        cheb = np.polynomial.chebyshev.chebval(ys / dom.s, row)
        direct += cheb * np.exp(1j * kw * xs)
    assert np.max(np.abs(eval_xy(f, xs, ys) - direct)) < 1e-11


def test_reality_enforcement_fails_fast():
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[2, 1] = 1.0  # k=(1,0) with no conjugate partner
    with pytest.raises(RealityDefect):
        qp.symmetrize(coeffs, 2)


def test_derivative_and_shift():
    f = ShellFunction.from_modes(FREQ2, {(1, 0): 0.5}, K=1)  # cos(t)
    xs = np.linspace(0, 5, 30)
    assert np.max(np.abs(f.dx().eval(xs).real + np.sin(xs))) < 1e-12
    shifted = compose_angle(f, ShellFunction.constant(FREQ2, 0.7, K=1), K_out=1)  # f(t + 0.7)
    assert np.max(np.abs(shifted.eval(xs).real - np.cos(xs + 0.7))) < 1e-12


def test_strip_scale_y_is_theta_composition():
    rng = np.random.default_rng(16)
    dom = StripDomain(0.8, 0.3)
    f = random_strip(rng, FREQ2, dom, K=3, J=4)
    theta = 0.25
    g = f.scale_y(theta)  # g(x, y) = f(x, theta*y) on |y| < s/theta
    xs = rng.uniform(0, 5, 10)
    ys = rng.uniform(-dom.s / theta, dom.s / theta, 10)
    assert np.max(np.abs(eval_xy(g, xs, ys) - eval_xy(f, xs, theta * ys))) < 1e-11


def test_serialization_round_trip():
    from qpkam.serialize import shell_from_dict, shell_to_dict

    rng = np.random.default_rng(17)
    f = random_shell(rng, FREQ2, K=3)
    doc = shell_to_dict(f)
    assert sorted(doc) == ["K", "im", "omega", "re"]
    # the Hermitian half box up to and including k = 0
    assert doc["K"] == 3 and len(doc["re"]) == len(doc["im"]) == 49 // 2 + 1
    assert doc["im"][-1] == 0.0
    g = shell_from_dict(doc)
    assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0
    # curve.json files that still carry a "width" key load the same
    assert np.array_equal(shell_from_dict({**doc, "width": 0.0}).coeffs, f.coeffs)


def test_serialization_compact_form_rejects_bad_arrays():
    from qpkam.serialize import shell_from_dict, shell_to_dict

    doc = shell_to_dict(random_shell(np.random.default_rng(18), FREQ2, K=2))
    # a complex mean is no real function
    with pytest.raises(RealityDefect, match="must be real"):
        shell_from_dict({**doc, "im": doc["im"][:-1] + [0.25]})
    for bad in ({"re": doc["re"][:-1]}, {"im": doc["im"] + [0.0]}, {"K": 3},
                {"K": -1}, {"K": 2.0}, {"re": [doc["re"]]}):
        with pytest.raises(ValueError, match="needs re and im arrays"):
            shell_from_dict({**doc, **bad})


def test_serialization_needs_the_compact_keys():
    # a document in the older {"omega", "coeffs"} form, or one that lacks any
    # of K, re and im, is refused with one error that names all three
    from qpkam.serialize import shell_from_dict, shell_to_dict

    doc = shell_to_dict(random_shell(np.random.default_rng(19), FREQ2, K=2))
    older = {"omega": doc["omega"], "coeffs": [{"k": [0, 0], "re": 0.5, "im": 0.0}]}
    for bad in [older] + [{k: v for k, v in doc.items() if k != key} for key in ("K", "re", "im")]:
        with pytest.raises(ValueError, match="needs the keys K, re and im") as info:
            shell_from_dict(bad)
        assert type(info.value) is ValueError


def test_serialization_refuses_a_missing_or_scalar_omega_and_non_finite_values():
    # no omega (a KeyError before), a scalar omega (a TypeError before) and a
    # NaN or infinite coefficient (a NaN shell before) are one-line ValueErrors
    from qpkam.serialize import shell_from_dict, shell_to_dict

    doc = shell_to_dict(random_shell(np.random.default_rng(20), FREQ2, K=2))
    no_omega = {k: v for k, v in doc.items() if k != "omega"}
    for bad, match in ((no_omega, "needs omega as an array"),
                       ({**doc, "omega": 1.0}, "needs omega as an array"),
                       ({**doc, "re": [math.nan] + doc["re"][1:]}, "finite re and im"),
                       ({**doc, "im": [math.inf] + doc["im"][1:]}, "finite re and im"),
                       ({**doc, "re": doc["re"][:-1] + [-math.inf]}, "finite re and im")):
        with pytest.raises(ValueError, match=match) as info:
            shell_from_dict(bad)
        assert type(info.value) is ValueError and "\n" not in str(info.value)


@pytest.mark.parametrize("omega", [(1.0, 0.0), (1.0, math.nan), (math.inf,), ()])
def test_frequency_and_certify_frequency_share_one_check(omega):
    from qpkam.diophantine import certify_frequency

    with pytest.raises(ConfigError) as direct:
        Frequency(omega)
    with pytest.raises(ConfigError) as certified:
        certify_frequency(omega, 5)
    assert str(direct.value) == str(certified.value)


def test_invert_then_compose_three_frequencies_wide_spread(monkeypatch):
    # n = 3 with W*delta about 7 (W = max|<k,omega>| over the K 8 box): far
    # wider than the displacement spreads that eval_strip_stack interpolates
    freq = Frequency((1.0, math.sqrt(2.0), math.sqrt(3.0)))
    h = ShellFunction.from_modes(freq, {(0, 0, 0): 0.7, (0, 1, -1): 0.03 - 0.03j,
                                        (1, -1, 0): 0.042j, (1, 0, 0): 0.01 + 0.005j,
                                        (0, 0, 1): -0.004j}, K=8)
    W = float(np.max(np.abs(qp.k_dot_omega(8, freq.vec))))
    assert 6.5 <= W * (h - h.mean()).norm_upper(0.0) <= 7.5
    calls = count_eval_modes(monkeypatch)
    h1 = invert_angle_map(h, K_out=8)
    inverted = len(calls)
    comp = compose_angle(h1, h, K_out=8) + h
    assert inverted <= 2 and len(calls) == inverted     # compose interpolates too
    assert comp.norm_upper(0.0) < 1e-9
