"""Map catalog and structural diagnostics: twist identities, intersection, exactness."""

import math

import numpy as np
import pytest
from conftest import grid_average, symmetrized

from qpkam import maps
from qpkam.errors import NotAGraph, NotMonotone
from qpkam.maps import (
    AREA_POINTS,
    CurveGraph,
    QpPlanarMap,
    exactness_defect,
    flat_curve,
    forward_shells,
    image_curve,
    intersection_witness,
    kicked_twist,
    model_from_config,
    pure_twist,
    rigid_shift,
)
from qpkam.qpfourier import Frequency, ShellFunction, compose_angle, invert_angle_map

FREQ = Frequency((1.0, math.sqrt(2.0)))
MODES = [((1, 0), 0.6), ((0, 1), 0.4)]


def random_curve(rng, r0=0.7, K=3, amp=0.08):
    phi = ShellFunction.from_modes(
        FREQ, {(1, 0): amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)),
               (0, 1): amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))},
        K=K)
    psi = ShellFunction.from_modes(
        FREQ, {(1, 1): amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))},
        K=K) + r0
    return CurveGraph(phi, psi)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_pure_twist_point():
    mp = pure_twist(FREQ)
    th1, r1 = mp.apply((0.0, 0.5))
    assert th1 == pytest.approx(0.5)
    assert r1 == pytest.approx(0.5)


def test_apply_twist_displacement_identity():
    mp = pure_twist(FREQ)
    rng = np.random.default_rng(0)
    th = rng.uniform(0, 20, 50)
    r = rng.uniform(-1, 1, 50)
    th1, r1 = mp.apply((th, r))
    assert np.allclose(th1 - th, r)
    assert np.allclose(r1, r)


def test_apply_kicked_against_formula():
    lam = 0.3
    mp = kicked_twist(FREQ, lam, [((1, 1), 1.0)])
    th = np.linspace(0, 9, 25)
    r = np.full_like(th, 0.4)
    th1, r1 = mp.apply((th, r))
    s = np.sin((1.0 + math.sqrt(2.0)) * th)
    assert np.allclose(th1, th + r + lam * s, atol=1e-13)
    assert np.allclose(r1, r + lam * s, atol=1e-13)


def test_model_from_config_round_trip():
    cfg = {"model": "kicked_twist", "lambda": 1e-3,
           "modes": [{"k": [1, 0], "c": 0.6}, {"k": [0, 1], "c": 0.4}]}
    mp = model_from_config(cfg, FREQ)
    assert mp.label == "kicked_twist"
    assert mp.declared["exact_symplectic"] is True
    mp2 = model_from_config({"model": "rigid_shift", "c": 0.1}, FREQ)
    assert mp2.declared["intersection"] is False


# ---------------------------------------------------------------------------
# image_curve
# ---------------------------------------------------------------------------

def test_image_of_flat_curve_under_twist():
    mp = pure_twist(FREQ)
    curve = flat_curve(FREQ, 0.7)
    img = image_curve(mp, curve)
    assert img.psi.mean() == pytest.approx(0.7, abs=1e-12)
    assert img.psi.norm_upper(0.0) == pytest.approx(0.7, abs=1e-10)
    assert img.phi.norm_upper(0.0) < 1e-9


def test_image_identity_on_zero_radius():
    mp = pure_twist(FREQ)
    curve = flat_curve(FREQ, 0.0)
    img = image_curve(mp, curve)
    assert img.psi.norm_upper(0.0) < 1e-12
    assert img.phi.norm_upper(0.0) < 1e-12


def test_image_round_trip_residual():
    # angle-graph property: for each xi, the point (xi + phi1, psi1) must be
    # the image of some curve point; invert the forward angle map numerically
    mp = kicked_twist(FREQ, 5e-2, MODES)
    rng = np.random.default_rng(1)
    curve = random_curve(rng, amp=0.05)
    img = image_curve(mp, curve, K_out=24)
    xis = np.linspace(0, 30, 200)
    th_i, r_i = img.points(xis)
    # pointwise oracle: solve theta1(xi0) = th_i by bisection per point
    for th_target, r_target in zip(th_i[:40], r_i[:40]):
        lo, hi = th_target - 2.5, th_target + 2.5
        f = lambda x: mp.apply(curve.points(x))[0] - th_target
        assert f(lo) < 0 < f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            (lo, hi) = (mid, hi) if f(mid) < 0 else (lo, mid)
        xi0 = 0.5 * (lo + hi)
        r_oracle = mp.apply(curve.points(xi0))[1]
        assert abs(r_oracle - r_target) < 1e-9


def test_image_is_a_graph_over_the_angle():
    # phi1 is exactly zero, and psi1 is the image radius R1 o inv over the angle
    mp = kicked_twist(FREQ, 5e-2, MODES)
    curve = random_curve(np.random.default_rng(1), amp=0.05)
    img = image_curve(mp, curve, K_out=24)
    assert img.phi.K == 24 and not np.any(img.phi.coeffs)
    u, r1 = forward_shells(mp, curve, 24)
    psi1 = compose_angle(r1, invert_angle_map(u, K_out=24), K_out=24)
    assert np.array_equal(img.psi.coeffs, psi1.coeffs)


def test_image_not_a_graph():
    mp = pure_twist(FREQ)
    psi = ShellFunction.from_modes(FREQ, {(1, 0): -0.9j}, K=2) + 0.5
    curve = CurveGraph(ShellFunction.zeros(FREQ, 2), psi)  # u' dips below -1
    with pytest.raises(NotAGraph) as info:
        image_curve(mp, curve)
    # the fold is found by the inversion's monotonicity test, the only one
    assert isinstance(info.value.__cause__, NotMonotone)


# ---------------------------------------------------------------------------
# intersection_witness
# ---------------------------------------------------------------------------

def test_witness_trivial_for_radial_identity():
    f = lambda th, r: 0.1 * np.sin(th[0]) * np.ones(np.broadcast_shapes(th.shape[1:], np.shape(r)))
    zero = lambda th, r: np.zeros(np.broadcast_shapes(th.shape[1:], np.shape(r)))
    mp = QpPlanarMap(FREQ, f, zero, (-10, 10), label="g_zero")
    rep = intersection_witness(mp, flat_curve(FREQ, 0.5))
    assert rep.found
    assert not rep.sign_change          # d identically zero


def test_witness_absent_for_rigid_shift():
    mp = rigid_shift(FREQ, 0.02)
    rep = intersection_witness(mp, flat_curve(FREQ, 0.5))
    assert not rep.found


def test_witness_and_area_signs_for_exact_map():
    mp = kicked_twist(FREQ, 0.05, MODES)
    rep = intersection_witness(mp, flat_curve(FREQ, 0.53))
    assert rep.found and rep.sign_change
    lo, hi = rep.area_signs
    assert lo < 0 < hi


def two_eval_area_signs(r_orig, r_img):
    """The area functional's range from separate evaluations of the two radii."""
    diff = r_img.eval(AREA_POINTS).real - r_orig.eval(AREA_POINTS).real
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (diff[1:] + diff[:-1]) * np.diff(AREA_POINTS))])
    idx = np.linspace(0, len(AREA_POINTS) - 1, 64, dtype=int)
    delta = cum[idx][None, :] - cum[idx][:, None]
    return float(np.min(delta)), float(np.max(delta))


def test_area_signs_from_the_scan_evaluation_match_two_evaluations():
    # the witness integrates its one evaluation of d = r_img - r_orig
    rng = np.random.default_rng(7)
    cases = [(kicked_twist(FREQ, 0.05, MODES), flat_curve(FREQ, 0.53))]
    cases += [(kicked_twist(FREQ, 0.03, MODES + [((1, 1), 0.2)]), random_curve(rng))
              for _ in range(4)]
    for mp, curve in cases:
        rep = intersection_witness(mp, curve)
        want = two_eval_area_signs(curve.r_of_theta(), image_curve(mp, curve).psi)
        assert rep.area_signs is not None
        assert np.max(np.abs(np.subtract(rep.area_signs, want))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parseval_average_matches_the_grid_mean(n):
    freq = Frequency((1.0, math.sqrt(2.0), math.sqrt(3.0))[:n])
    rng = np.random.default_rng(n)
    for Kf, Kg in ((0, 3), (4, 2), (5, 5)):
        f, g = (symmetrized(ShellFunction(freq, rng.standard_normal((2 * K + 1,) * n)
                                          + 1j * rng.standard_normal((2 * K + 1,) * n)))
                for K in (Kf, Kg))
        bound = 1e-15 * np.sum(np.abs(f.coeffs)) * np.sum(np.abs(g.coeffs))
        assert abs(maps._birkhoff_average(f, g) - grid_average(f, g)) <= bound


def test_exactness_defect_matches_the_grid_averages():
    mp = kicked_twist(FREQ, 0.02, MODES, flux=3.7e-3)
    rng = np.random.default_rng(9)
    for curve in (flat_curve(FREQ, 0.6), random_curve(rng)):
        u, r1 = forward_shells(mp, curve, max(4 * curve.phi.K, 16))
        want = (grid_average(r1, u.dx() + 1.0)
                - grid_average(curve.psi, curve.phi.dx() + 1.0))
        assert exactness_defect(mp, curve) == pytest.approx(want, abs=1e-15)


def test_exact_maps_always_witness_random_curves():
    mp = kicked_twist(FREQ, 0.03, MODES + [((1, 1), 0.2)])
    rng = np.random.default_rng(7)
    for _ in range(20):
        curve = random_curve(rng)
        rep = intersection_witness(mp, curve)
        assert rep.found


# ---------------------------------------------------------------------------
# exactness_defect
# ---------------------------------------------------------------------------

def test_exactness_pure_twist():
    mp = pure_twist(FREQ)
    assert abs(exactness_defect(mp, flat_curve(FREQ, 0.7))) < 1e-12


def test_exactness_flux_instance():
    flux = 3.7e-3
    mp = kicked_twist(FREQ, 0.02, MODES, flux=flux)
    rng = np.random.default_rng(9)
    for curve in (flat_curve(FREQ, 0.6), random_curve(rng)):
        defect = exactness_defect(mp, curve)
        assert defect == pytest.approx(flux, abs=1e-9)


def test_exactness_generating_function_instance():
    mp = kicked_twist(FREQ, 0.04, MODES)
    rng = np.random.default_rng(10)
    for curve in (flat_curve(FREQ, 0.55), random_curve(rng)):
        assert abs(exactness_defect(mp, curve)) <= 1e-8


def test_image_representation_faithful():
    # Lemma-7.1-style closure: the reparameterized image evaluates consistently
    # with a pointwise pass through the map (no content off the module)
    mp = kicked_twist(FREQ, 0.02, MODES)
    rng = np.random.default_rng(11)
    curve = random_curve(rng, amp=0.05)
    img = image_curve(mp, curve, K_out=24)
    assert img.phi.norm_upper(0.0) < 1e-9
    xis = rng.uniform(0, 40, 12)
    for xi in xis:
        th_t, r_t = img.points(np.array([xi]))
        lo, hi = th_t[0] - 2.5, th_t[0] + 2.5
        f = lambda x: mp.apply(curve.points(x))[0] - th_t[0]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            (lo, hi) = (mid, hi) if f(mid) < 0 else (lo, mid)
        r_oracle = mp.apply(curve.points(0.5 * (lo + hi)))[1]
        assert abs(r_oracle - r_t[0]) < 1e-10
