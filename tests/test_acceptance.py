"""Acceptance suite: one test per criterion, stated tolerances, pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each criterion also enforces its runtime budget.
"""

import json
import math
import time

import numpy as np
from conftest import (
    SampledCpFunction,
    build_family,
    coupled_residuals,
    epsilon_of,
    eval_xy,
    sample_line,
    single_residual,
    symmetrized,
    thm44_holds,
    thm45_holds,
)

from qpkam import qpfourier as qp
from qpkam.cli import main as cli_main
from qpkam.cohomology import solve_coupled, solve_single
from qpkam.diophantine import (
    certify_frequency,
    divisor_sum_bound_check,
    sample_admissible,
)
from qpkam.kam import build_schedule, power_truncation, run
from qpkam.maps import (
    CurveGraph,
    exactness_defect,
    flat_curve,
    intersection_witness,
    kicked_twist,
    rigid_shift,
)
from qpkam.qpfourier import (
    ShellFunction,
    StripDomain,
    StripFunction,
    compose_angle,
    invert_angle_map,
)
from qpkam.smoothing import FROZEN_CONSTANTS, smooth

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

FREQ_S = certify_frequency((1.0, SQRT2), 30, 2.0)
ALPHA_S = sample_admissible(FREQ_S, 1e-2, 3.0, (0.4, 1.2), K=30, count=300,
                            seed=7).accepted[0]

FREQ_G = certify_frequency((1.0, GOLDEN), 30, 2.0)
ALPHA_G = sample_admissible(FREQ_G, 0.1, 2.5, (0.3, 1.1), K=30, count=200,
                            seed=2).accepted[3]
MODES = [((1, 0), 0.55), ((0, 1), 0.45), ((1, 1), 0.15)]
STRIP = (ALPHA_G.alpha - 0.8, ALPHA_G.alpha + 0.8)


def _report(num, label, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{state}] {label} {detail}")
    assert passed, f"criterion {num}: {label} {detail}"


def random_strip(rng, K=16, J=4, dom=StripDomain(1.0, 0.3), scale=1.0):
    shape = (2 * K + 1,) * 2 + (J + 1,)
    coeffs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs *= np.exp(-0.6 * qp.k1_norms(K, 2))[..., None]
    coeffs *= 0.5 ** np.arange(J + 1)
    return symmetrized(StripFunction(FREQ_S, dom, coeffs))


def test_criterion_1_cohomology_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    rho = 1.0 / 6.0
    eps = epsilon_of(rho, ALPHA_S.gamma, ALPHA_S.tau, 2)
    worst = 0.0
    for i in range(50):
        f = random_strip(rng)
        g = random_strip(rng)
        scale = 1.0 + max(f.norm_upper(0.0, 0.3), g.norm_upper(0.0, 0.3))
        if i % 2 == 0:
            u = solve_single(f, ALPHA_S, rho)
            worst = max(worst, single_residual(f, u, ALPHA_S) / scale)
        else:
            u, v = solve_coupled(f, g, ALPHA_S, rho, eps)
            worst = max(worst, max(coupled_residuals(f, g, u, v, ALPHA_S, eps)) / scale)
    elapsed = time.monotonic() - t0
    _report(1, "cohomology residuals <= 1e-9*(1+norm)",
            worst <= 1e-9 and elapsed <= 10.0,
            f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_proved_inequalities():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    ok = True
    notes = []

    # Thm 4.4 / Thm 4.5 norm bounds on random instances
    rho = 1.0 / 6.0
    eps = epsilon_of(rho, ALPHA_S.gamma, ALPHA_S.tau, 2)
    for _ in range(10):
        f, g = random_strip(rng), random_strip(rng)
        ok &= thm44_holds(f, solve_single(f, ALPHA_S, rho), ALPHA_S, rho)
        u, v = solve_coupled(f, g, ALPHA_S, rho, eps)
        ok &= thm45_holds(f, g, u, v, ALPHA_S, rho)
    notes.append("thm44/45")

    # divisor-sum bound at m in {5, 10, 20}
    for m in (5, 10, 20):
        ok &= divisor_sum_bound_check(FREQ_S, ALPHA_S, m).passed
    notes.append("eq4.3")

    # Bessel-type bound
    n = 2
    for _ in range(20):
        f = random_strip(rng, K=8, J=0)
        r = rng.uniform(0.0, 1.0)
        lhs = float(np.sum(np.abs(f.coeffs[..., 0]) ** 2
                           * np.exp(2 * r * qp.k1_norms(8, 2))))
        sh = ShellFunction(FREQ_S, f.coeffs[..., 0])
        ok &= lhs <= 2**n * sh.norm_upper(r) ** 2 * (1 + 1e-12)
    notes.append("lemma4.2")

    # Lemma 5.2 truncation bound on 100 random polynomials
    angles = np.exp(2j * np.pi * np.arange(512) / 512)
    for _ in range(100):
        deg = int(rng.integers(0, 13))
        coeffs = rng.uniform(-1, 1, deg + 1)
        m = int(rng.integers(1, 5))
        qq = float(rng.choice([0.1, 0.3, 0.5]))
        r = float(rng.uniform(0.5, 2.0))
        trunc = power_truncation(coeffs, m, qq)
        lhs = float(np.max(np.abs(np.polyval(coeffs[::-1], qq * r * angles)
                                  - np.polyval(trunc[::-1], qq * r * angles))))
        rhs = qq**m * float(np.max(np.abs(np.polyval(coeffs[::-1], r * angles))))
        ok &= lhs <= rhs * (1 + 1e-12)
    notes.append("lemma5.2")

    # Lemma 5.1 Cauchy estimate on sampled pairs
    dom = StripDomain(0.5, 0.1)
    w = random_strip(rng, K=4, J=3, dom=dom)
    d = 0.04
    sup = w.norm_upper()
    for _ in range(40):
        x1, x2 = rng.uniform(0, 2 * math.pi, 2) \
            + 1j * rng.uniform(-(dom.r - d), dom.r - d, 2)
        y1, y2 = rng.uniform(-(dom.s - d), dom.s - d, 2)
        num = abs(complex(eval_xy(w, x1, y1)) - complex(eval_xy(w, x2, y2)))
        den = max(abs(x1 - x2), abs(y1 - y2))
        ok &= num <= sup / d * den * (1 + 1e-6)
    notes.append("lemma5.1")

    elapsed = time.monotonic() - t0
    _report(2, "proved-inequality suite " + "+".join(notes),
            ok and elapsed <= 30.0, f"({elapsed:.1f}s)")


def test_criterion_3_smoothing_order():
    t0 = time.monotonic()
    p = 6.0
    js = np.arange(1, 9)
    cs = 64.0 * 2.0 ** (-p * js)
    mults = 2.0 ** (js - 1)
    nu = 1.0 + SQRT2

    def shell(theta, y):
        u = theta[0] + theta[1]
        return np.sum(cs[:, None] * np.cos(np.multiply.outer(mults, np.ravel(u))),
                      axis=0).reshape(np.shape(u))

    # exact C^p norm: commensurate harmonics make h periodic in u = nu*x, so
    # even-derivative sups are attained at u = 0 and odd ones on a dense period
    u = np.linspace(0.0, 2.0 * math.pi, 400_001)
    sines = np.sin(np.multiply.outer(mults, u))
    norm = 0.0
    for i in range(int(p) + 1):
        amps = cs * (mults * nu) ** i
        norm += float(np.sum(amps)) if i % 2 == 0 \
            else float(np.max(np.abs(amps @ sines)))
    h = SampledCpFunction(shell, p, norm, FREQ_S)

    xs = np.linspace(0.0, 40.0, 4001)
    h_line = sample_line(h, xs, 0.0)
    deltas = 2.0 ** -np.arange(3, 9)
    members = [smooth(StripFunction.from_sampler(shell, FREQ_S, StripDomain(d, d), 130, 0), d)
               for d in deltas]
    errs = [float(np.max(np.abs(h_line - eval_xy(hd, xs, 0.0).real))) for hd in members]
    slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])

    # the fitted Lemma-2.9 constants stay below the ones smallness_check uses
    fam = build_family(h, q=4e-4, depth=7, K_trunc=130, J=0)
    consts_ok = (fam.c0 <= FROZEN_CONSTANTS["c0"] and fam.c1 <= FROZEN_CONSTANTS["c1"]
                 and fam.c2 <= FROZEN_CONSTANTS["c2"])
    elapsed = time.monotonic() - t0
    _report(3, f"smoothing order slope {slope:.3f} in {p}+-0.3, Lemma-2.9 family",
            abs(slope - p) <= 0.3 and consts_ok and elapsed <= 20.0,
            f"(c0 {fam.c0:.2f}, c1 {fam.c1:.2e}, c2 {fam.c2:.2e}, {elapsed:.1f}s)")


def test_criterion_4_measure_estimate():
    t0 = time.monotonic()
    gammas = [1e-1, 1e-2, 1e-3]
    fractions = []
    for g in gammas:
        try:
            res = sample_admissible(FREQ_S, g, 3.0, (0.4, 1.2), K=30,
                                    count=1000, seed=42)
            fractions.append(res.fraction)
        except Exception:
            fractions.append(0.0)
    monotone = all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
    elapsed = time.monotonic() - t0
    _report(4, f"admissible fractions {fractions} nondecreasing, last >= 0.9",
            monotone and fractions[-1] >= 0.9 and elapsed <= 10.0,
            f"({elapsed:.1f}s)")


def _acceptance_run(lam=1e-4, **kw):
    sched = build_schedule(p=8.0, n=2, tau=2.5, gamma=0.1, k_max=8)
    mp = kicked_twist(FREQ_G, lam, MODES, strip=STRIP)
    args = dict(tol=1e-8, K_trunc=8, J=6, y_scale=16.0)
    args.update(kw)
    return mp, run(mp, ALPHA_G, sched, **args)


def test_criterion_5_end_to_end():
    t0 = time.monotonic()
    mp, out = _acceptance_run()
    defects = [r["defect"] for r in out.trace]
    within = defects[-1] <= 1e-8 and out.trace[-1]["k"] <= 6
    factor4 = all(b <= a / 4.0 for a, b in zip(defects, defects[1:]))
    rng = np.random.default_rng(0)
    resid = out.curve.conjugacy_residual(mp, rng.uniform(0, 100, 1000))
    inv = invert_angle_map(out.curve.phi, K_out=16)
    r_hat = compose_angle(out.curve.psi, inv, K_out=16)
    th, r = out.curve.points(np.array([0.35]))
    pt = (float(th[0]), float(r[0]))
    worst = 0.0
    for _ in range(10_000):
        pt = mp.apply(pt)
        worst = max(worst, abs(pt[1] - float(r_hat.eval(pt[0]).real)))
    orbit_ok = worst <= 10.0 * math.sqrt(1e-8)
    elapsed = time.monotonic() - t0
    _report(5, "end-to-end kicked twist",
            within and factor4 and resid <= 1e-8 and orbit_ok and elapsed <= 120.0,
            f"(defects {['%.1e' % d for d in defects]}, residual {resid:.1e}, "
            f"orbit {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_6_perturbation_scaling():
    t0 = time.monotonic()
    lams = [1e-3, 1e-4, 1e-5]
    d1 = []
    for lam in lams:
        _, out = _acceptance_run(lam)
        d1.append([r for r in out.trace if r["k"] == 1][0]["defect"])
    slope = float(np.polyfit(np.log(lams), np.log(d1), 1)[0])
    elapsed = time.monotonic() - t0
    _report(6, f"level-1 defect scaling slope {slope:.4f}",
            abs(slope - 1.0) <= 0.15 and elapsed <= 180.0, f"({elapsed:.1f}s)")


def test_criterion_7_structural_diagnostics():
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    exact = kicked_twist(FREQ_G, 0.03, MODES, strip=STRIP)
    ok = True
    for _ in range(20):
        amp = 0.05
        phi = ShellFunction.from_modes(
            FREQ_G, {(1, 0): amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))},
            K=3)
        psi = ShellFunction.from_modes(
            FREQ_G, {(0, 1): amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))},
            K=3) + ALPHA_G.alpha
        ok &= intersection_witness(exact, CurveGraph(phi, psi)).found
    shifted = rigid_shift(FREQ_G, 0.02, STRIP)
    ok &= not intersection_witness(shifted, flat_curve(FREQ_G, ALPHA_G.alpha)).found
    ok &= abs(exactness_defect(exact, flat_curve(FREQ_G, ALPHA_G.alpha))) <= 1e-8
    flux = 2.5e-3
    nonexact = kicked_twist(FREQ_G, 0.03, MODES, flux=flux, strip=STRIP)
    defect = exactness_defect(nonexact, flat_curve(FREQ_G, ALPHA_G.alpha))
    ok &= abs(defect - flux) <= 1e-9
    elapsed = time.monotonic() - t0
    _report(7, "intersection witnesses and exactness defects",
            ok and elapsed <= 30.0, f"(flux defect {defect:.6e}, {elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "omega": [1.0, GOLDEN], "sigma0": 2.0, "K": 30,
        "gamma": 0.1, "tau": 2.5, "interval": [0.3, 1.1],
        "p": 8.0, "K_trunc": 8, "J": 6, "k_max": 8, "tol": 1e-8,
        "y_scale": 16.0, "seed": 2,
        "map": {"model": "kicked_twist", "lambda": 1e-4,
                "modes": [{"k": [1, 0], "c": 0.55}, {"k": [0, 1], "c": 0.45},
                          {"k": [1, 1], "c": 0.15}],
                "strip": [0.0, 1.7]},
    }
    path = tmp_path / "acceptance.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["solve", "--config", str(path), "--out", str(out1)])
    code2 = cli_main(["solve", "--config", str(path), "--out", str(out2)])
    identical = (out1 / "curve.json").read_bytes() == (out2 / "curve.json").read_bytes()
    _report(8, "cmd_solve byte-identical curve JSON across two runs",
            code1 == 0 and code2 == 0 and identical, "")


def test_three_frequencies_end_to_end():
    # the three_freq map of the benchmark (omega = (1, sqrt 2, sqrt 3)) at
    # K_trunc 8, J 4: the n = 3 KAM grid path at a real cutoff; the test
    # takes about 3 s on 2 vCPU, and its 20 s budget leaves room for slower
    # hosts
    t0 = time.monotonic()
    freq = certify_frequency((1.0, SQRT2, math.sqrt(3.0)), 30)
    alpha = sample_admissible(freq, 1e-2, 3.5, (0.3, 1.1), K=30, count=200, seed=0).first
    mp = kicked_twist(freq, 1e-4, [((1, 0, 0), 0.55), ((0, 1, 0), 0.45), ((0, 0, 1), 0.15)],
                      strip=(0.0, 1.7))
    sched = build_schedule(p=9.0, n=3, tau=3.5, gamma=1e-2, k_max=8)
    out = run(mp, alpha, sched, tol=1e-8, K_trunc=8, J=4, y_scale=16.0)
    defect = out.trace[-1]["defect"]
    rng = np.random.default_rng(3)
    resid = out.curve.conjugacy_residual(mp, rng.uniform(0.0, 100.0, 64))
    # a map orbit from a curve point stays within 10*sqrt(tol) of the curve's
    # graph r = r_hat(theta)
    inv = invert_angle_map(out.curve.phi, K_out=8)
    r_hat = compose_angle(out.curve.psi, inv, K_out=8)
    th, r = out.curve.points(np.array([0.35]))
    pt = (float(th[0]), float(r[0]))
    worst = 0.0
    for _ in range(2_000):
        pt = mp.apply(pt)
        worst = max(worst, abs(pt[1] - float(r_hat.eval(pt[0]).real)))
    elapsed = time.monotonic() - t0
    _report("n3", "three-frequency kicked twist",
            defect <= 1e-8 and resid <= 1e-8 and worst <= 10.0 * math.sqrt(1e-8)
            and elapsed <= 20.0,
            f"(defect {defect:.1e}, residual {resid:.1e}, orbit {worst:.1e}, "
            f"levels {len(out.trace)}, {elapsed:.1f}s)")
