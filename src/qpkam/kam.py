"""The KAM iteration: constants schedule, inductive step, solve-back, driver.

One level runs: (a) linearized coupled solve with the Theta-scaled right side,
(b) Picard contraction for the conjugacy correction z, (c) assembly of the
increment W = Theta + w and the conjugated map Phi_plus, (d) truncation
polynomial Q from the mean-value power series, then the solve-back replacing
the smoothed map A_k by A_{k+1} through the accumulated conjugacy Z, and the
intersection-property bound on Q.

The driver monitors the invariance defect on the real curve in original
(theta, r) units and emits one trace record per level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as npcheb

from .cohomology import solve_coupled
from .diophantine import RotationNumber
from .errors import (
    ConfigError,
    ContractionDiverged,
    NoIntersectionWitness,
    NotConverged,
    ResidualDefect,
    RootFindFailed,
    SmoothnessTooLow,
)
from .maps import CurveGraph, QpPlanarMap
from .qpfourier import (
    Frequency,
    ShellFunction,
    StripDomain,
    StripFunction,
    _displaced_points,
    cheb_eval_rows,
    cheb_nodes,
    default_grid,
    eval_modes,
    eval_strip_stack,
    grid_eval_log,
    grid_shift_cheb,
    log_shift_build,
    sample_strip_stack,
    synthesize,  # noqa: F401  (bound here for the layer tracer in benchmarks/)
)
from .smoothing import FROZEN_CONSTANTS, member_gap, q_bound, smooth

INTERSECTION_STRIP = 1.0 / 600.0
# the trace defect is sup |M(curve(xi)) - curve(xi + alpha)| over these xi
DEFECT_XIS = np.linspace(0.0, 240.0, 192, endpoint=False)


def collocation_grid(K: int) -> int:
    """Torus points per axis of the KAM collocation grids: 3K + 2 (at least 8).

    The 3/2 dealiasing rule for quadratic terms (Orszag 1971): on this grid
    the product of two |k|_inf <= K fields aliases only onto shells above K.
    About 3/4 of default_grid's points per axis.  Sup measurements stay on
    default_grid.  Rounded up to the next 5-smooth size, whose FFTs take only
    radix 2, 3 and 5 steps: 26 -> 27 at K = 8, 11 -> 12 at K = 3.
    """
    N = max(3 * K + 2, 8)
    while 30**N % N:        # N has a prime factor above 5
        N += 1
    return N


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

@dataclass
class KamSchedule:
    """Constants ledger: per-level domains, twists and defect bounds.

    r_k = 2^-k, s_k = 2^-k s0 with s0 = 2^-tau/300, r'_k = (4/3)(r_k - s_k),
    s'_k = (4/3) s_k, eps_k = 2^{-k tau} eps0, M_k = 2^{-k(tau+1)} M0 with
    M0 = q eps0 s0 / 3, b_k = 2^{-k tau}(1-q)^k, B_k = (1+q)^k.
    """

    p: float
    n: int
    tau: float
    gamma: float
    q: float
    k_max: int
    theta: float
    s0: float
    eps0: float
    M0: float
    r: np.ndarray
    s: np.ndarray
    r_prime: np.ndarray
    s_prime: np.ndarray
    eps: np.ndarray
    M: np.ndarray
    b: np.ndarray
    B: np.ndarray
    delta: np.ndarray

    def level(self, k: int) -> dict:
        return {"k": k, "r": self.r[k], "s": self.s[k], "r_prime": self.r_prime[k],
                "s_prime": self.s_prime[k], "eps": self.eps[k], "M": self.M[k],
                "b": self.b[k], "B": self.B[k], "delta": self.delta[k]}


def build_schedule(p: float, n: int, tau: float, gamma: float,
                   q: float | None = None, *, k_max: int) -> KamSchedule:
    """Schedule from the constants ledger; q defaults to its upper bound."""
    if not tau >= n:
        raise ConfigError(f"tau = {tau} must be >= n = {n}")
    if not p > 2 * tau + 1:
        raise SmoothnessTooLow(f"p = {p} must exceed 2*tau + 1 = {2 * tau + 1}")
    if not 0 < gamma < 0.5:
        raise ConfigError(f"gamma = {gamma}: 0 < gamma < 1/2 required")
    b_smooth, b_abs = q_bound(p, tau)
    if q is None:
        q = min(b_smooth, b_abs)
    if not 0 < q <= min(b_smooth, b_abs) + 1e-15:
        raise ConfigError(f"q = {q} violates min({b_smooth:.3e}, {b_abs:.3e})")
    theta = 2.0**-tau
    if q > (theta / 10.0) ** 2 + 1e-15:
        raise ConfigError(f"q = {q}: q <= (theta/10)^2 violated")
    # condition (1+q)^p/(1-q) <= 2^(p-1-2 tau), compared in logarithms: no
    # power of a large p overflows
    if p * math.log1p(q) - math.log1p(-q) > (p - 1 - 2 * tau) * math.log(2.0):
        raise ConfigError("geometric condition (1+q)^p/(1-q) <= 2^(p-1-2tau) fails")
    s0 = 2.0**-tau / 300.0
    try:
        eps0 = 6.0 ** -(tau + (n + 1) / 2.0) * gamma / math.gamma(tau + 1.0)
    except OverflowError:           # Gamma(tau + 1) beyond the largest double
        eps0 = 0.0
    M0 = q * eps0 * s0 / 3.0
    if not min(eps0, M0) > 0.0:
        raise ConfigError(f"tau = {tau}: eps0 = {eps0:.3e}, M0 = {M0:.3e}, not positive doubles")
    ks = np.arange(k_max + 1)
    r = 2.0**-ks
    s = s0 * 2.0**-ks
    return KamSchedule(
        p=p, n=n, tau=tau, gamma=gamma, q=q, k_max=k_max, theta=theta,
        s0=s0, eps0=eps0, M0=M0,
        r=r, s=s, r_prime=4.0 / 3.0 * (r - s), s_prime=4.0 / 3.0 * s,
        eps=eps0 * 2.0 ** (-tau * ks), M=M0 * 2.0 ** (-(tau + 1) * ks),
        b=2.0 ** (-tau * ks) * (1 - q) ** ks, B=(1 + q) ** ks,
        delta=((1 + q) / 2.0) ** ks)


def smallness_check(sup_fg: float, cp_fg: float, schedule: KamSchedule) -> dict:
    """Both smallness conditions with the FROZEN_CONSTANTS smoothing
    constants; advisory (the driver may run beyond them)."""
    c = FROZEN_CONSTANTS
    n, tau, gamma, q = schedule.n, schedule.tau, schedule.gamma, schedule.q
    gg = (gamma / math.gamma(tau + 1.0)) ** 2
    pre = 6.0 ** -(n + 1) / 3.0
    rhs0 = pre * q / (300.0 * c["c0"]) * (1.0 / 72.0) ** tau * gg
    rhsP = pre * q * (1 - q) / (3600.0 * (3 * c["c1"] + c["c2"])) * (1.0 / 288.0) ** tau * gg
    return {"lhs0": sup_fg, "rhs0": rhs0, "lhsP": cp_fg, "rhsP": rhsP,
            "pass": bool(sup_fg <= rhs0 and cp_fg <= rhsP)}


# ---------------------------------------------------------------------------
# normalized maps and conjugacies
# ---------------------------------------------------------------------------

@dataclass
class NormalizedMap:
    """Level map x1 = x + alpha + twist*y + fx(x,y), y1 = y + fy(x,y)."""

    alpha: float
    twist: float
    fx: StripFunction
    fy: StripFunction
    domain: StripDomain

    def defect_sup(self) -> float:
        """Grid sup of |fx| and |fy| at the Chebyshev nodes.  A sup measurement,
        not a collocation: it stays on the oversampled default_grid."""
        vals = sample_strip_stack([self.fx, self.fy], default_grid(self.fx.K))
        return float(np.max(np.abs(vals)))

    def gap(self, other: "NormalizedMap") -> float:
        """Grid sup of |self - other| at the Chebyshev nodes of the narrower strip."""
        ys = min(self.domain.s, other.domain.s) * cheb_nodes(self.fx.J)
        return member_gap([self.fx, self.fy], [other.fx, other.fy], ys)

    def restricted(self, domain: StripDomain) -> "NormalizedMap":
        return NormalizedMap(self.alpha, self.twist,
                             self.fx.with_domain(domain), self.fy.with_domain(domain),
                             domain)


@dataclass
class ExactNormalizedMap:
    """The unsmoothed normalized map, kept as shell samplers of the original."""

    mp: QpPlanarMap
    alpha: float
    y_scale: float

    def hx(self, theta, y):
        """f at (theta, r = alpha + y_scale*y): the x-perturbation."""
        return self.mp.f_shell(theta, self.alpha + self.y_scale * y)

    def hy(self, theta, y):
        """g/y_scale at (theta, r = alpha + y_scale*y): the y-perturbation."""
        return self.mp.g_shell(theta, self.alpha + self.y_scale * y) / self.y_scale

    def displacement(self, theta_pts: np.ndarray, y_pts: np.ndarray):
        """(dx, dy) with x1 = x + dx, y1 = y + dy at shell points."""
        return (self.alpha + self.y_scale * y_pts + self.hx(theta_pts, y_pts),
                self.hy(theta_pts, y_pts))


@dataclass
class ConjugacyMap:
    """Z(x, y) = (x + P(x,y), L y + S(x,y)); P, S quasi-periodic strips on
    Z's domain.  values_at evaluates Z at displaced points; _pullback_grid
    inverts it by Newton on one interpolant of the stacked [P, S]."""

    P: StripFunction
    S: StripFunction
    L: float
    b: float

    @staticmethod
    def identity(freq: Frequency, domain: StripDomain, K: int, J: int) -> "ConjugacyMap":
        return ConjugacyMap(StripFunction.zeros(freq, domain, K, J),
                            StripFunction.zeros(freq, domain, K, J),
                            1.0, 1.0)

    def values_at(self, theta_pts, y_pts: np.ndarray, disp=0.0):
        """(x-displacement P, image y) at (theta_pts + omega*disp, y_pts);
        theta_pts is scattered shell points or a grid size (eval_strip_stack)."""
        vals = eval_strip_stack([self.P, self.S], theta_pts, y_pts, disp)
        return vals[..., 0], self.L * y_pts + vals[..., 1]

    def range_containment(self, domain: StripDomain, target: StripDomain) -> bool:
        """Z(domain) inside target on all of domain = D(r, s), complex y
        included: |Im Z_x| <= r + |P|_D and |Z_y| <= |L| s + |S|_D, with the
        coefficient bounds norm_upper(r, s) for the sups."""
        r, s = domain.r, domain.s
        return bool(r + self.P.norm_upper(r, s) <= target.r
                    and abs(self.L) * s + self.S.norm_upper(r, s) <= target.s)


def power_truncation(coeffs, m: int, q: float) -> np.ndarray:
    """Degree-(m-1) polynomial with coefficients (1 - q^{2(m-k)}) c_k, always
    m of them: zero past the end of coeffs.

    Satisfies sup_{|z| <= q r} |f - f_{m-1,q}| <= q^m sup_{|z| < r} |f| for f
    holomorphic on |z| < r.
    """
    c = np.zeros(m)
    c[:min(m, len(coeffs))] = coeffs[:m]
    return (1.0 - q ** (2.0 * (m - np.arange(m)))) * c


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def normalize(mp: QpPlanarMap, alpha: RotationNumber, schedule: KamSchedule,
              K_trunc: int, J: int, y_scale: float) -> tuple[ExactNormalizedMap, callable]:
    """Linear change theta = x, r = alpha + sigma*y and the smoothed family,
    with sigma = y_scale: the exact normalized map and the family, a function
    level -> NormalizedMap that builds each member once, on first use, by
    projecting the exact map's samplers hx and hy onto the strip and
    smoothing them.

    The schedule's eps0 as sigma is the proof normalization; the numerical
    driver passes a moderate sigma instead, since eps0 amplifies the radial
    perturbation by eps0^{-1}.  The intersection strip |y| < 1/600 must land
    inside the declared r-strip.
    """
    sigma = float(y_scale)
    a, b = mp.strip
    margin = min(alpha.alpha - a, b - alpha.alpha)
    if sigma * INTERSECTION_STRIP > margin:
        raise ConfigError(
            f"intersection strip needs sigma/600 = {sigma * INTERSECTION_STRIP:.3e} "
            f"<= distance {margin:.3e} from alpha to the strip boundary")
    exact = ExactNormalizedMap(mp, alpha.alpha, sigma)
    y_strip = min(1.0, margin / sigma)

    # the levels ask in increasing k, and s_box = min(delta_k, y_strip) stays
    # fixed until delta_k drops below y_strip: one projection serves that run
    @functools.lru_cache(maxsize=1)
    def projections(s_box: float) -> list[StripFunction]:
        return [StripFunction.from_sampler(h, mp.freq, StripDomain(s_box, s_box), K_trunc, J)
                for h in (exact.hx, exact.hy)]

    @functools.cache
    def member(k: int) -> NormalizedMap:
        d = float(schedule.delta[k])
        s_box = min(d, y_strip)
        fx, fy = (smooth(f, d) for f in projections(s_box))
        return NormalizedMap(alpha.alpha, sigma, fx, fy, StripDomain(d, s_box))

    return exact, member


# ---------------------------------------------------------------------------
# level context
# ---------------------------------------------------------------------------

@dataclass
class LevelContext:
    """Constants of one inductive call: domains at (r, s), target halves."""

    r: float
    s: float
    theta: float
    q: float
    eps: float            # twist at this level (the working scale)
    M_paper: float
    alpha: RotationNumber

    @property
    def rho(self) -> float:
        return self.r / 6.0

    @property
    def r_plus(self) -> float:
        return self.r / 2.0

    @property
    def s_plus(self) -> float:
        return self.s / 2.0

    @property
    def rp_plus(self) -> float:
        return 4.0 / 3.0 * (self.r_plus - self.s_plus)

    @property
    def sp_plus(self) -> float:
        return 4.0 / 3.0 * self.s_plus

    @property
    def eps_plus(self) -> float:
        return self.theta * self.eps


@dataclass
class StepResult:
    w_u: StripFunction
    w_v: StripFunction
    phi_plus: NormalizedMap
    Q: Polynomial
    report: dict


# ---------------------------------------------------------------------------
# inductive step
# ---------------------------------------------------------------------------

PICARD_MAX_ITER = 200


def inductive_step(H: NormalizedMap, lc: LevelContext, measured: float) -> StepResult:
    """One inductive cycle: coupled solve, contraction, W, Phi_plus, Q.

    measured is H.defect_sup(), the grid sup of |H - Omega|.  The working
    size is max(measured, M): the proof regime |H - Omega|_D <= M is not
    required, and run records which regime each level is in.
    """
    freq = H.fx.freq
    n = freq.n
    K = H.fx.K
    J = H.fx.J
    theta = lc.theta
    M_work = max(measured, lc.M_paper)

    # (a) coupled linear solve with Theta-scaled right side on D(r, t)
    fT = H.fx.scale_y(theta)
    gT = H.fy.scale_y(theta)
    u, v = solve_coupled(fT, gT, lc.alpha, rho=lc.rho, epsilon=lc.eps)
    w_scale = u.domain.s     # = s / theta

    # collocation grid on D_plus: N^n torus points x J+1 nodes, and values
    # in the (points, nodes, pair) layout of sample_strip_stack
    N = collocation_grid(K)
    ys = lc.s_plus * cheb_nodes(J)

    # fixed ingredients of the contraction: w = (u, v) at the shifts
    # shifts_plus, alpha and 0 in one call, and h = (fx, fy) at Theta y
    shifts_plus = lc.alpha.alpha + lc.eps_plus * ys
    shifts = np.concatenate([shifts_plus, np.full(J + 1, lc.alpha.alpha), np.zeros(J + 1)])
    w_omega_plus, w_alpha, w_at_grid = np.split(
        sample_strip_stack([u, v], N, np.tile(ys, 3), shifts), 3, axis=1)
    f2 = w_alpha - w_omega_plus
    h_theta = sample_strip_stack([H.fx, H.fy], N, theta * ys)

    # F3 = h o (Theta + w) - h o Theta is z-independent
    gmean = H.fy.mean_value()
    hstar2 = cheb_eval_rows(gmean, theta * ys / H.fy.domain.s)
    f3 = eval_strip_stack([H.fx, H.fy], N, theta * ys + w_at_grid[..., 1],
                          w_at_grid[..., 0]) - h_theta

    # (b) Picard contraction for z
    tol = max(1e-13 * theta**2 * M_work, 5e-16 * (1.0 + float(np.max(np.abs(w_at_grid)))))
    z = np.zeros(h_theta.shape)
    guard = 1e6 * (theta**2 * M_work + 1e-300)
    iters = 0
    deltas = []
    for iters in range(1, PICARD_MAX_ITER + 1):
        phi2 = (z[..., 1] + hstar2) / theta
        moved = eval_strip_stack([u, v], N, ys + phi2, shifts_plus + z[..., 0])
        z_new = (w_omega_plus - moved) + f2 + f3
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        deltas.append(delta)
        if delta < tol:
            break
        if float(np.max(np.abs(z))) > guard:
            raise ContractionDiverged(
                f"|z| = {float(np.max(np.abs(z))):.3e} exceeds guard {guard:.3e}")
    else:
        raise ContractionDiverged(f"no fixed point in {PICARD_MAX_ITER} iterations "
                                  f"(last delta {delta:.3e})")

    # (c) phi = Theta^{-1}(z + h* o Theta), Phi_plus = Omega_plus + phi
    dom_plus = StripDomain(lc.r_plus, lc.s_plus)
    z = z.reshape((N,) * n + (J + 1, 2))
    phi1_vals = z[..., 0]
    phi2_vals = (z[..., 1] + hstar2) / theta
    phi1 = StripFunction.from_grid(phi1_vals, freq, dom_plus, K, J)
    phi2 = StripFunction.from_grid(phi2_vals, freq, dom_plus, K, J)
    phi_plus = NormalizedMap(lc.alpha.alpha, lc.eps_plus, phi1, phi2, dom_plus)

    # (d) truncation polynomial from the power series of theta^{-1}[g](theta eta),
    # the m = 3, q = theta/2 truncation
    gpoly = H.fy.mean_poly()
    Q = Polynomial(power_truncation(gpoly * theta ** (np.arange(len(gpoly)) - 1.0), 3, theta / 2.0))

    # verification reports (theorems in the proof regime, advisory otherwise)
    N_sup = default_grid(K)
    w_sup_dprime = float(np.max(np.abs(
        sample_strip_stack([u, v], N_sup, lc.sp_plus * cheb_nodes(J)))))
    phi_minus_q = np.abs(phi1_vals).max()
    q_at_ys = Q(ys)
    phi_minus_q = max(phi_minus_q, float(np.max(np.abs(phi2_vals - q_at_ys))))
    report = {
        "measured_defect": measured, "M_paper": lc.M_paper,
        "contraction_iters": iters,
        "contraction_ratios": [b / a for a, b in zip(deltas, deltas[1:]) if a > 0][:8],
        "contraction_deltas": deltas[:9],
        "w_minus_theta": w_sup_dprime,
        "w_bound_paper": 2.0 / 3.0 * lc.q * lc.s,
        "w_bound_working": 2.0 * M_work / lc.eps,
        "phi_minus_omega_minus_q": phi_minus_q,
        "phi_bound_paper": 5.0 / 48.0 * theta * lc.M_paper,
        "phi_bound_working": 5.0 / 48.0 * theta * M_work,
        "w_scale": w_scale,
    }
    return StepResult(u, v, phi_plus, Q, report)


# ---------------------------------------------------------------------------
# solve-back
# ---------------------------------------------------------------------------

# the pullback interpolant's half-width is at least this times 1 + |c|
PULLBACK_MIN_HALF_WIDTH = 2.0**-26


def _pullback_grid(Z: ConjugacyMap, thf, targets_theta_disp: np.ndarray,
                   targets_y: np.ndarray, seeds_disp: np.ndarray, seeds_y: np.ndarray,
                   tol: float):
    """Solve Z(w) = target per point x by Newton (full steps, at most 40), seeded;
    returns the solution and a report: the steps taken (newton_iters), the
    final max residual (newton_residual) and the interpolants built
    (newton_builds).

    thf is scattered shell points (n, P) or a grid size N (eval_strip_stack);
    targets and seeds have shape (P,) or (P, nodes), one column per node, and
    all nodes iterate until the largest residual meets tol.  Unknowns are the
    x-displacement a (w_x = x + a) and w_y; targets are the x-displacement of
    the target and its y value.

    Along omega the x-derivative of Z is its derivative in a, so one
    grid_shift_cheb interpolant of the stacked [P, S] over a in [c - delta,
    c + delta] gives the values (chebvander in a and in y/s) and, only when
    a step is taken, the Jacobian (the chebder derivatives of those bases).
    The interval is the range of the seeds' a with its half-width doubled,
    and is built again the same way when an iterate leaves it.  Equal seeds
    get the half-width PULLBACK_MIN_HALF_WIDTH * (1 + |c|): the nodes c +
    delta t_m stay distinct in floating point, and the order is at least 1
    wherever Z depends on x above roundoff, so d/da keeps about half its
    digits.  Above SHIFT_MAX_ORDER a step evaluates [P, S, P.dx, S.dx]
    directly, in one eval_modes call.  The values alone fix the root (to
    SHIFT_TOL * sum|f_k| per strip); the Jacobian only sets the rate.
    grid_eval_log counts every build and every direct step.
    """
    omega, s, J = Z.P.freq.vec, Z.P.domain.s, Z.P.J
    stack = np.stack([Z.P.coeffs, Z.S.coeffs], axis=-1)
    P = seeds_disp.shape[0]
    Q = seeds_disp.size // P
    a = seeds_disp.reshape(P, Q).copy()
    yv = seeds_y.reshape(P, Q).copy()
    t_disp = targets_theta_disp.reshape(P, Q)
    t_y = targets_y.reshape(P, Q)
    dJ = npcheb.chebder(np.eye(J + 1))        # T_j' = sum_l dJ[l, j] T_l
    cheb, c, delta, builds = None, 0.0, -1.0, 0
    for it in range(40):
        if cheb is None or not np.all(np.abs(a - c) <= delta):
            lo, hi = float(np.min(a)), float(np.max(a))
            c = 0.5 * (lo + hi)
            delta = max(hi - lo, PULLBACK_MIN_HALF_WIDTH * (1.0 + abs(c)))
            cheb = grid_shift_cheb(stack, omega, thf, c, delta)
            log_shift_build(Q, cheb)
            builds += cheb is not None
        ty = npcheb.chebvander(yv / s, J)                     # (P, Q, J+1)
        if cheb is None:
            both = np.stack([Z.P.coeffs, Z.S.coeffs, Z.P.dx().coeffs, Z.S.dx().coeffs], axis=-1)
            rows = eval_modes(both, _displaced_points(omega, thf, a)).real.reshape(P, Q, J + 1, 4)
            rows, rows_da = rows[..., :2], rows[..., 2:]
        else:
            M = cheb.shape[-1] - 1
            td = npcheb.chebvander((a - c) / delta, M)        # (P, Q, M+1)
            box = cheb.reshape(P, 2 * (J + 1), M + 1).transpose(0, 2, 1)
            rows = (td @ box).reshape(P, Q, J + 1, 2)
        vals = np.einsum("pqjs,pqj->pqs", rows, ty)
        r1 = (a + vals[..., 0]) - t_disp
        r2 = (Z.L * yv + vals[..., 1]) - t_y
        res = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        if res < tol:
            break
        if cheb is not None:
            dM = npcheb.chebder(np.eye(M + 1))
            rows_da = ((td[..., :dM.shape[0]] @ dM) @ box).reshape(P, Q, J + 1, 2) / delta
        d_da = np.einsum("pqjs,pqj->pqs", rows_da, ty)
        d_dy = np.einsum("pqjs,pqj->pqs", rows, ty[..., :dJ.shape[0]] @ dJ) / s
        j11, j12 = 1.0 + d_da[..., 0], d_dy[..., 0]
        j21, j22 = d_da[..., 1], Z.L + d_dy[..., 1]
        det = j11 * j22 - j12 * j21
        singular = np.abs(det) < 1e-14
        if np.any(singular):
            i = int(np.argmax(singular))
            raise RootFindFailed((float(a.flat[i]), float(yv.flat[i])), res)
        a = a - (j22 * r1 - j12 * r2) / det
        yv = yv - (-j21 * r1 + j11 * r2) / det
    else:
        i = int(np.argmax(np.abs(r1) + np.abs(r2)))
        raise RootFindFailed((float(a.flat[i]), float(yv.flat[i])), res)
    report = {"newton_iters": it, "newton_residual": res, "newton_builds": builds}
    return a.reshape(seeds_disp.shape), yv.reshape(seeds_disp.shape), report


def solve_back(Z: ConjugacyMap, A_next: NormalizedMap, phi_plus: NormalizedMap,
               A_prev: NormalizedMap) -> tuple[NormalizedMap, dict]:
    """H with Z o H = A_next o Z on Phi_plus's domain D_{k+1}, seeded at Phi_plus.

    Reports the pullback Newton's steps, final residual and interpolant
    builds (_pullback_grid), the (3.19)-type
    smallness |A_next - A_prev|_E <= b*(s_k/7) of the replaced member A_prev,
    with b = Z.b, and the contraction of H around the seed.
    """
    freq = A_next.fx.freq
    n = freq.n
    K = phi_plus.fx.K
    J = phi_plus.fx.J
    twist_next = phi_plus.twist
    dom = phi_plus.domain
    N = collocation_grid(K)
    ys = dom.s * cheb_nodes(J)
    nodes = ys[None, :]                       # broadcasts to (points, J+1)

    # target: A_next(Z(x, y))
    PS = sample_strip_stack([Z.P, Z.S], N, ys)
    P, Zy = PS[..., 0], Z.L * nodes + PS[..., 1]
    fx = eval_strip_stack([A_next.fx, A_next.fy], N, Zy, P)
    dx = A_next.alpha + A_next.twist * Zy + fx[..., 0]
    t_disp = P + dx                           # x-displacement of A(Z) vs x
    t_y = Zy + fx[..., 1]
    # seed: Phi_plus(x, y)
    seed = sample_strip_stack([phi_plus.fx, phi_plus.fy], N, ys)
    a = A_next.alpha + twist_next * nodes + seed[..., 0]
    yv = nodes + seed[..., 1]
    a, yv, newton = _pullback_grid(Z, N, t_disp, t_y, a, yv, 1e-12 * (1.0 + abs(A_next.alpha)))
    grid = (N,) * n + (J + 1,)
    a_out = (a - A_next.alpha - twist_next * nodes).reshape(grid)
    y_out = (yv - nodes).reshape(grid)

    hx = StripFunction.from_grid(a_out, freq, dom, K, J)
    hy = StripFunction.from_grid(y_out, freq, dom, K, J)
    H_next = NormalizedMap(A_next.alpha, twist_next, hx, hy, dom)

    diff = A_prev.gap(A_next)
    bound = Z.b * (2.0 * dom.s) / 7.0             # b_{k+1} * s_k / 7
    shift = max(float(np.max(np.abs(hx.coeffs - phi_plus.fx.coeffs))),
                float(np.max(np.abs(hy.coeffs - phi_plus.fy.coeffs))))
    report = {**newton, "family_gap": diff, "family_gap_bound": bound,
              "family_gap_ok": bool(diff <= bound),
              "H_minus_phi": shift, "H_minus_phi_bound": diff / max(Z.b, 1e-300)}
    return H_next, report


# ---------------------------------------------------------------------------
# intersection bound
# ---------------------------------------------------------------------------

# |Psi^(2) - eta| at or below this (times 1 + |eta|) is a witness by itself
WITNESS_ATOL = 1e-12


def intersection_bound(Z: ConjugacyMap, exact: ExactNormalizedMap, Q: Polynomial,
                       s_plus: float, eps_plus: float) -> dict:
    """Witness xi0(eta) of Psi^(2)(xi0, eta) = eta on curves xi -> Z(xi, eta)
    and the |Q| <= 3N bound extracted from the measured N, at the rotation
    number alpha of the exact map.

    Psi is the pullback of the exact map A through Z on the reals, sampled at
    7 values of eta in [-0.9, 0.9] s_plus and 128 of xi in [0, 150); the
    report keeps the pullback Newton's steps, final max residual and
    interpolant builds (_pullback_grid).
    """
    freq, alpha = Z.P.freq, exact.alpha
    n_eta, n_xi = 7, 128
    etas = np.linspace(-0.9 * s_plus, 0.9 * s_plus, n_eta)
    xis = np.linspace(0.0, 150.0, n_xi, endpoint=False)
    # one column per eta: the curves xi -> Z(xi, eta) side by side
    th = np.multiply.outer(freq.vec, xis)
    eta_cols = np.broadcast_to(etas, (n_xi, n_eta))
    P, Zy = Z.values_at(th, eta_cols)
    zt = th[..., None] + np.multiply.outer(freq.vec, P)
    dx, dy = exact.displacement(zt, Zy)
    a, yv, newton = _pullback_grid(Z, th, P + dx, Zy + dy, alpha + eps_plus * eta_cols,
                                   eta_cols, 1e-12 * (1 + abs(alpha)))
    d = yv - etas                             # Psi^(2) - eta along each curve
    psi1_dev = a - alpha - eps_plus * etas    # Psi^(1) - (xi + alpha + eps+ eta)
    N_glob = max(float(np.max(np.abs(d - Q(etas)))), float(np.max(np.abs(psi1_dev))))
    witnesses = []
    for eta, d_eta in zip(etas, d.T):
        scale = 1.0 + abs(eta)
        if float(np.min(np.abs(d_eta))) <= WITNESS_ATOL * scale:
            witnesses.append((float(eta), float(xis[int(np.argmin(np.abs(d_eta)))])))
        else:
            sgn = np.sign(d_eta)
            flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
            if flips.size == 0:
                raise NoIntersectionWitness(
                    f"no radial sign change at eta = {eta:.3e} "
                    f"(min d = {float(np.min(d_eta)):.3e}, "
                    f"max d = {float(np.max(d_eta)):.3e})")
            i = int(flips[0])
            witnesses.append((float(eta), float(0.5 * (xis[i] + xis[i + 1]))))
    a0, a1, a2 = Q.coef
    q_sup = abs(a0) + abs(a1) * s_plus + abs(a2) * s_plus * s_plus
    slack = 1e-12 + 4.0 * WITNESS_ATOL
    passed = bool(abs(a0) <= N_glob + slack
                  and abs(a1) * s_plus + abs(a2) * s_plus**2 <= 2 * N_glob + slack
                  and q_sup <= 3 * N_glob + slack)
    return {"witnesses": witnesses, "N_measured": N_glob, "Q_sup": q_sup,
            "pass": passed, **newton}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class InvariantCurve(CurveGraph):
    """theta = xi + phi(xi), r = psi(xi); conjugates the map to xi -> xi+alpha."""

    rotation: RotationNumber
    defect: float = math.nan

    def conjugacy_residual(self, mp: QpPlanarMap, xis) -> float:
        th, r = self.points(xis)
        th1, r1 = mp.apply((th, r))
        th_t, r_t = self.points(np.asarray(xis) + self.rotation.alpha)
        return float(max(np.max(np.abs(th1 - th_t)), np.max(np.abs(r1 - r_t))))


@dataclass
class RunResult:
    """A converged run: the last level's defect is at most tol."""

    curve: InvariantCurve
    trace: list
    Z: ConjugacyMap


def _curve_from_Z(Z: ConjugacyMap, exact: ExactNormalizedMap,
                  rotation: RotationNumber) -> InvariantCurve:
    phi = ShellFunction(Z.P.freq, Z.P.modes_at_y(0.0))
    psi = ShellFunction(Z.P.freq, Z.S.modes_at_y(0.0) * exact.y_scale) + rotation.alpha
    return InvariantCurve(phi, psi, rotation)


def run(mp: QpPlanarMap, alpha: RotationNumber, schedule: KamSchedule, *,
        tol: float, K_trunc: int, J: int, y_scale: float) -> RunResult:
    """Construct the invariant curve with rotation number alpha.

    Iterates inductive_step + solve_back + intersection_bound from the first
    level whose mollified family member differs from the twist; the trace
    records per level the curve's conjugacy_residual on DEFECT_XIS, in
    original (theta, r) units.  A run that stops above tol (schedule.k_max
    reached, or a step failed with ContractionDiverged, ResidualDefect or
    RootFindFailed, recorded as the level's failure) raises NotConverged with
    the trace.  An intersection bound that finds no witness or whose pullback
    Newton fails is recorded as {"pass": false, "error": ...}, and the run
    goes on.
    """
    exact, member = normalize(mp, alpha, schedule, K_trunc, J, y_scale=y_scale)
    sigma = exact.y_scale
    freq = mp.freq

    base_scale = mp.sup_norm_fg / sigma + 1e-300
    k0 = next((k for k in range(schedule.k_max + 1)
               if member(k).defect_sup() > 1e-13 * base_scale), 0)

    dom_k0 = StripDomain(float(schedule.r[k0]), float(schedule.s[k0]))
    dom_prime = StripDomain(float(schedule.r_prime[k0]), float(schedule.s_prime[k0]))
    Z = ConjugacyMap.identity(freq, dom_prime, K_trunc, J)
    A_cur = member(k0)
    H = A_cur.restricted(dom_k0)

    trace = []
    k = k0
    while True:
        with grid_eval_log() as evaluator:
            curve = _curve_from_Z(Z, exact, alpha)
            curve.defect = curve.conjugacy_residual(mp, DEFECT_XIS)
            measured = H.defect_sup()
            rec = {"k": k, "defect": curve.defect, "M_k": float(schedule.M[k]),
                   "BM_k": float(schedule.B[k] * schedule.M[k]),
                   "regime": "proof" if measured <= schedule.M[k] else "numerical",
                   "evaluator": evaluator}
            trace.append(rec)
            if curve.defect <= tol:
                return RunResult(curve, trace, Z)
            if k >= schedule.k_max:
                break

            lc = LevelContext(r=float(schedule.r[k]), s=float(schedule.s[k]),
                              theta=schedule.theta, q=schedule.q,
                              eps=sigma * schedule.theta**(k - k0),
                              M_paper=float(schedule.M[k]), alpha=alpha)
            try:
                step = inductive_step(H, lc, measured)
                rec["contraction_iters"] = step.report["contraction_iters"]
                rec["w_minus_theta"] = step.report["w_minus_theta"]
                rec["Q"] = step.Q.coef.tolist()

                # Z_{k+1} = Z_k o W_k on D'_{k+1}, mapping D_{k+1} into D_{k0}
                Z = compose_conjugacy(Z, step.w_u, step.w_v, lc)
                rec["Z_contained"] = Z.range_containment(step.phi_plus.domain, dom_k0)

                # replace A_k by A_{k+1} through the new conjugacy
                A_next = member(k + 1)
                H, sb_report = solve_back(Z, A_next, step.phi_plus, A_cur)
                rec["solve_back"] = sb_report
                A_cur = A_next
            except (ContractionDiverged, ResidualDefect, RootFindFailed) as exc:
                rec["failure"] = f"{type(exc).__name__}: {exc}"
                break

            try:
                rec["intersection"] = intersection_bound(Z, exact, step.Q, lc.s_plus, lc.eps_plus)
            except (NoIntersectionWitness, RootFindFailed) as exc:
                rec["intersection"] = {"pass": False, "error": str(exc)}
            k += 1

    raise NotConverged(f"defect {trace[-1]['defect']:.3e} > tol {tol:.3e} "
                       f"after level {k}", trace=trace)


def compose_conjugacy(Z: ConjugacyMap, w_u: StripFunction, w_v: StripFunction,
                      lc: LevelContext) -> ConjugacyMap:
    """Z_new = Z o (Theta + w), represented on D'_{k+1}."""
    freq = Z.P.freq
    n = freq.n
    K, J = Z.P.K, Z.P.J
    dom_new = StripDomain(lc.rp_plus, lc.sp_plus)
    N = collocation_grid(K)
    ys = lc.sp_plus * cheb_nodes(J)
    grid = (N,) * n + (J + 1,)
    theta_c = lc.theta
    uv = sample_strip_stack([w_u, w_v], N, ys)
    u_val, v_val = uv[..., 0], uv[..., 1]
    vals = eval_strip_stack([Z.P, Z.S], N, theta_c * ys + v_val, u_val)
    P_new = (u_val + vals[..., 0]).reshape(grid)
    S_new = (Z.L * v_val + vals[..., 1]).reshape(grid)
    P = StripFunction.from_grid(P_new, freq, dom_new, K, J)
    S = StripFunction.from_grid(S_new, freq, dom_new, K, J)
    return ConjugacyMap(P, S, Z.L * theta_c, Z.b * theta_c * (1 - lc.q))
