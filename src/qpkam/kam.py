"""The KAM iteration: constants schedule, inductive step, solve-back, driver.

One level runs: (a) linearized coupled solve with the Theta-scaled right side,
(b) Picard contraction for the conjugacy correction z, (c) assembly of the
increment W = Theta + w and the conjugated map Phi_plus, (d) truncation
polynomial Q from the mean-value power series, then the solve-back replacing
the smoothed map A_k by A_{k+1} through the accumulated conjugacy Z, and the
intersection-property bound on Q.

The driver measures the curve's invariance defect on the hull torus in
original (theta, r) units and emits one trace record per level.  Each level
runs on the working box its map fills (level_box), within the K_trunc x J
caps.
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
    NotConverged,
    ResidualDefect,
    RootFindFailed,
    SmoothnessTooLow,
)
from .maps import CurveGraph, QpPlanarMap, column_witness
from .qpfourier import (
    Frequency,
    GridShift,
    ShellFunction,
    StripDomain,
    StripFunction,
    _span,
    cheb_eval_rows,
    cheb_nodes,
    default_grid,
    eval_modes,  # noqa: F401  (bound here for the layer tracer in benchmarks/)
    eval_strip_stack,
    grid_eval_log,
    sample_strip_stack,
    synthesize,  # noqa: F401  (bound here for the layer tracer in benchmarks/)
    theta_grid,
)
from .smoothing import FROZEN_CONSTANTS, member_gap, q_bound, smooth

INTERSECTION_STRIP = 1.0 / 600.0


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


def _collocated(values: list, like: StripFunction, dom: StripDomain) -> list:
    """The strips on dom of values on like's collocation grid: one (points,
    nodes) array per strip, in sample_strip_stack's layout, projected on
    like's frequency, mode box and Chebyshev order."""
    grid = (collocation_grid(like.K),) * like.n + (like.J + 1,)
    return [StripFunction.from_grid(v.reshape(grid), like.freq, dom, like.K) for v in values]


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
    b_smooth, b_abs = q_bound(p, tau)         # b_abs = (theta/10)^2
    if q is None:
        q = min(b_smooth, b_abs)
    if not 0 < q <= min(b_smooth, b_abs):
        raise ConfigError(f"q = {q} violates 0 < q <= min({b_smooth:.3e}, {b_abs:.3e})")
    theta = 2.0**-tau
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

    @property
    def domain(self) -> StripDomain:
        """D(r, s), which the strips fx and fy hold."""
        return self.fx.domain

    def displacement(self, N: int, d: np.ndarray, y: np.ndarray):
        """(dx, dy) at the points (x + d, y), x on theta_grid(N, n), which the
        map sends to (x + d + dx, y + dy); d and y have shape (N^n, nodes)."""
        f = eval_strip_stack([self.fx, self.fy], N, y, d)
        return self.alpha + self.twist * y + f[..., 0], f[..., 1]

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
                             self.fx.with_domain(domain), self.fy.with_domain(domain))

    def boxed(self, K: int, J: int) -> "NormalizedMap":
        return NormalizedMap(self.alpha, self.twist, self.fx.boxed(K, J), self.fy.boxed(K, J))


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

    def displacement(self, N: int, d: np.ndarray, y: np.ndarray):
        """NormalizedMap.displacement of the unsmoothed map."""
        freq = self.mp.freq
        th = theta_grid(N, freq.n).reshape(freq.n, -1)[..., None] + np.multiply.outer(freq.vec, d)
        return self.alpha + self.y_scale * y + self.hx(th, y), self.hy(th, y)


@dataclass
class ConjugacyMap:
    """Z(x, y) = (x + P(x,y), L y + S(x,y)); P, S quasi-periodic strips on
    Z's domain.  _pullback_grid inverts it on a torus grid by Newton on one
    interpolant of the stacked [P, S]."""

    P: StripFunction
    S: StripFunction
    L: float
    b: float

    @staticmethod
    def identity(freq: Frequency, domain: StripDomain, K: int, J: int) -> "ConjugacyMap":
        return ConjugacyMap(StripFunction.zeros(freq, domain, K, J),
                            StripFunction.zeros(freq, domain, K, J),
                            1.0, 1.0)

    def boxed(self, K: int, J: int) -> "ConjugacyMap":
        return ConjugacyMap(self.P.boxed(K, J), self.S.boxed(K, J), self.L, self.b)

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
    inside the declared r-strip, so alpha itself must lie inside it.
    """
    sigma = float(y_scale)
    a, b = mp.strip
    if not a < alpha.alpha < b:
        raise ConfigError(f"alpha = {alpha.alpha:.6g} is not inside the map's strip "
                          f"({a:.6g}, {b:.6g})")
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
        return NormalizedMap(alpha.alpha, sigma, fx, fy)

    return exact, member


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


def inductive_step(H: NormalizedMap, alpha: RotationNumber, theta: float, q: float,
                   M_paper: float, measured: float) -> StepResult:
    """One inductive cycle: coupled solve, contraction, W, Phi_plus, Q.

    H is the level map on D(r, s) = H.domain with twist eps = H.twist; Phi_plus
    lives on D(r/2, s/2) with twist theta*eps.  measured is H.defect_sup(), the
    grid sup of |H - Omega|.  The working size is max(measured, M_paper): the
    proof regime |H - Omega|_D <= M_paper is not required, and run records
    which regime each level is in.
    """
    K = H.fx.K
    J = H.fx.J
    r, s, eps = H.domain.r, H.domain.s, H.twist
    dom_plus = StripDomain(r / 2.0, s / 2.0)
    eps_plus = theta * eps
    M_work = max(measured, M_paper)

    # (a) coupled linear solve with Theta-scaled right side on D(r, t)
    fT = H.fx.scale_y(theta)
    gT = H.fy.scale_y(theta)
    u, v = solve_coupled(fT, gT, alpha, rho=r / 6.0, epsilon=eps)

    # collocation grid on D_plus: N^n torus points x J+1 nodes, and values
    # in the (points, nodes, pair) layout of sample_strip_stack
    N = collocation_grid(K)
    ys = dom_plus.s * cheb_nodes(J)

    # fixed ingredients of the contraction: w = (u, v) at the shifts
    # shifts_plus, alpha and 0 in one call, and h = (fx, fy) at Theta y
    shifts_plus = alpha.alpha + eps_plus * ys
    shifts = np.concatenate([shifts_plus, np.full(J + 1, alpha.alpha), np.zeros(J + 1)])
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
    phi1_vals = z[..., 0]
    phi2_vals = (z[..., 1] + hstar2) / theta
    phi_plus = NormalizedMap(alpha.alpha, eps_plus,
                             *_collocated([phi1_vals, phi2_vals], H.fx, dom_plus))

    # (d) truncation polynomial from the power series of theta^{-1}[g](theta eta),
    # the m = 3, q = theta/2 truncation
    gpoly = H.fy.mean_poly()
    Q = Polynomial(power_truncation(gpoly * theta ** (np.arange(len(gpoly)) - 1.0), 3, theta / 2.0))

    # verification reports (theorems in the proof regime, advisory otherwise)
    N_sup = default_grid(K)
    w_sup_dprime = float(np.max(np.abs(
        sample_strip_stack([u, v], N_sup, 4.0 / 3.0 * dom_plus.s * cheb_nodes(J)))))
    phi_minus_q = np.abs(phi1_vals).max()
    q_at_ys = Q(ys)
    phi_minus_q = max(phi_minus_q, float(np.max(np.abs(phi2_vals - q_at_ys))))
    report = {
        "measured_defect": measured, "M_paper": M_paper,
        "contraction_iters": iters,
        "contraction_ratios": [b / a for a, b in zip(deltas, deltas[1:]) if a > 0][:8],
        "contraction_deltas": deltas[:9],
        "w_minus_theta": w_sup_dprime,
        "w_bound_paper": 2.0 / 3.0 * q * s,
        "w_bound_working": 2.0 * M_work / eps,
        "phi_minus_omega_minus_q": phi_minus_q,
        "phi_bound_paper": 5.0 / 48.0 * theta * M_paper,
        "phi_bound_working": 5.0 / 48.0 * theta * M_work,
    }
    return StepResult(u, v, phi_plus, Q, report)


# ---------------------------------------------------------------------------
# solve-back
# ---------------------------------------------------------------------------

# the pullback interpolant's half-width is at least this times 1 + |c|
PULLBACK_MIN_HALF_WIDTH = 2.0**-26


def _pullback_grid(Z: ConjugacyMap, N: int, targets_theta_disp: np.ndarray,
                   targets_y: np.ndarray, seeds_disp: np.ndarray, seeds_y: np.ndarray,
                   tol: float):
    """Solve Z(w) = target per point x of theta_grid(N, n) by Newton (full
    steps, at most 40), seeded; returns the solution and a report: the steps
    taken (newton_iters), the final max residual (newton_residual) and the
    interpolants built (newton_builds).

    Targets and seeds have shape (P,) or (P, nodes) with P = N^n, one column
    per node, and all nodes iterate until the largest residual meets tol.
    Unknowns are the x-displacement a (w_x = x + a) and w_y; targets are the
    x-displacement of the target and its y value.

    Along omega the x-derivative of Z is its derivative in a, so one
    GridShift of the stacked [P, S] over a in [c - delta, c + delta] gives
    each step the values and their y-derivative in one call (summed against
    chebvander(y/s) and its chebder basis) and, only when a step is taken,
    the derivative in a (dd).  The interval is the range of the seeds' a with
    its half-width doubled, and is built again the same way when an iterate
    leaves it (GridShift.covers).  Equal seeds get the half-width
    PULLBACK_MIN_HALF_WIDTH * (1 + |c|): the nodes c + delta t_m stay
    distinct in floating point, and the order is at least 1 wherever Z
    depends on x above roundoff, so d/da keeps about half its digits.  Above
    SHIFT_MAX_ORDER the GridShift evaluates each step directly and covers
    nothing, so the next step tries a fit again.  The values alone fix the
    root (to SHIFT_TOL * sum|f_k| per strip); the Jacobian only sets the
    rate.  grid_eval_log counts every build and every direct step.
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
    shift, builds = None, 0
    for it in range(40):
        if shift is None or not shift.covers(a):
            c, half = _span(a)
            delta = max(2.0 * half, PULLBACK_MIN_HALF_WIDTH * (1.0 + abs(c)))
            shift = GridShift(stack, omega, N, c, delta, Q)
            builds += shift.cheb is not None
        ty = npcheb.chebvander(yv / s, J)                     # (P, Q, J+1)
        # the values and, for the Jacobian, s times their y-derivative
        bases = np.stack([ty, ty[..., :dJ.shape[0]] @ dJ], axis=2)
        vals, d_dy = np.moveaxis(shift.at(a, bases), 2, 0)
        r1 = (a + vals[..., 0]) - t_disp
        r2 = (Z.L * yv + vals[..., 1]) - t_y
        res = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
        if res < tol:
            break
        d_da = shift.at(a, ty, dd=True)
        j11, j12 = 1.0 + d_da[..., 0], d_dy[..., 0] / s
        j21, j22 = d_da[..., 1], Z.L + d_dy[..., 1] / s
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


def _A_of_Z(A, Z: ConjugacyMap, N: int, ys: np.ndarray):
    """A(Z(x, y)) on theta_grid(N, n) x ys for a NormalizedMap or the
    ExactNormalizedMap A: its x-displacement from x and its y, each of shape
    (N^n, len(ys))."""
    PS = sample_strip_stack([Z.P, Z.S], N, ys)
    P, Zy = PS[..., 0], Z.L * ys + PS[..., 1]
    dx, dy = A.displacement(N, P, Zy)
    return P + dx, Zy + dy


def _pullback(A, Z: ConjugacyMap, N: int, ys: np.ndarray, twist: float, guess=None):
    """Psi - Omega on theta_grid(N, n) x ys, where Z o Psi = A o Z and
    Omega(x, y) = (x + alpha + twist y, y): _pullback_grid seeded at Omega
    plus guess (zero, or values in sample_strip_stack's layout), to
    1e-12 (1 + |alpha|).  Returns the x-part, the y-part and the Newton
    report."""
    t_disp, t_y = _A_of_Z(A, Z, N, ys)
    guess = np.zeros(t_disp.shape + (2,)) if guess is None else guess
    a, yv, newton = _pullback_grid(Z, N, t_disp, t_y, A.alpha + twist * ys + guess[..., 0],
                                   ys + guess[..., 1], 1e-12 * (1.0 + abs(A.alpha)))
    return a - A.alpha - twist * ys, yv - ys, newton


def solve_back(Z: ConjugacyMap, A_next: NormalizedMap, phi_plus: NormalizedMap,
               A_prev: NormalizedMap) -> tuple[NormalizedMap, dict]:
    """H with Z o H = A_next o Z on Phi_plus's domain D_{k+1}, seeded at Phi_plus.

    Reports the pullback Newton's steps, final residual and interpolant
    builds (_pullback_grid), the (3.19)-type
    smallness |A_next - A_prev|_E <= b*(s_k/7) of the replaced member A_prev,
    with b = Z.b, and the contraction of H around the seed.
    """
    dom = phi_plus.domain
    N = collocation_grid(phi_plus.fx.K)
    ys = dom.s * cheb_nodes(phi_plus.fx.J)
    # seeded at Phi_plus
    seed = sample_strip_stack([phi_plus.fx, phi_plus.fy], N, ys)
    hx, hy, newton = _pullback(A_next, Z, N, ys, phi_plus.twist, seed)
    hx, hy = _collocated([hx, hy], phi_plus.fx, dom)
    H_next = NormalizedMap(A_next.alpha, phi_plus.twist, hx, hy)

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
                       s_plus: float, eps_plus: float, K_map: int) -> dict:
    """Witnesses of Psi^(2)(theta, eta) = eta on the curves theta -> Z(theta,
    eta) and the |Q| <= 3N bound extracted from the measured N, at the
    rotation number alpha of the exact map.

    Psi is the pullback of the exact map A through Z, sampled at 7 values of
    eta in [-0.9, 0.9] s_plus on the hull torus, theta_grid(N, n) with N =
    max(2 max(K, K_map) + 1, 8) for Z's box K and the map's modes |k|_inf <=
    K_map: the orbit of a curve is dense there, so the sup over xi in R is
    the sup over the torus.  Each column d = Psi^(2) - eta is decided by
    column_witness with the tolerance WITNESS_ATOL (1 + |eta|); its witness is
    (eta, the grid angles of its least |d|).  The report keeps the pullback
    Newton's steps, final max residual and interpolant builds
    (_pullback_grid); a column with no witness makes it {"pass": False,
    "error": ...}.
    """
    N = max(2 * max(Z.P.K, K_map) + 1, 8)
    etas = np.linspace(-0.9 * s_plus, 0.9 * s_plus, 7)
    # one column per eta: the curves theta -> Z(theta, eta) side by side;
    # psi1_dev = Psi^(1) - (x + alpha + eps+ eta), d = Psi^(2) - eta
    psi1_dev, d, newton = _pullback(exact, Z, N, etas, eps_plus)
    th = theta_grid(N, Z.P.n).reshape(Z.P.n, -1)
    N_glob = max(float(np.max(np.abs(d - Q(etas)))), float(np.max(np.abs(psi1_dev))))
    witnesses = []
    for eta, d_eta in zip(etas, d.T):
        found, _, angles = column_witness(d_eta, th, WITNESS_ATOL * (1.0 + abs(eta)))
        if not found:
            return {"pass": False, "error": f"no radial sign change at eta = {eta:.3e} "
                    f"(min d = {np.min(d_eta):.3e}, max d = {np.max(d_eta):.3e})"}
        witnesses.append((float(eta), angles))
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


@dataclass
class RunResult:
    """A converged run: the last level's defect is at most tol."""

    curve: InvariantCurve
    trace: list
    Z: ConjugacyMap


# a level map's coefficients at or below this times |alpha| + |twist| s, the
# size of the twist's displacement on D(r, s), are roundoff of a double
BOX_FLOOR = 2.0**-52


def _content_edges(M: NormalizedMap, floor: float) -> tuple[int, int]:
    """The last shell |k|_inf and the last Chebyshev row where M's fx or fy
    holds a coefficient above floor; -1 where none does."""
    above = np.maximum(np.abs(M.fx.coeffs), np.abs(M.fy.coeffs)) > floor
    K, n = M.fx.K, M.fx.n
    k_inf = np.max(np.abs(np.indices((2 * K + 1,) * n) - K), axis=0)
    return (int(k_inf[np.any(above, axis=-1)].max(initial=-1)),
            int(np.flatnonzero(np.any(above, axis=tuple(range(n)))).max(initial=-1)))


def level_box(H: NormalizedMap, A: NormalizedMap, K_cap: int, J_cap: int,
              first: bool) -> tuple[int, int]:
    """The working box (K, J) of a level with map H, solved back against the
    member A: the last shell t and the last Chebyshev row u where H holds a
    coefficient above the roundoff floor, plus one guard shell and one guard
    row, (t + 1, u + 1).  A guard that H itself fills returns the cap (K_cap
    or J_cap), the only way a box grows.  K also holds A's shells above the
    floor, so that trimming A drops none of its data.

    The first level's H is the smoothed data on the cap box, which the step
    multiplies out: with a its largest coefficient and m the number of
    factors a^m above the floor, the m-fold products fill shells up to m t,
    so K = m t + 1; J stays at the cap.
    """
    floor = BOX_FLOOR * (abs(H.alpha) + abs(H.twist) * H.domain.s)
    t, u = _content_edges(H, floor)
    K = K_cap if t == H.fx.K else t + 1
    if first and 0 < t < H.fx.K:
        a = max(float(np.max(np.abs(H.fx.coeffs))), float(np.max(np.abs(H.fy.coeffs))))
        m = math.ceil(math.log(floor) / math.log(a)) - 1 if a < 1.0 else K_cap
        K = min(t * m + 1, K_cap)
    K = min(max(K, _content_edges(A, floor)[0] + 1), K_cap)
    return K, J_cap if first or u == H.fx.J else u + 1


def _defect(Z: ConjugacyMap, exact: ExactNormalizedMap, K_map: int) -> float:
    """The invariance defect of the curve Z(x, 0) under the exact map A: the
    max over theta_grid(default_grid(max(K, K_map)), n) of |A o Z(x, 0) -
    Z(x + alpha, 0)|, in (theta, r) units, for Z's box K and the map's modes
    |k|_inf <= K_map.  The curve's orbit is dense in the hull torus, so the
    sup over all real x is the sup over the torus; the grid oversamples every
    mode of Z and of the map twice, and samples the higher modes that their
    composition makes."""
    N, ys = default_grid(max(Z.P.K, K_map)), np.zeros(1)
    t_disp, t_y = _A_of_Z(exact, Z, N, ys)
    moved = sample_strip_stack([Z.P, Z.S], N, ys, exact.alpha)
    return max(float(np.max(np.abs(t_disp - exact.alpha - moved[..., 0]))),
               exact.y_scale * float(np.max(np.abs(t_y - moved[..., 1]))))


def _curve_from_Z(Z: ConjugacyMap, exact: ExactNormalizedMap,
                  rotation: RotationNumber, defect: float) -> InvariantCurve:
    phi = ShellFunction(Z.P.freq, Z.P.modes_at_y(0.0))
    psi = ShellFunction(Z.P.freq, Z.S.modes_at_y(0.0) * exact.y_scale) + rotation.alpha
    return InvariantCurve(phi, psi, rotation, defect)


def run(mp: QpPlanarMap, alpha: RotationNumber, schedule: KamSchedule, *,
        tol: float, K_trunc: int, J: int, y_scale: float) -> RunResult:
    """Construct the invariant curve with rotation number alpha.

    Iterates inductive_step + solve_back + intersection_bound from the first
    level whose mollified family member differs from the twist; the trace
    records per level the curve's invariance defect on the hull torus
    (_defect), in original (theta, r) units, and the box (level_box) of each
    stepped level.  A run that stops above tol (schedule.k_max reached, or a
    step failed with ContractionDiverged, ResidualDefect or RootFindFailed,
    recorded as the level's failure) raises NotConverged with the trace.  An
    intersection bound that finds no witness or whose pullback Newton fails
    is recorded as {"pass": false, "error": ...}, and the run goes on.
    """
    exact, member = normalize(mp, alpha, schedule, K_trunc, J, y_scale=y_scale)
    freq = mp.freq
    # a map of unknown modes is resolved on the K_trunc box that represents it
    K_map = K_trunc if mp.K is None else mp.K

    floor = 1e-13 * (mp.sup_norm_fg / exact.y_scale + 1e-300)

    def departs(A: NormalizedMap) -> bool:
        # the coefficient sums bound the grid sup and cost less: a member at
        # the twist is settled without synthesizing its grid
        return (max(A.fx.norm_upper(0.0), A.fy.norm_upper(0.0)) > floor
                and A.defect_sup() > floor)

    k0 = next((k for k in range(schedule.k_max + 1) if departs(member(k))), 0)

    dom_k0 = StripDomain(float(schedule.r[k0]), float(schedule.s[k0]))
    dom_prime = StripDomain(float(schedule.r_prime[k0]), float(schedule.s_prime[k0]))
    Z = ConjugacyMap.identity(freq, dom_prime, K_trunc, J)
    H = member(k0).restricted(dom_k0)

    trace = []
    k = k0
    while True:
        with grid_eval_log() as evaluator:
            defect = _defect(Z, exact, K_map)
            measured = H.defect_sup()
            rec = {"k": k, "defect": defect, "M_k": float(schedule.M[k]),
                   "BM_k": float(schedule.B[k] * schedule.M[k]),
                   "regime": "proof" if measured <= schedule.M[k] else "numerical",
                   "evaluator": evaluator}
            trace.append(rec)
            if defect <= tol:
                return RunResult(_curve_from_Z(Z, exact, alpha, defect), trace, Z)
            if k >= schedule.k_max:
                break

            # the level runs on the box its map fills: H, Z and the members'
            # mode boxes, the members keeping their own Chebyshev rows
            K_k, J_k = level_box(H, member(k + 1), K_trunc, J, first=k == k0)
            rec["box"] = [K_k, J_k]
            H, Z = H.boxed(K_k, J_k), Z.boxed(K_k, J_k)
            A_cur, A_next = (member(j).boxed(K_k, J) for j in (k, k + 1))
            try:
                step = inductive_step(H, alpha, schedule.theta, schedule.q,
                                      float(schedule.M[k]), measured)
                rec["contraction_iters"] = step.report["contraction_iters"]
                rec["w_minus_theta"] = step.report["w_minus_theta"]
                rec["Q"] = step.Q.coef.tolist()

                # Z_{k+1} = Z_k o W_k on D'_{k+1}, mapping D_{k+1} into D_{k0}
                dom_prime = StripDomain(float(schedule.r_prime[k + 1]),
                                        float(schedule.s_prime[k + 1]))
                Z = compose_conjugacy(Z, step.w_u, step.w_v, schedule.theta, schedule.q, dom_prime)
                rec["Z_contained"] = Z.range_containment(step.phi_plus.domain, dom_k0)

                # replace A_k by A_{k+1} through the new conjugacy
                H, sb_report = solve_back(Z, A_next, step.phi_plus, A_cur)
                rec["solve_back"] = sb_report
            except (ContractionDiverged, ResidualDefect, RootFindFailed) as exc:
                rec["failure"] = f"{type(exc).__name__}: {exc}"
                break

            try:
                rec["intersection"] = intersection_bound(Z, exact, step.Q, step.phi_plus.domain.s,
                                                         step.phi_plus.twist, K_map)
            except RootFindFailed as exc:
                rec["intersection"] = {"pass": False, "error": str(exc)}
            k += 1

    raise NotConverged(f"defect {trace[-1]['defect']:.3e} > tol {tol:.3e} "
                       f"after level {k}", trace=trace)


def compose_conjugacy(Z: ConjugacyMap, w_u: StripFunction, w_v: StripFunction,
                      theta: float, q: float, dom_new: StripDomain) -> ConjugacyMap:
    """Z_new = Z o (Theta + w), represented on dom_new = D'_{k+1}."""
    N = collocation_grid(Z.P.K)
    ys = dom_new.s * cheb_nodes(Z.P.J)
    uv = sample_strip_stack([w_u, w_v], N, ys)
    u_val, v_val = uv[..., 0], uv[..., 1]
    vals = eval_strip_stack([Z.P, Z.S], N, theta * ys + v_val, u_val)
    P, S = _collocated([u_val + vals[..., 0], Z.L * v_val + vals[..., 1]], Z.P, dom_new)
    return ConjugacyMap(P, S, Z.L * theta, Z.b * theta * (1 - q))
