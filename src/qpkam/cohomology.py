"""Small-divisor difference equations over the quasi-periodic shell.

solve_single: u(x+alpha, y) - u(x, y) = f(x, y) - [f](y), normalized by [u] = 0.
solve_coupled: the system
    u(x+alpha, y) - u(x, y) = eps*v(x, y) + f(x, y)
    v(x+alpha, y) - v(x, y) = g(x, y) - [g](y)
solved by the mean-value condition [v] = -[f]/eps, then two single solves.

The solvers divide Fourier coefficients by e^{i<k,omega>alpha} - 1 and are
exact on the represented mode box; the strip losses rho appear only in the
reported norm inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diophantine import RotationNumber
from .errors import ResidualDefect, UncertifiedDivisor
from .qpfourier import (
    StripFunction,
    cheb_nodes,
    default_grid,
    k1_norms,
    k_dot_omega,
    symmetrize,
)

RESIDUAL_TOL = 1e-9    # scaled by (1 + input norm)


def epsilon_of(rho: float, gamma: float, tau: float, n: int) -> float:
    """eps(rho) = 6^{-(n+1)/2} * gamma/Gamma(tau+1) * rho^tau."""
    if rho <= 0:
        raise ValueError("rho > 0 required")
    return 6.0 ** (-(n + 1) / 2.0) * gamma / math.gamma(tau + 1.0) * rho**tau


@dataclass
class CohomologySolution:
    u: StripFunction
    v: StripFunction | None
    epsilon: float
    rho: float
    residuals: dict = field(default_factory=dict)
    subtracted_mean: np.ndarray | None = None
    norm_report: dict = field(default_factory=dict)


def _divisors_for(f: StripFunction, alpha: RotationNumber) -> np.ndarray:
    if alpha.cutoff < f.K:
        raise UncertifiedDivisor(
            f"modes up to |k|_inf = {f.K} need certification cutoff >= {f.K}, "
            f"have {alpha.cutoff}")
    kw = k_dot_omega(f.K, f.freq.vec)
    return np.exp(1j * kw * alpha.alpha) - 1.0


def _grid_residual(u: StripFunction, rhs: StripFunction, alpha: float) -> float:
    """sup over collocation grid of u(x+alpha,y) - u(x,y) - rhs(x,y)."""
    res = u.shift_x(alpha) - u - rhs
    N = default_grid(u.K)
    return float(np.max(np.abs(res.sample(N))))


def _coefnorm_at_y_samples(f: StripFunction, width: float) -> float:
    """max over 10 sampled y (6 real, 4 on the disc boundary) of
    sum_k |f_k(y)| e^{width*|k|_1}; a lower estimate of the proof's bound target."""
    w = np.exp(width * k1_norms(f.K, f.n))
    ys = f.domain.s * np.concatenate([cheb_nodes(5),
                                      np.exp(1j * np.pi * np.arange(4) / 4.0)])
    boxes = np.abs(f.modes_at_y(ys)) * w[..., None]
    return float(np.max(np.sum(boxes, axis=tuple(range(f.n)))))


def solve_single(f: StripFunction, alpha: RotationNumber, rho: float,
                 check: bool = True) -> CohomologySolution:
    """Solve u(x+alpha,y) - u(x,y) = f - [f] with [u] = 0.

    u_k(y) = f_k(y)/(e^{i<k,omega>alpha} - 1) for k != 0.  The subtracted mean
    [f] is reported; the norm estimate |u|_{r-rho,s} <= eps^{-1}|f|_{r,s} is
    verified on coefficient data.
    """
    if not 0.0 < rho < f.domain.r:
        raise ValueError("need 0 < rho < r")
    div = _divisors_for(f, alpha)
    center = (f.K,) * f.n
    div_safe = div.copy()
    div_safe[center] = 1.0
    coeffs = f.coeffs / div_safe[..., None]
    coeffs[center] = 0.0
    coeffs, _ = symmetrize(coeffs, f.n)
    dom = f.domain
    u = StripFunction(f.freq, dom.shrink_x(rho), coeffs)

    eps = epsilon_of(rho, alpha.gamma, alpha.tau, f.freq.n)
    sol = CohomologySolution(u, None, eps, rho, subtracted_mean=f.mean_value())
    if check:
        mean_part = StripFunction(f.freq, dom, _mean_only(f))
        rhs = f - mean_part
        scale = 1.0 + f.norm_upper(0.0, dom.s)
        sol.residuals["single"] = _grid_residual(u, rhs, alpha.alpha)
        _check_residuals(sol.residuals, scale)
        lhs = _coefnorm_at_y_samples(u, dom.r - rho)
        rhs_norm = f.norm_upper(dom.r, dom.s) / eps
        sol.norm_report["thm44"] = {"lhs": lhs, "rhs": rhs_norm, "passed": lhs <= rhs_norm}
    return sol


def _check_residuals(residuals: dict, scale: float) -> None:
    if max(residuals.values()) > RESIDUAL_TOL * scale:
        raise ResidualDefect(f"residuals {residuals} exceed {RESIDUAL_TOL:.1e} * {scale:.3e}")


def _mean_only(f: StripFunction) -> np.ndarray:
    out = np.zeros_like(f.coeffs)
    out[(f.K,) * f.n] = f.coeffs[(f.K,) * f.n]
    return out


def solve_coupled(f: StripFunction, g: StripFunction, alpha: RotationNumber,
                  rho: float, epsilon: float | None = None,
                  check: bool = True) -> CohomologySolution:
    """Solve the coupled system by the mean-value/two-single-solve sequence.

    epsilon defaults to eps(rho); the KAM step passes the level twist instead.
    Estimates |u|_{r-2rho,s} <= 2 eps^{-1} M and |v|_{r-rho,s} <= 2 eps^{-1} M
    (M = max of the input norms) are verified when epsilon is the default.
    """
    if f.coeffs.shape != g.coeffs.shape:
        raise ValueError("f, g must share representation")
    if not 0.0 < 2 * rho < f.domain.r:
        raise ValueError("need 0 < 2*rho < r")
    eps_bound = epsilon_of(rho, alpha.gamma, alpha.tau, f.freq.n)
    eps = eps_bound if epsilon is None else float(epsilon)
    dom = f.domain

    # [v] = -eps^{-1}[f]
    v_mean = np.zeros_like(f.coeffs)
    center = (f.K,) * f.n
    v_mean[center] = -f.coeffs[center] / eps

    vt_sol = solve_single(g, alpha, rho, check=False)
    vt = vt_sol.u
    v = StripFunction(f.freq, dom.shrink_x(rho), vt.coeffs + v_mean)

    h = StripFunction(f.freq, dom, eps * vt.coeffs + f.coeffs)
    u_sol = solve_single(h, alpha, rho, check=False)
    u = StripFunction(f.freq, dom.shrink_x(2 * rho), u_sol.u.coeffs)

    sol = CohomologySolution(u, v, eps, rho)
    if check:
        scale = 1.0 + max(f.norm_upper(0.0, dom.s), g.norm_upper(0.0, dom.s))
        g_mean = StripFunction(f.freq, dom, _mean_only(g))
        sol.residuals["first"] = _grid_residual(u, eps * v + f, alpha.alpha)
        sol.residuals["second"] = _grid_residual(v, g - g_mean, alpha.alpha)
        _check_residuals(sol.residuals, scale)
        if epsilon is None:
            M = max(f.norm_upper(dom.r, dom.s), g.norm_upper(dom.r, dom.s))
            lhs_u = _coefnorm_at_y_samples(u, dom.r - 2 * rho)
            lhs_v = _coefnorm_at_y_samples(v, dom.r - rho)
            sol.norm_report["thm45_u"] = {"lhs": lhs_u, "rhs": 2 * M / eps,
                                          "passed": lhs_u <= 2 * M / eps}
            sol.norm_report["thm45_v"] = {"lhs": lhs_v, "rhs": 2 * M / eps,
                                          "passed": lhs_v <= 2 * M / eps}
    return sol
