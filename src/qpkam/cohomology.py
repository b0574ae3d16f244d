"""Small-divisor difference equations over the quasi-periodic shell.

solve_single: u(x+alpha, y) - u(x, y) = f(x, y) - [f](y), normalized by [u] = 0.
solve_coupled: the system
    u(x+alpha, y) - u(x, y) = eps*v(x, y) + f(x, y)
    v(x+alpha, y) - v(x, y) = g(x, y) - [g](y)
solved by the mean-value condition [v] = -[f]/eps, then two single solves.

The solvers divide Fourier coefficients by e^{i<k,omega>alpha} - 1 and are
exact on the represented mode box.  Each public solve checks its own
equations on the collocation grid and raises ResidualDefect when a residual
exceeds RESIDUAL_TOL * (1 + input norm); the paper's norm estimates are
measured in the tests.
"""

from __future__ import annotations

import numpy as np

from .diophantine import RotationNumber
from .errors import ResidualDefect, UncertifiedDivisor
from .qpfourier import StripFunction, default_grid, k_dot_omega, sample_strip_stack, symmetrize

RESIDUAL_TOL = 1e-9    # scaled by (1 + input norm)


def _divisors_for(f: StripFunction, alpha: RotationNumber) -> np.ndarray:
    if alpha.cutoff < f.K:
        raise UncertifiedDivisor(
            f"modes up to |k|_inf = {f.K} need certification cutoff >= {f.K}, "
            f"have {alpha.cutoff}")
    kw = k_dot_omega(f.K, f.freq.vec)
    return np.exp(1j * kw * alpha.alpha) - 1.0


def _grid_residual(us, rhss, alpha: float) -> list:
    """Per pair of the lists us and rhss, the sup over the collocation grid
    of u(x+alpha,y) - u(x,y) - rhs(x,y), from one synthesis."""
    res = [u.shift_x(alpha) - u - rhs for u, rhs in zip(us, rhss)]
    return np.max(np.abs(sample_strip_stack(res, default_grid(us[0].K))), axis=(0, 1)).tolist()


def _check_residuals(residuals: dict, scale: float) -> None:
    if max(residuals.values()) > RESIDUAL_TOL * scale:
        raise ResidualDefect(f"residuals {residuals} exceed {RESIDUAL_TOL:.1e} * {scale:.3e}")


def _mean_only(f: StripFunction) -> np.ndarray:
    out = np.zeros_like(f.coeffs)
    out[(f.K,) * f.n] = f.coeffs[(f.K,) * f.n]
    return out


def _solve(f: StripFunction, alpha: RotationNumber, rho: float) -> StripFunction:
    """u_k(y) = f_k(y)/(e^{i<k,omega>alpha} - 1) for k != 0 and u_0 = 0, on
    the strip narrowed by rho in x; unchecked."""
    div = _divisors_for(f, alpha)
    center = (f.K,) * f.n
    div[center] = 1.0
    coeffs = f.coeffs / div[..., None]
    coeffs[center] = 0.0
    return StripFunction(f.freq, f.domain.shrink_x(rho), symmetrize(coeffs, f.n))


def solve_single(f: StripFunction, alpha: RotationNumber, rho: float) -> StripFunction:
    """Solve u(x+alpha,y) - u(x,y) = f - [f] with [u] = 0 on the strip
    narrowed by rho in x, with the residual checked."""
    if not 0.0 < rho < f.domain.r:
        raise ValueError("need 0 < rho < r")
    u = _solve(f, alpha, rho)
    mean_part = StripFunction(f.freq, f.domain, _mean_only(f))
    _check_residuals({"single": _grid_residual([u], [f - mean_part], alpha.alpha)[0]},
                     1.0 + f.norm_upper(0.0, f.domain.s))
    return u


def solve_coupled(f: StripFunction, g: StripFunction, alpha: RotationNumber,
                  rho: float, epsilon: float) -> tuple[StripFunction, StripFunction]:
    """(u, v) of the coupled system with coupling epsilon, by the
    mean-value/two-single-solve sequence; v lives on the strip narrowed by
    rho in x and u on the one narrowed by 2 rho.  Both equations' residuals
    are checked."""
    if f.coeffs.shape != g.coeffs.shape:
        raise ValueError("f, g must share representation")
    if not 0.0 < 2 * rho < f.domain.r:
        raise ValueError("need 0 < 2*rho < r")
    eps = float(epsilon)
    dom = f.domain

    # [v] = -eps^{-1}[f]
    v_mean = np.zeros_like(f.coeffs)
    center = (f.K,) * f.n
    v_mean[center] = -f.coeffs[center] / eps

    vt = _solve(g, alpha, rho)
    v = StripFunction(f.freq, dom.shrink_x(rho), vt.coeffs + v_mean)

    h = StripFunction(f.freq, dom, eps * vt.coeffs + f.coeffs)
    u = StripFunction(f.freq, dom.shrink_x(2 * rho), _solve(h, alpha, rho).coeffs)

    scale = 1.0 + max(f.norm_upper(0.0, dom.s), g.norm_upper(0.0, dom.s))
    g_mean = StripFunction(f.freq, dom, _mean_only(g))
    first, second = _grid_residual([u, v], [eps * v + f, g - g_mean], alpha.alpha)
    _check_residuals({"first": first, "second": second}, scale)
    return u, v
