"""Hypothesis profiles, and the helpers that only the tests use: fixtures,
scattered strip evaluation and the grid Birkhoff average, the orbit oracles
of a map and a curve, the paper's norm estimates for the cohomology solves, lower
sup estimates on corner sheets, and C^p data with the smoothing-family fit.  Test modules
import them with `from conftest import ...`.

With CI set, hypothesis examples are derandomized, so a failure seen in CI
replays locally under `CI=1 pytest`.
"""

import dataclasses
import math
import os
import types

import numpy as np
from hypothesis import settings

from qpkam import cohomology
from qpkam import qpfourier as qp
from qpkam.smoothing import member_gap, smooth

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def mode_vectors(K, n):
    """All lattice vectors of the box |k|_inf <= K, shape (n, (2K+1)^n), in
    the flattened order of a mode box."""
    return (np.indices((2 * K + 1,) * n) - K).reshape(n, -1)


def symmetric_box(coeffs, n):
    """0.5*(c + conj(c reflected over the n torus axes)): the arithmetic of
    qp.symmetrize without its reality check, since random fixtures are far
    from real."""
    return 0.5 * (coeffs + np.flip(coeffs, axis=tuple(range(n))).conj())


def symmetrized(f):
    """f (a ShellFunction or StripFunction) with symmetric_box coefficients."""
    return dataclasses.replace(f, coeffs=symmetric_box(f.coeffs, f.n))


def eval_xy(f, x, y):
    """Scattered values of a StripFunction at points x (any shape), y
    broadcast to x: eval_strip_stack at one node."""
    x_arr = np.asarray(x, dtype=complex)
    theta = np.multiply.outer(f.freq.vec, x_arr.ravel())
    y_arr = np.broadcast_to(np.asarray(y, dtype=complex), x_arr.shape).ravel()
    return qp.eval_strip_stack([f], theta, y_arr)[..., 0].reshape(x_arr.shape)


def grid_average(f, g):
    """Grid mean of the product of two real ShellFunctions on default_grid(f.K
    + g.K), a grid that holds the product's modes without aliasing: the
    Birkhoff average by synthesis."""
    N = qp.default_grid(f.K + g.K)
    return float(np.mean(f.sample(N) * g.sample(N)))


# ---------------------------------------------------------------------------
# orbit oracles: the map and the curve at scattered points
# ---------------------------------------------------------------------------

def apply_map(mp, point):
    """Image of (theta, r) under a QpPlanarMap, also for r outside its
    declared strip."""
    theta, r = point
    th = np.multiply.outer(mp.freq.vec, np.asarray(theta, dtype=float))
    return theta + r + mp.f_shell(th, r), r + mp.g_shell(th, r)


def conjugacy_residual(curve, mp, xis):
    """sup over xis of |M(curve(xi)) - curve(xi + alpha)| for an
    InvariantCurve: the orbit form of the trace defect."""
    th, r = curve.points(xis)
    th1, r1 = apply_map(mp, (th, r))
    th_t, r_t = curve.points(np.asarray(xis) + curve.rotation.alpha)
    return float(max(np.max(np.abs(th1 - th_t)), np.max(np.abs(r1 - r_t))))


# ---------------------------------------------------------------------------
# cohomology: residuals and the Thm 4.4 / 4.5 norm estimates
# ---------------------------------------------------------------------------

def epsilon_of(rho, gamma, tau, n):
    """eps(rho) = 6^{-(n+1)/2} * gamma/Gamma(tau+1) * rho^tau."""
    if rho <= 0:
        raise ValueError("rho > 0 required")
    return 6.0 ** (-(n + 1) / 2.0) * gamma / math.gamma(tau + 1.0) * rho**tau


def single_residual(f, u, alpha):
    """Grid sup of u(x+alpha, y) - u(x, y) - (f - [f]), as solve_single checks it."""
    mean = qp.StripFunction(f.freq, f.domain, cohomology._mean_only(f))
    return cohomology._grid_residual([u], [f - mean], alpha.alpha)[0]


def coupled_residuals(f, g, u, v, alpha, eps):
    """Grid sups of both coupled equations' residuals, as solve_coupled checks them."""
    g_mean = qp.StripFunction(f.freq, f.domain, cohomology._mean_only(g))
    return tuple(cohomology._grid_residual([u, v], [eps * v + f, g - g_mean], alpha.alpha))


def coefnorm_at_y_samples(f, width):
    """max over 10 sampled y (6 real, 4 on the disc boundary) of
    sum_k |f_k(y)| e^{width*|k|_1}; a lower estimate of the proof's bound target."""
    w = np.exp(width * qp.k1_norms(f.K, f.n))
    ys = f.domain.s * np.concatenate([qp.cheb_nodes(5),
                                      np.exp(1j * np.pi * np.arange(4) / 4.0)])
    boxes = np.abs(f.modes_at_y(ys)) * w[..., None]
    return float(np.max(np.sum(boxes, axis=tuple(range(f.n)))))


def thm44_holds(f, u, alpha, rho):
    """|u|_{r-rho,s} <= eps(rho)^{-1} |f|_{r,s} for u = solve_single(f, alpha, rho)."""
    dom = f.domain
    eps = epsilon_of(rho, alpha.gamma, alpha.tau, f.n)
    return coefnorm_at_y_samples(u, dom.r - rho) <= f.norm_upper(dom.r, dom.s) / eps


def thm45_holds(f, g, u, v, alpha, rho):
    """|u|_{r-2rho,s} <= 2 eps^{-1} M and |v|_{r-rho,s} <= 2 eps^{-1} M, with
    M the larger input norm, for (u, v) = solve_coupled(f, g, alpha, rho, eps(rho))."""
    dom = f.domain
    eps = epsilon_of(rho, alpha.gamma, alpha.tau, f.n)
    bound = 2 * max(f.norm_upper(dom.r, dom.s), g.norm_upper(dom.r, dom.s)) / eps
    return (coefnorm_at_y_samples(u, dom.r - 2 * rho) <= bound
            and coefnorm_at_y_samples(v, dom.r - rho) <= bound)


# ---------------------------------------------------------------------------
# lower sup estimates on corner sheets
# ---------------------------------------------------------------------------

def corner_sheet_sup(coeffs, n, N, rho):
    """Grid max of |f| on the real torus and on the 2^n corner sheets
    Im theta = +-rho, over every mode box stacked on trailing axes.  Equal
    boxes have equal maxima (a J = 0 strip has the same box at every y), so
    each distinct box is synthesized once."""
    K = (coeffs.shape[0] - 1) // 2
    columns = np.moveaxis(coeffs.reshape(coeffs.shape[:n] + (-1,)), -1, 0)
    boxes = np.stack(list({c.tobytes(): c for c in columns}.values()), axis=-1)
    kstack = mode_vectors(K, n).reshape((n,) + coeffs.shape[:n])
    sheets = [np.zeros(n)]
    if rho > 0:
        sheets += [rho * (2 * np.array(sg) - 1) for sg in np.ndindex(*([2] * n))]
    damps = [np.exp(-np.tensordot(v, kstack, axes=1))[..., None] for v in sheets]
    return max(grid_sup(boxes * damp, n, N) for damp in damps)


def grid_sup(coeffs, n, N):
    """Grid max of |f| on the real torus for any mode box, Hermitian or not
    (trailing axes kept): f = A + iB with A and B Hermitian boxes, each
    synthesized by the real qp.synthesize."""
    vals = (qp.synthesize(symmetric_box(coeffs, n), n, N)
            + 1j * qp.synthesize(symmetric_box(-1j * coeffs, n), n, N))
    return float(np.max(np.abs(vals)))


def shell_norm_lower(f, rho=0.0):
    """Grid max of a ShellFunction over the real torus and its corner sheets:
    a lower estimate of |f|_rho, which norm_upper bounds from above."""
    return corner_sheet_sup(f.coeffs, f.n, qp.default_grid(f.K), rho)


def strip_norm_lower(f, rho, sigma):
    """Max of a StripFunction over sampled points of D(rho, sigma): real grid,
    corner sheets, Chebyshev nodes and 8 points of the complex ring |y| = sigma."""
    ys = sigma * np.concatenate([qp.cheb_nodes(max(f.J, 4)),
                                 np.exp(1j * np.pi * np.arange(8) / 8)])
    return corner_sheet_sup(f.modes_at_y(ys), f.n, qp.default_grid(f.K), rho)


# ---------------------------------------------------------------------------
# smoothing family
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SampledCpFunction:
    """Finitely differentiable quasi-periodic data of declared C^p norm.

    shell_sampler(theta_stack, y) evaluates the shell function F(theta, y) on
    stacked torus coordinates (shape (n, ...)) of the line trace h(x, y) =
    F(omega*x, y).  p may be fractional; cp_norm is the declared C^p bound.
    """

    shell_sampler: callable
    p: float
    cp_norm: float
    freq: qp.Frequency


def sample_line(h, x, y):
    """The line trace h(x, y) = F(omega*x, y) of a SampledCpFunction."""
    return h.shell_sampler(np.multiply.outer(h.freq.vec, np.asarray(x, dtype=float)), y)


def build_family(h, q, depth, K_trunc, J=0):
    """Members h_{delta_k}, delta_k = ((1+q)/2)^k for k <= depth, and the
    fitted constants of the three smoothing inequalities (Lemma 2.9): the
    largest measured ratios

    c0: |h_delta|_{delta} / |h|_0               (bounded)
    c1: |h - h_delta|_0 / (|h|_p delta^p)       (approx)
    c2: |h_delta - h_delta'|_{delta} / (|h|_p delta'^p), delta < delta'  (cauchy_pairs)

    with the sups estimated from below on grids and corner sheets.
    """
    deltas = ((1.0 + q) / 2.0) ** np.arange(depth + 1)
    members = [smooth(qp.StripFunction.from_sampler(h.shell_sampler, h.freq,
                                                   qp.StripDomain(d, d), K_trunc, J), d)
               for d in deltas]
    sup_h = float(np.max(np.abs(sample_line(h, np.linspace(0.0, 200.0, 2048), 0.0))))
    xs = np.linspace(0.0, 200.0, 1024)
    h_line = sample_line(h, xs, 0.0)
    fit = {"bounded": [], "approx": [], "cauchy_pairs": []}
    for delta, hd in zip(deltas, members):
        lhs = strip_norm_lower(hd, delta, hd.domain.s)
        fit["bounded"].append(lhs / max(sup_h, 1e-300))
        err = float(np.max(np.abs(h_line - eval_xy(hd, xs, 0.0).real)))
        fit["approx"].append(err / max(h.cp_norm * delta**h.p, 1e-300))
    for i in range(len(members)):               # delta' = deltas[i]
        for jj in range(i + 1, len(members)):   # delta = deltas[jj] < delta'
            small, big = members[jj], members[i]
            ys = np.linspace(-small.domain.s, small.domain.s, 5)
            gap = max(member_gap([small], [big], ys),
                      corner_sheet_sup(small.modes_at_y(0.0) - big.modes_at_y(0.0),
                                       small.n, qp.default_grid(small.K), deltas[jj]))
            fit["cauchy_pairs"].append(gap / max(h.cp_norm * deltas[i]**h.p, 1e-300))
    return types.SimpleNamespace(
        deltas=deltas, members=members, c0=max(fit["bounded"], default=0.0),
        c1=max(fit["approx"], default=0.0), c2=max(fit["cauchy_pairs"], default=0.0))
