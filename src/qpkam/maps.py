"""Quasi-periodic planar map models and structural diagnostics.

Maps have the form theta_1 = theta + r + f(theta, r), r_1 = r + g(theta, r)
with f, g quasi-periodic in theta.  The catalog is one builder, the
quasi-periodically kicked twist (f = g = lam * V'(theta), exact symplectic by
the generating function H(D, theta) = D^2/2 + lam*V(theta), optionally with a
radial flux); the pure twist and the rigid radial shift counterexample are
its unkicked members without and with a flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NotAGraph, NotMonotone
from .qpfourier import (
    Frequency,
    ShellFunction,
    compose_angle,
    default_grid,
    invert_angle_map,
    theta_grid,
)


@dataclass
class QpPlanarMap:
    """Planar map quasi-periodic in the angle, with shell samplers for f, g.

    f_shell/g_shell take (theta_stack, r) with theta_stack of shape (n, ...)
    and broadcastable r.  declared holds {"intersection", "exact_symplectic"}
    flags (True/False/None for unknown).  K bounds |k|_inf of the angle modes
    of f and g (None for unknown).
    """

    freq: Frequency
    f_shell: callable
    g_shell: callable
    strip: tuple
    cp_norm: float = 0.0
    sup_norm_fg: float = 0.0          # |f| + |g| on the strip (declared)
    declared: dict = field(default_factory=dict)
    label: str = "custom"
    K: int | None = None


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def kicked_twist(freq: Frequency, lam: float, modes, flux: float = 0.0,
                 strip=(-math.inf, math.inf)) -> QpPlanarMap:
    """theta_1 = theta + r + lam*s(theta), r_1 = r + lam*s(theta) + flux,
    with s = sum of c*sin(<k,theta>) over modes = [(k_tuple, c), ...].

    flux = 0 is exact symplectic (generating function H = D^2/2 + lam*V);
    flux != 0 stays area preserving but breaks exactness by the flux constant.
    """
    # (n_modes, n); no modes is the zero kick
    ks = np.array([k for k, _ in modes], dtype=float).reshape(-1, freq.n)
    cs = np.array([c for _, c in modes], dtype=float)

    def s_of(theta):
        phases = np.tensordot(ks, theta, axes=([1], [0]))  # (n_modes, ...)
        return np.tensordot(cs, np.sin(phases), axes=([0], [0]))

    f = lambda th, r: lam * s_of(th) * np.ones(np.broadcast_shapes(th.shape[1:], np.shape(r)))
    g = lambda th, r: lam * s_of(th) + flux + np.zeros(np.broadcast_shapes(th.shape[1:], np.shape(r)))
    amp = float(lam) * float(np.sum(np.abs(cs)))
    kmax = float(np.max(np.abs(ks @ freq.vec))) if len(modes) else 0.0
    cp = sum(amp * kmax**i for i in range(0, 8))
    return QpPlanarMap(freq, f, g, strip, cp_norm=cp,
                       sup_norm_fg=2 * amp + abs(flux),
                       declared={"intersection": flux == 0.0,
                                 "exact_symplectic": flux == 0.0},
                       label="kicked_twist", K=int(np.max(np.abs(ks), initial=0)))


def pure_twist(freq: Frequency, strip=(-math.inf, math.inf)) -> QpPlanarMap:
    """theta_1 = theta + r, r_1 = r: the kicked twist with no kick."""
    return replace(kicked_twist(freq, 0.0, [], strip=strip), label="pure_twist")


def rigid_shift(freq: Frequency, c: float, strip=(-math.inf, math.inf)) -> QpPlanarMap:
    """r_1 = r + c, the kicked twist with no kick and flux c: pushes every
    curve outward, so violates intersection unless c = 0 (the pure twist)."""
    return replace(kicked_twist(freq, 0.0, [], flux=c, strip=strip), label="rigid_shift")


# each catalog model: the map keys it reads besides "model", and its builder
# from the frequency, the config dict and the strip
MODELS = {
    "pure_twist": (("strip",), lambda freq, cfg, strip: pure_twist(freq, strip)),
    "kicked_twist": (("lambda", "modes", "flux", "strip"), lambda freq, cfg, strip: kicked_twist(
        freq, float(cfg.get("lambda", 0.0)),
        [(tuple(m["k"]), float(m.get("c", 1.0))) for m in cfg.get("modes", [])],
        flux=float(cfg.get("flux", 0.0)), strip=strip)),
    "rigid_shift": (("c", "strip"),
                    lambda freq, cfg, strip: rigid_shift(freq, float(cfg.get("c", 0.0)), strip)),
}


def check_model_config(cfg: dict, n: int) -> None:
    """Raise ConfigError where model_from_config would misread cfg, a
    JSON-style dict of type-checked values: an unknown model, a key the
    model does not read, or a mode k without n components."""
    name = cfg.get("model", "kicked_twist")
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}")
    reads = ("model",) + MODELS[name][0]
    unknown = set(cfg) - set(reads)
    if unknown:
        raise ConfigError(f"model {name!r} reads no map keys {sorted(unknown)}; "
                          f"it reads {sorted(reads)}")
    for i, mode in enumerate(cfg.get("modes", [])):
        if len(mode["k"]) != n:
            raise ConfigError(f"map.modes[{i}].k = {mode['k']} needs {n} components")


def model_from_config(cfg: dict, freq: Frequency) -> QpPlanarMap:
    """Catalog lookup from a JSON-style dict: {"model": .., parameters},
    checked by check_model_config."""
    check_model_config(cfg, freq.n)
    build = MODELS[cfg.get("model", "kicked_twist")][1]
    return build(freq, cfg, tuple(cfg.get("strip", (-math.inf, math.inf))))


# ---------------------------------------------------------------------------
# curves and diagnostics
# ---------------------------------------------------------------------------

@dataclass
class CurveGraph:
    """Quasi-periodic graph curve theta = xi + phi(xi), r = psi(xi)."""

    phi: ShellFunction
    psi: ShellFunction

    def points(self, xi):
        xi = np.asarray(xi, dtype=float)
        return xi + self.phi.eval(xi).real, self.psi.eval(xi).real

    def r_of_theta(self) -> ShellFunction:
        """psi reparameterized by the angle theta (needs a monotone graph)."""
        inv = invert_angle_map(self.phi, K_out=max(2 * self.phi.K, 8))
        return compose_angle(self.psi, inv, K_out=max(2 * self.psi.K, 8))


def flat_curve(freq: Frequency, r0: float, K: int = 4) -> CurveGraph:
    return CurveGraph(ShellFunction.zeros(freq, K),
                      ShellFunction.constant(freq, r0, K))


def forward_shells(mp: QpPlanarMap, curve: CurveGraph, K_out: int):
    """Image of a graph curve in the original parameter: the angle displacement
    u = phi + psi + f(curve) and the radius R1 = psi + g(curve), both shells."""
    freq = mp.freq
    N = default_grid(K_out)
    th = theta_grid(N, freq.n)
    thf = th.reshape(freq.n, -1)
    phi_v = curve.phi.sample(N).ravel()
    psi_v = curve.psi.sample(N).ravel()
    th_curve = thf + np.multiply.outer(freq.vec, phi_v)
    fv = mp.f_shell(th_curve, psi_v)
    gv = mp.g_shell(th_curve, psi_v)
    shape = (N,) * freq.n
    u = ShellFunction.from_grid((phi_v + psi_v + fv).reshape(shape), freq, K_out)
    r1 = ShellFunction.from_grid((psi_v + gv).reshape(shape), freq, K_out)
    return u, r1


def image_curve(mp: QpPlanarMap, curve: CurveGraph, K_out: int | None = None) -> CurveGraph:
    """Image of a graph curve, reparameterized as a graph over the angle.

    The graph parameter is recovered with the quasi-periodic inverse of the
    angle displacement (NotAGraph, from the inversion's NotMonotone, when the
    angle map folds).  Over the angle the image is a graph, so its angle
    displacement phi1 is zero and psi1 = R1 o inv carries the curve.
    """
    K_out = K_out if K_out is not None else max(2 * curve.phi.K, 8)
    u, r1 = forward_shells(mp, curve, K_out)
    try:
        inv = invert_angle_map(u, K_out=K_out)
    except NotMonotone as exc:
        raise NotAGraph(str(exc)) from exc
    return CurveGraph(ShellFunction.zeros(mp.freq, K_out), compose_angle(r1, inv, K_out=K_out))


# the area functional's quadrature points; AREA_GRID of them, evenly
# spread, are the t and T nodes of its (t, T) grid
AREA_POINTS = np.linspace(0.0, 120.0, 512)
AREA_GRID = 64


def column_witness(d: np.ndarray, th: np.ndarray, atol: float) -> tuple[bool, bool, list]:
    """The intersection test of a radial displacement d sampled at the torus
    points th, shape (n, P): the curve meets its image where |d| <= atol at
    some point or where d takes both signs (the torus is connected, and the
    orbit of a curve is dense in it).  Returns (passed, both signs beyond
    atol, the angles of the point of least |d|)."""
    i = int(np.argmin(np.abs(d)))
    lo, hi = float(np.min(d)), float(np.max(d))
    return (bool(abs(d[i]) <= atol or lo < 0.0 < hi), bool(lo < -atol and atol < hi),
            th[:, i].tolist())


@dataclass
class WitnessReport:
    found: bool
    witness: list | None               # the n torus angles of the least |d|, when found
    sign_change: bool
    area_signs: tuple | None = None    # (min, max) of Delta(t, T) when computed


def intersection_witness(mp: QpPlanarMap, curve: CurveGraph) -> WitnessReport:
    """Witness of M(curve) meeting curve: a zero of the radial displacement
    d(theta) between the two graphs over the angle.

    d is sampled on the hull torus, theta_grid(default_grid(d.K), n), and
    decided by column_witness with the tolerance 1e-11 (1 + |psi|).  For
    declared exact symplectic maps the area functional Delta(t, T), the
    integral of the same d over a window of the real line, is reported too.
    """
    img = image_curve(mp, curve)
    # img.psi is already the image's radius over the angle (its phi1 is zero)
    d = img.psi - curve.r_of_theta()
    N = default_grid(d.K)
    found, sign_change, witness = column_witness(
        d.sample(N).ravel(), theta_grid(N, d.n).reshape(d.n, -1),
        1e-11 * (1.0 + curve.psi.norm_upper(0.0)))
    area = (_area_functional_signs(d.eval(AREA_POINTS).real)
            if mp.declared.get("exact_symplectic") else None)
    return WitnessReport(found, witness if found else None, sign_change, area)


def _area_functional_signs(diff: np.ndarray):
    """Range of Delta(t, T) = int_t^T (r1 dtheta1 - r dtheta) over the
    AREA_GRID x AREA_GRID grid of (t, T) in [0, 120].

    diff holds the radial displacement d = r_img - r_orig between the image
    and the curve, both parameterized by the angle, at AREA_POINTS; Delta is
    its cumulative trapezoid quadrature there.
    """
    ts = AREA_POINTS
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (diff[1:] + diff[:-1]) * np.diff(ts))])
    idx = np.linspace(0, len(ts) - 1, AREA_GRID, dtype=int)
    delta = cum[idx][None, :] - cum[idx][:, None]     # Delta(t_i, T_j)
    return float(np.min(delta)), float(np.max(delta))


def _birkhoff_average(f: ShellFunction, g: ShellFunction) -> float:
    """Mean of the product f g of two real shells: by Parseval, the sum of
    f_k g_{-k} over the aligned mode boxes, which the grid mean of the
    product on an alias-free grid equals up to roundoff."""
    K = max(f.K, g.K)
    return float(np.sum(f.pad_to(K).coeffs * np.flip(g.pad_to(K).coeffs)).real)


def exactness_defect(mp: QpPlanarMap, curve: CurveGraph) -> float:
    """Difference of the Birkhoff averages of r dtheta along the image and the
    original curve, via shell-average quadrature in the original parameter
    (parameterization invariant, exact on the mode box; no inversion).

    Each average is the mean of a product of two shells, the Parseval sum
    of their coefficients (_birkhoff_average): no synthesis.  Zero
    certifies exactness on this curve; a radial flux c shows up as +c.
    """
    u, r1 = forward_shells(mp, curve, max(4 * curve.phi.K, 16))
    avg_img = _birkhoff_average(r1, u.dx() + 1.0)
    avg_orig = _birkhoff_average(curve.psi, curve.phi.dx() + 1.0)
    return avg_img - avg_orig
