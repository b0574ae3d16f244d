"""Property tests of the strip evaluation primitives against per-node oracles."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpkam import qpfourier as qp
from qpkam.qpfourier import Frequency, StripDomain, StripFunction, eval_strip_stack, sheet_sup

OMEGAS = {1: (1.0,), 2: (1.0, math.sqrt(2.0)), 3: (1.0, math.sqrt(2.0), math.sqrt(3.0))}
PROPS = settings(max_examples=40, deadline=None)


def random_strip(rng, n, K, J, s=0.4):
    shape = (2 * K + 1,) * n + (J + 1,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs *= np.exp(-0.5 * qp.k1_norms(K, n))[..., None]
    return StripFunction(Frequency(OMEGAS[n]), StripDomain(0.7, s), coeffs).symmetrized()[0]


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), K=st.integers(0, 4),
       J=st.integers(0, 5), nodes=st.integers(1, 6), per_node=st.booleans())
def test_sample_matches_per_node_synthesis(seed, n, K, J, nodes, per_node):
    rng = np.random.default_rng(seed)
    f = random_strip(rng, n, K, J)
    ys = rng.uniform(-f.domain.s, f.domain.s, nodes)
    shift = rng.uniform(-3.0, 3.0, nodes) if per_node else float(rng.uniform(-3.0, 3.0))
    N = qp.default_grid(K)
    got = f.sample(N, ys, shift)
    kw = qp.k_dot_omega(K, f.freq.vec)
    for j, a in enumerate(np.broadcast_to(shift, ys.shape)):
        want = qp.synthesize(f.modes_at_y(ys[j]) * np.exp(1j * kw * a), n, N).real
        assert np.max(np.abs(got[..., j] - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


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
        want = h.eval_xy(x[:, None] + disp, y).real
        assert np.max(np.abs(got[..., m] - want)) <= 1e-11 * (1.0 + np.max(np.abs(want)))
    # without a node axis the evaluator is plain scattered evaluation
    flat = eval_strip_stack([f], np.multiply.outer(f.freq.vec, x), y[:, 0])[..., 0]
    assert np.max(np.abs(flat - f.eval_xy(x, y[:, 0]).real)) <= 1e-11 * (1.0 + np.max(np.abs(flat)))


@PROPS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), K=st.integers(0, 4),
       batch=st.integers(1, 3), rho=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_sheet_sup_matches_brute_force_sheets(seed, n, K, batch, rho):
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * n + (batch,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    N = qp.default_grid(K)
    grid = qp.theta_grid(N, n).reshape(n, -1)
    sheets = [np.zeros(n)]
    if rho > 0:
        sheets += [rho * np.array(c) for c in itertools.product((-1.0, 1.0), repeat=n)]
    brute = max(float(np.max(np.abs(qp.eval_modes(coeffs[..., b], grid + 1j * v[:, None]))))
                for v in sheets for b in range(batch))
    assert abs(sheet_sup(coeffs, n, N, rho) - brute) <= 1e-12 * brute
