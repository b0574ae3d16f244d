"""Diophantine certification: exhaustive oracles, measure experiment, divisor sums."""

import math
import tracemalloc

import numpy as np
import pytest

from qpkam import diophantine
from qpkam.diophantine import (
    RejectionReport,
    RotationNumber,
    certify_frequency,
    certify_rotation,
    divisor_sum_bound_check,
    sample_admissible,
)
from qpkam.errors import ConfigError, NoneAdmissible, ResonantFrequency
from qpkam.qpfourier import Frequency, mode_vectors

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# certify_frequency
# ---------------------------------------------------------------------------

def test_certify_golden_against_bruteforce():
    K, sigma0 = 10, 2.0
    freq = certify_frequency((1.0, GOLDEN), K, sigma0)
    # exhaustive lattice enumeration oracle (plain double loop)
    best = math.inf
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            if k1 == k2 == 0:
                continue
            val = abs(k1 + k2 * GOLDEN) * (abs(k1) + abs(k2)) ** sigma0
            best = min(best, val)
    assert freq.c == pytest.approx(best, rel=1e-14)
    assert freq.cutoff == K


def test_certify_resonant():
    with pytest.raises(ResonantFrequency) as exc:
        certify_frequency((1.0, 2.0), K=2)
    assert abs(exc.value.k[0]) == 2 and abs(exc.value.k[1]) == 1


def test_certify_one_dim():
    freq = certify_frequency((1.0,), K=7, sigma0=0.0)
    assert freq.c == pytest.approx(1.0)


def test_certify_monotone_in_K():
    cs = [certify_frequency((1.0, SQRT2), K, 2.0).c for K in (5, 10, 20, 30)]
    for a, b in zip(cs, cs[1:]):
        assert b <= a + 1e-15


# ---------------------------------------------------------------------------
# certify_rotation
# ---------------------------------------------------------------------------

FREQ = certify_frequency((1.0, SQRT2), 40, 2.0)


def test_rotation_interval_rejection():
    rep = certify_rotation(0.3999, FREQ, gamma=1e-3, tau=3.0, interval=(0.4, 1.2), K=10)
    assert isinstance(rep, RejectionReport)
    assert rep.reason == "interval"


def test_rotation_exact_resonance():
    # alpha = 2*pi: <(1,0),omega>*alpha/(2*pi) = 1 exactly
    rep = certify_rotation(2 * math.pi, FREQ, gamma=1e-3, tau=3.0,
                           interval=(0.0, 10.0), K=10)
    assert isinstance(rep, RejectionReport)
    assert rep.reason == "divisor"
    assert tuple(abs(v) for v in rep.k) in {(1, 0), (0, 1)} or rep.margin < 1e-10
    assert rep.margin < 1e-10


def test_rotation_scan_against_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    gamma, tau, K = 1e-3, 3.0, 30
    interval = (0.4, 1.2)
    om_hi = [mp.mpf(1), mp.sqrt(2)]
    for alpha in (0.7, 0.55, 0.9331, 1.05):
        got = certify_rotation(alpha, FREQ, gamma, tau, interval, K)
        # independent high-precision scan
        ok = True
        a_hi = mp.mpf(alpha)
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                if k1 == k2 == 0:
                    continue
                x = (k1 * om_hi[0] + k2 * om_hi[1]) * a_hi / (2 * mp.pi)
                dist = abs(x - mp.nint(x))
                if dist < mp.mpf(gamma) / (abs(k1) + abs(k2)) ** tau:
                    ok = False
                    break
            if not ok:
                break
        assert bool(got) == ok


def test_sample_admissible_monotone_and_fraction():
    gammas = [1e-1, 1e-2, 1e-3]
    fractions = []
    for g in gammas:
        try:
            res = sample_admissible(FREQ, g, 3.0, (0.4, 1.2), K=30, count=1000, seed=42)
            fractions.append(res.fraction)
        except NoneAdmissible:
            fractions.append(0.0)
    assert fractions == sorted(fractions)          # nondecreasing as gamma decreases
    assert fractions[-1] >= 0.9


def test_sample_monotone_on_fixed_set():
    # same alphas certified under nested gamma conditions: exact monotonicity
    rng = np.random.default_rng(7)
    g_max = 1e-1
    pad = g_max / 12.0**3
    alphas = rng.uniform(0.4 + pad, 1.2 - pad, 400)
    fracs = []
    for g in (1e-1, 3e-2, 1e-2, 1e-3):
        mask = [isinstance(certify_rotation(a, FREQ, g, 3.0, (0.4, 1.2), 30), RotationNumber)
                for a in alphas]
        fracs.append(np.mean(mask))
    assert fracs == sorted(fracs)


@pytest.mark.parametrize("omega, gamma, tau, count", [
    ((1.0, GOLDEN), 1e-2, 3.0, 1000),
    ((1.0, SQRT2, math.sqrt(3.0)), 1e-2, 3.5, 60),
])
def test_sample_admissible_matches_certify_rotation(omega, gamma, tau, count):
    # the chunked batch pass rebuilds certify_rotation's certificates exactly
    freq = certify_frequency(omega, K=30)
    res = sample_admissible(freq, gamma, tau, (0.3, 1.1), K=30, count=count, seed=4)
    assert len(res.accepted) > 0
    assert res.first == res.accepted[0]
    assert res.accepted == [certify_rotation(a, freq, gamma, tau, (0.3, 1.1), 30)
                            for a in res.alphas[res.mask]]
    # the rejections too: certify_rotation is the oracle for every drawn alpha
    np.testing.assert_array_equal(
        res.mask, [isinstance(certify_rotation(a, freq, gamma, tau, (0.3, 1.1), 30),
                              RotationNumber) for a in res.alphas])


THREE_FREQ = (1.0, SQRT2, math.sqrt(3.0))


def count_chunks(monkeypatch):
    """Wrap the per-chunk divisor pass; the returned list grows by one a call."""
    calls = []
    chunk_pass = diophantine._chunk_pass

    def counted(*args):
        calls.append(len(args[0]))
        return chunk_pass(*args)

    monkeypatch.setattr(diophantine, "_chunk_pass", counted)
    return calls


@pytest.mark.parametrize("gamma, seed, chunks_to_first", [
    (1e-2, 3, 1),      # the first draw is admissible
    (0.15, 2, 7),      # draws 0-15 are not: six chunks hold no admissible draw
])
def test_sample_admissible_stops_at_first_admissible(monkeypatch, gamma, seed,
                                                     chunks_to_first):
    # three_freq lattice: 113,490 half-box vectors, so at most 4 draws a chunk
    freq = certify_frequency(THREE_FREQ, K=30)
    tau, interval, count = 3.5, (0.3, 1.1), 200
    step = diophantine.ALPHA_CHUNK_ELEMS // 113490
    assert step == 4
    calls = count_chunks(monkeypatch)
    res = sample_admissible(freq, gamma, tau, interval, K=30, count=count, seed=seed)
    assert len(calls) == chunks_to_first
    # the full certification of every draw, by the single-alpha oracle
    oracle = [certify_rotation(a, freq, gamma, tau, interval, 30) for a in res.alphas]
    admissible = [isinstance(rot, RotationNumber) for rot in oracle]
    first = admissible.index(True)
    assert sum(calls[:-1]) <= first < sum(calls)      # in the last chunk certified
    assert res.first == oracle[first]
    # reading fraction completes the scan in chunks of 1, 1, 2, then 4 draws
    assert res.fraction == np.mean(admissible)
    assert calls == [1, 1, 2] + [step] * 49
    np.testing.assert_array_equal(res.mask, admissible)
    assert res.accepted == [rot for rot in oracle if rot]
    assert len(calls) == 52                           # no draw certified twice


@pytest.mark.parametrize("omega, tau, K", [((1.0, GOLDEN), 3.0, 30), (THREE_FREQ, 3.5, 12)])
@pytest.mark.parametrize("elems", [1, 5_000, 3 * 7_812, 1 << 19, 1 << 30])
def test_sample_admissible_independent_of_chunk_size(monkeypatch, omega, tau, K, elems):
    # chunks of 1 draw, a few draws, or the whole sample (the n = 3, K = 12
    # half box holds 7,812 vectors): the same certificates for every draw
    monkeypatch.setattr(diophantine, "ALPHA_CHUNK_ELEMS", elems)
    freq = certify_frequency(omega, K=K)
    gamma, interval = 0.15, (0.3, 1.1)
    res = sample_admissible(freq, gamma, tau, interval, K=K, count=60, seed=3)
    oracle = [certify_rotation(a, freq, gamma, tau, interval, K) for a in res.alphas]
    admissible = [isinstance(rot, RotationNumber) for rot in oracle]
    assert res.first == oracle[admissible.index(True)] == oracle[15]
    np.testing.assert_array_equal(res.mask, admissible)
    # a rejected draw's margin is its worst violated divisor line's
    np.testing.assert_array_equal(res._margin, [rot.margin for rot in oracle])
    assert res.fraction == np.mean(admissible)
    assert res.accepted == [rot for rot in oracle if rot]


def first_only_peak(freq, tau):
    """tracemalloc peak of a sample_admissible that stops at its first draw."""
    args = (freq, 1e-2, tau, (0.3, 1.1), 30, 200, 0)
    sample_admissible(*args)                                      # warm caches
    tracemalloc.start()
    try:
        res = sample_admissible(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.first is not None
    return held, peak


def test_live_sample_holds_no_chunk_temporaries():
    # n = 2, K = 30: 1,860 half-box vectors, about 15 kB a box array
    held, _ = first_only_peak(certify_frequency((1.0, GOLDEN), K=30), 3.0)
    assert held < 2 * 2**20


def test_first_only_sample_peak_at_three_frequencies():
    # n = 3, K = 30: one float array over the 226,981-vector box is 1.8 MB
    _, peak = first_only_peak(certify_frequency(THREE_FREQ, K=30), 3.5)
    assert peak < 8 * 2**20


def test_none_admissible():
    with pytest.raises(NoneAdmissible):
        sample_admissible(FREQ, 0.49, 3.0, (0.4, 1.2), K=30, count=50, seed=1)


@pytest.mark.parametrize("K", [0, -1])
def test_sampling_and_certifying_refuse_the_same_cutoff(K):
    # one admissible-interval check: sample_admissible refuses K < 1 as
    # certify_rotation does, before its chunk size divides by the box size
    freq = Frequency((1.0, GOLDEN))
    with pytest.raises(ConfigError, match="K >= 1 required"):
        sample_admissible(freq, 0.1, 2.5, (0.3, 1.1), K, 10, 0)
    with pytest.raises(ConfigError, match="K >= 1 required"):
        certify_rotation(0.7, freq, 0.1, 2.5, (0.3, 1.1), K)


# ---------------------------------------------------------------------------
# divisor sums
# ---------------------------------------------------------------------------

def certified_alpha(gamma=1e-3, tau=3.0, K=30, seed=3):
    return sample_admissible(FREQ, gamma, tau, (0.4, 1.2), K, 50, seed).accepted[0]


def test_divisor_sum_small_case():
    # n = 1, m = 1: two lattice points k = +-1, lhs = 2/d^2, rhs = (81/8)/gamma^2
    freq1 = certify_frequency((1.0,), K=5, sigma0=1.01)
    # certify an alpha for omega = (1,); tau > n = 1
    res = sample_admissible(freq1, 0.05, 1.5, (0.4, 1.2), K=5, count=200, seed=0)
    alpha = res.accepted[0]
    d = abs(np.exp(1j * 1.0 * alpha.alpha) - 1.0)
    rep = divisor_sum_bound_check(freq1, alpha, 1)
    assert rep.lhs == pytest.approx(2.0 / d**2, rel=1e-12)
    assert rep.rhs == pytest.approx(81.0 / 8.0 / 0.05**2, rel=1e-12)
    assert rep.passed


def test_divisor_sum_bound_certified():
    alpha = certified_alpha()
    for m in (5, 10, 20):
        rep = divisor_sum_bound_check(FREQ, alpha, m)
        assert rep.passed, f"m={m}: lhs={rep.lhs:.3e} rhs={rep.rhs:.3e}"


def test_divisor_sum_needs_certified_cutoff():
    alpha = certified_alpha(K=10)
    assert divisor_sum_bound_check(FREQ, alpha, 10).passed
    with pytest.raises(ValueError, match="cutoff"):
        divisor_sum_bound_check(FREQ, alpha, 11)


def test_divisor_sum_monotone_in_m():
    alpha = certified_alpha(seed=9)
    lhs = [divisor_sum_bound_check(FREQ, alpha, m).lhs for m in range(1, 15)]
    for a, b in zip(lhs, lhs[1:]):
        assert b >= a


def test_divisor_lower_bound_pi_dist():
    # |e^{i phi} - 1| >= pi * dist(phi/(2 pi), Z) for every stored divisor
    # over the l1 ball 0 < |k|_1 <= 20 that divisor_sum_bound_check sums
    alpha = certified_alpha(seed=11)
    kvecs = mode_vectors(20, 2)
    k1 = np.abs(kvecs).sum(axis=0)
    kw = kvecs[:, (k1 > 0) & (k1 <= 20)].T @ FREQ.vec
    divisors = np.abs(np.exp(1j * kw * alpha.alpha) - 1.0)
    x = kw * alpha.alpha / (2 * math.pi)
    dist = np.abs(x - np.round(x))
    assert np.all(divisors >= math.pi * dist - 1e-14)
    assert np.min(divisors) > 0


def test_quantified_divisor_bound_over_random_certified():
    # Eq.-(4.3)-style property over random certified rotation numbers
    res = sample_admissible(FREQ, 5e-3, 2.5, (0.4, 1.2), K=25, count=100, seed=21)
    rng = np.random.default_rng(0)
    picks = rng.choice(len(res.accepted), size=min(10, len(res.accepted)), replace=False)
    for i in picks:
        alpha = res.accepted[int(i)]
        for m in (3, 10, 25):
            assert divisor_sum_bound_check(FREQ, alpha, m).passed


def test_running_certificates_partial_scans():
    # certificates on the nested boxes |k|_inf <= m are partial certificates:
    # nonincreasing in m and ending at the full certificate
    cs = [certify_frequency((1.0, GOLDEN), m, 2.0).c for m in range(1, 11)]
    for a, b in zip(cs, cs[1:]):
        assert b <= a
    assert cs[-1] == certify_frequency((1.0, GOLDEN), 10, 2.0).c
