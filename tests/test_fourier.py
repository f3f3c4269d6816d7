"""Exact-phase coefficient sums, decay fits, and concentration diagnostics."""

import csv
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorsalem as cs
from cantorsalem.fourier import _BLOCK_ELEMS, _LevelEvaluator

# --- single-interval transform ---


def test_interval_ft_constants():
    assert cs.interval_ft(0, 1, 0) == 1
    assert cs.interval_ft(0, 1, 3) == 0
    got = cs.interval_ft(0, 2, 1)
    assert abs(got - complex(0, -1 / math.pi)) <= 1e-12


def test_interval_ft_matches_series_oracle():
    # independent oracle: midpoint Riemann sum of exp(-2 pi i k x), which
    # converges quadratically for smooth integrands
    rng = random.Random(11)
    for _ in range(20):
        q = rng.choice((2, 3, 4, 5, 8))
        c = rng.randrange(q)
        k = rng.randrange(-6, 7)
        n = 200_000
        total = 0j
        for j in range(n):
            x = (c + (j + 0.5) / n) / q
            total += complex(math.cos(-2 * math.pi * k * x), math.sin(-2 * math.pi * k * x))
        assert abs(cs.interval_ft(c, q, k) - total / (n * q)) <= 1e-9


# --- coefficients of step measures ---


def test_mu_hat_total_mass(fixture_tree, halves_tree, uniform_tree, b_tree):
    for tree in (fixture_tree, halves_tree, uniform_tree, b_tree):
        for n in range(min(tree.depth, 4) + 1):
            assert cs.mu_hat(tree, n, 0) == 1 + 0j


def test_mu_hat_halves_closed_forms(halves_tree):
    assert abs(cs.mu_hat(halves_tree, 1, 1)) <= 1e-12
    got = cs.mu_hat(halves_tree, 1, 2)
    assert abs(got - complex(0, -2 / math.pi)) <= 1e-12


def test_mu_hat_vanishes_exactly_at_resolution_multiples(halves_tree, fixture_tree):
    for j in (1, -1, 2, -3):
        assert cs.mu_hat(halves_tree, 1, 4 * j) == 0
    q2 = fixture_tree.schedule.Q(2)
    assert cs.mu_hat(fixture_tree, 2, q2) == 0


def test_mu_hat_batch_bit_equals_scalar(fixture_tree):
    rng = random.Random(5)
    ks = [rng.randrange(-5000, 5001) for _ in range(100)]
    coeffs = cs.mu_hat_batch(fixture_tree, 3, ks)
    for k in ks:
        assert coeffs.value(k) == cs.mu_hat(fixture_tree, 3, k)


def test_mu_hat_hermitian(fixture_tree):
    coeffs = cs.mu_hat_batch(fixture_tree, 3, range(-50, 51))
    for k in range(51):
        assert abs(coeffs.value(-k) - coeffs.value(k).conjugate()) <= 1e-12


# --- block kernel against an independent per-cell oracle ---

# largest Q whose phase products (2Q-1)^2 fit int64, and the first Q past
# the limb route (2Q > 2^61): the kernel's three regimes
_DIRECT_Q_MAX = (math.isqrt((1 << 63) - 1) + 1) // 2
_BIGINT_Q_MIN = (1 << 60) + 1

_resolutions = st.one_of(
    st.integers(1, _DIRECT_Q_MAX),
    st.integers(_DIRECT_Q_MAX + 1, _BIGINT_Q_MIN - 1),
    st.integers(_BIGINT_Q_MIN, 1 << 100),
)
_cell_counts = st.one_of(
    st.integers(1, 40),
    st.integers(200, 600),
    st.integers(_BLOCK_ELEMS - 2, _BLOCK_ELEMS + 300),
)
_freqs = st.one_of(st.integers(-50, 50), st.integers(-(10 ** 30), 10 ** 30))


def _random_level(seed, q, p):
    rng = random.Random(seed)
    p = min(p, q)
    if q <= 4 * p:
        offsets = set(rng.sample(range(q), p))
    else:
        offsets = set()
        while len(offsets) < p:
            offsets.add(rng.randrange(q))
    return cs.StepMeasure(0, q, tuple(sorted(offsets)), Fraction(1, p))


def _per_cell_oracle(step, k):
    terms = [cs.interval_ft(c, step.Q, k) for c in step.offsets]
    scale = step.Q / step.cell_count
    return complex(math.fsum(t.real for t in terms) * scale, math.fsum(t.imag for t in terms) * scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), _resolutions, _cell_counts, st.lists(_freqs, min_size=1, max_size=3))
@example(0, _DIRECT_Q_MAX, _BLOCK_ELEMS + 1, [3, -(10 ** 30)])
@example(0, _DIRECT_Q_MAX + 1, 5, [1, 10 ** 30])
@example(0, _BIGINT_Q_MIN - 1, _BLOCK_ELEMS + 1, [2 ** 61 + 1, 7])
@example(0, _BIGINT_Q_MIN, 1, [-1, 10 ** 30])
def test_block_kernel_matches_per_cell_oracle(seed, q, p, ks):
    step = _random_level(seed, q, p)
    got = _LevelEvaluator(step).values(ks)
    for k, v in zip(ks, got):
        assert abs(v - _per_cell_oracle(step, k)) <= 1e-14


def test_block_kernel_past_float_range():
    # Q itself overflows a float: cells 0 and Q/2 cancel at odd k, add at even k
    q = 10 ** 400
    step = cs.StepMeasure(0, q, (0, q // 2), Fraction(1, 2))
    got = _LevelEvaluator(step).values([1, 2, -2])
    assert abs(got[0]) <= 1e-14
    assert abs(got[1] - 1) <= 1e-14 and abs(got[2] - 1) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), _resolutions, _cell_counts, st.lists(_freqs, min_size=1, max_size=40))
@example(1, _DIRECT_Q_MAX, _BLOCK_ELEMS + 1, [1, 2, 10 ** 30, -7])
@example(2, 10 ** 6, 300, list(range(-20, 20)))
@example(3, _BIGINT_Q_MIN - 1, 300, list(range(-20, 20)))
def test_block_composition_invariance(seed, q, p, ks):
    # a frequency's value must not depend on its neighbours or its row in a
    # block: shuffled batches with duplicates equal one-frequency calls
    step = _random_level(seed, q, p)
    ev = _LevelEvaluator(step)
    rng = random.Random(seed)
    batch = ks + rng.choices(ks, k=len(ks))
    rng.shuffle(batch)
    got = ev.values(batch)
    for k, v in zip(batch, got):
        assert v == ev.values([k])[0]


def test_fourier_coeffs_validation():
    with pytest.raises(ValueError):
        cs.FourierCoeffs(1, (0,), (0.5 + 0j,))  # k = 0 must carry mass 1
    with pytest.raises(ValueError):
        cs.FourierCoeffs(1, (1, -1), (0.5 + 0.2j, 0.5 + 0.2j))  # not Hermitian
    ok = cs.FourierCoeffs(1, (1, -1), (0.5 + 0.2j, 0.5 - 0.2j))
    assert ok.value(-1) == ok.value(1).conjugate()
    with pytest.raises(KeyError):
        ok.value(7)


def test_write_coeffs_csv_roundtrip(tmp_path, fixture_tree):
    coeffs = cs.mu_hat_batch(fixture_tree, 2, range(-3, 4))
    path = tmp_path / "coeffs.csv"
    cs.write_coeffs_csv(coeffs, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == list(range(-3, 4))
    for row in rows:
        v = coeffs.value(int(row["k"]))
        assert float(row["re"]) == v.real
        assert float(row["im"]) == v.imag
        assert float(row["abs"]) == abs(v)


# --- decay profile ---


def test_decay_profile_synthetic_power_law():
    ks = tuple(range(1, 1025))
    values = tuple(complex(k ** -0.25, 0) for k in ks)
    prof = cs.decay_profile(cs.FourierCoeffs(3, ks, values))
    assert abs(prof.sigma_hat - 0.5) <= 1e-6
    assert abs(prof.C_hat - 1.0) <= 1e-6
    assert not prof.flat_zero
    assert prof.band_lows == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def test_decay_profile_flat_zero_for_lebesgue(uniform_tree):
    coeffs = cs.mu_hat_batch(uniform_tree, 3, range(1, 16))
    prof = cs.decay_profile(coeffs)
    assert prof.flat_zero
    assert prof.sigma_hat is None
    assert all(s <= 1e-12 for s in prof.band_sups)


def test_decay_profile_fixture_sign(fixture_tree):
    coeffs = cs.mu_hat_batch(fixture_tree, 4, range(1, 4097))
    prof = cs.decay_profile(coeffs)
    assert prof.sigma_hat > 0


def test_decay_profile_needs_three_bands(fixture_tree):
    coeffs = cs.mu_hat_batch(fixture_tree, 2, range(1, 4))
    with pytest.raises(ValueError):
        cs.decay_profile(coeffs)


def test_decay_profile_k_min_drops_low_bands():
    ks = tuple(range(1, 257))
    values = tuple(complex(k ** -0.25, 0) for k in ks)
    prof = cs.decay_profile(cs.FourierCoeffs(3, ks, values), k_min=4)
    assert prof.band_lows[0] == 4


# --- modulation identity ---


def test_modulation_at_zero_frequency(halves_tree, uniform_tree, fixture_tree):
    for tree, n in ((halves_tree, 1), (uniform_tree, 2), (fixture_tree, 3)):
        for ell in (1, -1, 3):
            assert cs.modulation_check(tree, n, 0, ell) <= 1e-9


def test_modulation_halves(halves_tree):
    assert cs.modulation_check(halves_tree, 1, 1, 1) <= 1e-9


def test_modulation_random_sample(fixture_tree):
    rng = random.Random(17)
    q = fixture_tree.schedule.Q(3)
    for _ in range(100):
        k = rng.randrange(-(q - 1), q)
        ell = rng.choice((-3, -2, -1, 1, 2, 3))
        assert cs.modulation_check(fixture_tree, 3, k, ell) <= 1e-9


def test_modulation_big_integer_route(b_tree):
    # level-12 resolution is ~9.6e8; a shifted frequency k + Q*ell with
    # ell = 12 overflows the int64 fast path and must fall back exactly
    q = b_tree.schedule.Q(12)
    assert q == 2 * math.factorial(12)
    limit = (2 ** 63 - 1) // (2 * q)
    assert q * 12 > limit
    for k in (1, 12345, q // 2):
        assert cs.modulation_check(b_tree, 12, k, 12) <= 1e-9
    with pytest.raises(ValueError):
        cs.modulation_check(b_tree, 12, q, 1)
    with pytest.raises(ValueError):
        cs.modulation_check(b_tree, 12, 1, 0)


# --- concentration bounds ---


def test_hoeffding_examples():
    assert abs(cs.hoeffding_bound(2 * 3 * math.sqrt(7), 3, 7) - 4 / math.e) <= 1e-12
    assert abs(cs.hoeffding_bound(1e-12, 1, 1) - 4) <= 1e-9
    assert abs(cs.hoeffding_bound(4, 1, 1) - 4 * math.exp(-4)) <= 1e-12


def test_increment_bound_uniform_substitution(uniform_tree):
    sched = uniform_tree.schedule
    got = cs.increment_bound(sched, 2, 0.5)
    p, q, m = sched.P(2), sched.Q(2), sched.M[2]
    expected = 4 * math.exp(-p * q ** -0.5 * m ** -0.5 / 16)
    assert abs(got.per_k - expected) / expected <= 1e-10


def test_increment_bound_fixture_independent_recompute(fixture_schedule):
    got = cs.increment_bound(fixture_schedule, 2, 0.4)
    with mp.workdps(60):
        L, M = fixture_schedule.L[2], fixture_schedule.M[2]
        P, Q = fixture_schedule.P(2), fixture_schedule.Q(2)
        s = mp.mpf("0.4")
        direct = 4 * mp.exp(-(L ** 2 * P) / (16 * mp.mpf(M) ** (2 + s) * mp.mpf(Q) ** s))
        assert abs(got.per_k - float(direct)) / float(direct) <= 1e-10
    assert 0 < got.per_k
    assert got.union_proxy == min(1.0, 2 * fixture_schedule.Q(3) * got.per_k)


def test_increment_bound_monotone_in_sigma(fixture_schedule):
    values = [cs.increment_bound(fixture_schedule, 2, s).per_k for s in (0.1, 0.3, 0.5, 0.8, 1.0)]
    assert values == sorted(values)


def test_increment_scan_uniform_tree_is_exact(uniform_tree):
    rep = cs.increment_scan(uniform_tree, 1, 0.4)
    assert rep.exceedances == 0
    assert rep.max_increment <= 1e-12
    assert rep.scanned == 2 * (uniform_tree.schedule.Q(2) - 1)
    assert rep.coverage == 1.0


def test_increment_scan_unpruned_level_refines_exactly():
    half = cs.ResidueSet.from_elements(4, (0, 2))
    full = cs.ResidueSet.from_elements(4, range(4))
    sched = cs.Schedule("custom", (4, 4), (2, 4), (half, full))
    tree = cs.build_tree(sched, 3, 2)
    rep = cs.increment_scan(tree, 1, 0.4)
    assert rep.max_increment <= 1e-12


def test_increment_scan_fixture_consistency(fixture_tree):
    rep = cs.increment_scan(fixture_tree, 2, 0.4, k_cap=2000)
    assert rep.k_cap == 2000
    assert rep.ks == tuple(range(1, 2001))
    assert rep.scanned == 4000
    assert rep.exceedances == 2 * sum(1 for d in rep.increments if d > rep.threshold)
    assert rep.threshold == pytest.approx(fixture_tree.schedule.Q(3) ** -0.2)
    assert 0 < rep.coverage < 1


def test_tail_envelope(fixture_schedule):
    assert cs.tail_envelope(fixture_schedule, 0.4, 0) == 4.0
    got = cs.tail_envelope(fixture_schedule, 0.4, 3)
    assert abs(got - 4 * 25 ** (-3 * 0.2)) <= 1e-12
    values = [cs.tail_envelope(fixture_schedule, 0.4, n1) for n1 in range(9)]
    assert values == sorted(values, reverse=True)


def test_schedule_rejects_bases_below_two():
    # tail_envelope relies on this: Q_n at least doubles per level
    with pytest.raises(ValueError, match="base must be >= 2"):
        cs.Schedule("custom", (1,), (1,), (None,))


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("SALEM_THREADS", "3")
    assert cs.worker_count() == 3
    monkeypatch.setenv("SALEM_THREADS", "0")
    assert cs.worker_count() >= 1
    monkeypatch.delenv("SALEM_THREADS")
    assert cs.worker_count() >= 1
