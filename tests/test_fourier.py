"""Exact-phase coefficient sums, decay fits, and concentration diagnostics."""

import csv
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorsalem as cs
from cantorsalem import fourier
from cantorsalem.fourier import _WINDOW, _WindowedLevel
from conftest import FIXTURE_SEED, make_fixture_schedule
from fourier_oracle import chebyshev_monomials, chebyshev_tail, interval_ft

# --- single-interval transform ---


def test_interval_ft_constants():
    assert interval_ft(0, 1, 0) == 1
    assert interval_ft(0, 1, 3) == 0
    got = interval_ft(0, 2, 1)
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
        assert abs(interval_ft(c, q, k) - total / (n * q)) <= 1e-9


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


# --- windowed kernel against an independent per-cell oracle ---

# a level with 2Q <= _WINDOW is one exact length-2Q DFT; past it the
# residues r = k mod Q fall in aligned windows [bW, (b+1)W) of W = _WINDOW
_EXACT_Q_MAX = _WINDOW // 2
_resolutions = st.one_of(
    st.integers(1, _EXACT_Q_MAX),
    st.integers(_EXACT_Q_MAX + 1, 1 << 40),
    st.integers(1 << 40, 1 << 100),
)
_cell_counts = st.one_of(st.integers(1, 40), st.integers(200, 600), st.integers(_WINDOW - 2, _WINDOW + 300))
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


def _values(ev, ks):
    return ev.values(fourier._freqs(ks, ev.Q))


def _per_cell_oracle(step, k):
    terms = [interval_ft(c, step.Q, k) for c in step.offsets.tolist()]
    scale = step.Q / step.cell_count
    return complex(math.fsum(t.real for t in terms) * scale, math.fsum(t.imag for t in terms) * scale)


_W = _WINDOW
_EDGES = [_W - 1, _W, 10 ** 6 - 1, -1, 2 * _W - 1, 2 * _W]  # window edges of Q = 10^6, and r = Q - 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), _resolutions, _cell_counts, st.lists(_freqs, min_size=1, max_size=6))
@example(0, 10 ** 6, 300, _EDGES)
@example(1, 10 ** 6, _W + 1, [_W - 1, _W, 10 ** 6 - 1, 10 ** 30, -(10 ** 30)])
@example(2, 1, 1, [0, 1, -1, 10 ** 30])
@example(3, 25, 4, [1, 24, 25, 26, -(10 ** 30)])
@example(4, _EXACT_Q_MAX, 300, [1, _EXACT_Q_MAX - 1, _EXACT_Q_MAX + 1, -1])
@example(5, _EXACT_Q_MAX + 1, 300, [1, _W - 1, _EXACT_Q_MAX, -1])
@example(6, (1 << 61) + 1, 5, [1, 2 ** 61 + 1, -(10 ** 30), 10 ** 30])
@example(7, 10 ** 6, 40, list(range(_W - 3, _W + 3)))  # one batch, two windows
def test_block_kernel_matches_per_cell_oracle(seed, q, p, ks):
    step = _random_level(seed, q, p)
    got = _values(_WindowedLevel(step), ks)
    for k, v in zip(ks, got):
        assert abs(v - _per_cell_oracle(step, k)) <= 1e-14


def test_block_kernel_past_float_range():
    # Q itself overflows a float: cells 0 and Q/2 cancel at odd k, add at even k
    q = 10 ** 400
    step = cs.StepMeasure(0, q, (0, q // 2), Fraction(1, 2))
    got = _values(_WindowedLevel(step), [1, 2, -2, 10 ** 30, -(10 ** 30) - 1])
    assert abs(got[0]) <= 1e-14 and abs(got[4]) <= 1e-14
    assert abs(got[1] - 1) <= 1e-14 and abs(got[2] - 1) <= 1e-14 and abs(got[3] - 1) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), _resolutions, _cell_counts, st.lists(_freqs, min_size=1, max_size=40))
@example(1, 10 ** 6, _W + 1, [1, 2, 10 ** 30, -7] + _EDGES)
@example(2, 10 ** 6, 300, list(range(-20, 20)) + list(range(_W - 20, _W + 20)))  # two windows and r near Q
@example(3, (1 << 61) + 1, 300, list(range(-20, 20)))
@example(4, _EXACT_Q_MAX, 300, list(range(-20, 20)))
@example(5, 10 ** 400, 3, [1, 2, -2, 10 ** 30, -(10 ** 30), 0])
def test_block_composition_invariance(seed, q, p, ks):
    # a frequency's value must not depend on its neighbours or its window's
    # other members: shuffled batches with duplicates equal one-frequency
    # calls, and an aliased frequency k + Q l shares k's window sum
    step = _random_level(seed, q, p)
    ev = _WindowedLevel(step)
    rng = random.Random(seed)
    batch = ks + rng.choices(ks, k=len(ks))
    rng.shuffle(batch)
    got = _values(ev, batch)
    for k, v in zip(batch, got):
        assert v == _values(ev, [k])[0]
    k = ks[0]
    if k % q and q < 1 << 200:  # k * mu_hat(k) needs k + Ql as a float
        aliased = k + q * rng.choice((-3, 1, 2))
        base = k * _values(ev, [k])[0]
        assert abs(aliased * _values(ev, [aliased])[0] - base) <= 1e-12 * max(1.0, abs(base))


def test_expansion_table_is_the_chebyshev_expansion():
    # the kernel's literal table against a 50-digit derivation from J_n(pi/2) and the integer monomials of T_n
    exact = chebyshev_monomials()
    assert len(fourier._COEFFS) == fourier._RANK == len(exact) == 18
    for t, (got, a) in enumerate(zip(fourier._COEFFS, exact)):
        want, other = (a.real, a.imag) if t % 2 == 0 else (a.imag, a.real)  # a_t real for even t, imaginary for odd
        assert abs(other) <= 1e-40
        assert abs(got - float(want)) <= math.ulp(float(want))
    assert fourier._COEFFS[0] == 1.0  # a rank-1 level stays one exact DFT
    u = np.linspace(-0.25, 0.25, 200_001)
    poly = np.zeros(u.shape, dtype=np.complex128)
    for t in reversed(range(fourier._RANK)):
        poly = poly * u + (fourier._COEFFS[t] if t % 2 == 0 else 1j * fourier._COEFFS[t])
    assert np.abs(poly - np.exp(-2j * np.pi * u)).max() <= 1e-15
    # the documented truncation bound is the Bessel tail 2 sum_{n >= 18} |J_n(pi/2)|
    tail = chebyshev_tail()
    assert f"{float(tail):.1e}" == "4.1e-18" and tail < 4.1e-18
    assert "< 4.1e-18" in fourier.__doc__


def test_frequencies_past_the_float_range_of_k_over_q(fixture_tree):
    # k/Q overflows a float: |mu_hat| < Q/(pi |k|) < 2e-309, so the value is a signed 0.0, not an OverflowError
    q = fixture_tree.schedule.Q(4)
    step = cs.level_intervals(fixture_tree, 4)
    huge = [10 ** 400 + 1, -(10 ** 400) - 1, (q << 1023) + 1, -(q << 1024) - 7, (q << 1023) - 1]
    for k in huge:
        v = cs.mu_hat(fixture_tree, 4, k)
        assert v == 0 and v == _per_cell_oracle(step, k)
    batch = cs.mu_hat_batch(fixture_tree, 4, huge + [3, 0, -3])
    assert batch.values[:len(huge)] == (0j,) * len(huge)
    assert batch.value(3) == cs.mu_hat(fixture_tree, 4, 3) and batch.value(0) == 1
    assert abs(batch.value(-3) - batch.value(3).conjugate()) <= 1e-14


def _bits(v):
    """A complex value's float bits, signed zeros told apart."""
    return v.real.hex(), v.imag.hex()


@functools.cache
def _switch_levels():
    """(tree, level) pairs with Q small, just below, at and just above 2^53, and far beyond."""
    def custom(m, depth, seed):
        sched = cs.custom_schedule(m, cs.ResidueSet.from_elements(m, (0, 1, 5, m // 3, m - 2)), depth)
        return cs.build_tree(sched, seed, depth)
    fixture = cs.build_tree(make_fixture_schedule(4), FIXTURE_SEED, 4)
    return ((fixture, 2), (fixture, 4), (custom((1 << 26) + 1, 2, 3), 2), (custom(1 << 53, 1, 4), 1),
            (custom((1 << 53) + 1, 1, 5), 1), (custom(94_906_267, 2, 6), 2), (custom(1 << 40, 2, 7), 2))


_near = [st.integers(c - 64, c + 64) for c in (2 ** 53, -(2 ** 53), 2 ** 63, -(2 ** 63))]
_switch_freqs = st.one_of(*_near, st.integers(2 ** 64, 2 ** 70), st.integers(-(2 ** 70), -(2 ** 64)),
                          st.integers(-1000, 1000))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, len(_switch_levels()) - 1), st.lists(_switch_freqs, min_size=1, max_size=8), st.randoms())
@example(3, [2 ** 53, 2 ** 53 + 1, -(2 ** 53), -(2 ** 53) - 1, 1, 0], random.Random(0))  # Q = 2^53
@example(4, [2 ** 53, 2 ** 53 - 1, 1, -1], random.Random(1))  # Q = 2^53 + 1: Python ints throughout
@example(1, [2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63), 2 ** 64 + 3], random.Random(2))
def test_batches_across_the_int64_switch_match_scalar_calls_and_the_oracle(case, ks, rnd):
    # int64 while every |k| and Q are at most 2^53, Python ints beyond: the values do not depend on the route,
    # on the batch's order or on its other members
    tree, n = _switch_levels()[case]
    step = cs.level_intervals(tree, n)
    batch = ks + rnd.choices(ks, k=len(ks))
    rnd.shuffle(batch)
    arr = fourier._freqs(batch, step.Q)
    small = step.Q <= 2 ** 53 and all(abs(k) <= 2 ** 53 for k in batch)
    assert arr.dtype == (np.int64 if small else object) and arr.tolist() == batch
    coeffs = cs.mu_hat_batch(tree, n, batch)
    assert coeffs.ks == tuple(batch) and all(type(k) is int for k in coeffs.ks)
    for k, v in zip(batch, coeffs.values):
        assert _bits(v) == _bits(cs.mu_hat(tree, n, k))
        assert abs(v - _per_cell_oracle(step, k)) <= 1e-14
    assert [_bits(v) for v in cs.mu_hat_batch(tree, n, batch[::-1]).values] == [_bits(v) for v in coeffs.values[::-1]]


def test_kernel_memory_stays_windowed():
    # Q_4 = 10^8 > 2^24 with P = 256: a length-Q buffer would need 1.6 GB;
    # the kernel's live set is a few length-W buffers and per-frequency lists
    sched = cs.custom_schedule(100, cs.ResidueSet.from_elements(100, (2, 4, 8, 10)), 4)
    tree = cs.build_tree(sched, 1, 4)
    assert tree.schedule.Q(4) > 1 << 24 and cs.level_intervals(tree, 4).cell_count == 256
    tracemalloc.start()
    try:
        coeffs = cs.mu_hat_batch(tree, 4, range(4097))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(coeffs) == 4097
    assert peak - held < 4 * 1024 * 1024


def test_kernel_runs_on_the_numpy_1_fft_signature(monkeypatch, fixture_tree):
    # pyproject allows numpy >= 1.24, whose numpy.fft.fft takes no out=
    expected = cs.mu_hat_batch(fixture_tree, 4, range(-40, 9000)).values
    fft = np.fft.fft

    def fft_without_out(a, n=None, axis=-1, norm=None):
        return fft(a, n, axis, norm)

    monkeypatch.setattr(np.fft, "fft", fft_without_out)
    assert cs.mu_hat_batch(fixture_tree, 4, range(-40, 9000)).values == expected


# --- bounded work ---


@functools.cache
def _work_trees():
    fixture = make_fixture_schedule(4)
    wide = cs.custom_schedule(10 ** 7, cs.ResidueSet.from_elements(10 ** 7, (0, 3, 10)), 3)  # Q_3 = 10^21
    return (cs.build_tree(cs.custom_schedule(4, cs.ResidueSet.from_elements(4, range(4)), 3), 7, 3),
            cs.build_tree(fixture, FIXTURE_SEED, 4), cs.build_tree(wide, 1, 3))


def _work_oracle(tree, levels, ks, runs):
    """windows x (P + W log2 W), the windows enumerated: one per distinct (k mod Q) // W."""
    total = 0
    for n in levels:
        q = tree.schedule.Q(n)
        w = min(_WINDOW, 2 * q)
        total += len({k % q // w for k in ks}) * (tree.schedule.P(n) + w * math.ceil(math.log2(w)))
    return runs * total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 4), st.booleans(), st.one_of(st.integers(-10 ** 6, 10 ** 6),
       st.integers(-(10 ** 25), 10 ** 25)), st.integers(1, 60_000), st.integers(1, 100))
@example(1, 4, False, 390_620, 20, 1)  # wraps past Q - 1 into window 0
@example(1, 4, True, -5, 400_000, 3)  # more frequencies than residues
@example(1, 3, True, 8_190, 7_000, 1)  # level 3 and 4 windows: W = 2^13 against Q_3 = 15,625
@example(0, 2, False, 0, 1, 1)  # W = 2Q = 32
@example(2, 3, False, 10 ** 21 - 8_192 * 3, 8_192 * 6, 2)  # wraps at Q = 10^21
def test_work_bound_counts_windows_without_enumerating(which, n, pair, lo, length, runs):
    tree = _work_trees()[which]
    n = min(n, tree.depth - pair)
    levels, ks = (n, n + 1) if pair else (n,), range(lo, lo + length)
    work = _work_oracle(tree, levels, ks, runs)
    with mock.patch.object(fourier, "MAX_WORK", work):
        fourier.check_work(tree, levels, ks, runs)
    with mock.patch.object(fourier, "MAX_WORK", work - 1), pytest.raises(ValueError, match=f"work of {work} "):
        fourier.check_work(tree, levels, ks, runs)


def test_work_bound_refuses_deep_scans_and_admits_the_documented_ones(fixture_tree):
    # 123 windows over 1,327,104 cells: about 10 minutes of kernel time, refused before a window is built
    deep = cs.build_tree(cs.schedule_b(20), 42, 20)
    with pytest.raises(ValueError, match=f"limit is {fourier.MAX_WORK}"):
        fourier.check_work(deep, (20,), range(0, 10 ** 6 + 1))
    # the README's fourier/decay calls and increments over 5 seeds, and a 100-seed increments run
    for levels, ks, runs in [((4,), range(4097), 1), ((2, 3), range(1, 15_625), 5), ((2, 3), range(1, 15_625), 100)]:
        assert _work_oracle(fixture_tree, levels, ks, runs) <= fourier.MAX_WORK
        fourier.check_work(fixture_tree, levels, ks, runs)
    # a level outside the tree and an empty range are left to the kernel to report
    with mock.patch.object(fourier, "MAX_WORK", 0):
        fourier.check_work(fixture_tree, (5,), range(1, 10))
        fourier.check_work(fixture_tree, (-1,), range(1, 10))
        fourier.check_work(fixture_tree, (4,), range(1, 1))


def test_fourier_coeffs_validation():
    with pytest.raises(ValueError):
        cs.FourierCoeffs(1, (0,), (0.5 + 0j,))  # k = 0 must carry mass 1
    with pytest.raises(ValueError):
        cs.FourierCoeffs(1, (1, -1), (0.5 + 0.2j, 0.5 + 0.2j))  # not Hermitian
    ok = cs.FourierCoeffs(1, (1, -1), (0.5 + 0.2j, 0.5 - 0.2j))
    assert ok.value(-1) == ok.value(1).conjugate()
    with pytest.raises(KeyError):
        ok.value(7)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 10 ** 30), st.complex_numbers(max_magnitude=1, allow_nan=False), st.floats(2e-12, 1),
       st.booleans(), st.lists(st.integers(1, 10 ** 6), max_size=20))
def test_fourier_coeffs_checks_the_last_value_of_each_conjugate_pair(k, v, eps, good_last, filler):
    # a repeated k keeps its last value, and only that value is checked against its conjugate
    good, bad = v.conjugate(), v.conjugate() + eps
    ks = (*filler, k, -k, -k)
    last = good if good_last else bad
    values = (*(0.5 + 0j for _ in filler), v, bad if good_last else good, last)
    if good_last:
        assert cs.FourierCoeffs(1, ks, values).value(-k) == good
    else:
        with pytest.raises(ValueError, match=f"Hermitian symmetry violated at k = {k}$"):
            cs.FourierCoeffs(1, ks, values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 70), st.floats(0.01, 1)), min_size=1, max_size=200), st.randoms())
def test_decay_profile_takes_the_last_value_of_a_repeated_frequency(repeats, rnd):
    ks = list(range(1, 64)) + [k for k, _ in repeats]
    values = [complex(k ** -0.25, 0) for k in range(1, 64)] + [complex(0, m) for _, m in repeats]
    order = list(range(len(ks)))
    rnd.shuffle(order)
    ks, values = tuple(ks[i] for i in order), tuple(values[i] for i in order)
    last = {}
    for k, v in zip(ks, values):
        last[k] = v
    prof = cs.decay_profile(cs.FourierCoeffs(3, ks, values))
    assert prof.band_lows == (1, 2, 4, 8, 16, 32)
    assert prof.band_sups == tuple(max(abs(last[k]) for k in range(lo, 2 * lo)) for lo in prof.band_lows)


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


def test_write_coeffs_csv_sorts_rows_of_an_unordered_batch(tmp_path, fixture_tree):
    ks = [5, -3, 0, 2, 7, -1, 2]
    paths = tmp_path / "shuffled.csv", tmp_path / "sorted.csv"
    cs.write_coeffs_csv(cs.mu_hat_batch(fixture_tree, 3, ks), str(paths[0]))
    cs.write_coeffs_csv(cs.mu_hat_batch(fixture_tree, 3, sorted(ks)), str(paths[1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert [int(line.split(",")[0]) for line in paths[0].read_text().splitlines()[1:]] == sorted(ks)


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


def test_decay_profile_stops_at_first_missing_frequency(fixture_tree):
    # bands up to 2^39 lie below the top frequency; each must be given up
    # at its first gap, not walked in full
    coeffs = cs.mu_hat_batch(fixture_tree, 4, [1, 2, 3, 10 ** 12])
    with pytest.raises(ValueError, match="got 2"):
        cs.decay_profile(coeffs)


def test_decay_profile_k_min_drops_low_bands():
    ks = tuple(range(1, 257))
    values = tuple(complex(k ** -0.25, 0) for k in ks)
    prof = cs.decay_profile(cs.FourierCoeffs(3, ks, values), k_min=4)
    assert prof.band_lows[0] == 4
    # around powers of two: the first band starts at the least power of two >= k_min
    ks = tuple(range(1, 8192))
    coeffs = cs.FourierCoeffs(3, ks, tuple(complex(k ** -0.25, 0) for k in ks))
    for k_min, first in ((3, 4), (4, 4), (5, 8), (511, 512), (512, 512), (513, 1024)):
        prof = cs.decay_profile(coeffs, k_min=k_min)
        assert prof.band_lows == tuple(1 << b for b in range(first.bit_length() - 1, 13))
        assert prof.band_sups == tuple(lo ** -0.25 for lo in prof.band_lows)


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
    coarse = cs.mu_hat_batch(fixture_tree, 2, rep.ks).values
    fine = cs.mu_hat_batch(fixture_tree, 3, rep.ks).values
    assert rep.increments == tuple(abs(f - c) for f, c in zip(fine, coarse))


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
