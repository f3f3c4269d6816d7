"""Schedules, seeded trees, exact cells, step measures, and persistence."""

import json
import math
import time
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import cantorsalem as cs
from cantorsalem import cantor_tree
from cantorsalem.cantor_tree import MAX_CELLS, _cmp_pow
from conftest import FIXTURE_SEED, make_fixture_schedule
from tree_oracle import (
    build_translations,
    custom_trees,
    level_offsets,
    load_translations,
    nodes_at_level,
    path_translations,
    translations_doc,
)

# --- independent oracle: the growth envelope, settled in exact integers ---


def envelope_holds(schedule: cs.Schedule) -> bool:
    """M^(n t) <= P_n < |X| M^(n t) for every level, via cross-powering."""
    t = schedule.t
    m = schedule.M[0]
    x_size = schedule.L[0]
    for n in range(1, schedule.depth_limit + 1):
        p = schedule.P(n)
        lhs_ok = p ** t.denominator >= m ** (n * t.numerator)
        rhs_ok = p ** t.denominator < (x_size ** t.denominator) * m ** (n * t.numerator)
        if not (lhs_ok and rhs_ok):
            return False
    return True


# --- schedules ---


def test_schedule_a_small_recurrence():
    X = cs.ResidueSet.from_elements(10, (0, 2))
    sched = cs.schedule_a(10, X, Fraction(1, 4), 6)
    assert sched.L == (2, 2, 2, 2, 2, 1)
    assert sched.P(6) == 32
    assert 32 ** 4 >= 10 ** 6  # P_6 >= 10^1.5 exactly
    assert envelope_holds(sched)


def test_schedule_a_fixture():
    sched = make_fixture_schedule()
    assert sched.L == (4,) * 8
    assert sched.variant == "A"
    assert sched.t == Fraction(2, 5)
    assert envelope_holds(sched)


def test_schedule_a_rejects_small_sets():
    X4 = cs.ResidueSet.from_elements(25, (2, 4, 8, 10))
    with pytest.raises(ValueError):
        cs.schedule_a(25, X4, 0.9, 4)
    with pytest.raises(ValueError):
        cs.schedule_a(4, cs.ResidueSet.from_elements(4, (0, 2)), 0.9, 4)


def test_schedule_a_accepts_decimal_strings_exactly():
    X = cs.ResidueSet.from_elements(25, (2, 4, 8, 10))
    assert cs.schedule_a(25, X, 0.4, 4).t == Fraction(2, 5)
    assert cs.schedule_a(25, X, "2/5", 4).t == Fraction(2, 5)


def test_schedule_b_small():
    sched = cs.schedule_b(2)
    assert sched.M == (2, 2)
    assert sched.L == (1, 1)
    sched = cs.schedule_b(4)
    assert sched.M == (2, 2, 3, 4)
    assert sched.L == (1, 1, 1, 1)


def test_schedule_b_structure():
    sched = cs.schedule_b(12)
    assert sched.M == (2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
    for size, bs in zip(sched.L, sched.base_sets):
        assert bs is not None and len(bs) == size
        assert cs.property_ii_oracle(bs).holds

    def dim_ratio(n):
        return math.log(sched.P(n)) / math.log(sched.Q(n))

    assert dim_ratio(12) > dim_ratio(6)  # trend toward full dimension


def test_schedule_validation():
    X = cs.ResidueSet.from_elements(4, (0, 2))
    with pytest.raises(ValueError):
        cs.Schedule("A", (4, 5), (2, 2), (X, X), Fraction(1, 2))  # non-constant base
    with pytest.raises(ValueError):
        cs.Schedule("custom", (4,), (5,), (None,))  # L > M
    with pytest.raises(ValueError):
        cs.Schedule("custom", (4,), (2,), (None,))  # missing base set
    with pytest.raises(ValueError):
        cs.Schedule("custom", (5,), (2,), (X,))  # modulus mismatch
    with pytest.raises(ValueError):
        cs.Schedule("B", (2, 3), (1, 1), (None, None))  # wrong base sequence
    with pytest.raises(ValueError):
        cs.Schedule("weird", (4,), (2,), (X,))
    for t in (Fraction(-2, 5), 0, 1, Fraction(7, 3)):
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\)"):
            cs.Schedule("A", (4,), (2,), (X,), t)


def test_heterogeneous_custom_schedule_is_allowed():
    full = cs.ResidueSet.from_elements(4, range(4))
    half = cs.ResidueSet.from_elements(4, (0, 2))
    sched = cs.Schedule("custom", (4, 4), (2, 4), (half, full))
    assert sched.P(2) == 8 and sched.Q(2) == 16


# --- seeded randomness ---


def test_derive_translation_is_pure():
    a = cs.derive_translation(42, (1, 2, 3), 25)
    b = cs.derive_translation(42, (1, 2, 3), 25)
    assert a == b
    assert 0 <= a < 25


def test_derive_translation_single_residue():
    assert cs.derive_translation(99, (0, 1), 1) == 0


def test_derive_translation_distinguishes_inputs():
    base = cs.derive_translation(1, (0,), 1 << 30)
    assert cs.derive_translation(2, (0,), 1 << 30) != base
    assert cs.derive_translation(1, (1,), 1 << 30) != base


def test_derive_translation_uniformity_chi_square():
    m = 25
    counts = [0] * m
    for i in range(100_000):
        counts[cs.derive_translation(FIXTURE_SEED, (i,), m)] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.001, counts


def test_derive_run_seed_distinct():
    seeds = {cs.derive_run_seed(FIXTURE_SEED, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert cs.derive_run_seed(FIXTURE_SEED, 0) == cs.derive_run_seed(FIXTURE_SEED, 0)


# --- trees ---


def test_build_tree_depth_zero(fixture_schedule):
    tree = cs.build_tree(fixture_schedule, 0, 0)
    assert cs.level_intervals(tree, 0).offsets.tolist() == [0]
    assert tree.translations == ()


def test_build_tree_fixture_level_counts(fixture_schedule):
    tree = cs.build_tree(fixture_schedule, FIXTURE_SEED, 3)
    assert len(cs.level_intervals(tree, 3).offsets) == 64
    for n in range(3):
        assert len(tree.translations[n]) == fixture_schedule.P(n)
    for n in range(4):
        assert len(cs.level_intervals(tree, n).offsets) == fixture_schedule.P(n)


def test_build_tree_rejects_excess_depth(fixture_schedule):
    with pytest.raises(ValueError):
        cs.build_tree(fixture_schedule, 0, 9)


def levels_schedule(*levels) -> cs.Schedule:
    """A custom schedule from (base, elements) pairs; None elements make a single-child level."""
    base_sets = tuple(None if e is None else cs.ResidueSet.from_elements(m, e) for m, e in levels)
    counts = tuple(1 if e is None else len(e) for _, e in levels)
    return cs.Schedule("custom", tuple(m for m, _ in levels), counts, base_sets)


_HALF_REJECTED = 2 ** 63 + 1  # 2^64 mod M = 2^63 - 1, so a word is rejected about half the time
_BIG_Q = levels_schedule(*[(1_000_003, (0, 7, 999_999))] * 4)  # Q_4 = 10^24 passes 2^63 at the last level
_SMALL = levels_schedule((2, None), (12, (0, 5, 7)), (7, None), (5, (1, 3)))  # single-child levels between


@settings(max_examples=120, deadline=None, derandomize=True)
@given(custom_trees(max_cells=512, max_depth=5))
@example(cs.build_tree(cs.Schedule("custom", (2, 12, 7), (1, 1, 1), (None,) * 3), 5, 3))
@example(cs.build_tree(cs.schedule_b(9), 3, 9))
# seed 4 sends one lane through 11 rejected words
@example(cs.build_tree(levels_schedule((5, (0, 1, 2, 4)), (_HALF_REJECTED, (0, 2 ** 62)), (_HALF_REJECTED, None)), 4, 3))
@example(cs.build_tree(levels_schedule((2 ** 64, (1, 2 ** 64 - 1)), (3, (0, 2))), 9, 2))  # the word is the draw
@example(cs.build_tree(levels_schedule((2 ** 62 + 3, (0, 2 ** 62 + 2)), (9, (0, 4, 8))), 2, 2))  # 2M passes 2^63
@example(cs.build_tree(_BIG_Q, 11, 4))
@example(cs.build_tree(_SMALL, -5, 4))
@example(cs.build_tree(_SMALL, 2 ** 64 + 3, 4))
@example(cs.build_tree(_SMALL, 0, 0))
def test_level_rows_match_path_dict_oracle(tree):
    sched, seed, depth = tree.schedule, tree.seed, tree.depth
    oracle = build_translations(sched, seed, depth)
    for n in range(depth + 1):
        assert cs.level_intervals(tree, n).offsets.tolist() == list(level_offsets(sched, oracle, n)), n
    for level, row in enumerate(tree.translations):
        paths = nodes_at_level(sched, oracle, level)
        assert row.tolist() == [cs.derive_translation(seed, p, sched.M[level]) for p in paths], level
    doc = cs.tree_to_dict(tree)
    assert doc["translations"] == translations_doc(oracle)
    assert cs.tree_from_dict(json.loads(json.dumps(doc))) == tree


@st.composite
def round_trip_cases(draw):
    """(schedule, seed, depth) for variant A, variant B and custom schedules, the last with single-child
    levels and bases up to 2^64: past 2^63 a row is an object array, and offsets leave int64 with Q."""
    kind = draw(st.sampled_from(("A", "B", "custom")))
    if kind == "A":
        sched = make_fixture_schedule(5)
    elif kind == "B":
        sched = cs.schedule_b(draw(st.integers(1, 12)))
    else:
        levels = []
        for _ in range(draw(st.integers(1, 4))):
            m = draw(st.one_of(st.integers(2, 12), st.integers(2 ** 63 - 2, 2 ** 63 + 2), st.integers(2, 2 ** 64)))
            elements = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=min(m, 3), unique=True))
            levels.append((m, elements if len(elements) > 1 else None))
        sched = levels_schedule(*levels)
    return sched, draw(st.integers(-(2 ** 65), 2 ** 65)), draw(st.integers(0, sched.depth_limit))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(round_trip_cases())
@example((levels_schedule((2 ** 64, (0, 2 ** 64 - 1)), (2 ** 63 + 1, None), (3, (0, 2))), 7, 3))
@example((levels_schedule((2, None), (12, (0, 5, 7)), (7, None)), 0, 3))
def test_build_save_load_match_the_public_constructor(tmp_path_factory, case):
    sched, seed, depth = case
    tree = cs.build_tree(sched, seed, depth)
    path = tmp_path_factory.mktemp("round_trip") / "tree.json"
    cs.save_tree(tree, str(path))
    public = cs.MeasureTree(sched, seed, depth, [row.tolist() for row in tree.translations])
    oracle = build_translations(sched, seed, depth)
    for got in (tree, cs.load_tree(str(path))):
        assert got == public
        for row, ref in zip(got.translations, public.translations):
            assert row.dtype == ref.dtype and not row.flags.writeable
        for n, (step, ref) in enumerate(zip(got.levels, public.levels)):
            assert step.offsets.dtype == ref.offsets.dtype and not step.offsets.flags.writeable
            assert step.offsets.tolist() == ref.offsets.tolist() == list(level_offsets(sched, oracle, n)), n


def test_build_and_load_derive_each_level_s_digits_once(tmp_path, monkeypatch):
    sched = cs.schedule_b(9)
    tree = cs.build_tree(sched, FIXTURE_SEED, 9)
    cs.save_tree(tree, str(tmp_path / "tree.json"))
    calls, children = [], cantor_tree._children
    monkeypatch.setattr(cantor_tree, "_children", lambda *args: calls.append(args[1]) or children(*args))
    assert cs.build_tree(sched, FIXTURE_SEED, 9) == tree
    assert cs.load_tree(str(tmp_path / "tree.json")) == tree
    assert calls == list(range(9)) * 2


def test_constructor_rejects_malformed_rows():
    sched = cs.custom_schedule(10, cs.ResidueSet.from_elements(10, (0, 1, 2)), 2)
    assert cs.MeasureTree(sched, 0, 2, [[9], [0, 9, 5]]).levels[2].cell_count == 9
    cases = [
        (1, [[10]], "out of range"),
        (1, [[-1]], "out of range"),
        (2, [[0], [0, 10, 0]], "out of range"),
        (1, [[2 ** 70]], "out of range"),  # past 64 bits: an object array
        (2, [[0], [-1, 2 ** 63, 0]], "out of range"),
        (2, [[0], [1, 2 ** 63 + 1, 0]], "out of range"),  # numpy would read a plain list of these as float64
        (1, {(): 99}, "0 translations for 1 nodes"),  # a path-keyed dict is no row list
        (2, [[0], [0, 0]], "2 translations for 3 nodes"),
        (1, [[0, 0]], "2 translations for 1 nodes"),
        (2, [[0]], "1 translation rows for depth 2"),
        (1, [[0], [0, 0, 0]], "2 translation rows for depth 1"),
        (3, [[0], [0, 0, 0], [0] * 9], "exceeds schedule length"),
    ]
    for depth, rows, match in cases:
        with pytest.raises(ValueError, match=match):
            cs.MeasureTree(sched, 0, depth, rows)


def test_constructor_rejects_non_integer_translations():
    # a row is a list of Python ints or an integer array: no bool, float or
    # numpy scalar is silently turned into the integer a saved tree would hold
    sched = cs.custom_schedule(10, cs.ResidueSet.from_elements(10, (0, 1, 2)), 1)
    for row in ([True], [np.int64(3)], [2.0], np.array([True]), np.array([2.0])):
        with pytest.raises(ValueError, match="must be Python integers"):
            cs.MeasureTree(sched, 0, 1, [row])
    # an unsigned word past 2^63 must not wrap into range on its way to int64
    with pytest.raises(ValueError, match="out of range"):
        cs.MeasureTree(sched, 0, 1, [np.array([2 ** 64 - 1], dtype=np.uint64)])
    tree = cs.MeasureTree(sched, 0, 1, [np.array([3])])
    assert tree == cs.MeasureTree(sched, 0, 1, [[3]])
    assert type(cs.tree_to_dict(tree)["translations"][""]) is int


# one tree per array route: all int64; offsets past int64 at the last level (Q_4 = 10^24); a row past int64
_ROUTES = pytest.mark.parametrize(
    "schedule, depth",
    [(make_fixture_schedule(), 3), (_BIG_Q, 4), (levels_schedule((2 ** 64, (1, 2 ** 64 - 1)), (3, (0, 2))), 2)],
    ids=["int64", "big-Q", "wide-M"],
)


@_ROUTES
def test_rows_and_offsets_are_read_only_arrays(schedule, depth):
    tree = cs.build_tree(schedule, 5, depth)
    arrays = [(row, schedule.M[level] <= 2 ** 63) for level, row in enumerate(tree.translations)]
    arrays += [(cs.level_intervals(tree, n).offsets, schedule.Q(n) < 2 ** 63) for n in range(depth + 1)]
    for array, fits in arrays:
        assert array.dtype == (np.int64 if fits else object)
        if not fits:  # the object route holds Python ints, not numpy scalars
            assert set(map(type, array)) == {int}
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # child digit sums reach 2M - 2 and the children's offsets Q_{n+1} - 1: big-Q leaves int64 at its last level
    for level, row in enumerate(tree.translations):
        fits = max(2 * schedule.M[level], schedule.Q(level + 1)) < 2 ** 63
        assert cantor_tree._children(schedule, level, row).dtype == (np.int64 if fits else object)


@_ROUTES
def test_trees_compare_by_value(tmp_path, schedule, depth):
    tree = cs.build_tree(schedule, 5, depth)
    path = tmp_path / "tree.json"
    cs.save_tree(tree, str(path))
    rows = [row.tolist() for row in tree.translations]
    assert cs.load_tree(str(path)) == tree == cs.MeasureTree(schedule, 5, depth, rows)
    rows[-1][-1] = (rows[-1][-1] + 1) % schedule.M[depth - 1]
    assert cs.MeasureTree(schedule, 5, depth, rows) != tree
    assert cs.build_tree(schedule, 6, depth) != tree
    assert (tree == rows) is False and (tree == "tree") is False


@pytest.mark.parametrize("m", [2 ** 62 - 1, 2 ** 62 + 3, 2 ** 63, 2 ** 64])
def test_level_arrays_leave_int64_exactly_where_their_bounds_do(m):
    # a row holds values below M, child digit sums reach 2M - 2, level-1 offsets lie below Q = M
    sched = levels_schedule((m, (0, 1, m - 1)), (3, (0, 2)))
    tree = cs.MeasureTree(sched, 0, 2, [[m - 1], [0, 1, 2]])
    digits = cantor_tree._children(sched, 0, tree.translations[0])
    assert tree.translations[0].dtype == (np.int64 if m <= 2 ** 63 else object)
    assert digits.dtype == (np.int64 if 2 * m < 2 ** 63 else object)
    assert tree.levels[1].offsets.dtype == (np.int64 if m < 2 ** 63 else object)
    assert digits.tolist() == [tree.levels[1].offsets.tolist()] == [[0, m - 2, m - 1]]


def test_rows_with_words_on_both_sides_of_2_63_load_exactly():
    # numpy reads a plain list of ints on both sides of 2^63 as float64; a loaded row must stay exact
    sched = cs.custom_schedule(2 ** 64, cs.ResidueSet.from_elements(2 ** 64, (0, 1, 2)), 2)
    tree = cs.MeasureTree(sched, 1, 2, [[2 ** 63 + 5], [1, 2 ** 63 + 1, 2 ** 64 - 1]])
    loaded = cs.tree_from_dict(json.loads(json.dumps(cs.tree_to_dict(tree))))
    assert loaded == tree and loaded.translations[1].tolist() == [1, 2 ** 63 + 1, 2 ** 64 - 1]


def test_oversize_trees_fail_before_allocating(fixture_tree):
    # the cap admits the deepest variant-B tree of interest, not the next level
    assert cs.schedule_b(20).P(20) <= MAX_CELLS < cs.schedule_b(21).P(21)
    deep = make_fixture_schedule(20)
    assert deep.P(20) > 10 ** 11
    with pytest.raises(ValueError, match="limit is"):
        cs.build_tree(deep, FIXTURE_SEED, 20)
    # an untrusted document asking for 4^20 cells, with and without translations
    doc = cs.tree_to_dict(fixture_tree)
    doc.update(variant="custom", t=None, depth=20, M=[25] * 20, L=[4] * 20, base_sets=doc["base_sets"][:1] * 20)
    with pytest.raises(ValueError, match="limit is"):
        cs.tree_from_dict(doc)
    del doc["translations"]
    with pytest.raises(ValueError, match="limit is"):
        cs.tree_from_dict(doc)


def test_uniform_tree_is_full(uniform_tree):
    for n in range(4):
        offsets = [cs.interval_of(p, uniform_tree.schedule)[0] for p in product(range(4), repeat=n)]
        assert cs.level_intervals(uniform_tree, n).offsets.tolist() == offsets


def fixture_paths(tree, n):
    return nodes_at_level(tree.schedule, build_translations(tree.schedule, tree.seed, tree.depth), n)


def test_is_realized(fixture_tree):
    leaf = fixture_paths(fixture_tree, 4)[0]
    assert fixture_tree.is_realized(leaf)
    digits = set(range(25)) - set(d for (d,) in fixture_paths(fixture_tree, 1))
    pruned = digits.pop()
    assert not fixture_tree.is_realized((pruned,))
    # every digit is range-checked, also past a pruned prefix
    with pytest.raises(ValueError, match="out of range"):
        fixture_tree.is_realized((pruned, 25))
    with pytest.raises(ValueError):
        fixture_tree.is_realized(leaf + (0,))


# --- exact intervals ---


def test_interval_of_examples():
    assert cs.interval_of((), make_fixture_schedule()) == (0, 1)
    sched44 = cs.Schedule(
        "custom",
        (4, 4),
        (4, 4),
        (cs.ResidueSet.from_elements(4, range(4)),) * 2,
    )
    assert cs.interval_of((1, 2), sched44) == (6, 16)
    sched223 = cs.Schedule(
        "custom",
        (2, 2, 3),
        (1, 1, 1),
        (None, None, None),
    )
    assert cs.interval_of((1, 0, 2), sched223) == (8, 12)
    with pytest.raises(ValueError):
        cs.interval_of((2,), sched223)


def test_level_intervals_root(fixture_tree):
    step = cs.level_intervals(fixture_tree, 0)
    assert step.Q == 1 and step.offsets.tolist() == [0] and step.mass_per_cell == 1


def test_level_intervals_fixture_depth_two(fixture_tree):
    step = cs.level_intervals(fixture_tree, 2)
    assert step.Q == 625
    assert len(step.offsets) == 16
    assert step.mass_per_cell == Fraction(1, 16)
    assert sum(step.mass_per_cell for _ in step.offsets) == 1


def test_level_intervals_uniform_tiles(uniform_tree):
    step = cs.level_intervals(uniform_tree, 3)
    assert step.offsets.tolist() == list(range(64))


def test_mass_sums_to_one_everywhere(fixture_tree, uniform_tree, b_tree):
    for tree in (fixture_tree, uniform_tree, b_tree):
        for n in range(tree.depth + 1):
            step = cs.level_intervals(tree, n)
            assert len(step.offsets) * step.mass_per_cell == 1
            assert len(step.offsets) == tree.schedule.P(n)


def test_cell_mass(fixture_tree):
    assert cs.cell_mass(fixture_tree, ()) == 1
    node = fixture_paths(fixture_tree, 3)[5]
    assert cs.cell_mass(fixture_tree, node) == Fraction(1, 64)
    pruned = set(range(25)) - set(d for (d,) in fixture_paths(fixture_tree, 1))
    assert cs.cell_mass(fixture_tree, (pruned.pop(),)) == 0


# --- exact power comparison ---


def cmp_pow_oracle(a: Fraction, base: Fraction, e: Fraction, scale: Fraction) -> int:
    """Sign of a - scale * base**e, as the sign of (a/scale)**q - base**p in Fractions."""
    lhs = (a / scale) ** e.denominator
    rhs = base ** e.numerator
    return (lhs > rhs) - (lhs < rhs)


_rationals = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
_exponents = st.builds(Fraction, st.integers(1, 400), st.one_of(st.integers(1, 64), st.integers(65, 1000)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_rationals, _rationals, _exponents, _rationals, st.sampled_from((None, -1, 0, 1)), st.booleans())
def test_cmp_pow_matches_cross_powering(a, beta, e, scale, offset, as_ints):
    # base = beta**q puts scale * base**e at scale * beta**p exactly; an
    # offset plants a tie (0) or a miss by one part in 10**30 (or by 1 for
    # ints) there, far inside the log guard band; None keeps a free
    p, q = e.numerator, e.denominator
    if as_ints:
        a, beta, scale = (Fraction(v.numerator) for v in (a, beta, scale))
    base = beta ** q
    tie = scale * beta ** p
    if offset is not None:
        a = tie + offset * (1 if as_ints else tie / 10 ** 30)
    expected = cmp_pow_oracle(a, base, e, scale)
    if as_ints:
        a, base, scale = a.numerator, base.numerator, scale.numerator
    assert _cmp_pow(a, base, e, scale) == expected


@pytest.mark.parametrize("q", [65, 67, 97, 101, 128, 255])
def test_cmp_pow_settles_exact_ties_past_the_powering_cutoff(q):
    for num in range(1, q):
        e = Fraction(num, q)
        p, q_e = e.numerator, e.denominator
        a, base = 3 ** p, 3 ** q_e
        assert _cmp_pow(a, base, e) == 0
        assert _cmp_pow(Fraction(a, 2 ** p), Fraction(base, 2 ** q_e), e) == 0
        assert _cmp_pow(a + 1, base, e) == 1
        assert _cmp_pow(a - 1, base, e) == -1


def test_cmp_pow_decides_decimal_dimensions_beside_a_tie_quickly():
    # t = 0.6309297535714574 sits 3.7e-17 below log_3 2 with denominator
    # 5 * 10**15: 3**t < 2, so |X| = 2 > M**t for M = 3, and masses 2**-k
    # fall below radii (3**-k)**t
    t = Fraction("0.6309297535714574")
    assert _cmp_pow(2, 3, t) == 1
    assert _cmp_pow(2, 3, Fraction("0.6309297535714575")) == -1
    assert _cmp_pow(2, 3, Fraction("0.63092975357")) == 1
    for k in range(1, 21):
        assert _cmp_pow(2 ** k, 3, k * t) == 1
        assert _cmp_pow(Fraction(1, 2 ** k), Fraction(1, 3 ** k), t) == -1
    assert _cmp_pow(1, 1, Fraction(1, 10 ** 16 + 1)) == 0
    assert _cmp_pow(Fraction(3, 2), 1, Fraction(7, 10 ** 16 + 1), scale=Fraction(3, 2)) == 0


@pytest.mark.parametrize("a, base", [(2, 3), (2, 10), (3, 2), (4, 25), (5, 7), (12, 5)])
@pytest.mark.parametrize("digits", [11, 16, 20, 40])
def test_cmp_pow_brackets_irrational_exponents(a, base, digits):
    # log_base(a) is irrational here; its decimal truncation and the next
    # decimal up put base**e just below and just above a
    with mp.workdps(digits + 30):
        k = int(mp.floor(mp.log(a) / mp.log(base) * 10 ** digits))
    below, above = Fraction(k, 10 ** digits), Fraction(k + 1, 10 ** digits)
    assert _cmp_pow(a, base, below) == 1
    assert _cmp_pow(a, base, above) == -1
    assert _cmp_pow(Fraction(1, a), Fraction(1, base), below) == -1
    assert _cmp_pow(Fraction(5 * a, 7), base, above, scale=Fraction(5, 7)) == -1


def test_cmp_pow_rejects_out_of_domain_arguments():
    assert _cmp_pow(0, 2, Fraction(1, 3)) == -1
    for args in ((-1, 2), (1, 0), (Fraction(1, 2), Fraction(-1, 3))):
        with pytest.raises(ValueError):
            _cmp_pow(*args, Fraction(1, 3))
    with pytest.raises(ValueError):
        _cmp_pow(1, 2, Fraction(1, 3), scale=0)


# --- persistence ---


def trees_equal(a: cs.MeasureTree, b: cs.MeasureTree) -> bool:
    return (
        a.schedule == b.schedule
        and a.seed == b.seed
        and a.depth == b.depth
        and [row.tolist() for row in a.translations] == [row.tolist() for row in b.translations]
    )


def test_roundtrip(tmp_path, fixture_tree):
    path = tmp_path / "tree.json"
    cs.save_tree(fixture_tree, str(path))
    assert trees_equal(cs.load_tree(str(path)), fixture_tree)


def test_roundtrip_variant_b(tmp_path, b_tree):
    path = tmp_path / "b.json"
    cs.save_tree(b_tree, str(path))
    assert trees_equal(cs.load_tree(str(path)), b_tree)


def stdlib_bytes(tree: cs.MeasureTree) -> bytes:
    """The reference tree file: the stdlib encoder over the whole document."""
    return (json.dumps(cs.tree_to_dict(tree), sort_keys=True, indent=2) + "\n").encode("utf-8")


def saved_bytes(tree: cs.MeasureTree, directory) -> bytes:
    path = directory / "tree.json"
    cs.save_tree(tree, str(path))
    return path.read_bytes()


def test_saved_bytes_match_the_stdlib_encoder(tmp_path, fixture_tree):
    trees = [
        fixture_tree,
        cs.build_tree(cs.schedule_b(9), FIXTURE_SEED, 9),
        cs.build_tree(_SMALL, 1, 4),
        cs.build_tree(_BIG_Q, 2, 4),
        cs.build_tree(cs.schedule_b(9), FIXTURE_SEED, 0),  # "translations": {}
    ]
    for tree in trees:
        assert saved_bytes(tree, tmp_path) == stdlib_bytes(tree)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_saved_bytes_match_the_stdlib_encoder_across_write_blocks(tmp_path, monkeypatch, block):
    # a save writes its translation lines in blocks; the joins between blocks must not show in the bytes
    monkeypatch.setattr(cantor_tree, "_SAVE_LINES", block)
    trees = [cs.build_tree(cs.schedule_b(9), FIXTURE_SEED, 9), cs.build_tree(_SMALL, 1, 4), cs.build_tree(_SMALL, 1, 0)]
    for tree in trees:
        assert saved_bytes(tree, tmp_path) == stdlib_bytes(tree), tree.depth


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=custom_trees(max_cells=512, max_depth=5))
def test_saved_bytes_match_the_stdlib_encoder_on_random_trees(tmp_path_factory, tree):
    assert saved_bytes(tree, tmp_path_factory.mktemp("sweep")) == stdlib_bytes(tree)


def test_deep_variant_b_builds_within_budget_and_round_trips(tmp_path):
    # variant B at depth 18 realises 82,944 cells over 31,236 nodes; the
    # best of three builds, so that one slow phase of a shared host does not decide
    sched = cs.schedule_b(18)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        tree = cs.build_tree(sched, FIXTURE_SEED, 18)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.04, times
    path = tmp_path / "b18.json"
    cs.save_tree(tree, str(path))
    assert path.read_bytes() == stdlib_bytes(tree)  # 31,236 translation lines span more than one write block
    loaded = cs.load_tree(str(path))
    assert loaded == tree
    assert all(map(np.array_equal, (step.offsets for step in loaded.levels), (step.offsets for step in tree.levels)))


def test_tampered_translation_rejected(fixture_tree):
    doc = cs.tree_to_dict(fixture_tree)
    doc["translations"][""] = 25  # out of range for base 25
    with pytest.raises(cs.TreeLoadError):
        cs.tree_from_dict(doc)


def test_missing_node_rejected(fixture_tree):
    doc = cs.tree_to_dict(fixture_tree)
    key = sorted(k for k in doc["translations"] if k)[0]
    del doc["translations"][key]
    with pytest.raises(cs.TreeLoadError):
        cs.tree_from_dict(doc)


def test_unrealized_entry_rejected(fixture_tree):
    doc = cs.tree_to_dict(fixture_tree)
    absent = next(
        str(d) for d in range(25) if str(d) not in doc["translations"]
    )
    doc["translations"][absent] = 0
    with pytest.raises(cs.TreeLoadError):
        cs.tree_from_dict(doc)


_ALIASES = {
    "leading zero": lambda k: "0" + k,
    "leading space": lambda k: " " + k,
    "trailing space": lambda k: k + " ",
    "plus sign": lambda k: "+" + k,
    "digit separator": lambda k: k[:1] + "_" + k[1:],
}


@pytest.mark.parametrize("alias", _ALIASES.values(), ids=_ALIASES.keys())
def test_aliased_path_keys_rejected(fixture_tree, alias):
    doc = cs.tree_to_dict(fixture_tree)
    key = next(k for k in doc["translations"] if len(k.split(".")[0]) == 2)
    assert int(alias(key).split(".")[0]) == int(key.split(".")[0])  # int() reads both alike
    raw = doc["translations"]
    renamed = {alias(k) if k == key else k: v for k, v in raw.items()}
    with pytest.raises(cs.TreeLoadError, match="missing translation"):
        cs.tree_from_dict(dict(doc, translations=renamed))
    beside = dict(raw, **{alias(key): (raw[key] + 1) % 25})
    with pytest.raises(cs.TreeLoadError, match="malformed path key"):
        cs.tree_from_dict(dict(doc, translations=beside))


# a saved depth-3 fixture document (21 path keys) and edits to its translations
_SAVED_DOC = json.loads(json.dumps(cs.tree_to_dict(cs.build_tree(make_fixture_schedule(), FIXTURE_SEED, 3))))
_KEY_PICK = st.integers(0, 63)
_TRANSLATION_EDITS = st.one_of(
    st.tuples(st.just("alias"), _KEY_PICK, st.tuples(st.sampled_from(list(_ALIASES.values())), st.booleans())),
    st.tuples(st.just("extra"), st.lists(st.integers(0, 24), max_size=3), st.integers(0, 24)),
    st.tuples(st.just("delete"), _KEY_PICK, st.none()),
    st.tuples(st.just("value"), _KEY_PICK, st.sampled_from([True, None, 2.0, "3", -1, 25]) | st.integers(0, 24)),
)


def _edit_translations(raw, edit):
    kind, pick, arg = edit
    if kind == "extra":  # a canonical key, mostly of an unrealized node
        raw[".".join(map(str, pick))] = arg
        return
    keys = sorted(raw)
    if not keys:
        return
    key = keys[pick % len(keys)]
    if kind == "alias":
        alias, beside = arg
        raw[alias(key)] = raw[key] if beside else raw.pop(key)
    elif kind == "delete":
        del raw[key]
    else:
        raw[key] = arg


@settings(max_examples=300, deadline=None)
@given(st.lists(_TRANSLATION_EDITS, max_size=3))
def test_loader_matches_path_walk_oracle(edits):
    doc = json.loads(json.dumps(_SAVED_DOC))
    for edit in edits:
        _edit_translations(doc["translations"], edit)
    expected = load_translations(make_fixture_schedule(), 3, doc["translations"])
    if expected is None:
        with pytest.raises(cs.TreeLoadError):
            cs.tree_from_dict(doc)
    else:
        assert path_translations(cs.tree_from_dict(doc)) == expected


_NON_INTEGERS = {
    "seed": lambda doc: doc.update(seed=True),
    "depth": lambda doc: doc.update(depth=True),
    "translation": lambda doc: doc["translations"].update({"": True}),
    "float base": lambda doc: doc.update(M=[25.0]),
    "float child count": lambda doc: doc.update(L=[4.0]),
    "float base-set modulus": lambda doc: doc["base_sets"][0].update(m=25.7),
    "boolean element": lambda doc: doc["base_sets"][0].update(elements=[True, 4, 8, 10]),
    "float element": lambda doc: doc["base_sets"][0].update(elements=[2.0, 4, 8, 10]),
}


@pytest.mark.parametrize("edit", _NON_INTEGERS.values(), ids=_NON_INTEGERS.keys())
def test_boolean_fields_rejected(edit):
    # root translation 1 and depth 1, so a JSON true reads as a valid value;
    # floats and booleans among the schedule numbers are schema errors too
    doc = cs.tree_to_dict(cs.MeasureTree(make_fixture_schedule(1), 1, 1, [[1]]))
    assert [row.tolist() for row in cs.tree_from_dict(doc).translations] == [[1]]
    edit(doc)
    with pytest.raises(cs.TreeLoadError, match="integer"):
        cs.tree_from_dict(doc)


def test_version_gate(fixture_tree):
    doc = cs.tree_to_dict(fixture_tree)
    doc["version"] = 2
    with pytest.raises(cs.TreeLoadError):
        cs.tree_from_dict(doc)


def test_omitted_translations_rederive(fixture_tree):
    doc = cs.tree_to_dict(fixture_tree)
    del doc["translations"]
    assert trees_equal(cs.tree_from_dict(doc), fixture_tree)


def test_t_serialization_decimal_and_rational():
    doc = cs.tree_to_dict(cs.build_tree(make_fixture_schedule(), 1, 1))
    assert doc["t"] == 0.4
    X = cs.ResidueSet.from_elements(25, (2, 4, 8, 10))
    third = cs.schedule_a(25, X, Fraction(1, 3), 2)
    doc = cs.tree_to_dict(cs.build_tree(third, 1, 1))
    assert doc["t"] == "1/3"
    assert cs.tree_from_dict(doc).schedule.t == Fraction(1, 3)
