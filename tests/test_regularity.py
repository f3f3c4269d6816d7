"""Exact ball masses, two-sided regularity scans, factorial-radius bounds.

Two reference oracles back the integer-lattice kernel under test.  The
arc-overlap oracle computes ball masses by direct overlap against every
cell, with wraparound handled by shifting each cell through the three
relevant periods.  The Fraction-path oracle is the per-ball rational
arithmetic the kernel replaced (one bisection per ball end, boundary cells
as Fraction overlaps), with the scans' original per-ball loops on top; the
kernel's reports must equal its reports field for field.
"""

import json
import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorsalem as cs
from cantorsalem import cli, regularity
from cantorsalem.cantor_tree import MAX_CELLS, _cmp_pow
from cantorsalem.cli import run

F = Fraction


def ball_mass_by_overlap(tree, n, x, r, circle=True):
    """Per-cell arc-overlap oracle: sum of |ball ∩ cell| × density."""
    step = cs.level_intervals(tree, n)
    if circle and 2 * r >= 1:
        return F(1)
    lo, hi = x - r, x + r
    if not circle:
        lo, hi = max(lo, F(0)), min(hi, F(1))
    shifts = (-1, 0, 1) if circle else (0,)
    density = F(step.Q, len(step.offsets))
    total = F(0)
    for c in step.offsets.tolist():
        a = F(c, step.Q)
        b = F(c + 1, step.Q)
        for shift in shifts:
            s = max(lo, a + shift)
            e = min(hi, b + shift)
            if e > s:
                total += (e - s) * density
    return total


def fraction_segment_mass(step, lo, hi):
    """Exact mass of (lo, hi) within [0, 1]; endpoints carry no mass."""
    lo, hi = max(lo, F(0)), min(hi, F(1))
    if hi <= lo:
        return F(0)
    q, offsets, p = step.Q, step.offsets.tolist(), step.cell_count
    lo_q, hi_q = lo * q, hi * q
    # cells [c, c+1] (in 1/Q units) fully inside [lo_q, hi_q]
    cl, fl = math.ceil(lo_q), math.floor(hi_q - 1)
    mass = F(bisect_right(offsets, fl) - bisect_left(offsets, cl), p) if fl >= cl else F(0)
    boundary = set()
    if math.floor(lo_q) < cl:
        boundary.add(math.floor(lo_q))
    if math.floor(hi_q) > fl:
        boundary.add(math.floor(hi_q))
    for c in boundary:
        i = bisect_left(offsets, c)
        if i < len(offsets) and offsets[i] == c:
            s, e = max(lo_q, F(c)), min(hi_q, F(c + 1))
            if e > s:
                mass += (e - s) / p
    return mass


def fraction_ball_mass(step, x, r, circle):
    lo, hi = x - r, x + r
    if not circle:
        return fraction_segment_mass(step, lo, hi)
    if 2 * r >= 1:
        return F(1)
    if lo < 0:
        return fraction_segment_mass(step, lo + 1, F(1)) + fraction_segment_mass(step, F(0), hi)
    if hi > 1:
        return fraction_segment_mass(step, lo, F(1)) + fraction_segment_mass(step, F(0), hi - 1)
    return fraction_segment_mass(step, lo, hi)


def fraction_frostman_scan(tree, n, t, radii, circle=True, grid=64):
    """The per-ball Fraction loop of frostman_scan, on validated t and radii."""
    sched = tree.schedule
    step = cs.level_intervals(tree, n)
    q = step.Q
    offsets = step.offsets.tolist()
    midpoints = [F(2 * c + 1, 2 * q) for c in offsets]
    uppers = set(midpoints)
    for c in offsets:
        uppers.update((F(c, q), F((c + 1) % q, q)))
    uppers.update(F(2 * i + 1, 2 * grid) for i in range(grid))
    variant_a = sched.variant == "A"
    m0, x_size = sched.M[0], sched.L[0]

    best_up, up_witness, upper_ok, violation = -1.0, None, True, None
    upper_by_radius = [-1.0] * len(radii)
    for x in sorted(uppers):
        for j, r in enumerate(radii):
            mass = fraction_ball_mass(step, x, r, circle)
            ratio = regularity._ratio_float(mass, r, t)
            upper_by_radius[j] = max(upper_by_radius[j], ratio)
            if ratio > best_up:
                best_up, up_witness = ratio, (x, r)
            if variant_a and upper_ok and _cmp_pow(mass, r, t, F(2 * m0 + 1)) > 0:
                upper_ok = False
                violation = f"upper regularity constant exceeded 2M+1 at x={x}, r={r}"
    best_lo, lo_witness, lower_ok, lower_violation = math.inf, None, True, None
    lower_by_radius = [math.inf] * len(radii)
    for x in midpoints:
        for j, r in enumerate(radii):
            mass = fraction_ball_mass(step, x, r, circle)
            ratio = regularity._ratio_float(mass, r, t)
            lower_by_radius[j] = min(lower_by_radius[j], ratio)
            if ratio < best_lo:
                best_lo, lo_witness = ratio, (x, r)
            if variant_a and lower_ok and _cmp_pow(mass * x_size, F(r, m0), t) < 0:
                lower_ok = False
                lower_violation = f"lower regularity constant fell below 1/(M^t |X|) at x={x}, r={r}"
    return cs.RegularityReport(
        t=t, radii=radii, c_upper=best_up, c_lower=best_lo, upper_witness=up_witness,
        lower_witness=lo_witness, variant=sched.variant,
        upper_by_radius=tuple(upper_by_radius), lower_by_radius=tuple(lower_by_radius),
        reference_upper=float(2 * m0 + 1) if variant_a else None,
        reference_lower=math.exp(-float(t) * math.log(m0)) / x_size if variant_a else None,
        upper_ok=upper_ok if variant_a else None, lower_ok=lower_ok if variant_a else None,
        violation=violation or lower_violation,
    )


def fraction_max_masses(tree, levels):
    """Largest factorial-radius ball mass per level over cell ends and midpoints."""
    maxima = []
    for n in levels:
        step = cs.level_intervals(tree, n)
        q, r = step.Q, F(1, math.factorial(n + 1))
        xs = {F(k, 2 * q) for c in step.offsets.tolist() for k in (2 * c, 2 * c + 1, (2 * c + 2) % (2 * q))}
        maxima.append(max(fraction_ball_mass(step, x, r, True) for x in xs))
    return maxima


def pinned_custom_tree(m, elements, depth=1):
    """Depth-limited tree over constant base m with root translation 0."""
    sched = cs.custom_schedule(m, cs.ResidueSet.from_elements(m, elements), depth)
    if depth == 1:
        return cs.MeasureTree(sched, 0, 1, [[0]])
    return cs.build_tree(sched, 0, depth)


# --- ball_mass ---


def test_uniform_tree_ball_mass_is_ball_length(uniform_tree):
    for n in (1, 2, 3):
        for x in (F(1, 2), F(1, 3), F(3, 7)):
            for r in (F(1, 64), F(1, 10), F(1, 5)):
                assert cs.ball_mass(uniform_tree, n, x, r) == 2 * r


def test_halves_ball_covering_one_cell_has_half_mass(halves_tree):
    assert cs.ball_mass(halves_tree, 1, F(1, 8), F(1, 8)) == F(1, 2)


def test_full_circle_radius_gives_total_mass(fixture_tree, halves_tree, b_tree):
    for tree, n in ((fixture_tree, 3), (halves_tree, 1), (b_tree, 6)):
        assert cs.ball_mass(tree, n, F(1, 3), 1) == 1
        assert cs.ball_mass(tree, n, F(0), F(1, 2)) == 1


def test_ball_mass_accepts_strings_and_decimal_floats(halves_tree):
    assert cs.ball_mass(halves_tree, 1, 0.125, "1/8") == F(1, 2)


def test_circle_flag_controls_wraparound():
    tree = pinned_custom_tree(4, (0, 3))
    assert cs.ball_mass(tree, 1, F(0), F(1, 8), circle=True) == F(1, 2)
    assert cs.ball_mass(tree, 1, F(0), F(1, 8), circle=False) == F(1, 4)


def test_ball_mass_input_validation(halves_tree):
    with pytest.raises(ValueError):
        cs.ball_mass(halves_tree, 1, F(1), F(1, 8))
    with pytest.raises(ValueError):
        cs.ball_mass(halves_tree, 1, F(-1, 4), F(1, 8))
    with pytest.raises(ValueError):
        cs.ball_mass(halves_tree, 1, F(1, 2), 0)
    with pytest.raises(ValueError):
        cs.ball_mass(halves_tree, 1, F(1, 2), 2)
    with pytest.raises(ValueError):
        cs.ball_mass(halves_tree, 5, F(1, 2), F(1, 4))


def test_ball_mass_monotone_in_radius(fixture_tree, halves_tree, uniform_tree):
    for tree, n in ((fixture_tree, 3), (halves_tree, 1)):
        for x in (F(0), F(1, 3), F(9, 10)):
            masses = [cs.ball_mass(tree, n, x, F(j, 64)) for j in range(1, 65)]
            assert all(a <= b for a, b in zip(masses, masses[1:]))
    # Lebesgue masses grow strictly
    masses = [cs.ball_mass(uniform_tree, 2, F(1, 2), F(j, 64)) for j in range(1, 33)]
    assert all(a < b for a, b in zip(masses, masses[1:]))


def test_ball_mass_matches_arc_overlap_oracle(fixture_tree, halves_tree, b_tree):
    rng = Random(7)
    cases = ((fixture_tree, 3), (halves_tree, 1), (b_tree, 5))
    for tree, n in cases:
        q = cs.level_intervals(tree, n).Q
        for _ in range(40):
            if rng.random() < 0.3:
                # exact cell corners exercise the boundary branches
                x = F(rng.randrange(q), q)
            else:
                x = F(rng.randrange(997), 997)
            r = F(1 + rng.randrange(996), 997)
            circle = rng.random() < 0.5
            assert cs.ball_mass(tree, n, x, r, circle) == ball_mass_by_overlap(
                tree, n, x, r, circle
            )


def test_disjoint_ball_partition_recovers_total_mass(fixture_tree, b_tree):
    # m half-open arcs of width 1/m tile the circle; open balls drop only
    # finitely many points, which carry no mass under a step measure
    for tree, n in ((fixture_tree, 2), (b_tree, 4)):
        for m in (3, 5, 8):
            r = F(1, 2 * m)
            x0 = F(1, 7 * m)
            total = sum(cs.ball_mass(tree, n, x0 + 2 * r * k, r) for k in range(m))
            assert total == 1


def test_antipodal_balls_never_exceed_total_mass(fixture_tree):
    rng = Random(11)
    for _ in range(30):
        x = F(rng.randrange(997), 997)
        r = F(1 + rng.randrange(248), 997)
        y = (x + F(1, 2)) % 1
        assert cs.ball_mass(fixture_tree, 3, x, r) + cs.ball_mass(fixture_tree, 3, y, r) <= 1


def random_custom_tree(draw):
    """A random custom tree (bases 2-12, depths 1-4, P <= 256) and one of its levels."""
    depth = draw(st.integers(1, 4))
    bases, counts, base_sets, cells = [], [], [], 1
    for _ in range(depth):
        m = draw(st.integers(2, 12))
        size = draw(st.integers(1, max(1, min(m, 256 // cells))))
        elements = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True))
        bases.append(m)
        counts.append(size)
        base_sets.append(cs.ResidueSet.from_elements(m, elements) if size > 1 else None)
        cells *= size
    sched = cs.Schedule("custom", tuple(bases), tuple(counts), tuple(base_sets))
    tree = cs.build_tree(sched, draw(st.integers(0, 2 ** 32)), depth)
    return tree, draw(st.integers(0, depth))


def stress_centers(q, offsets, big):
    """Centers at 0, on cell ends and midpoints, near 1, anywhere, and over big denominators."""
    return st.one_of(
        st.just(F(0)),
        st.sampled_from(offsets).flatmap(lambda c: st.sampled_from((F(c, q), F(2 * c + 1, 2 * q), F((c + 1) % q, q)))),
        st.integers(1, 997).map(lambda a: 1 - F(a, 1000)),  # near 1: balls wrap past 1
        st.fractions(0, 1).filter(lambda f: f < 1),
        big.flatmap(lambda b: st.integers(0, b - 1).map(lambda a: F(a, b))),
    )


def stress_radii(q, floor, big):
    """Radii of 1, at the resolution floor, of at least 1/2, on the 1/4Q grid, and over big denominators."""
    return st.one_of(
        st.just(F(1)),
        st.just(floor),
        st.fractions(F(1, 10 ** 6), 1).filter(lambda f: f > 0),
        st.fractions(F(1, 2), 1),
        st.integers(1, 4 * q).map(lambda a: F(a, 4 * q)),
        big.flatmap(lambda b: st.integers(1, b).map(lambda a: F(a, b))),
    )


def level_data(tree, n):
    """Q_n, the level's cell offsets and its resolution floor M_n/Q_n (1 at level 0)."""
    step = cs.level_intervals(tree, n)
    floor = F(tree.schedule.M[n - 1], step.Q) if n else F(1)
    return step.Q, step.offsets.tolist(), floor


@st.composite
def lattice_balls(draw):
    """A random custom tree, a level, and a ball drawn to stress the kernel:
    centers on cell endpoints and at 0, balls wrapping past 0 and 1, r >= 1/2,
    and denominators that push the lattice Z/D past int64."""
    tree, n = random_custom_tree(draw)
    q, offsets, floor = level_data(tree, n)
    big = st.integers(30, 50).map(lambda e: 3 ** e)
    return tree, n, draw(stress_centers(q, offsets, big)), draw(stress_radii(q, floor, big))


@st.composite
def lattice_ball_grids(draw):
    """A random custom tree, a level, and up to five centers and radii drawn as in
    lattice_balls.  Their big denominators are powers of distinct primes, each
    between 2^22 and 2^70, so a grid's common lattice often passes 2^62 where a
    single ball's would not."""
    tree, n = random_custom_tree(draw)
    q, offsets, floor = level_data(tree, n)
    big = st.tuples(st.sampled_from((3, 5, 7, 11)), st.integers(14, 20)).map(lambda pe: pe[0] ** pe[1])
    xs = draw(st.lists(stress_centers(q, offsets, big), min_size=1, max_size=5))
    rs = draw(st.lists(stress_radii(q, floor, big), min_size=1, max_size=5))
    return tree, n, xs, rs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lattice_balls())
# a lattice one step below 2^62 (int64, ends up to 2D - 1) and one at 2^62
@example((pinned_custom_tree(4, (0, 2)), 1, F(2 ** 62 - 5, 2 ** 62 - 4), F(1)))
@example((pinned_custom_tree(4, (0, 2)), 1, F(2 ** 62 - 1, 2 ** 62), F(1)))
@example((pinned_custom_tree(4, (0, 2)), 1, F(3 * 2 ** 61 - 1, 3 * 2 ** 61), F(1)))  # 2D > 2^63
@example((pinned_custom_tree(4, (0, 3)), 1, F(0), F(1, 3 ** 50)))
@example((pinned_custom_tree(4, (0, 3)), 1, F(1, 3 ** 50), F(1, 2)))
def test_lattice_kernel_matches_fraction_oracle(case):
    tree, n, x, r = case
    step = cs.level_intervals(tree, n)
    for circle in (True, False):
        assert cs.ball_mass(tree, n, x, r, circle) == fraction_ball_mass(step, x, r, circle)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattice_ball_grids())
# centers over 3^20 and 5^14 each keep a ball's lattice in int64; together they pass 2^62
@example((pinned_custom_tree(4, (0, 3)), 1, [F(0), F(1, 3 ** 20), F(2, 5 ** 14)], [F(1, 4), F(1), F(3, 8)]))
@example((pinned_custom_tree(4, (0, 2)), 1, [F(2 ** 62 - 1, 2 ** 62), F(1, 2)], [F(1), F(1, 3 ** 40)]))
def test_ball_mass_matrix_matches_fraction_oracle_and_scalar_calls(case):
    tree, n, xs, rs = case
    step = cs.level_intervals(tree, n)
    for circle in (True, False):
        masses = cs.ball_mass(tree, n, xs, rs, circle)
        assert masses.dtype == object and masses.shape == (len(xs), len(rs))
        for i, x in enumerate(xs):
            for j, r in enumerate(rs):
                assert type(masses[i, j]) is F
                assert masses[i, j] == fraction_ball_mass(step, x, r, circle) == cs.ball_mass(tree, n, x, r, circle)


def test_mixed_denominators_take_the_whole_matrix_to_the_object_route(monkeypatch):
    tree = pinned_custom_tree(4, (0, 3))
    xs, rs = [F(0), F(1, 3 ** 20), F(2, 5 ** 14)], [F(1, 4), F(1), F(3, 8)]
    built = []
    lattice = regularity._Lattice
    monkeypatch.setattr(regularity, "_Lattice", lambda step, d: built.append(d) or lattice(step, d))
    masses = cs.ball_mass(tree, 1, xs, rs)
    scalars = [[cs.ball_mass(tree, 1, x, r) for r in rs] for x in xs]
    assert built[0] >= 2 ** 62 > max(built[1:]) and len(built) == 1 + len(xs) * len(rs)
    assert masses.tolist() == scalars


def test_scalar_and_sequence_arguments_shape_the_result(halves_tree):
    for x, r in ((F(1, 8), F(1, 8)), (0.125, "1/8"), (0, 1)):
        assert type(cs.ball_mass(halves_tree, 1, x, r)) is F
    assert cs.ball_mass(halves_tree, 1, F(1, 8), F(1, 8)) == F(1, 2)
    row = cs.ball_mass(halves_tree, 1, F(1, 8), (F(1, 8), "1/4", 0.5))
    column = cs.ball_mass(halves_tree, 1, [F(1, 8), F(5, 8)], F(1, 8))
    assert row.shape == (1, 3) and row.tolist() == [[F(1, 2), F(1, 2), F(1)]]
    assert column.shape == (2, 1) and column.tolist() == [[F(1, 2)], [F(1, 2)]]
    assert cs.ball_mass(halves_tree, 1, regularity.np.array([F(1, 8)]), [F(1, 8)]).tolist() == [[F(1, 2)]]


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("axis, bad", [("x", F(1)), ("x", F(-1, 4)), ("r", 0), ("r", 2), ("r", F(-1, 2))])
def test_one_bad_element_anywhere_raises_the_scalar_error(halves_tree, axis, bad, position):
    good = {"x": F(1, 2), "r": F(1, 8)}
    with pytest.raises(ValueError) as scalar:
        cs.ball_mass(halves_tree, 1, **dict(good, **{axis: bad}))
    values = [good[axis]] * 3
    values[position] = bad
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        cs.ball_mass(halves_tree, 1, **dict(good, **{axis: values}))


@pytest.mark.parametrize("shaped", [
    [[F(1, 2)], [F(1, 4)]],
    [[F(1, 2)], [F(1, 4), F(1, 8)]],
    [F(1, 2), [F(1, 4)]],
    regularity.np.full((2, 2), 0.25),
])
def test_two_dimensional_or_ragged_arguments_are_refused(halves_tree, shaped):
    with pytest.raises(ValueError, match="x must be a scalar or a 1-D sequence"):
        cs.ball_mass(halves_tree, 1, shaped, F(1, 8))
    with pytest.raises(ValueError, match="r must be a scalar or a 1-D sequence"):
        cs.ball_mass(halves_tree, 1, F(1, 2), shaped)


def test_lattice_route_follows_the_int64_headroom():
    # D < 2^62 keeps |y| <= 2D inside int64; from 2^62 on Python ints take over
    step = cs.level_intervals(pinned_custom_tree(4, (0, 2)), 1)
    assert regularity._Lattice(step, 2 ** 62 - 4).dtype == regularity.np.int64
    assert regularity._Lattice(step, 2 ** 62).dtype == object


# --- whole reports: lattice kernel against the Fraction path ---


def assert_reports_equal(tree, n, **kw):
    report = cs.frostman_scan(tree, n, **kw)
    kw.pop("t", None), kw.pop("radii", None)
    assert report == fraction_frostman_scan(tree, n, report.t, report.radii, **kw)
    return report


def test_scan_reports_equal_fraction_path_over_fixture_seeds(fixture_schedule):
    for seed in range(10):
        report = assert_reports_equal(cs.build_tree(fixture_schedule, seed, 4), 4)
        assert report.upper_ok and report.lower_ok


def test_scan_reports_equal_fraction_path_across_options(fixture_schedule, fixture_tree):
    huge = F(3 ** 41 + 1, 3 ** 42)  # pushes the lattice past int64
    for tree in (fixture_tree, cs.build_tree(fixture_schedule, 3, 4)):
        assert_reports_equal(tree, 3, circle=False)
        assert_reports_equal(tree, 4, circle=False, grid=7)
        assert_reports_equal(tree, 3, radii=(F(1, 3), F(1, 2), F(3, 1000), F(1), huge))
        assert_reports_equal(tree, 2, radii=(huge, F(1, 7)), circle=False, grid=1)
        assert not assert_reports_equal(tree, 3, t=F(1, 100)).lower_ok
        assert_reports_equal(tree, 3, t=1, circle=False)
    # only the fixture seed breaks the upper bound at t = 1
    assert not assert_reports_equal(fixture_tree, 3, t=1).upper_ok


def test_scan_reports_equal_fraction_path_on_other_schedules(uniform_tree, b_tree):
    assert_reports_equal(uniform_tree, 3, t=1, radii=(F(1, 4), F(1, 8), F(1, 16)))
    assert_reports_equal(b_tree, 6, t=F(1, 2))
    assert_reports_equal(b_tree, 5, t=F(2, 3), circle=False, grid=10)


def test_mass_check_equals_fraction_path(b_tree):
    levels = list(range(4, 13))
    report = cs.variant_b_mass_check(b_tree)
    assert [c.max_mass for c in report.checks] == fraction_max_masses(b_tree, levels)
    exponent = 1 - 2 * F("0.2")
    assert [c.frostman_ratio for c in report.checks] == [
        regularity._ratio_float(m, F(1, math.factorial(n + 1)), exponent)
        for n, m in zip(levels, fraction_max_masses(b_tree, levels))
    ]


def test_scan_streams_blocks_in_scan_order(fixture_tree, monkeypatch):
    # one-row blocks must reproduce the single-block report exactly
    whole = [cs.frostman_scan(fixture_tree, 3, t=t) for t in (None, F(1, 100), 1)]
    monkeypatch.setattr(regularity, "_BLOCK_ELEMS", 1)
    assert [cs.frostman_scan(fixture_tree, 3, t=t) for t in (None, F(1, 100), 1)] == whole


def test_each_scan_and_mass_band_level_builds_one_lattice(fixture_tree, b_tree, monkeypatch, tmp_path):
    # one-row blocks, an object-route lattice and a failing scan's second pass
    # still build the lattice once per scan and once per mass-band level
    built = []
    lattice = regularity._Lattice
    monkeypatch.setattr(regularity, "_Lattice", lambda step, d: built.append(d) or lattice(step, d))
    monkeypatch.setattr(regularity, "_BLOCK_ELEMS", 1)
    assert cs.frostman_scan(fixture_tree, 3, radii=(F(3 ** 41 + 1, 3 ** 42), F(1, 2))).lower_ok
    assert not cs.frostman_scan(fixture_tree, 3, t=F(1, 100)).lower_ok
    cs.variant_b_mass_check(b_tree, levels=(4, 5, 6))
    assert len(built) == 5 and built[0] >= 2 ** 62 > built[1]
    # the dump's 64 midpoints x 10 radii, three midpoints per block: one lattice per block
    monkeypatch.setattr(regularity, "_BLOCK_ELEMS", 30)
    radii = cs.dyadic_radii(F(1, 625))
    cli._dump_regularity_rows(fixture_tree, 3, F(2, 5), radii, True, str(tmp_path / "rows.csv"))
    assert len(radii) == 10 and len(built) == 5 + math.ceil(64 / 3)


def test_passing_scan_judges_each_radius_once_per_side(fixture_tree, monkeypatch):
    # both bounds are monotone in the mass, so a passing scan compares only
    # each radius's largest upper-scan mass and smallest lower-scan mass
    calls = []

    def counting_cmp_pow(*args, **kwargs):
        calls.append(args)
        return _cmp_pow(*args, **kwargs)

    monkeypatch.setattr(regularity, "_cmp_pow", counting_cmp_pow)
    report = cs.frostman_scan(fixture_tree, 4)
    assert report.upper_ok and report.lower_ok
    assert len(report.radii) == 14
    assert len(calls) == 2 * len(report.radii)


def test_first_failing_ball_past_the_first_block_matches_fraction_path(fixture_tree, monkeypatch):
    # one-row blocks: the failure pass must stream past its first block to
    # reach the first failing ball, and name the same ball as the per-ball path
    monkeypatch.setattr(regularity, "_BLOCK_ELEMS", 1)
    step = cs.level_intervals(fixture_tree, 4)
    midpoints = [F(2 * c + 1, 2 * step.Q) for c in step.offsets.tolist()]
    lower = assert_reports_equal(fixture_tree, 4, t=F(1, 5), radii=(F(1, 2048), F(1, 4096)))
    assert lower.violation == "lower regularity constant fell below 1/(M^t |X|) at x=518811/781250, r=1/2048"
    assert midpoints.index(F(518811, 781250)) == 240
    upper = assert_reports_equal(fixture_tree, 4, t=1)
    # the grid point 1/128 precedes the failing center in the upper scan
    assert upper.violation == "upper regularity constant exceeded 2M+1 at x=5052/15625, r=1/2048"


def test_failing_scan_with_a_lattice_unit_past_int64_names_the_first_failing_ball(fixture_tree, tmp_path, capsys):
    # the second radius puts P w past 2^63, so the least failing mass is
    # bisected over Python ints; the CLI reports the oracle's first failing ball
    radii = "1/625,36472996377170786404/109418989131512359209"
    report = assert_reports_equal(fixture_tree, 3, t=F(1, 100), radii=radii.split(","))
    step = cs.level_intervals(fixture_tree, 3)
    assert regularity._Lattice(step, math.lcm(2 * step.Q, 128, 625, 109418989131512359209)).unit > 2 ** 63
    assert not report.lower_ok and report.violation.startswith("lower regularity constant")
    path = tmp_path / "tree.json"
    cs.save_tree(fixture_tree, str(path))
    argv = ["regularity", "--tree", str(path), "--level", "3", "--t", "1/100", "--radii", radii, "--json"]
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"code": 1, "error": f"regularity bound violated: {report.violation}"}


# --- dyadic_radii ---


def test_dyadic_radii_descend_to_floor():
    assert cs.dyadic_radii(F(1, 8)) == (F(1), F(1, 2), F(1, 4), F(1, 8))
    assert cs.dyadic_radii(F(3, 16)) == (F(1), F(1, 2), F(1, 4))
    assert cs.dyadic_radii(1) == (F(1),)
    with pytest.raises(ValueError):
        cs.dyadic_radii(0)
    with pytest.raises(ValueError):
        cs.dyadic_radii(2)


# --- frostman_scan ---


def test_uniform_tree_scan_finds_lebesgue_constants(uniform_tree):
    report = cs.frostman_scan(uniform_tree, 3, t=1, radii=(F(1, 4), F(1, 8), F(1, 16)))
    assert report.c_upper == pytest.approx(2.0, abs=1e-12)
    assert report.c_lower == pytest.approx(2.0, abs=1e-12)
    # structural references only exist for constant-base certified schedules
    assert report.reference_upper is None
    assert report.reference_lower is None
    assert report.upper_ok is None and report.lower_ok is None


def test_fixture_scan_meets_structural_references(fixture_tree):
    report = cs.frostman_scan(fixture_tree, 4)
    assert report.t == F(2, 5)
    assert report.variant == "A"
    # default dyadic ladder runs from 1 down to the resolution floor 25/Q_4
    assert report.radii[0] == 1
    assert report.radii[-1] == F(1, 8192)
    assert len(report.radii) == 14
    assert report.reference_upper == 51.0
    expected_lower = math.exp(-0.4 * math.log(25)) / 4
    assert report.reference_lower == pytest.approx(expected_lower, rel=1e-12)
    assert report.upper_ok and report.lower_ok
    assert report.c_upper <= 51.0
    assert report.c_lower >= expected_lower * (1 - 1e-9)
    assert report.c_upper >= report.c_lower > 0
    assert max(report.upper_by_radius) == report.c_upper
    assert min(report.lower_by_radius) == report.c_lower
    assert len(report.upper_by_radius) == len(report.radii)
    x, r = report.upper_witness
    assert r in report.radii and 0 <= x < 1


def test_fixture_scan_passes_for_fresh_seeds():
    sched = cs.schedule_a(25, cs.ResidueSet.from_elements(25, (2, 4, 8, 10)), F(2, 5), 4)
    for seed in (0, 1, 2):
        report = cs.frostman_scan(cs.build_tree(sched, seed, 4), 4)
        assert report.upper_ok and report.lower_ok


def test_bound_violations_are_reported_not_raised(fixture_tree):
    low = cs.frostman_scan(fixture_tree, 3, t=F(1, 100))
    assert (low.upper_ok, low.lower_ok) == (True, False)
    assert low.violation == "lower regularity constant fell below 1/(M^t |X|) at x=2021/6250, r=1/32"
    high = cs.frostman_scan(fixture_tree, 3, t=1)
    assert (high.upper_ok, high.lower_ok) == (False, True)
    assert high.violation == "upper regularity constant exceeded 2M+1 at x=53/128, r=1/512"
    assert cs.frostman_scan(fixture_tree, 3).violation is None


def test_single_branch_tree_upper_constant_grows_with_depth():
    # one surviving cell per level concentrates all mass: the upper ratio
    # at the resolution-floor radius scales like (Q_n/M)^t, unbounded in n
    tree = pinned_custom_tree(4, (0,), depth=6)
    ratios = []
    for n in (2, 4, 6):
        floor = F(4, 4**n)
        report = cs.frostman_scan(tree, n, t=F(2, 5), radii=(floor,))
        ratios.append(report.c_upper)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 10


def test_scan_input_validation(fixture_tree, uniform_tree):
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 0)
    with pytest.raises(ValueError):
        cs.frostman_scan(uniform_tree, 2)  # no t carried by the schedule
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 4, t=0)
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 4, t=2)
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 4, radii=(F(1, 100000),))
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 4, radii=(F(2),))
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 4, radii=())
    with pytest.raises(ValueError):
        cs.frostman_scan(fixture_tree, 4, grid=0)


def test_oversize_grid_fails_before_building_points(fixture_tree, monkeypatch):
    def no_points(*args):
        raise AssertionError("scan points built before the grid check")

    monkeypatch.setattr(regularity, "_Lattice", no_points)
    for grid in (MAX_CELLS + 1, 10 ** 9):
        with pytest.raises(ValueError, match="limit is"):
            cs.frostman_scan(fixture_tree, 4, grid=grid)


# --- variant_b_mass_check ---


def test_growing_base_masses_stay_within_two_cells(b_tree):
    report = cs.variant_b_mass_check(b_tree)
    assert report.epsilon == 0.2
    assert [c.level for c in report.checks] == list(range(4, 13))
    for check in report.checks:
        assert check.radius == F(1, math.factorial(check.level + 1))
        p_n = b_tree.schedule.P(check.level)
        assert check.cell_bound == F(2, p_n)
        assert check.max_mass <= check.cell_bound
        assert check.within_bound
    assert report.all_within


def test_mass_check_honours_level_selection(b_tree):
    report = cs.variant_b_mass_check(b_tree, levels=[4, 7, 12])
    assert [c.level for c in report.checks] == [4, 7, 12]
    assert report.all_within


def test_ratio_trend_is_reported_not_enforced(b_tree):
    report = cs.variant_b_mass_check(b_tree, epsilon=0.2)
    ratios = [c.frostman_ratio for c in report.checks]
    assert all(r > 0 for r in ratios)
    assert report.trend_declining == (ratios[-1] <= ratios[0])


def test_shallow_growing_base_tree_is_one_wide_cell():
    tree = cs.build_tree(cs.schedule_b(2), 0, 2)
    step = cs.level_intervals(tree, 2)
    assert step.Q == 4 and len(step.offsets) == 1
    for r in (F(1, 2), F(3, 4)):
        assert cs.ball_mass(tree, 2, F(1, 3), r) == 1


def test_mass_check_input_validation(fixture_tree, b_tree):
    with pytest.raises(ValueError):
        cs.variant_b_mass_check(fixture_tree)
    with pytest.raises(ValueError):
        cs.variant_b_mass_check(b_tree, epsilon=0)
    with pytest.raises(ValueError):
        cs.variant_b_mass_check(b_tree, epsilon=0.5)
    with pytest.raises(ValueError):
        cs.variant_b_mass_check(b_tree, levels=[2])
    with pytest.raises(ValueError):
        cs.variant_b_mass_check(b_tree, levels=[13])
    with pytest.raises(ValueError):
        cs.variant_b_mass_check(b_tree, levels=[])
