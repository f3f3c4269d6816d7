"""Exact ball masses, two-sided regularity scans, factorial-radius bounds.

The reference oracle below computes ball masses by direct arc overlap
against every cell, with wraparound handled by shifting each cell through
the three relevant periods.  It shares no code path with the binary-search
implementation under test.
"""

import math
from fractions import Fraction
from random import Random

import pytest

import cantorsalem as cs

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
    for c in step.offsets:
        a = F(c, step.Q)
        b = F(c + 1, step.Q)
        for shift in shifts:
            s = max(lo, a + shift)
            e = min(hi, b + shift)
            if e > s:
                total += (e - s) * density
    return total


def pinned_custom_tree(m, elements, depth=1):
    """Depth-limited tree over constant base m with root translation 0."""
    sched = cs.custom_schedule(m, cs.ResidueSet.from_elements(m, elements), depth)
    if depth == 1:
        return cs.MeasureTree(sched, 0, 1, {(): 0})
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
