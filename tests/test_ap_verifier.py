"""Structural node certificates and the cross-cell progression scan.

The grid oracle below decides cell-triple feasibility by exhaustive search
over quarter- and eighth-grid rationals inside each cell; the scan under
test uses integer residue arithmetic instead, so agreement is meaningful.
The quadratic oracle is the exhaustive cell-pair scan that the pruned tree
descent replaced, and the per-node certificate oracle runs the canonical
shift and the spanning oracle at every node without memoisation; both are
checked against the library on random and adversarial trees.
"""

import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings

import cantorsalem as cs
from cantorsalem import ap_verifier
from conftest import FIXTURE_SEED, make_fixture_schedule
from tree_oracle import children, custom_trees, nodes_at_level, path_translations

F = Fraction


def feasible_by_grid(a, b, c, q, grid=4):
    """Is there a pairwise-distinct (x, y, z) on the grid, one per cell,
    with x + z = 2y (mod 1)?  Cells are half-open, so the right endpoint
    is excluded."""
    def points(cell):
        return [F(cell * grid + i, q * grid) for i in range(grid)]

    for x in points(a):
        for y in points(b):
            for z in points(c):
                if x != y and y != z and x != z and (x + z - 2 * y) % 1 == 0:
                    return True
    return False


def scan_by_grid(tree, n, grid=4):
    step = cs.level_intervals(tree, n)
    offsets = step.offsets.tolist()
    out = set()
    for i, a in enumerate(offsets):
        for c in offsets[i:]:
            for b in offsets:
                if a == b == c:
                    continue
                if feasible_by_grid(a, b, c, step.Q, grid):
                    out.add((a, b, c))
    return tuple(sorted(out))


def pinned_tree(m, elements, depth=1, seed=0):
    sched = cs.custom_schedule(m, cs.ResidueSet.from_elements(m, elements), depth)
    if depth == 1:
        return cs.MeasureTree(sched, seed, 1, [[0]])
    return cs.build_tree(sched, seed, depth)


def quadratic_scan(tree, n, line=False):
    """Every cell pair (a, c), a <= c, with each realized middle cell b
    solving a + c - 2b = delta (mod Q unless line) for delta in {-1, 0, 1}."""
    step = cs.level_intervals(tree, n)
    q = step.Q
    offsets = step.offsets.tolist()
    inset = frozenset(offsets)
    found = set()

    def consider(a, b, c):
        if not a == b == c:
            found.add((a, b, c) if a <= c else (c, b, a))

    half_q = q // 2 if q % 2 == 0 else None
    inv2 = pow(2, -1, q) if q % 2 == 1 and q > 1 else None
    for i, a in enumerate(offsets):
        for c in offsets[i:]:
            for delta in (-1, 0, 1):
                v = a + c - delta
                if line:
                    if v % 2 == 0 and v // 2 in inset:
                        consider(a, v // 2, c)
                elif inv2 is not None:
                    if v * inv2 % q in inset:
                        consider(a, v * inv2 % q, c)
                elif q == 1:
                    consider(a, 0, c)
                elif v % 2 == 0:
                    for b in {v // 2 % q, (v // 2 + half_q) % q}:
                        if b in inset:
                            consider(a, b, c)
    return tuple(sorted(found))


def per_node_certificates(tree):
    """(failures, distinct canonical classes) with the oracle run at every node."""
    failures, classes = [], set()
    translations = path_translations(tree)
    for level in range(tree.depth):
        m = tree.schedule.M[level]
        for path in nodes_at_level(tree.schedule, translations, level):
            if tree.schedule.L[level] == 1:
                continue
            child_set = cs.ResidueSet(m, children(tree.schedule, translations, path))
            shift = child_set.canonical_shift()
            canon = child_set.translate(-shift)
            classes.add((m, canon.elements))
            verdict = cs.property_ii_oracle(canon)
            if not verdict.holds:
                w = verdict.witness
                moved = ((w.a + shift) % m, (w.b + shift) % m, (w.c + shift) % m)
                failures.append((path, cs.ApWitness(*moved, "interval-spanning-AP", m)))
    return tuple(failures), len(classes)


# --- feasibility predicate vs grid search ---


def test_residue_predicate_matches_grid_search_exhaustively():
    for q in (2, 3, 4, 5, 6, 7):
        bad = {(q - 1) % q, 0, 1 % q}
        for a, c in combinations_with_replacement(range(q), 2):
            for b in range(q):
                if a == b == c:
                    continue
                predicted = (a + c - 2 * b) % q in bad
                assert feasible_by_grid(a, b, c, q) == predicted, (q, a, b, c)


def test_grid_search_is_stable_under_refinement():
    for a, c in combinations_with_replacement(range(5), 2):
        for b in range(5):
            if a == b == c:
                continue
            assert feasible_by_grid(a, b, c, 5, grid=4) == feasible_by_grid(a, b, c, 5, grid=8)


# --- node_certificates ---


def test_fixture_tree_certificates_all_pass(fixture_tree):
    certs = cs.node_certificates(fixture_tree)
    assert certs.all_pass
    assert certs.failures == ()
    # 1 + 4 + 16 + 64 internal nodes, all child sets translates of one class
    assert certs.internal_nodes == 85
    assert certs.distinct_sets == 1


def test_consecutive_residue_tree_fails_with_valid_witness(bad_tree):
    certs = cs.node_certificates(bad_tree)
    assert not certs.all_pass
    assert certs.internal_nodes == 1
    assert len(certs.failures) == 1
    path, w = certs.failures[0]
    assert path == ()
    assert (w.a, w.b, w.c) == (0, 0, 1)
    assert w.modulus == 10
    assert not (w.a == w.b == w.c)
    assert {w.a, w.b, w.c} <= {0, 1, 2}
    assert (w.a + w.c - 2 * w.b) % 10 in {9, 0, 1}


def test_failure_witnesses_are_translated_into_node_coordinates():
    tree = pinned_tree(10, (0, 8, 9), depth=2)
    certs = cs.node_certificates(tree)
    assert not certs.all_pass
    assert certs.internal_nodes == 4
    assert certs.distinct_sets == 1  # every child set is a translate of one class
    assert len(certs.failures) == 4
    for path, w in certs.failures:
        digits = set(children(tree.schedule, path_translations(tree), path))
        assert {w.a, w.b, w.c} <= digits
        assert (w.a + w.c - 2 * w.b) % 10 in {9, 0, 1}
        assert not (w.a == w.b == w.c)


def test_certificates_canonicalise_each_level_once(monkeypatch):
    # every child set of a level is a translate of its base set, so a
    # certified level needs one canonical class, not one per translation
    tree = cs.build_tree(make_fixture_schedule(5), 123, 5)
    sched = tree.schedule
    calls = []
    shift = cs.ResidueSet.canonical_shift
    monkeypatch.setattr(cs.ResidueSet, "canonical_shift", lambda self: calls.append(self) or shift(self))
    certs = cs.node_certificates(tree)
    assert certs.all_pass and certs.distinct_sets == 1
    multi_child = sum(1 for level in range(tree.depth) if sched.L[level] > 1)
    assert multi_child == 5
    assert len(calls) <= multi_child


def test_single_child_levels_pass_without_oracle_runs():
    tree = cs.build_tree(cs.schedule_b(2), 0, 2)
    certs = cs.node_certificates(tree)
    assert certs.all_pass
    assert certs.internal_nodes == 2
    assert certs.distinct_sets == 0


def test_growing_base_tree_certificates(b_tree):
    certs = cs.node_certificates(b_tree)
    assert certs.all_pass
    # levels 0..11 carry 1,1,1,1,1,1,2,4,8,16,32,64 nodes; only the seven
    # two-child levels (bases 6..12) reach the oracle
    assert certs.internal_nodes == 132
    assert certs.distinct_sets == 7


# --- cross_cell_scan ---


def test_fixture_scan_is_empty_at_every_level(fixture_tree):
    for n in (1, 2, 3, 4):
        assert cs.cross_cell_scan(fixture_tree, n) == ()


def test_consecutive_residue_scan_flags_cells(bad_tree):
    triples = cs.cross_cell_scan(bad_tree, 1)
    assert triples
    assert (0, 1, 2) in triples
    for a, b, c in triples:
        assert a <= c
        assert not (a == b == c)
        assert (a + c - 2 * b) % 10 in {9, 0, 1}


def test_single_cell_levels_scan_empty(b_tree):
    # the first five levels of the factorial tree keep exactly one cell
    for n in (1, 3, 5):
        assert len(cs.level_intervals(b_tree, n).offsets) == 1
        assert cs.cross_cell_scan(b_tree, n) == ()


def test_scan_rejects_levels_beyond_depth(bad_tree):
    for n in (-1, 2):
        with pytest.raises(ValueError):
            cs.cross_cell_scan(bad_tree, n)


def test_line_mode_drops_wraparound_triples():
    tree = pinned_tree(10, (0, 8, 9))
    circle = cs.cross_cell_scan(tree, 1)
    line = cs.cross_cell_scan(tree, 1, line=True)
    assert circle == ((0, 0, 9), (0, 9, 8), (0, 9, 9), (8, 8, 9), (8, 9, 9))
    assert line == ((8, 8, 9), (8, 9, 9))
    assert set(line) <= set(circle)
    for a, b, c in line:
        assert a + c - 2 * b in {-1, 0, 1}


def test_scan_agrees_with_grid_oracle_on_random_trees():
    rng = Random(23)
    for _ in range(12):
        m = rng.randrange(4, 13)
        size = rng.randrange(2, min(m, 5))
        elements = tuple(sorted(rng.sample(range(m), size)))
        tree = pinned_tree(m, elements, seed=rng.randrange(1000))
        assert cs.cross_cell_scan(tree, 1) == scan_by_grid(tree, 1)
    # plus the two pinned negative controls
    assert cs.cross_cell_scan(pinned_tree(10, (0, 1, 2)), 1) == scan_by_grid(
        pinned_tree(10, (0, 1, 2)), 1
    )
    assert cs.cross_cell_scan(pinned_tree(10, (0, 8, 9)), 1) == scan_by_grid(
        pinned_tree(10, (0, 8, 9)), 1
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(custom_trees())
@example(pinned_tree(10, (0, 1, 2)))
@example(pinned_tree(10, (0, 8, 9)))
@example(pinned_tree(10, (0, 1, 2), depth=3, seed=5))
@example(pinned_tree(10, (0, 8, 9), depth=2, seed=3))
@example(pinned_tree(4, (0, 1, 2, 3), depth=3, seed=1))
@example(pinned_tree(4, (0, 1, 2, 3), depth=2, seed=2))
# a failing base set with two canonical shifts: pins the witness tie-break
@example(pinned_tree(10, (0, 5), depth=3, seed=4))
# bases 2 and 3: residues wrap mod Q while the parent level has Q < 3
@example(pinned_tree(2, (0, 1), depth=4))
@example(pinned_tree(3, (0, 1, 2), depth=3))
# hit-dense: the level-2 candidate product spans many blocks of the scan
@example(pinned_tree(40, tuple(range(20)), depth=2))
# bases with 3M past int64: the scan runs on Python ints
@example(pinned_tree(2 ** 62 + 3, (0, 1, 2, 2 ** 62 + 2), depth=2))
# 2M within int64 but 3M past it: int64 child digits, Python-int residues
@example(pinned_tree(2 ** 62 - 1, (0, 1, 2, 2 ** 62 - 2), depth=2))
@example(pinned_tree(2 ** 64, (0, 1, 2, 2 ** 64 - 1), depth=2))
def test_pruned_scan_matches_quadratic_oracle(tree):
    for n in range(tree.depth + 1):
        for line in (False, True):
            assert cs.cross_cell_scan(tree, n, line=line) == quadratic_scan(tree, n, line=line), (n, line)
    certs = cs.node_certificates(tree)
    failures, classes = per_node_certificates(tree)
    assert certs.failures == failures
    assert certs.distinct_sets == classes
    assert certs.all_pass == (not failures)
    assert certs.internal_nodes == len(path_translations(tree))


@pytest.mark.parametrize("m", [2 ** 62 + 3, 2 ** 64])
def test_triples_and_failures_are_python_ints_past_int64(m):
    # level-1 offsets are int64 at M = 2^62 + 3 and objects at M = 2^64; the reports hold plain ints either way
    tree = pinned_tree(m, (0, 1, 2, m - 1), depth=2, seed=1)
    triples = [t for n in (1, 2) for line in (False, True) for t in cs.cross_cell_scan(tree, n, line=line)]
    failures = cs.node_certificates(tree).failures
    assert triples and failures
    values = [v for t in triples for v in t] + [v for path, w in failures for v in (*path, w.a, w.b, w.c)]
    assert set(map(type, values)) == {int}


def test_pruned_scan_matches_quadratic_oracle_on_schedule_variants(bad_tree):
    X50 = cs.double_embed(cs.behrend_sphere(10), 50)
    trees = (
        cs.build_tree(make_fixture_schedule(4), FIXTURE_SEED, 4),
        cs.build_tree(cs.schedule_a(50, X50, F(1, 3), 3), 5, 3),
        cs.build_tree(cs.schedule_b(12), FIXTURE_SEED, 12),
        cs.build_tree(cs.schedule_b(9), 3, 9),
        bad_tree,
    )
    for tree in trees:
        for n in range(tree.depth + 1):
            for line in (False, True):
                assert cs.cross_cell_scan(tree, n, line=line) == quadratic_scan(tree, n, line=line)


def test_deep_certified_trees_scan_empty():
    fixture = cs.build_tree(make_fixture_schedule(8), FIXTURE_SEED, 8)
    assert fixture.schedule.P(8) == 65536
    start = time.perf_counter()
    assert cs.cross_cell_scan(fixture, 8) == ()
    assert time.perf_counter() - start < 5.0
    for n in range(8):
        assert cs.cross_cell_scan(fixture, n) == ()
    assert cs.cross_cell_scan(fixture, 8, line=True) == ()
    b16 = cs.build_tree(cs.schedule_b(16), FIXTURE_SEED, 16)
    assert b16.schedule.P(16) == 6912
    assert cs.cross_cell_scan(b16, 16) == ()
    assert cs.cross_cell_scan(b16, 16, line=True) == ()
    # diagonal triples are tested once per distinct translation, not per node
    b18 = cs.build_tree(cs.schedule_b(18), FIXTURE_SEED, 18)
    assert b18.schedule.P(18) == 82944
    for line in (False, True):
        start = time.perf_counter()
        assert cs.cross_cell_scan(b18, 18, line=line) == ()
        assert time.perf_counter() - start < 0.2, line


@settings(max_examples=40, deadline=None, derandomize=True)
@given(custom_trees())
def test_one_candidate_blocks_scan_like_the_default(tree):
    # the smallest block splits every node triple along its first child axis; hits and their order stay
    default = [cs.cross_cell_scan(tree, n, line) for n in range(tree.depth + 1) for line in (False, True)]
    with mock.patch.object(ap_verifier, "_BLOCK_ELEMS", 1):
        assert [cs.cross_cell_scan(tree, n, line) for n in range(tree.depth + 1) for line in (False, True)] == default


def test_one_candidate_blocks_scan_a_wide_control_like_the_default():
    tree = cs.build_tree(cs.custom_schedule(40, cs.ResidueSet.from_elements(40, range(0, 40, 3)), 3), 0, 3)
    default = cs.cross_cell_scan(tree, 3)
    assert len(default) == 567424
    with mock.patch.object(ap_verifier, "_BLOCK_ELEMS", 1):
        assert cs.cross_cell_scan(tree, 3) == default


def test_scan_of_a_wide_base_set_keeps_its_temporaries_small():
    # L = 126: one node triple has 2.0M candidate children, 16 MB per int64 temporary in a single block
    X = cs.double_embed(cs.behrend_sphere(10000), 50000)
    tree = cs.MeasureTree(cs.custom_schedule(50000, X, 1), 0, 1, [[0]])
    tracemalloc.start()
    try:
        assert cs.cross_cell_scan(tree, 1) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(X) == 126 and peak < 4 << 20


def test_passing_certificates_imply_empty_scan():
    # descent argument as an executable property: certified child sets at
    # every node leave no feasible cross-cell triple at any realized level
    X25 = cs.ResidueSet.from_elements(25, (2, 4, 8, 10))
    X50 = cs.double_embed(cs.behrend_sphere(10), 50)
    schedules = (
        (cs.schedule_a(25, X25, F(2, 5), 3), 3),
        (cs.schedule_a(50, X50, F(1, 3), 3), 3),
        (cs.schedule_b(8), 8),
    )
    for seed in range(25):
        for sched, depth in schedules:
            tree = cs.build_tree(sched, seed, depth)
            assert cs.node_certificates(tree).all_pass
            assert cs.cross_cell_scan(tree, depth) == ()


# --- realize_cross_cell_triple ---


def test_realized_points_witness_every_flagged_triple(bad_tree):
    trees = (bad_tree, pinned_tree(10, (0, 8, 9)), pinned_tree(7, (0, 1, 3)))
    for tree in trees:
        q = cs.level_intervals(tree, 1).Q
        for triple in cs.cross_cell_scan(tree, 1):
            x, y, z = cs.realize_cross_cell_triple(triple, q)
            assert len({x, y, z}) == 3
            assert (x + z - 2 * y) % 1 == 0
            for point, cell in zip((x, y, z), triple):
                assert F(cell, q) <= point < F(cell + 1, q)


def test_realize_rejects_infeasible_and_degenerate_triples():
    with pytest.raises(ValueError):
        cs.realize_cross_cell_triple((0, 1, 5), 10)
    with pytest.raises(ValueError):
        cs.realize_cross_cell_triple((2, 2, 2), 10)
    with pytest.raises(ValueError):
        cs.realize_cross_cell_triple((0, 1, 10), 10)


# --- ap_report ---


def test_fixture_report_certified_to_depth(fixture_tree):
    report = cs.ap_report(fixture_tree, 4)
    assert report.certified
    assert report.level == 4
    assert report.node_checks.all_pass
    assert report.feasible_triples == ()
    assert not report.line_mode
    assert "undecided" in report.note


def test_negative_control_report_populates_both_channels(bad_tree):
    report = cs.ap_report(bad_tree, 1)
    assert not report.certified
    assert not report.node_checks.all_pass
    assert report.node_checks.failures
    assert report.feasible_triples
    assert (0, 1, 2) in report.feasible_triples


def test_depth_zero_tree_certifies_trivially():
    sched = cs.custom_schedule(10, cs.ResidueSet.from_elements(10, (0, 1, 2)), 1)
    root_only = cs.build_tree(sched, 0, 0)
    report = cs.ap_report(root_only, 0)
    assert report.certified
    assert report.node_checks.internal_nodes == 0
    assert report.feasible_triples == ()


def test_report_line_mode_is_recorded():
    tree = pinned_tree(10, (0, 8, 9))
    assert cs.ap_report(tree, 1, line=True).line_mode
    assert not cs.ap_report(tree, 1).line_mode
