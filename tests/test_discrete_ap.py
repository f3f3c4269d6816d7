"""Progression predicates, digit-sphere sets, and the spanning oracle."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorsalem import (
    ApWitness,
    ResidueSet,
    behrend_sphere,
    dft_uniformity,
    discrete_ap,
    double_embed,
    find_3ap_mod,
    is_ap_free,
    max_property_ii,
    property_ii_oracle,
    uniformity_demo,
)
from discrete_oracle import max_ap_free_subset, max_property_ii_dfs, property_ii_triples, spanning_ap_bruteforce

SRC = Path(__file__).resolve().parent.parent / "src"

# --- independent oracles (deliberately naive) ---


def brute_ap_free(xs) -> bool:
    s = sorted(set(xs))
    return not any(x + z == 2 * y for x, y, z in combinations(s, 3))


def brute_find_3ap_mod(elements, n):
    s = set(elements)
    hits = []
    for a in s:
        for b in s:
            for c in s:
                if len({a, b, c}) == 3 and (a + c - 2 * b) % n == 0:
                    hits.append((a, b, c))
    return hits


def brute_max_ap_free_size(n) -> int:
    best = 0
    universe = list(range(1, n + 1))
    for mask in range(2 ** n):
        subset = [universe[i] for i in range(n) if mask >> i & 1]
        if len(subset) > best and brute_ap_free(subset):
            best = len(subset)
    return best


def all_subsets(m):
    for mask in range(2 ** m):
        yield tuple(i for i in range(m) if mask >> i & 1)


# --- is_ap_free ---


def test_is_ap_free_examples():
    assert not is_ap_free({1, 3, 5})
    assert is_ap_free(set())
    assert is_ap_free({1, 2, 4, 5})


def test_is_ap_free_matches_brute_force_exhaustively():
    for subset in all_subsets(10):
        shifted = tuple(x + 1 for x in subset)
        assert is_ap_free(shifted) == brute_ap_free(shifted), shifted


# --- find_3ap_mod ---


def test_find_3ap_mod_consecutive():
    w = find_3ap_mod(ResidueSet.from_elements(10, (0, 1, 2)))
    assert w is not None and w.as_tuple() == (0, 1, 2)
    assert w.kind == "modular-AP"


def test_find_3ap_mod_absent():
    assert not brute_find_3ap_mod((0, 1), 5)
    assert find_3ap_mod(ResidueSet.from_elements(5, (0, 1))) is None


def test_find_3ap_mod_wraparound():
    w = find_3ap_mod(ResidueSet.from_elements(5, (1, 3, 0)))
    assert w is not None
    assert (w.a + w.c - 2 * w.b) % 5 == 0
    assert sorted((w.a, w.c)) == [0, 1] and w.b == 3


def test_find_3ap_mod_agrees_with_brute_force():
    for n in range(2, 9):
        for subset in all_subsets(n):
            hits = brute_find_3ap_mod(subset, n)
            w = find_3ap_mod(ResidueSet.from_elements(n, subset))
            if hits:
                assert w is not None and w.as_tuple() in hits, (n, subset)
            else:
                assert w is None, (n, subset)


# --- dft_uniformity / uniformity_demo ---


def test_dft_uniformity_full_set_vanishes():
    max_coeff, _ = dft_uniformity(ResidueSet.from_elements(9, range(9)))
    assert max_coeff <= 1e-9


def test_dft_uniformity_singleton():
    max_coeff, threshold = dft_uniformity(ResidueSet.from_elements(4, (0,)))
    assert abs(max_coeff - 0.25) <= 1e-12
    assert threshold == pytest.approx(1 / 16 - 1 / 4)


def test_dft_uniformity_half_grid():
    max_coeff, _ = dft_uniformity(ResidueSet.from_elements(4, (0, 2)))
    assert abs(max_coeff - 0.5) <= 1e-12


def test_dft_uniformity_refuses_a_phase_matrix_past_its_cap():
    # |A| x (n - 1) = 2^20 + 1 entries: refused before np.outer allocates them
    with pytest.raises(ValueError, match="DFT matrix entries requested"):
        dft_uniformity(ResidueSet.from_elements(2 ** 20 + 2, (0,)))
    max_coeff, _ = dft_uniformity(ResidueSet.from_elements(2 ** 20 + 1, (0,)))  # exactly at the cap
    assert abs(max_coeff - 1 / (2 ** 20 + 1)) <= 1e-15


def test_dft_uniformity_small_modulus_rejected():
    with pytest.raises(ValueError):
        dft_uniformity(ResidueSet.from_elements(1, (0,)))


def test_uniformity_demo_full_set():
    rep = uniformity_demo(ResidueSet.from_elements(7, range(7)))
    assert rep.condition_holds
    assert rep.ap is not None


def test_uniformity_demo_singleton_threshold_negative():
    rep = uniformity_demo(ResidueSet.from_elements(7, (0,)))
    assert rep.threshold < 0
    assert not rep.condition_holds


# --- behrend_sphere ---


def test_behrend_sphere_singleton():
    assert behrend_sphere(1) == (1,)


def test_behrend_sphere_small_sizes_are_maximum():
    # exhaustive reference maxima for {1..n}
    for n in range(1, 15):
        got = behrend_sphere(n)
        assert all(1 <= x <= n for x in got)
        assert brute_ap_free(got)
        assert len(got) == brute_max_ap_free_size(n), n


def test_behrend_sphere_five():
    assert len(behrend_sphere(5)) == 4
    assert behrend_sphere(5) == (1, 2, 4, 5)


def test_behrend_sphere_large():
    got = behrend_sphere(10000)
    assert len(got) >= 100
    assert all(1 <= x <= 10000 for x in got)
    assert brute_ap_free(got)


# --- the exact tables against the searches that produced them ---


def test_behrend_table_matches_the_branch_and_bound_oracle():
    for n in range(1, 46):
        assert behrend_sphere(n) == max_ap_free_subset(n), n


def test_max_property_ii_table_matches_the_dfs_oracle():
    for m in range(2, 26):
        got = max_property_ii(m)
        assert got.elements == max_property_ii_dfs(m), m
        assert got.method == "exhaustive"
    assert max_property_ii(26).method == "heuristic"


def _grows_by_at_most_one(sizes):
    return all(0 <= b - a <= 1 for a, b in zip(sizes, sizes[1:]))


def test_behrend_table_entries_are_maximal_ap_free_subsets():
    assert len(discrete_ap._MAX_AP_FREE) == 65 and discrete_ap._MAX_AP_FREE[0] == 0
    sizes = [0]
    for n in range(1, 65):
        got = behrend_sphere(n)
        assert all(1 <= x <= n for x in got) and brute_ap_free(got), n
        # maximal under inclusion: every missing element closes a progression
        assert all(not brute_ap_free(got + (v,)) for v in range(1, n + 1) if v not in got), n
        sizes.append(len(got))
    assert _grows_by_at_most_one(sizes)


def test_max_property_ii_table_entries_are_maximal():
    sizes = []
    for m in range(2, 26):
        got = max_property_ii(m)
        assert property_ii_oracle(got).holds, m
        for v in set(range(m)) - set(got.elements):
            assert not property_ii_oracle(ResidueSet.from_elements(m, got.elements + (v,))).holds, (m, v)
        sizes.append(len(got))
    assert _grows_by_at_most_one(sizes)


_COLD_TABLE_READS = """
import time
t0 = time.perf_counter()
from cantorsalem import behrend_sphere, max_property_ii
for n in range(1, 65):
    behrend_sphere(n)
for m in range(2, 325):
    max_property_ii(m)
print(time.perf_counter() - t0)
"""


def test_exact_results_need_no_search_in_a_fresh_interpreter():
    # the exhaustive searches behind these took minutes cold past n = 55
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_TABLE_READS], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10.0


# --- double_embed ---


def test_double_embed_examples():
    assert double_embed((1, 2), 10).elements == (2, 4)
    assert double_embed((1, 2, 4, 5), 25).elements == (2, 4, 8, 10)


def test_double_embed_rejects_large_entries():
    with pytest.raises(ValueError):
        double_embed((3,), 10)


# --- property_ii_oracle ---


def test_oracle_single_cell_holds():
    assert property_ii_oracle(ResidueSet.from_elements(2, (0,))).holds


def test_oracle_full_circle_fails_with_reduction_witness():
    verdict = property_ii_oracle(ResidueSet.from_elements(2, (0, 1)))
    assert not verdict.holds
    assert verdict.witness.as_tuple() == (0, 0, 1)
    assert (verdict.witness.a + verdict.witness.c - 2 * verdict.witness.b) % 2 == 1


def test_oracle_fixture_set_holds():
    assert property_ii_oracle(ResidueSet.from_elements(25, (2, 4, 8, 10))).holds


def test_oracle_translation_invariant():
    X = ResidueSet.from_elements(25, (2, 4, 8, 10))
    for shift in range(25):
        assert property_ii_oracle(X.translate(shift)).holds
    Y = ResidueSet.from_elements(10, (0, 1, 2))
    for shift in range(10):
        assert not property_ii_oracle(Y.translate(shift)).holds


@st.composite
def residue_sets(draw):
    """Dense sets in small moduli (mostly failing) and sparse ones in moduli up to 2^64 (mostly holding)."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(41, 2 ** 64)))
    elements = draw(st.sets(st.integers(0, m - 1), max_size=min(m, 14)))
    return ResidueSet.from_elements(m, elements)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(residue_sets())
@example(ResidueSet(1, ()))
@example(ResidueSet(1, (0,)))
@example(ResidueSet(2, (0,)))
@example(ResidueSet(2, (1,)))
@example(ResidueSet(2, (0, 1)))
@example(ResidueSet(25, (2, 4, 8, 10)))
@example(ResidueSet(25, (4, 8, 10, 24)))  # a translate that wraps: still holds
@example(ResidueSet(26, (0, 13)))  # 2b - a = 0 + 26: only the wrap finds (0, 13, 0)
@example(ResidueSet(2 ** 64, (0, 2 ** 63 - 1, 2 ** 64 - 2)))  # (2b - a - 1) mod m = 2^64 - 2 past int64
@example(max_property_ii(324))
def test_oracle_verdict_and_witness_match_the_cubic_search(X):
    verdict, triple = property_ii_oracle(X), property_ii_triples(X)
    assert verdict.holds == (triple is None)
    assert (verdict.witness and verdict.witness.as_tuple()) == triple


def test_oracle_refuses_an_oversize_set_before_visiting_a_triple(monkeypatch):
    # (0, 0, 1) spans, so a search that visited a single triple would return it as a witness
    monkeypatch.setattr(discrete_ap, "_ORACLE_MAX_TRIPLES", 26)
    with pytest.raises(ValueError, match=r"spanning search over 3\^3 triples refused, limit is 26 triples"):
        property_ii_oracle(ResidueSet.from_elements(10, (0, 1, 2)))
    assert property_ii_oracle(ResidueSet.from_elements(10, (0, 1))).witness.as_tuple() == (0, 0, 1)


def test_oracle_limit_is_512_elements():
    # a set of 512 is searched (its witness comes first), one of 513 is refused
    assert property_ii_oracle(ResidueSet.from_elements(1024, range(512))).witness.as_tuple() == (0, 0, 1)
    with pytest.raises(ValueError, match=f"513\\^3 triples refused, limit is {2 ** 27} triples"):
        property_ii_oracle(ResidueSet.from_elements(1024, range(513)))


def test_bruteforce_grid_refinement_is_stable():
    for m in range(1, 7):
        for subset in all_subsets(m):
            X = ResidueSet.from_elements(m, subset)
            assert (spanning_ap_bruteforce(X, grid=4) is None) == (
                spanning_ap_bruteforce(X, grid=8) is None
            ), (m, subset)


def test_bruteforce_witness_is_a_valid_progression():
    X = ResidueSet.from_elements(10, (0, 1, 2))
    x, y, z = spanning_ap_bruteforce(X)
    assert len({x, y, z}) == 3
    assert (x + z - 2 * y) % 1 == 0
    cells = {int(x * 10), int(y * 10), int(z * 10)}
    assert len(cells) > 1
    assert cells <= set(X.elements)


# --- max_property_ii ---


def test_max_property_ii_tiny_moduli_are_singletons():
    for m in (2, 3, 4, 5):
        got = max_property_ii(m)
        assert len(got) == 1
        assert got.method == "exhaustive"


def test_max_property_ii_ten():
    got = max_property_ii(10)
    assert len(got) >= 2
    assert got.elements == (0, 2)
    assert property_ii_oracle(got).holds


def test_max_property_ii_is_maximum_exhaustively():
    # independent maximum via scan over all subsets
    for m in range(2, 11):
        best = 0
        for subset in all_subsets(m):
            X = ResidueSet.from_elements(m, subset)
            if len(subset) > best and property_ii_oracle(X).holds:
                best = len(subset)
        assert len(max_property_ii(m)) == best, m


def test_max_property_ii_heuristic_route():
    got = max_property_ii(30)
    assert got.method == "heuristic"
    assert property_ii_oracle(got).holds


# --- ResidueSet plumbing ---


def test_residue_set_validation():
    with pytest.raises(ValueError):
        ResidueSet(10, (3, 1))
    with pytest.raises(ValueError):
        ResidueSet(10, (10,))
    with pytest.raises(ValueError):
        ResidueSet(0, ())


def test_witness_kinds_are_validated():
    assert ApWitness(1, 3, 5, "modular-AP", 7).as_tuple() == (1, 3, 5)
    assert ApWitness(0, 0, 1, "interval-spanning-AP", 2).as_tuple() == (0, 0, 1)
    with pytest.raises(ValueError, match="not a modular progression"):
        ApWitness(1, 2, 5, "modular-AP", 7)
    with pytest.raises(ValueError, match="not a spanning triple"):
        ApWitness(0, 3, 1, "interval-spanning-AP", 10)
    with pytest.raises(ValueError, match="unknown witness kind"):
        ApWitness(1, 2, 3, "integer-AP")


def test_canonical_translate_is_shift_invariant():
    X = ResidueSet.from_elements(12, (1, 5, 8))
    canon = X.canonical_translate()
    for shift in range(12):
        assert X.translate(shift).canonical_translate() == canon


def test_canonical_shift_is_first_minimizing_element():
    # {0, 4, 8} mod 12 is its own translate by 4 and 8: the first element wins
    for modulus, elements in ((12, (1, 5, 8)), (12, (0, 4, 8)), (10, (3, 4, 8, 9)), (7, (5,)), (5, ())):
        X = ResidueSet.from_elements(modulus, elements)
        translates = [X.translate(-e).elements for e in X.elements]
        expected = X.elements[translates.index(min(translates))] if translates else 0
        assert X.canonical_shift() == expected
        assert X.translate(-expected).elements == X.canonical_translate()


def test_behrend_sphere_raises_when_its_result_carries_a_progression(monkeypatch):
    monkeypatch.setattr(discrete_ap, "is_ap_free", lambda xs: False)
    with pytest.raises(RuntimeError):
        behrend_sphere(5)
