"""Exhaustive searches and the rational-point cross-check for `discrete_ap`.

The library answers `behrend_sphere(n)` for n <= 64 and `max_property_ii(m)`
for m <= 25 from literal tables.  The branch-and-bound searches here are
what those tables were computed with, and the tests re-derive table
entries from them.  `property_ii_triples` is `property_ii_oracle`'s
triple search done by brute force.  `spanning_ap_bruteforce` decides the
spanning question from concrete rational points, never from index
congruences, so it stays independent of `property_ii_oracle`.
"""

import functools
from fractions import Fraction
from itertools import combinations
from typing import List, Tuple

import cantorsalem as cs


@functools.cache
def max_ap_free_subset(n: int) -> Tuple[int, ...]:
    """Lexicographically smallest maximum-size AP-free subset of {1..n}.

    Depth-first search in increasing order, include-branch first, so the
    first set found at the final size is the lexicographically smallest.
    Suffix bound: AP-freeness is translation invariant, so any extension
    inside {v+1..n} has at most r(n - v) elements, with r read from the
    cached smaller instances (callers keep n <= 64, so recursion is shallow).
    """
    if n <= 0:
        return ()
    best: Tuple[int, ...] = ()
    chosen: List[int] = []
    cset: set = set()

    def extend(start: int):
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        for v in range(start, n + 1):
            if len(chosen) + 1 + len(max_ap_free_subset(n - v)) <= len(best):
                break  # later v have smaller suffixes
            ok = True
            for y in chosen:
                x = 2 * y - v
                if x in cset:
                    ok = False
                    break
            if ok:
                chosen.append(v)
                cset.add(v)
                extend(v + 1)
                chosen.pop()
                cset.remove(v)

    extend(1)
    return best


def max_property_ii_dfs(m: int) -> Tuple[int, ...]:
    """Lexicographically smallest largest subset of Z/mZ with no spanning progression.

    Exact DFS over residues in increasing order with the integer-reduction
    feasibility prune: a residue joins only if no triple through it has
    (a + c - 2b) mod m in {m-1, 0, 1}.
    """
    bad = (m - 1) % m, 0, 1
    best: Tuple[int, ...] = ()

    def ok_with(chosen: List[int], v: int) -> bool:
        u = chosen + [v]
        for a in u:
            for b in u:
                for x, y, z in ((a, b, v), (a, v, b), (v, a, b)):
                    if x == y == z:
                        continue
                    if (x + z - 2 * y) % m in bad:
                        return False
        return True

    chosen: List[int] = []

    def extend(start: int):
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        for v in range(start, m):
            if len(chosen) + (m - v) <= len(best):
                break
            if ok_with(chosen, v):
                chosen.append(v)
                extend(v + 1)
                chosen.pop()

    extend(0)
    return best


def property_ii_triples(X: cs.ResidueSet):
    """The library's spanning-triple reduction by brute force: the lexicographically
    smallest (a, b, c) in X^3, not all equal, with (a + c - 2b) mod m in {m-1, 0, 1},
    or None.  Every triple is visited, so its cost is |X|^3."""
    m = X.modulus
    bad = {(m - 1) % m, 0, 1 % m}
    for a in X.elements:
        for b in X.elements:
            for c in X.elements:
                if not a == b == c and (a + c - 2 * b) % m in bad:
                    return (a, b, c)
    return None


def spanning_ap_bruteforce(X: cs.ResidueSet, grid: int = 4):
    """Search exact rational points for a spanning progression; None if absent.

    Candidate points are the `grid` left-closed grid offsets of every cell,
    as exact Fractions.  A quarter grid (grid=4) is sufficient: for any
    feasible index triple the fractional parts can be chosen in
    {0, 1/4, 1/2, 3/4} with all points pairwise distinct.  Refining the grid
    must not change the verdict; callers cross-check with grid=8.
    """
    m = X.modulus
    pts = [Fraction(grid * j + i, grid * m) for j in X.elements for i in range(grid)]
    inset = set(pts)
    half = Fraction(1, 2)
    for x, z in combinations(pts, 2):
        mid = (x + z) / 2
        for y in (mid % 1, (mid + half) % 1):
            if y in inset and y != x and y != z:
                if not (int(x * m) == int(y * m) == int(z * m)):
                    return (x, y, z)
    return None
