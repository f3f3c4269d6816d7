"""Progression-free structure on Z/mZ.

Residue j in Z/mZ is identified with the circle cell [j/m, (j+1)/m).  The
central question for a set X of residues is whether the union of its cells
contains a nontrivial 3-term arithmetic progression (mod 1) that is not
confined to a single cell.  "Nontrivial" always means pairwise-distinct
points; a progression may still use the same cell twice.

Writing x = (a + alpha)/m, y = (b + beta)/m, z = (c + gamma)/m with
fractional parts alpha, beta, gamma in [0, 1), the relation x + z = 2y
(mod 1) forces a + c - 2b = -(alpha + gamma - 2*beta) (mod m), and the
right-hand side is an integer in (-2, 2).  Hence a spanning progression
exists iff some index triple (a, b, c) in X^3, not all equal, satisfies
(a + c - 2b) mod m in {m-1, 0, 1}; every such triple is realizable by
quarter-grid rationals (see `spanning_ap_bruteforce`, which re-derives the
answer from exact rational points instead of trusting this reduction).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, List, Optional, Tuple

import numpy as np

# Above these sizes the exhaustive searches hand over to the sphere
# construction / doubling heuristic.
EXHAUSTIVE_BEHREND_THRESHOLD = 64
EXHAUSTIVE_PROPERTY_II_THRESHOLD = 25

_SPHERE_BASES = range(3, 41)


@dataclass(frozen=True)
class ResidueSet:
    """Strictly increasing residues in [0, modulus).

    `method` records how a searched set was produced ("exhaustive" or
    "heuristic"); it is None for explicitly given sets.
    """

    modulus: int
    elements: Tuple[int, ...]
    method: Optional[str] = None

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "elements", tuple(int(e) for e in self.elements))
        prev = -1
        for e in self.elements:
            if not 0 <= e < self.modulus:
                raise ValueError(f"residue {e} out of range for modulus {self.modulus}")
            if e <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = e
        if self.method not in (None, "exhaustive", "heuristic"):
            raise ValueError(f"unknown method tag {self.method!r}")

    @classmethod
    def from_elements(cls, modulus: int, elements: Iterable[int], method: Optional[str] = None) -> "ResidueSet":
        return cls(modulus, tuple(sorted(set(int(e) for e in elements))), method)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def translate(self, shift: int) -> "ResidueSet":
        return ResidueSet(self.modulus, tuple(sorted((e + shift) % self.modulus for e in self.elements)))

    def canonical_shift(self) -> int:
        """First element e whose translate by -e is the canonical translate."""
        return min(self.elements, key=lambda e: self.translate(-e).elements, default=0)

    def canonical_translate(self) -> Tuple[int, ...]:
        """Lexicographically smallest translate; oracle verdicts only depend on it."""
        return self.translate(-self.canonical_shift()).elements


@dataclass(frozen=True)
class ApWitness:
    """A 3-term progression witness.

    kind "integer-AP": a + c = 2b in the integers.
    kind "modular-AP": a + c = 2b (mod modulus), pairwise distinct residues.
    kind "interval-spanning-AP": index triple, not all equal, with
    (a + c - 2b) mod modulus in {modulus-1, 0, 1}.
    """

    a: int
    b: int
    c: int
    kind: str
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind == "integer-AP":
            if self.a + self.c != 2 * self.b:
                raise ValueError("not an integer progression")
        elif self.kind == "modular-AP":
            if self.modulus is None or (self.a + self.c - 2 * self.b) % self.modulus != 0:
                raise ValueError("not a modular progression")
            if len({self.a, self.b, self.c}) != 3:
                raise ValueError("modular witness must be pairwise distinct")
        elif self.kind == "interval-spanning-AP":
            if self.modulus is None:
                raise ValueError("spanning witness needs a modulus")
            d = (self.a + self.c - 2 * self.b) % self.modulus
            if d not in (self.modulus - 1, 0, 1):
                raise ValueError("not a spanning triple")
            if self.a == self.b == self.c:
                raise ValueError("spanning witness must not be a single cell")
        else:
            raise ValueError(f"unknown witness kind {self.kind!r}")

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class OracleVerdict:
    holds: bool
    witness: Optional[ApWitness] = None


@dataclass(frozen=True)
class UniformityReport:
    max_coeff: float
    threshold: float
    condition_holds: bool
    ap: Optional[ApWitness]


def is_ap_free(xs: Iterable[int]) -> bool:
    """True iff no x < y < z in xs satisfy x + z = 2y (plain integers)."""
    s = sorted(set(int(x) for x in xs))
    sset = set(s)
    for i, x in enumerate(s):
        for z in s[i + 1:]:
            if (x + z) % 2 == 0 and (x + z) // 2 in sset:
                return False
    return True


def find_3ap_mod(A: ResidueSet) -> Optional[ApWitness]:
    """Lexicographically smallest pairwise-distinct (a, b, c) with a + c = 2b mod n."""
    n = A.modulus
    s = set(A.elements)
    for a in A.elements:
        for b in A.elements:
            if b == a:
                continue
            c = (2 * b - a) % n
            if c != a and c != b and c in s:
                return ApWitness(a, b, c, "modular-AP", n)
    return None


def dft_uniformity(A: ResidueSet) -> Tuple[float, float]:
    """Largest nonzero normalized Fourier coefficient of the indicator of A.

    Returns (max over 0 < k < n of |(1/n) sum_a exp(-2 pi i a k / n)|,
    |A|^2/n^2 - 1/n).  Whenever the first value is strictly below the second,
    a counting argument forces a pairwise-distinct modular progression in A.
    """
    n = A.modulus
    if n < 2:
        raise ValueError("uniformity needs modulus >= 2")
    if not A.elements:
        return 0.0, len(A) ** 2 / n ** 2 - 1.0 / n
    a = np.asarray(A.elements, dtype=np.float64)
    k = np.arange(1, n, dtype=np.float64)
    phases = np.exp(-2j * np.pi * np.outer(a, k) / n)
    max_coeff = float(np.max(np.abs(phases.sum(axis=0))) / n)
    threshold = len(A) ** 2 / n ** 2 - 1.0 / n
    return max_coeff, threshold


def uniformity_demo(A: ResidueSet) -> UniformityReport:
    """Evaluate the uniformity condition and search for the progression it predicts."""
    max_coeff, threshold = dft_uniformity(A)
    condition = max_coeff < threshold
    return UniformityReport(max_coeff, threshold, condition, find_3ap_mod(A))


# --- maximum AP-free subsets of {1..n}, exact branch and bound ---


@functools.cache
def _max_ap_free_subset(n: int) -> Tuple[int, ...]:
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
            if len(chosen) + 1 + len(_max_ap_free_subset(n - v)) <= len(best):
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


def _best_sphere_shell(m_prime: int) -> Tuple[int, ...]:
    """Largest digit-sphere shell inside {1..m_prime}.

    Digits x_i < d/2 make x + z = 2y carry-free in base d, so on a shell of
    fixed sum of squared digits the parallelogram identity forces x = z.
    Scans bases d in 3..40 with digit counts up to floor(log_d m') + 1 and
    keeps the first largest shell (d, digit count, radius ascending).
    """
    best: Tuple[int, ...] = (1,)
    for d in _SPHERE_BASES:
        h = (d + 1) // 2  # digits 0..h-1 satisfy x_i + z_i < d
        max_digits = 1
        while d ** max_digits <= m_prime:
            max_digits += 1
        for ndig in range(2, max_digits + 1):
            shells: dict = {}
            powers = [d ** i for i in range(ndig)]
            stack = [(0, 0, 0)]  # (digit index, value, radius)
            while stack:
                i, v, rad = stack.pop()
                if i == ndig:
                    if 1 <= v <= m_prime:
                        shells.setdefault(rad, []).append(v)
                    continue
                for x in range(h - 1, -1, -1):
                    stack.append((i + 1, v + x * powers[i], rad + x * x))
            for rad in sorted(shells):
                sh = shells[rad]
                if len(sh) > len(best):
                    best = tuple(sorted(sh))
    return best


def behrend_sphere(m_prime: int) -> Tuple[int, ...]:
    """AP-free subset of {1..m_prime}, maximum-size (exact) up to EXHAUSTIVE_BEHREND_THRESHOLD.

    Above it falls back to the digit-sphere construction, which stays
    within a constant power of the best possible density.  The result is
    re-verified AP-free before returning.
    """
    if m_prime < 1:
        raise ValueError("need m_prime >= 1")
    if m_prime <= EXHAUSTIVE_BEHREND_THRESHOLD:
        result = _max_ap_free_subset(m_prime)
    else:
        result = _best_sphere_shell(m_prime)
    if not is_ap_free(result):
        raise RuntimeError(f"behrend_sphere({m_prime}) produced a set carrying a progression")
    return result


def double_embed(x_prime: Iterable[int], m: int) -> ResidueSet:
    """Embed X' as {2x mod m}.

    Requires every element of X' to lie in {1..floor(m/5)}: the factor-5
    slack keeps |a + c - 2b| < m for all index triples of the image, so with
    all elements even only the exact-integer progression case survives, and
    that one is killed by AP-freeness of X'.
    """
    xs = sorted(set(int(x) for x in x_prime))
    if not xs:
        raise ValueError("empty base set")
    bound = m // 5
    if xs[0] < 1 or xs[-1] > bound:
        raise ValueError(f"elements must lie in 1..{bound} (= floor(m/5))")
    return ResidueSet(m, tuple(sorted((2 * x) % m for x in xs)))


def property_ii_oracle(X: ResidueSet) -> OracleVerdict:
    """Decide whether the cells of X admit a spanning progression (mod 1).

    Exact integer reduction: holds (no spanning progression) iff no triple
    (a, b, c) in X^3, not all equal, has (a + c - 2b) mod m in {m-1, 0, 1}.
    Verdicts are translation invariant.  The witness, when present, is the
    lexicographically smallest such triple.
    """
    m = X.modulus
    els = X.elements
    # with one cell no triple can leave it, so modulus 1 holds vacuously
    bad = {(m - 1) % m, 0, 1 % m}
    for a in els:
        for b in els:
            for c in els:
                if a == b == c:
                    continue
                if (a + c - 2 * b) % m in bad:
                    return OracleVerdict(False, ApWitness(a, b, c, "interval-spanning-AP", m))
    return OracleVerdict(True, None)


def spanning_ap_bruteforce(X: ResidueSet, grid: int = 4):
    """Search exact rational points for a spanning progression; None if absent.

    Candidate points are the `grid` left-closed grid offsets of every cell,
    as exact Fractions.  A quarter grid (grid=4) is sufficient: for any
    feasible index triple the fractional parts can be chosen in
    {0, 1/4, 1/2, 3/4} with all points pairwise distinct.  Refining the grid
    must not change the verdict; callers cross-check with grid=8.

    This is the independent route against `property_ii_oracle`: it never
    inspects index congruences, only concrete rational triples.
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


def max_property_ii(m: int) -> ResidueSet:
    """Largest subset of Z/mZ whose cells admit no spanning progression.

    For m <= EXHAUSTIVE_PROPERTY_II_THRESHOLD: exact DFS over residues in
    increasing order with the integer-reduction feasibility prune; ties
    broken to the lexicographically smallest maximum set.  For larger m:
    doubling of the Behrend set of {1..floor(m/5)}, tagged
    method="heuristic".
    """
    if m < 2:
        raise ValueError("need modulus >= 2")
    if m > EXHAUSTIVE_PROPERTY_II_THRESHOLD:
        X = double_embed(behrend_sphere(m // 5), m)
        return ResidueSet(m, X.elements, method="heuristic")

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
    return ResidueSet(m, best, method="exhaustive")
