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
quarter-grid rationals (`tests/discrete_oracle.py` re-derives every verdict
on small moduli from exact rational points instead of trusting this
reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

_SPHERE_BASES = range(3, 41)
# behrend_sphere refuses a larger m': its shell scan visits 8.1M digit vectors at 10^6
_SPHERE_MAX_M_PRIME = 10 ** 6

# dft_uniformity refuses a larger |A| x (n - 1) phase matrix (16 bytes per entry)
_DFT_MAX_ENTRIES = 1 << 20
# property_ii_oracle refuses sets of more than 512 elements (2^27 index triples)
_ORACLE_MAX_TRIPLES = 1 << 27

# Exact results of two searches over fixed finite inputs, computed once by
# the branch-and-bound searches kept as oracles in tests/discrete_oracle.py.
# _MAX_AP_FREE[n], n = 0..64: the lexicographically smallest maximum-size
# AP-free subset of {1..n}, as a bitmask (bit v - 1 set iff v is in it).
_MAX_AP_FREE = (
    0x0, 0x1, 0x3, 0x3, 0xb, 0x1b, 0x1b, 0x1b, 0x1b, 0x18b, 0x21b, 0x61b, 0x61b, 0x161b, 0x361b, 0x361b, 0x361b,
    0x361b, 0x361b, 0x361b, 0xa6163, 0x11681b, 0x31221b, 0x31221b, 0xc68453, 0x160660b, 0x2c68453, 0x2c68453,
    0xa64058b, 0xa64058b, 0x2c68058d, 0x4a64058b, 0xca64058b, 0xca64058b, 0xca64058b, 0xca64058b, 0xca650118b,
    0xca650118b, 0x30d800361b, 0x30d800361b, 0xb0d800361b, 0x1b0d800361b, 0x1b0d800361b, 0x1b0d800361b,
    0x1b0d800361b, 0x1b0d800361b, 0x1b0d800361b, 0x1b0d800361b, 0x1b0d800361b, 0x1b0d800361b, 0x1b0d800361b,
    0x660b44001321b, 0xd031a1000361b, 0xd031a1000361b, 0x2d066040116833, 0x4ca06c1000b41b, 0xb40c6840011a1b,
    0xb40c6840011a1b, 0x22d066040116833, 0x22d066040116833, 0x22d066040116833, 0x22d066040116833,
    0x253091a00080cc1b, 0x50d08a6002868453, 0x50d08a6002868453,
)
# _MAX_PROPERTY_II[m - 2], m = 2..25: the lexicographically smallest largest
# subset of Z/mZ whose cells admit no spanning progression.
_MAX_PROPERTY_II = ((0,),) * 4 + ((0, 2),) * 8 + ((0, 2, 6),) * 4 + ((0, 2, 6, 8),) * 8


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
        if self.kind == "modular-AP":
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
    entries = len(A) * (n - 1)
    if entries > _DFT_MAX_ENTRIES:
        raise ValueError(f"{entries} DFT matrix entries requested, limit is {_DFT_MAX_ENTRIES}")
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
    """AP-free subset of {1..m_prime}; maximum-size (exact) for m_prime <= 64.

    Up to 64 the set is the lexicographically smallest maximum one, read
    from the exact table _MAX_AP_FREE.  Above it falls back to the
    digit-sphere construction, which stays within a constant power of the
    best possible density.  An m_prime above _SPHERE_MAX_M_PRIME raises
    ValueError before any enumeration.  The result is re-verified AP-free
    before returning.
    """
    if m_prime < 1:
        raise ValueError("need m_prime >= 1")
    if m_prime > _SPHERE_MAX_M_PRIME:
        raise ValueError(f"digit sphere over 1..{m_prime} requested, limit is {_SPHERE_MAX_M_PRIME}")
    if m_prime < len(_MAX_AP_FREE):
        mask = _MAX_AP_FREE[m_prime]
        result = tuple(v for v in range(1, m_prime + 1) if mask >> (v - 1) & 1)
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
    lexicographically smallest such triple.  |X| > 512 is refused first.
    """
    m = X.modulus
    els = X.elements
    if len(els) ** 3 > _ORACLE_MAX_TRIPLES:
        raise ValueError(f"spanning search over {len(els)}^3 triples refused, limit is {_ORACLE_MAX_TRIPLES} triples")
    # c solves (a + c - 2b) mod m in {m-1, 0, 1} iff c = 2b - a + delta (mod m), delta in {-1, 0, 1}: pairs in
    # lexicographic order, each taking its least such c in X, give the smallest triple; with one cell
    # (modulus 1) no triple leaves it, so the set holds vacuously
    members = set(els)
    for a in els:
        for b in els:
            t = 2 * b - a
            cs = [c for c in ((t - 1) % m, t % m, (t + 1) % m) if c in members and not a == b == c]
            if cs:
                return OracleVerdict(False, ApWitness(a, b, min(cs), "interval-spanning-AP", m))
    return OracleVerdict(True, None)


def max_property_ii(m: int) -> ResidueSet:
    """Largest subset of Z/mZ whose cells admit no spanning progression.

    For m <= 25: the lexicographically smallest maximum set, read from the
    exact table _MAX_PROPERTY_II and tagged method="exhaustive".  For
    larger m: doubling of the Behrend set of {1..floor(m/5)}, tagged
    method="heuristic".
    """
    if m < 2:
        raise ValueError("need modulus >= 2")
    if m - 2 < len(_MAX_PROPERTY_II):
        return ResidueSet(m, _MAX_PROPERTY_II[m - 2], method="exhaustive")
    X = double_embed(behrend_sphere(m // 5), m)
    return ResidueSet(m, X.elements, method="heuristic")
