"""Independent checks of the program's outputs.

Nothing here imports cantorsalem: every check re-derives its answer from
the saved tree JSON with its own arithmetic, so a defect in the library
cannot also hide in the check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import mpmath as mp
import numpy as np


class TreeFacts:
    """Support cells of a saved tree, recomputed from its translations."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.depth: int = doc["depth"]
        self.M: List[int] = doc["M"]
        self.L: List[int] = doc["L"]
        bases = doc["base_sets"]
        trans: Dict[str, int] = doc["translations"]
        # level-by-level walk: (path key, cell numerator) per realized node
        self._levels: List[List[Tuple[str, int]]] = [[("", 0)]]
        for level in range(self.depth):
            m = self.M[level]
            nxt = []
            for key, c in self._levels[-1]:
                ell = trans[key]
                if self.L[level] == 1:
                    digits = [ell]
                else:
                    digits = sorted((x + ell) % m for x in bases[level]["elements"])
                for d in digits:
                    nxt.append((f"{key}.{d}" if key else str(d), c * m + d))
            self._levels.append(nxt)
        self.internal_nodes = sum(len(nodes) for nodes in self._levels[:-1])

    def Q(self, n: int) -> int:
        return math.prod(self.M[:n])

    def offsets(self, n: int) -> List[int]:
        return sorted(c for _, c in self._levels[n])


def mu_hat_mp(offsets: Sequence[int], Q: int, k: int) -> complex:
    """Closed form (1/P) sum_c exp(-i pi k (2c+1)/Q) sinc(pi k/Q) in mpmath."""
    if k == 0:
        return complex(1.0, 0.0)
    # exp(-i pi x) has period 2, so the phase is reduced mod 2Q exactly
    with mp.workdps(30):
        total = mp.fsum(mp.expjpi(-mp.mpf(k * (2 * c + 1) % (2 * Q)) / Q) for c in offsets)
        u = mp.mpf(k) / Q
        sinc = mp.sinpi(u) / (mp.pi * u)
        return complex(total * sinc / len(offsets))


def check_coeff_rows(csv_text: str, offsets: Sequence[int], Q: int, rows: Sequence[int], tol: float = 1e-12) -> List[str]:
    """Compare the chosen CSV data rows (0-based) with the mpmath closed form."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "k,re,im,abs":
        return ["coefficient CSV header is wrong"]
    errors = []
    for i in rows:
        k_s, re_s, im_s, _ = lines[1 + i].split(",")
        k = int(k_s)
        want = mu_hat_mp(offsets, Q, k)
        got = complex(float(re_s), float(im_s))
        if abs(got - want) > tol:
            errors.append(f"coefficient at k={k} is {got}, closed form gives {want}")
    return errors


def naive_ball_mass(offsets: Sequence[int], Q: int, x: Fraction, r: Fraction) -> Fraction:
    """Mass of the circle arc (x - r, x + r), summed cell by cell.

    Each surviving cell [c/Q, (c+1)/Q) carries mass 1/P spread uniformly;
    the arc covers the whole circle once 2r >= 1.  Lengths are exact
    integers over the common denominator D.
    """
    if 2 * r >= 1:
        return Fraction(1)
    D = math.lcm(Q, x.denominator, r.denominator)
    lo = x.numerator * (D // x.denominator) - r.numerator * (D // r.denominator)
    hi = lo + 2 * r.numerator * (D // r.denominator)
    w = D // Q
    covered = 0
    for c in offsets:
        for shift in (-D, 0, D):
            a = c * w + shift
            covered += max(0, min(hi, a + w) - max(lo, a))
    return Fraction(covered, w * len(offsets))


def realize_triple(triple: Sequence[int], Q: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Distinct points x, y, z in cells a, b, c with x + z = 2y (mod 1).

    Raises ValueError when no quarter-grid choice exists, which for a
    genuine spanning triple cannot happen.
    """
    a, b, c = triple
    quarters = range(4)
    for al in quarters:
        for be in quarters:
            for ga in quarters:
                X, Y, Z = 4 * a + al, 4 * b + be, 4 * c + ga
                if len({X, Y, Z}) == 3 and (X + Z - 2 * Y) % (4 * Q) == 0:
                    return Fraction(X, 4 * Q), Fraction(Y, 4 * Q), Fraction(Z, 4 * Q)
    raise ValueError(f"triple {tuple(triple)} has no progression through its cells")


def spanning_triples(offsets: Sequence[int], Q: int) -> set:
    """Every cell triple (a, b, c), a <= c, not all equal, with
    (a + c - 2b) mod Q in {Q-1, 0, 1}; one numpy row of pairs per a."""
    if Q >= 1 << 31:
        raise ValueError("int64 search needs Q < 2^31")
    offs = np.asarray(sorted(offsets), dtype=np.int64)
    found = set()

    def keep(a: int, cs: np.ndarray, bs: np.ndarray):
        i = np.searchsorted(offs, bs)
        hit = (i < len(offs)) & (offs[np.minimum(i, len(offs) - 1)] == bs)
        for b, c in zip(bs[hit].tolist(), cs[hit].tolist()):
            if not a == b == c:
                found.add((a, b, c))

    inv2 = pow(2, -1, Q) if Q % 2 else None
    for i, a in enumerate(offs.tolist()):
        cs = offs[i:]
        for delta in (-1, 0, 1):
            v = a + cs - delta
            if inv2 is not None:
                keep(a, cs, (v % Q) * inv2 % Q)
                continue
            even = v % 2 == 0
            b = (v[even] // 2) % Q
            keep(a, cs[even], b)
            keep(a, cs[even], (b + Q // 2) % Q)
    return found
