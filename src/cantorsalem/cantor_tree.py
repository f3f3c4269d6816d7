"""Seeded hierarchical construction of Cantor-series step measures.

Level n splits [0, 1) into cells of width 1/(M_1...M_n) along the
mixed-radix (Cantor series) expansion.  A schedule fixes per-level bases
M_n and surviving-child counts L_n with 1 <= L_n <= M_n.  A measure tree
realizes, for every surviving node, a translation derived purely from
(seed, path); the node's children are the translated base residue set when
L_n > 1 and the bare singleton {translation} when L_n = 1.  The level-n
step measure puts mass 1/(L_1...L_n) on each of the P_n = L_1...L_n
surviving cells, so total mass is exactly one at every level.

A tree stores one row of translations per level, nodes in offset order;
building, loading, saving and the cell offsets all come from one walk
over the levels (`_expand`), which folds each node's path into its
splitmix64 state, its JSON key or its cell offset.

All interval geometry is exact: offsets are big integers over the big
integer denominator Q_n = M_1...M_n, masses are Fractions.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Sequence, Tuple

import numpy as np
from mpmath import iv

from .discrete_ap import ResidueSet, max_property_ii, property_ii_oracle

NodePath = Tuple[int, ...]

_MASK64 = (1 << 64) - 1
# largest base a 64-bit word draws from without bias: beyond it no word is accepted
_MAX_DRAW = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15

# exponent denominators up to this size are compared by exact cross-powering
_EXACT_POW_DENOM = 64
# larger denominators compare logarithms first; a difference within this
# fraction of the logarithms' total size goes to an exact tie test instead
_LOG_GUARD = 1e-12
# most cells a tree may realise at its depth; variant B at depth 20 has 1,327,104
MAX_CELLS = 1 << 21


class TreeLoadError(Exception):
    """Raised when a serialized tree violates the schema or its invariants."""


@dataclass(frozen=True)
class Schedule:
    """Per-level bases M, child counts L, and base residue sets.

    Sequences are 0-indexed: digit i of a path ranges over [0, M[i]) and a
    node with i digits has L[i] children.  base_sets[i] is the residue set
    translated at digit i; it is required (with modulus M[i] and size L[i])
    whenever L[i] > 1 and optional when L[i] == 1.
    """

    variant: str  # "A" | "B" | "custom"
    M: Tuple[int, ...]
    L: Tuple[int, ...]
    base_sets: Tuple[Optional[ResidueSet], ...]
    t: Optional[Fraction] = None

    def __post_init__(self):
        if self.variant not in ("A", "B", "custom"):
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "M", tuple(int(m) for m in self.M))
        object.__setattr__(self, "L", tuple(int(x) for x in self.L))
        object.__setattr__(self, "base_sets", tuple(self.base_sets))
        if not (len(self.M) == len(self.L) == len(self.base_sets)):
            raise ValueError("M, L, base_sets must have equal length")
        for i, (m, x, bs) in enumerate(zip(self.M, self.L, self.base_sets)):
            if m < 2:
                raise ValueError(f"level {i}: base must be >= 2")
            if not 1 <= x <= m:
                raise ValueError(f"level {i}: need 1 <= L <= M")
            if bs is not None:
                if bs.modulus != m:
                    raise ValueError(f"level {i}: base set modulus {bs.modulus} != {m}")
                if len(bs) != x:
                    raise ValueError(f"level {i}: |base set| = {len(bs)} != L = {x}")
            elif x > 1:
                raise ValueError(f"level {i}: L > 1 requires a base set")
        if self.variant == "A":
            if self.t is None:
                raise ValueError("variant A requires t")
            if not isinstance(self.t, Fraction):
                object.__setattr__(self, "t", _as_fraction(self.t))
            if self.M and any(m != self.M[0] for m in self.M):
                raise ValueError("variant A uses a constant base")
        else:
            if self.t is not None:
                raise ValueError("t is only meaningful for variant A")
        if self.variant == "B":
            for i, m in enumerate(self.M):
                if m != (2 if i == 0 else i + 1):
                    raise ValueError("variant B bases must be 2, 2, 3, 4, ...")

    @property
    def depth_limit(self) -> int:
        return len(self.M)

    def Q(self, n: int) -> int:
        """Resolution denominator M_1...M_n of level n."""
        if not 0 <= n <= len(self.M):
            raise ValueError(f"level {n} outside schedule")
        return math.prod(self.M[:n])

    def P(self, n: int) -> int:
        """Surviving cell count L_1...L_n of level n."""
        if not 0 <= n <= len(self.L):
            raise ValueError(f"level {n} outside schedule")
        return math.prod(self.L[:n])


def _as_fraction(t) -> Fraction:
    # str() round-trip keeps decimal literals exact (0.4 -> 2/5, not the
    # nearest binary double)
    if isinstance(t, Fraction):
        return t
    if isinstance(t, float):
        return Fraction(str(t))
    return Fraction(t)


def _exact_root(n: int, q: int) -> Optional[int]:
    """The integer r >= 0 with r**q == n, or None when n is no q-th power."""
    lo, hi = 0, 1 << -(-n.bit_length() // q)  # lo**q <= n < hi**q
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** q <= n else (lo, mid)
    return lo if lo ** q == n else None


def _cmp_pow(a, base, e: Fraction, scale=1) -> int:
    """Sign of a - scale * base**e for rationals a >= 0, base > 0, scale > 0.

    a, base and scale are ints or Fractions and e = p/q > 0 is rational.  Up
    to _EXACT_POW_DENOM exact integer cross-powering, a**q <=> scale**q *
    base**p, settles the sign.  Beyond it double-precision logarithms decide
    outside a guard band.  Inside it a tie needs base to be a perfect q-th
    power (gcd(p, q) = 1), which Fractions then settle exactly; otherwise the
    difference is nonzero and interval logarithms are refined until they
    exclude zero.  No verdict, ties included, is decided by rounding.
    """
    if a < 0 or base <= 0 or scale <= 0:
        raise ValueError("need a >= 0, base > 0, scale > 0")
    if a == 0:
        return -1
    q, p = e.denominator, e.numerator
    if q <= _EXACT_POW_DENOM:
        lhs = a.numerator ** q * scale.denominator ** q * base.denominator ** p
        rhs = scale.numerator ** q * base.numerator ** p * a.denominator ** q
        return (lhs > rhs) - (lhs < rhs)
    ef = float(e)
    logs = [math.log(v) for v in (a.numerator, a.denominator, scale.numerator, scale.denominator)]
    base_logs = [math.log(base.numerator), math.log(base.denominator)]
    diff = logs[0] - logs[1] - logs[2] + logs[3] - ef * (base_logs[0] - base_logs[1])
    if abs(diff) > _LOG_GUARD * (1.0 + sum(logs) + ef * sum(base_logs)):
        return 1 if diff > 0 else -1
    num, den = _exact_root(base.numerator, q), _exact_root(base.denominator, q)
    if num is not None and den is not None:  # the guard band bounds (num/den)**p by a/scale
        gap = a - scale * Fraction(num, den) ** p
        return (gap > 0) - (gap < 0)
    saved = iv.prec
    try:
        while True:
            iv.prec *= 2
            la, ls, lb = (iv.log(iv.mpf(v.numerator) / v.denominator) for v in (a, scale, base))
            gap = la - ls - iv.mpf(p) / q * lb
            if gap.a > 0 or gap.b < 0:
                return 1 if gap.a > 0 else -1
    finally:
        iv.prec = saved


def schedule_a(M: int, X: ResidueSet, t, n_max: int) -> Schedule:
    """Constant-base schedule keeping P_n within [M^(nt), |X| M^(nt)).

    Level 1 keeps all of X; afterwards level n+1 keeps X again while
    P_n < M^((n+1)t) and collapses to a single random child otherwise.
    Requires |X| > M^t strictly (else the recurrence degenerates) and that
    X carries the structural no-spanning-progression certificate.
    """
    t = _as_fraction(t)
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    if M < 2:
        raise ValueError("base must be >= 2")
    if X.modulus != M:
        raise ValueError("base set modulus must equal M")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if _cmp_pow(len(X), M, t) <= 0:
        raise ValueError(f"need |X| > M^t; got |X| = {len(X)}, M^t = {M}^{float(t)}")
    verdict = property_ii_oracle(X)
    if not verdict.holds:
        raise ValueError(f"base set admits a spanning progression, witness {verdict.witness.as_tuple()}")

    L: List[int] = [len(X)]
    P = len(X)
    for n in range(1, n_max):
        if _cmp_pow(P, M, (n + 1) * t) < 0:
            L.append(len(X))
            P *= len(X)
        else:
            L.append(1)
    P = 1
    for n in range(1, n_max + 1):
        P *= L[n - 1]
        if _cmp_pow(P, M, n * t) < 0:
            raise RuntimeError(f"lower envelope violated at level {n}")
        if _cmp_pow(P, M, n * t, scale=len(X)) >= 0:
            raise RuntimeError(f"upper envelope violated at level {n}")

    base_sets = tuple(X if x > 1 else None for x in L)
    return Schedule("A", (M,) * n_max, tuple(L), base_sets, t)


def schedule_b(n_max: int) -> Schedule:
    """Factorial-type schedule: bases 2, 2, 3, 4, ..., n_max.

    Each level keeps a maximum-size (exact below the search threshold,
    heuristic above) residue set free of spanning progressions; the child
    count is whatever size that search achieves.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    M = tuple(2 if i == 0 else i + 1 for i in range(n_max))
    base_sets = tuple(max_property_ii(m) for m in M)
    L = tuple(len(bs) for bs in base_sets)
    return Schedule("B", M, L, base_sets)


def custom_schedule(M: int, X: ResidueSet, n_max: int) -> Schedule:
    """Constant-base schedule keeping the translates of X at every level.

    No structural certificate is required; this is the entry point for
    negative controls and for uniform (full residue set) trees.
    """
    if X.modulus != M:
        raise ValueError("base set modulus must equal M")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return Schedule("custom", (M,) * n_max, (len(X),) * n_max, (X,) * n_max)


def _mix64(z: int) -> int:
    """Finalizer of the splitmix64 generator; bijective on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _child_state(state: int, digit: int) -> int:
    """Splitmix64 state of a node's child, folded from the parent's state."""
    return _mix64(state ^ ((digit + 1) * _GOLDEN & _MASK64))


def _draw(state: int, M: int) -> int:
    """Residue in [0, M), exactly uniform: rejection-sampled splitmix64 words from state; M <= 2^64."""
    limit = (1 << 64) - ((1 << 64) % M)
    while True:
        state = (state + _GOLDEN) & _MASK64
        word = _mix64(state)
        if word < limit:
            return word % M


def derive_translation(seed: int, path: Sequence[int], M: int) -> int:
    """Uniform draw from [0, M), a pure function of (seed, path, M).

    The path digits are folded into a splitmix64 state, one child at a
    time as `build_tree` does, and the draw is taken from the stream at
    that state.
    """
    if not 1 <= M <= _MAX_DRAW:
        raise ValueError(f"M must lie in [1, 2^64], got {M}")
    state = _mix64(seed & _MASK64)
    for d in path:
        state = _child_state(state, d)
    return _draw(state, M)


def derive_run_seed(master_seed: int, index: int) -> int:
    """Per-run seed for multi-seed experiments; pure and collision-mixed."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return _mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


def _expand(schedule: Schedule, depth: int, root, realize, fold):
    """Walk a tree level by level, nodes in offset order.

    Each node carries a value: `root` at level 0, and fold(parent value,
    digit, M[level]) for each child, children in ascending digit order.
    Yields (values, row) for levels 0..depth-1, where row = realize(level,
    M[level], values) holds the level's translations, then (values, None) for the
    leaves at level depth; a caller that takes only depth items never folds
    the leaves.  Child digits are computed once per (level, translation).
    A tree of more than MAX_CELLS cells is refused before any node.
    """
    if schedule.P(depth) > MAX_CELLS:
        raise ValueError(f"depth {depth} realises {schedule.P(depth)} cells, limit is {MAX_CELLS}")
    values = [root]
    for level in range(depth):
        m, base = schedule.M[level], schedule.base_sets[level]
        row = realize(level, m, values)
        yield values, row
        elements = base.elements if schedule.L[level] > 1 else (0,)  # one child: the digit is the translation
        digits = {ell: tuple(sorted((e + ell) % m for e in elements)) for ell in set(row)}
        values = [fold(v, d, m) for v, ell in zip(values, row) for d in digits[ell]]
    yield values, None


@dataclass(frozen=True)
class MeasureTree:
    """Realized random subtree: one translation per internal node.

    `translations[j][i]`, in [0, M[j]), is the translation of node i of
    level j, the nodes of a level numbered in offset order; node i's
    children are nodes i*L[j] ... (i+1)*L[j] - 1 of level j+1.  The
    constructor validates the rows and realizes every level's StepMeasure
    once, in `levels` (levels 0..depth), which is never serialized.
    """

    schedule: Schedule
    seed: int
    depth: int
    translations: Tuple[Tuple[int, ...], ...] = field(repr=False)
    levels: Tuple["StepMeasure", ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sched = self.schedule
        if not 0 <= self.depth <= sched.depth_limit:
            raise ValueError(f"depth {self.depth} exceeds schedule length {sched.depth_limit}")
        rows = tuple(tuple(row) for row in self.translations)
        if len(rows) != self.depth:
            raise ValueError(f"{len(rows)} translation rows for depth {self.depth}")
        for level, row in enumerate(rows):
            m = sched.M[level]
            if len(row) != sched.P(level):
                raise ValueError(f"level {level}: {len(row)} translations for {sched.P(level)} nodes")
            if not 0 <= min(row) <= max(row) < m:
                raise ValueError(f"level {level}: translation out of range [0, {m})")
        walk = _expand(sched, self.depth, 0, lambda level, m, _: rows[level], lambda o, d, m: o * m + d)
        levels = tuple(
            StepMeasure(n, sched.Q(n), tuple(offsets), Fraction(1, sched.P(n))) for n, (offsets, _) in enumerate(walk)
        )
        object.__setattr__(self, "translations", rows)
        object.__setattr__(self, "levels", levels)

    def is_realized(self, path: Sequence[int]) -> bool:
        if len(path) > self.depth:
            raise ValueError(f"path deeper than realized depth {self.depth}")
        c, _ = interval_of(path, self.schedule)
        offsets = self.levels[len(path)].offsets
        i = bisect_left(offsets, c)
        return i < len(offsets) and offsets[i] == c


def build_tree(schedule: Schedule, seed: int, depth: int) -> MeasureTree:
    """Realize translations for every node of levels 0..depth-1."""
    if not 0 <= depth <= schedule.depth_limit:
        raise ValueError(f"depth {depth} exceeds schedule length {schedule.depth_limit}")
    if max(schedule.M[:depth], default=1) > _MAX_DRAW:
        raise ValueError(f"base {max(schedule.M[:depth])} exceeds 2^64, the range of the translation draws")
    walk = _expand(
        schedule, depth, _mix64(seed & _MASK64),
        lambda level, m, states: [_draw(state, m) for state in states], lambda state, d, m: _child_state(state, d),
    )
    return MeasureTree(schedule, seed, depth, [row for _, row in islice(walk, depth)])


def interval_of(path: Sequence[int], schedule: Schedule) -> Tuple[int, int]:
    """Exact cell [c/Q, (c+1)/Q) of a path: returns (c, Q) as big integers."""
    path = tuple(path)
    if len(path) > schedule.depth_limit:
        raise ValueError("path longer than schedule")
    c = 0
    q = 1
    for i, d in enumerate(path):
        m = schedule.M[i]
        if not 0 <= d < m:
            raise ValueError(f"digit {d} out of range at position {i}")
        c = c * m + d
        q *= m
    return c, q


def _path_of(offset: int, n: int, schedule: Schedule) -> NodePath:
    """Digits of the level-n cell at the given offset; inverts interval_of."""
    digits = []
    for m in reversed(schedule.M[:n]):
        offset, d = divmod(offset, m)
        digits.append(d)
    return tuple(reversed(digits))


@dataclass(frozen=True)
class StepMeasure:
    """Level-n step measure: equal mass on disjoint width-1/Q cells."""

    level: int
    Q: int
    offsets: Tuple[int, ...]  # strictly increasing numerators in [0, Q)
    mass_per_cell: Fraction

    def __post_init__(self):
        prev = -1
        for c in self.offsets:
            if not 0 <= c < self.Q:
                raise ValueError("offset out of range")
            if c <= prev:
                raise ValueError("offsets must be strictly increasing")
            prev = c
        if len(self.offsets) * self.mass_per_cell != 1:
            raise ValueError("total mass must be exactly one")

    @property
    def cell_count(self) -> int:
        return len(self.offsets)

    @cached_property
    def offset_array(self) -> np.ndarray:
        """The offsets as a read-only int64 array, built on first use; needs Q <= 2^63."""
        array = np.array(self.offsets, dtype=np.int64)
        array.setflags(write=False)
        return array


def level_intervals(tree: MeasureTree, n: int) -> StepMeasure:
    """The P_n surviving cells of level n, sorted by offset; realized when the tree is."""
    if not 0 <= n <= tree.depth:
        raise ValueError(f"level {n} exceeds realized depth {tree.depth}")
    return tree.levels[n]


def cell_mass(tree: MeasureTree, path: Sequence[int]) -> Fraction:
    """Exact mass of the path's cell: 1/P_n if surviving, else 0."""
    if tree.is_realized(path):
        return Fraction(1, tree.schedule.P(len(path)))
    return Fraction(0)


# --- persistence ---

_VERSION = 1


def _t_to_json(t: Optional[Fraction]):
    if t is None:
        return None
    f = float(t)
    # decimal literals survive the float round-trip; anything else is kept
    # exact as a "p/q" string
    if Fraction(str(f)) == t:
        return f
    return f"{t.numerator}/{t.denominator}"


def _t_from_json(v) -> Optional[Fraction]:
    if v is None:
        return None
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or "1"))
    if isinstance(v, (int, float)):
        return Fraction(str(v))
    raise TreeLoadError(f"cannot parse t from {v!r}")


def _child_key(key: str, digit: int, m: int) -> str:
    """Path key of a node's child: digits joined by dots, "" at the root."""
    return f"{key}.{digit}" if key else str(digit)


def tree_to_dict(tree: MeasureTree) -> dict:
    sched, rows = tree.schedule, tree.translations
    walk = _expand(sched, tree.depth, "", lambda level, m, _: rows[level], _child_key)
    return {
        "version": _VERSION,
        "variant": sched.variant,
        "seed": tree.seed,
        "depth": tree.depth,
        "t": _t_to_json(sched.t),
        "M": list(sched.M),
        "L": list(sched.L),
        "base_sets": [
            None if bs is None else {"m": bs.modulus, "elements": list(bs.elements), "method": bs.method}
            for bs in sched.base_sets
        ],
        "translations": {key: ell for keys, row in islice(walk, tree.depth) for key, ell in zip(keys, row)},
    }


def tree_from_dict(doc: dict) -> MeasureTree:
    if not isinstance(doc, dict):
        raise TreeLoadError("tree document must be a JSON object")
    if doc.get("version") != _VERSION:
        raise TreeLoadError(f"unsupported version {doc.get('version')!r}")
    for key in ("variant", "seed", "depth", "M", "L", "base_sets"):
        if key not in doc:
            raise TreeLoadError(f"missing key {key!r}")
    try:
        numbers = [*doc["M"], *doc["L"]]
        numbers += [x for e in doc["base_sets"] if e is not None for x in (e["m"], *e["elements"])]
        if any(type(x) is not int for x in numbers):
            raise ValueError("M, L and base set moduli and elements must be integers")
        base_sets = tuple(
            None if e is None else ResidueSet(e["m"], tuple(e["elements"]), e.get("method")) for e in doc["base_sets"]
        )
        schedule = Schedule(doc["variant"], tuple(doc["M"]), tuple(doc["L"]), base_sets, _t_from_json(doc.get("t")))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise TreeLoadError(f"invalid schedule: {exc}") from exc
    seed = doc["seed"]
    depth = doc["depth"]
    if type(seed) is not int or type(depth) is not int:
        raise TreeLoadError("seed and depth must be integers")
    if not 0 <= depth <= schedule.depth_limit:
        raise TreeLoadError(f"depth {depth} exceeds schedule length {schedule.depth_limit}")

    if "translations" not in doc:
        return build_tree(schedule, seed, depth)

    raw = doc["translations"]
    if not isinstance(raw, dict):
        raise TreeLoadError("translations must be a map")

    def lookup(level, m, keys):
        row = []
        for key in keys:
            ell = raw.get(key)
            if ell is None:
                raise TreeLoadError(f"missing translation for node {key!r}")
            if type(ell) is not int:
                raise TreeLoadError(f"translation at {key!r} must be an integer")
            if not 0 <= ell < m:
                raise TreeLoadError(f"translation {ell} out of range [0, {m}) at {key!r}")
            row.append(ell)
        return row

    # realized keys are canonical and distinct: with each found, the count rules out aliases and extras
    rows = [row for _, row in islice(_expand(schedule, depth, "", lookup, _child_key), depth)]
    stray = len(raw) - sum(map(len, rows))
    if stray:
        raise TreeLoadError(f"malformed path key or unrealized node: {stray} entries match no realized node")
    return MeasureTree(schedule, seed, depth, rows)


def save_tree(tree: MeasureTree, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_tree(path: str) -> MeasureTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, over-long integers, deep nesting
            raise TreeLoadError(f"not valid JSON: {exc}") from exc
    return tree_from_dict(doc)
