"""Seeded hierarchical construction of Cantor-series step measures.

Level n splits [0, 1) into cells of width 1/(M_1...M_n) along the
mixed-radix (Cantor series) expansion.  A schedule fixes per-level bases
M_n and surviving-child counts L_n with 1 <= L_n <= M_n.  A measure tree
realizes, for every surviving node, a translation derived purely from
(seed, path); the node's children are the translated base residue set when
L_n > 1 and the bare singleton {translation} when L_n = 1.  The level-n
step measure puts mass 1/(L_1...L_n) on each of the P_n = L_1...L_n
surviving cells, so total mass is exactly one at every level.

A tree stores one row of translations per level, nodes in offset order.
Building, loading and the constructor share one level loop, `_realize`,
with a fixed number of array operations per level: `_children` gives
every node's sorted child digits once, folded into the cell offsets, and
the next row comes from the same digits (build folds them into splitmix64
states, the loader into path keys).  A realized tree's digits are read
back as its next level's offsets mod M.

All interval geometry is exact: offsets are big integers over the big
integer denominator Q_n = M_1...M_n, masses are Fractions.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .discrete_ap import ResidueSet, max_property_ii, property_ii_oracle

NodePath = Tuple[int, ...]

_MASK64 = (1 << 64) - 1
# largest base a 64-bit word draws from without bias: beyond it no word is accepted
_MAX_DRAW = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
# offsets and digit sums below this bound are held in int64, beyond it as Python ints
_INT64_BOUND = 1 << 63

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
            if not 0 < self.t < 1:
                raise ValueError("t must lie in (0, 1)")
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
    from mpmath import iv  # deferred, so that importing the package does not load it

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
    """Finalizer of the splitmix64 generator; bijective on 64-bit words, and word by word on a uint64 array."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _child_state(state: int, digit: int) -> int:
    """Splitmix64 state of a node's child, folded from the parent's state; also on broadcast uint64 arrays."""
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


def _draw_lanes(states: np.ndarray, M: int) -> np.ndarray:
    """_draw from every splitmix64 state of a uint64 array; only the lanes whose word is rejected draw again."""
    top = _MAX_DRAW - _MAX_DRAW % M - 1  # the largest accepted word
    states = states + _GOLDEN
    words = _mix64(states)
    lanes = np.flatnonzero(words > top)
    while len(lanes):
        states[lanes] += _GOLDEN
        words[lanes] = _mix64(states[lanes])
        lanes = lanes[words[lanes] > top]
    return words % M if M < _MAX_DRAW else words


def _int_dtype(bound: int):
    """Array dtype for integers of magnitude at most bound: int64 while bound < 2^63, else Python ints."""
    return np.int64 if bound < _INT64_BOUND else object


def _children(schedule: Schedule, level: int, row) -> np.ndarray:
    """Sorted child digits of every node of a level, one row per node: the base set translated by the node's
    translation mod M, or the translation alone on a single-child level.  Digit sums (below 2 M) and the
    children's offsets are held in int64 while they fit, else as Python ints."""
    dtype = _int_dtype(max(2 * schedule.M[level], schedule.Q(level + 1)))
    elements = schedule.base_sets[level].elements if schedule.L[level] > 1 else (0,)
    digits = np.array(elements, dtype=dtype)[None, :] + np.asarray(row, dtype=dtype)[:, None]
    digits %= schedule.M[level]
    digits.sort(axis=1)
    return digits


def _check_cells(schedule: Schedule, depth: int) -> None:
    """Refuse a tree of more than MAX_CELLS cells before any node is realised."""
    if schedule.P(depth) > MAX_CELLS:
        raise ValueError(f"depth {depth} realises {schedule.P(depth)} cells, limit is {MAX_CELLS}")


@dataclass(frozen=True, eq=False)
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
    translations: Tuple[np.ndarray, ...] = field(repr=False)  # read-only: int64 while M[j] <= 2^63, else Python ints
    levels: Tuple["StepMeasure", ...] = field(init=False, repr=False)

    def __post_init__(self):
        sched = self.schedule
        if not 0 <= self.depth <= sched.depth_limit:
            raise ValueError(f"depth {self.depth} exceeds schedule length {sched.depth_limit}")
        rows = [row if isinstance(row, np.ndarray) else np.array(row, dtype=object) for row in self.translations]
        if len(rows) != self.depth:
            raise ValueError(f"{len(rows)} translation rows for depth {self.depth}")
        _check_cells(sched, self.depth)
        for level, row in enumerate(rows):
            m = sched.M[level]
            if len(row) != sched.P(level):
                raise ValueError(f"level {level}: {len(row)} translations for {sched.P(level)} nodes")
            if row.dtype.kind not in "iu" and set(map(type, row)) != {int}:  # an object array keeps each value's type
                raise ValueError(f"level {level}: translations must be Python integers or an integer array")
            if not 0 <= int(row.min()) <= int(row.max()) < m:
                raise ValueError(f"level {level}: translation out of range [0, {m})")
            rows[level] = row.astype(_int_dtype(m - 1))
        # the fields of the tree these checked rows realize
        vars(self).update(vars(_realize(sched, self.seed, self.depth, lambda level, _: rows[level])))

    def __eq__(self, other):
        if not isinstance(other, MeasureTree):
            return NotImplemented
        same = (self.schedule, self.seed, self.depth) == (other.schedule, other.seed, other.depth)
        return same and all(map(np.array_equal, self.translations, other.translations))

    def is_realized(self, path: Sequence[int]) -> bool:
        if len(path) > self.depth:
            raise ValueError(f"path deeper than realized depth {self.depth}")
        c, _ = interval_of(path, self.schedule)
        offsets = self.levels[len(path)].offsets
        i = np.searchsorted(offsets, c)
        return bool(i < len(offsets) and offsets[i] == c)


def _realize(schedule: Schedule, seed: int, depth: int, next_row) -> MeasureTree:
    """The tree of checked rows, its depth and cell count checked too, realized past the constructor's validation,
    each level's child digits derived once: next_row(level, digits) gives a row of dtype _int_dtype(M - 1) from
    the digits of the level above (None at the root)."""
    offsets, digits = np.zeros(1, dtype=np.int64), None
    rows, levels = [], [StepMeasure(0, 1, offsets, Fraction(1))]
    for level in range(depth):
        rows.append(next_row(level, digits))
        rows[-1].setflags(write=False)
        digits = _children(schedule, level, rows[-1])
        offsets = (offsets.astype(digits.dtype, copy=False)[:, None] * schedule.M[level] + digits).ravel()
        levels.append(StepMeasure(level + 1, schedule.Q(level + 1), offsets, Fraction(1, schedule.P(level + 1))))
    tree = MeasureTree.__new__(MeasureTree)  # frozen: its fields are set past __setattr__
    vars(tree).update(schedule=schedule, seed=seed, depth=depth, translations=tuple(rows), levels=tuple(levels))
    return tree


def build_tree(schedule: Schedule, seed: int, depth: int) -> MeasureTree:
    """Realize translations for every node of levels 0..depth-1, drawing for all nodes of a level at once."""
    if not 0 <= depth <= schedule.depth_limit:
        raise ValueError(f"depth {depth} exceeds schedule length {schedule.depth_limit}")
    if max(schedule.M[:depth], default=1) > _MAX_DRAW:
        raise ValueError(f"base {max(schedule.M[:depth])} exceeds 2^64, the range of the translation draws")
    _check_cells(schedule, depth)
    states = np.array([_mix64(seed & _MASK64)], dtype=np.uint64)

    def draw(level: int, digits) -> np.ndarray:
        nonlocal states
        if level:  # each child's state folds its digit into its parent's
            states = _child_state(states[:, None], digits.astype(np.uint64)).ravel()
        return _draw_lanes(states, schedule.M[level]).astype(_int_dtype(schedule.M[level] - 1))

    return _realize(schedule, seed, depth, draw)


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


@dataclass(frozen=True, eq=False)
class StepMeasure:
    """Level-n step measure: equal mass on disjoint width-1/Q cells."""

    level: int
    Q: int
    offsets: np.ndarray  # strictly increasing numerators in [0, Q), read-only: int64 below Q = 2^63, Python ints beyond
    mass_per_cell: Fraction

    def __post_init__(self):
        array = self.offsets if isinstance(self.offsets, np.ndarray) else np.array(self.offsets, dtype=object)
        # strictly increasing from a first offset >= 0 to a last one < Q puts every offset in [0, Q)
        if len(array) and not (0 <= array[0] and array[-1] < self.Q and (array[1:] > array[:-1]).all()):
            bad = (array < 0) | (array >= self.Q)
            bad[1:] |= array[1:] <= array[:-1]
            first = array[bad.argmax()]  # the first offending offset names the fault
            raise ValueError("offsets must be strictly increasing" if 0 <= first < self.Q else "offset out of range")
        if len(array) * self.mass_per_cell != 1:
            raise ValueError("total mass must be exactly one")
        array = array.astype(_int_dtype(self.Q), copy=False)
        array.setflags(write=False)
        object.__setattr__(self, "offsets", array)

    @property
    def cell_count(self) -> int:
        return len(self.offsets)


def level_intervals(tree: MeasureTree, n: int) -> StepMeasure:
    """The P_n surviving cells of level n, sorted by offset; realized when the tree is."""
    if not 0 <= n <= tree.depth:
        raise ValueError(f"level {n} outside [0, {tree.depth}], the realized depth")
    return tree.levels[n]


def cell_mass(tree: MeasureTree, path: Sequence[int]) -> Fraction:
    """Exact mass of the path's cell: 1/P_n if surviving, else 0."""
    if tree.is_realized(path):
        return Fraction(1, tree.schedule.P(len(path)))
    return Fraction(0)


# --- persistence ---

_VERSION = 1
_SAVE_LINES = 1 << 14  # translation lines joined per write of a save, so that no save holds the whole text


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


def _child_keys(schedule: Schedule, level: int, keys: List[str], digits: np.ndarray) -> List[str]:
    """Children's path keys in offset order, from their digits (a row per node): digits joined by dots."""
    m, flat = schedule.M[level], digits.ravel().tolist()
    # str() per digit is several times slower than indexing a table, which pays once the digits outnumber M
    names = map([str(d) for d in range(m)].__getitem__, flat) if m <= len(flat) else map(str, flat)
    prefixes = [key + "." for key in keys] if level else [""]
    each = chain.from_iterable(zip(*[prefixes] * digits.shape[1]))  # every prefix once per child
    return list(map(operator.add, each, names))


def tree_to_dict(tree: MeasureTree) -> dict:
    sched, keys, translations = tree.schedule, [""], {}
    for level, (row, kids) in enumerate(zip(tree.translations, tree.levels[1:])):
        translations.update(zip(keys, row.tolist()))
        if level + 1 < tree.depth:  # children lie node by node in offset order, so offset mod M is the digit
            keys = _child_keys(sched, level, keys, kids.offsets.reshape(len(row), -1) % sched.M[level])
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
        "translations": translations,
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

    _check_cells(schedule, depth)
    keys = [""]

    def lookup(level: int, digits) -> np.ndarray:
        nonlocal keys
        m = schedule.M[level]
        if level:
            keys = _child_keys(schedule, level - 1, keys, digits)
        row = list(map(raw.get, keys))
        if set(map(type, row)) != {int} or not 0 <= min(row) <= max(row) < m:
            for key, ell in zip(keys, row):  # the first offending node in walk order names the fault
                if ell is None:
                    raise TreeLoadError(f"missing translation for node {key!r}")
                if type(ell) is not int:
                    raise TreeLoadError(f"translation at {key!r} must be an integer")
                if not 0 <= ell < m:
                    raise TreeLoadError(f"translation {ell} out of range [0, {m}) at {key!r}")
        return np.array(row, dtype=_int_dtype(m - 1))

    tree = _realize(schedule, seed, depth, lookup)
    # realized keys are canonical and distinct: with each found, the count rules out aliases and extras
    stray = len(raw) - sum(map(len, tree.translations))
    if stray:
        raise TreeLoadError(f"malformed path key or unrealized node: {stray} entries match no realized node")
    return tree


def save_tree(tree: MeasureTree, path: str) -> None:
    """Write the bytes of json.dump(tree_to_dict(tree), sort_keys=True, indent=2) and a newline: json.dumps
    writes all but the translations, whose sorted lines are joined by hand, _SAVE_LINES lines per write."""
    doc = tree_to_dict(tree)
    translations = doc["translations"]
    keys = sorted(translations)
    head, tail = (json.dumps(dict(doc, translations={}), sort_keys=True, indent=2) + "\n").split('"translations": {')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"translations": {')
        for start in range(0, len(keys), _SAVE_LINES):  # each line "\n    key: value", the lines joined by commas
            lines = [f'\n    "{key}": {translations[key]}' for key in keys[start:start + _SAVE_LINES]]
            fh.write(("," if start else "") + ",".join(lines))
        fh.write(("\n  " if keys else "") + tail)


def load_tree(path: str) -> MeasureTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, over-long integers, deep nesting
            raise TreeLoadError(f"not valid JSON: {exc}") from exc
    return tree_from_dict(doc)
