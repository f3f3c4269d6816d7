"""Exact ball-mass computation and mass-regularity scans.

Every scan builds one integer lattice Z/D for its centers and radii, once,
with D a common multiple of Q_n and of every center and radius denominator,
so a level-n cell c covers [c w, (c + 1) w] with w = D/Q_n.  The support
then holds P_n w lattice units, and the mass of the ball (x - r, x + r) is
(F(x + r) - F(x - r)) / (P_n w), where F(y) counts the support units in
[0, y]: k w - max(0, (c_k + 1) w - y) for the k cells starting at or
before y, the last of them c_k.  Circle balls extend F periodically by
P_n w per turn; line balls clip y to [0, D].  One binary search per ball
end, over fixed-size row blocks of the (points x radii) matrix, evaluates
it in numpy int64 while D < 2^62 (so every |y| <= 2D fits) and over
Python ints beyond that.  Power-law comparisons mass <=> const * r**t with
rational t are settled exactly by `cantor_tree._cmp_pow`, once per radius
and side at that side's extreme mass, so the two-sided regularity verdicts
carry no floating-point uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cantor_tree import MAX_CELLS, MeasureTree, StepMeasure, _as_fraction, _cmp_pow, _int_dtype, level_intervals

_ONE = Fraction(1)
# (points x radii) entries per kernel call; bounds its temporaries
_BLOCK_ELEMS = 1 << 13
# a ball's two ends, x - r and x + r, along the kernel's first axis
_SIDES = np.array((-1, 1)).reshape(2, 1, 1)


def _frac_log(f: Fraction) -> float:
    # big-int safe: math.log on numerator and denominator separately
    return math.log(f.numerator) - math.log(f.denominator)


class _Lattice:
    """Level n on the lattice Z/d, d a multiple of Q_n, built once per scan.

    Points and radii enter the kernel as numerators over d; masses leave it over unit = P_n w, w = d/Q_n.
    """

    __slots__ = ("d", "q", "p", "w", "unit", "dtype", "offsets", "cells")

    def __init__(self, step: StepMeasure, d: int):
        self.d, self.q, self.p, self.w = d, step.Q, step.cell_count, d // step.Q
        self.unit = self.p * self.w
        offsets = step.offsets.astype(_int_dtype(2 * d), copy=False)  # every kernel value has |y| <= 2 d
        # cells[k] is the last of the first k cells; for k = 0 that is the last cell, one turn back
        self.cells = np.concatenate(((int(offsets[-1]) - step.Q,), offsets))
        self.dtype, self.offsets = self.cells.dtype, self.cells[1:]

    def numerators(self, fractions) -> List[int]:
        return [f.numerator * (self.d // f.denominator) for f in fractions]

    def point(self, x) -> Fraction:
        return Fraction(int(x), self.d)

    def mass(self, units) -> Fraction:
        return Fraction(int(units), self.unit)

    def masses(self, xs, rs, circle: bool) -> np.ndarray:
        """unit times the mass of ball (xs[i], rs[j]) at [i, j], for numerators 0 <= x < d and 0 < r <= d."""
        xs = np.asarray(xs, dtype=self.dtype)[:, None]
        ends = xs + _SIDES * np.asarray(rs, dtype=self.dtype)
        if not circle:
            ends = np.clip(ends, 0, self.d)
        # support units in [0, y] at both ball ends, P w more per full turn
        wraps, ends = ends // self.d, ends % self.d
        k = np.searchsorted(self.offsets, ends // self.w, side="right")
        units = (wraps * self.p + k) * self.w - np.maximum(0, (self.cells[k] + 1) * self.w - ends)
        # a ball at least a full turn wide holds the whole support
        return np.minimum(units[1] - units[0], self.unit)

    def cell_points(self):
        """Numerators of each cell's left end, midpoint and right end mod 1; 2Q must divide d."""
        return self.offsets * self.w, (2 * self.offsets + 1) * (self.w // 2), (self.offsets + 1) % self.q * self.w

    def column_extremes(self, points, radii, circle: bool, sign: int = 1, caps=None):
        """Per column of the (points x radii) mass matrix, the largest sign * mass and the first row reaching it.

        The one streaming pass over the kernel's row blocks.  With caps, sign * mass is clipped
        to them and the pass stops at the first block where a column reaches its cap.
        """
        rs = self.numerators(radii)
        best = at = 0
        for start, block in _row_blocks(points, len(rs)):
            block = sign * self.masses(block, rs, circle)
            block = block if caps is None else np.minimum(block, caps)
            top, first = block.max(axis=0), block.argmax(axis=0)
            gain = (top > best) | (start == 0)  # the first block sets every column
            best, at = np.where(gain, top, best), np.where(gain, first + start, at)
            if caps is not None and (best == caps).any():
                break
        return best, at


def _row_blocks(points, columns: int):
    """(start, points[start:start + rows]) for row blocks of at most _BLOCK_ELEMS (point x column) entries."""
    rows = max(1, _BLOCK_ELEMS // columns)
    return ((start, points[start:start + rows]) for start in range(0, len(points), rows))


def _fraction_axis(values, name: str) -> Tuple[List[Fraction], bool]:
    """A scalar or 1-D sequence as a list of Fractions, and whether it was a scalar."""
    try:
        ndim = np.ndim(values)
    except ValueError:  # a ragged nested sequence
        ndim = None
    if ndim not in (0, 1):
        raise ValueError(f"{name} must be a scalar or a 1-D sequence")
    return [_as_fraction(v) for v in (values if ndim else (values,))], ndim == 0


def ball_mass(tree: MeasureTree, n: int, x, r, circle: bool = True):
    """Exact level-n mass of the open ball (x - r, x + r), or of every ball (x[i], r[j]).

    With circle=True the ball wraps around 1; otherwise it is clipped to
    [0, 1].  x and r accept Fractions, ints, decimal floats, or "p/q"
    strings, each alone or as a 1-D sequence of them.  Two scalars give a
    Fraction.  Otherwise the result is an object ndarray of Fractions of
    shape (len(x), len(r)), a scalar counting as one element, computed on
    one lattice by one kernel call over the whole matrix.
    """
    xs, x_scalar = _fraction_axis(x, "x")
    rs, r_scalar = _fraction_axis(r, "r")
    if not all(0 <= v < 1 for v in xs):
        raise ValueError("x must lie in [0, 1)")
    if not all(0 < v <= 1 for v in rs):
        raise ValueError("r must lie in (0, 1]")
    step = level_intervals(tree, n)
    lattice = _Lattice(step, math.lcm(step.Q, *(v.denominator for v in xs + rs)))
    units = lattice.masses(lattice.numerators(xs), lattice.numerators(rs), circle)
    masses = np.frompyfunc(lattice.mass, 1, 1)(units)
    return masses[0, 0] if x_scalar and r_scalar else masses


def dyadic_radii(resolution_floor) -> Tuple[Fraction, ...]:
    """Radii 1, 1/2, 1/4, ... down to the resolution floor (inclusive)."""
    floor = _as_fraction(resolution_floor)
    if not 0 < floor <= 1:
        raise ValueError("resolution floor must lie in (0, 1]")
    radii: List[Fraction] = []
    r = _ONE
    while r >= floor:
        radii.append(r)
        r /= 2
    return tuple(radii)


@dataclass(frozen=True)
class RegularityReport:
    """Two-sided mass-regularity extremes over the scanned (x, r) grid.

    c_upper maximizes mass/r^t over cell endpoints, cell midpoints, and a
    stratified grid; c_lower minimizes it over cell midpoints, which are
    guaranteed support points.  For variant A trees the exact verdicts
    against the structural constants 2M+1 (upper) and 1/(M^t |X|) (lower)
    are recorded; `violation` names the first failed bound (upper first)
    with the first scanned (x, r) breaking it, and stays out of JSON.
    """

    t: Fraction
    radii: Tuple[Fraction, ...]
    c_upper: float
    c_lower: float
    upper_witness: Tuple[Fraction, Fraction]
    lower_witness: Tuple[Fraction, Fraction]
    variant: str
    upper_by_radius: Tuple[float, ...] = ()
    lower_by_radius: Tuple[float, ...] = ()
    reference_upper: Optional[float] = None
    reference_lower: Optional[float] = None
    upper_ok: Optional[bool] = None
    lower_ok: Optional[bool] = None
    violation: Optional[str] = field(default=None, metadata={"json": False})

    def __post_init__(self):
        if not self.c_lower > 0:
            raise ValueError("c_lower must be positive on nonempty support")
        if self.c_upper < self.c_lower:
            raise ValueError("c_upper must dominate c_lower")
        for seq in (self.upper_by_radius, self.lower_by_radius):
            if seq and len(seq) != len(self.radii):
                raise ValueError("per-radius curves must align with radii")


def _ratio_float(mass: Fraction, r: Fraction, t: Fraction) -> float:
    if mass == 0:
        return 0.0
    return math.exp(_frac_log(mass) - float(t) * _frac_log(r))


def _scan_ratios(
    lattice: _Lattice, points, radii: Sequence[Fraction], circle: bool, t: Fraction,
    fails: Callable[[Fraction, Fraction], bool], sign: int,
):
    """Extremes of sign * ratio over the (points x radii) ball matrix, each radius judged once.

    The ratio and fails(mass, r) are monotone in the mass at a fixed r, so each radius is
    judged at its largest sign * mass.  Returns the extreme ratio, its first ball (x, r) in
    x-major scan order, the per-radius extremes, and the first failing ball or None.
    """
    best, rows = lattice.column_extremes(points, radii, circle, sign)
    masses = [lattice.mass(sign * m) for m in best]
    by_radius = tuple(_ratio_float(m, r, t) for m, r in zip(masses, radii))
    j = min(range(len(radii)), key=lambda k: (-sign * by_radius[k], rows[k]))  # first radius on ties
    witness = lattice.point(points[rows[j]]), radii[j]
    failing = [k for k, r in enumerate(radii) if fails(masses[k], r)]
    if not failing:
        return by_radius[j], witness, by_radius, None
    caps = []
    for k in failing:  # the least failing sign * mass, by bisection over the lattice
        lo, hi = -lattice.unit if sign < 0 else 0, int(best[k])  # the mass at hi fails
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fails(lattice.mass(sign * mid), radii[k]) else (mid + 1, hi)
        caps.append(lo)
    # the first ball at or beyond a cap is the first failing ball of its radius
    reached, fail_rows = lattice.column_extremes(points, [radii[k] for k in failing], circle, sign, caps)
    i, k = min((int(i), k) for i, k, m, c in zip(fail_rows, failing, reached, caps) if m == c)
    return by_radius[j], witness, by_radius, (lattice.point(points[i]), radii[k])


def frostman_scan(
    tree: MeasureTree,
    n: int,
    t=None,
    radii: Optional[Sequence] = None,
    circle: bool = True,
    grid: int = 64,
) -> RegularityReport:
    """Scan mass/r^t extremes at level n over radii coarser than 1/Q_n * M_n.

    Radii below the resolution floor M_n/Q_n are rejected: beneath it the
    level-n step measure no longer brackets the limiting measure and the
    ratio is meaningless.  For variant A the structural bounds
    mass <= (2M+1) r^t (everywhere) and mass >= r^t / (M^t |X|) (at cell
    midpoints) are decided by exact rational comparison; the report records
    both verdicts and, in `violation`, the first bound that fails.  The
    grid adds `grid` evenly spaced upper-scan points, at most MAX_CELLS.
    """
    if n < 1:
        raise ValueError("scan needs level >= 1")
    sched = tree.schedule
    if t is None:
        t = sched.t
    if t is None:
        raise ValueError("t is required for schedules that do not carry one")
    t = _as_fraction(t)
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    step = level_intervals(tree, n)
    floor = Fraction(sched.M[n - 1], step.Q)
    if radii is None:
        radii = dyadic_radii(floor)
    radii = tuple(_as_fraction(r) for r in radii)
    for r in radii:
        if r < floor:
            raise ValueError(f"radius {r} below resolution floor {floor}")
        if r > 1:
            raise ValueError(f"radius {r} above 1")
    if not radii:
        raise ValueError("need at least one radius")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if grid > MAX_CELLS:
        raise ValueError(f"grid of {grid} points requested, limit is {MAX_CELLS}")

    lattice = _Lattice(step, math.lcm(2 * step.Q, 2 * grid, *(r.denominator for r in radii)))
    lefts, midpoints, rights = lattice.cell_points()
    grid_points = (2 * np.arange(grid).astype(lattice.dtype) + 1) * (lattice.d // (2 * grid))
    # deduplicated by a Python sort: np.unique's sort kernels add about 1 MB
    # of resident code to the process
    points = np.concatenate((lefts, midpoints, rights, grid_points)).tolist()
    upper_points = np.array(sorted(set(points)), dtype=lattice.dtype)

    variant_a = sched.variant == "A"
    m0 = sched.M[0]
    x_size = sched.L[0]
    upper_scale = Fraction(2 * m0 + 1)

    def fails_upper(mass, r):
        return variant_a and _cmp_pow(mass, r, t, upper_scale) > 0

    def fails_lower(mass, r):
        # mass >= r^t / (M^t |X|)  <=>  mass * |X| >= (r/M)^t
        return variant_a and _cmp_pow(mass * x_size, Fraction(r, m0), t) < 0

    c_upper, up_at, upper_by_radius, up_fail = _scan_ratios(lattice, upper_points, radii, circle, t, fails_upper, 1)
    c_lower, lo_at, lower_by_radius, lo_fail = _scan_ratios(lattice, midpoints, radii, circle, t, fails_lower, -1)
    violation = None
    if up_fail is not None:
        violation = "upper regularity constant exceeded 2M+1 at x={}, r={}".format(*up_fail)
    elif lo_fail is not None:
        violation = "lower regularity constant fell below 1/(M^t |X|) at x={}, r={}".format(*lo_fail)

    return RegularityReport(
        t=t,
        radii=radii,
        c_upper=c_upper,
        c_lower=c_lower,
        upper_witness=up_at,
        lower_witness=lo_at,
        variant=sched.variant,
        upper_by_radius=upper_by_radius,
        lower_by_radius=lower_by_radius,
        reference_upper=float(2 * m0 + 1) if variant_a else None,
        reference_lower=math.exp(-float(t) * math.log(m0)) / x_size if variant_a else None,
        upper_ok=up_fail is None if variant_a else None,
        lower_ok=lo_fail is None if variant_a else None,
        violation=violation,
    )


@dataclass(frozen=True)
class LevelMassCheck:
    """One level of the factorial-radius mass check."""

    level: int
    radius: Fraction
    max_mass: Fraction
    cell_bound: Fraction  # 2 / P_n
    within_bound: bool
    frostman_ratio: float  # max mass / r^(1 - 2 eps)


@dataclass(frozen=True)
class MassBandReport:
    epsilon: float
    checks: Tuple[LevelMassCheck, ...]
    all_within: bool
    trend_declining: bool


def variant_b_mass_check(
    tree: MeasureTree,
    levels: Optional[Iterable[int]] = None,
    epsilon: float = 0.2,
) -> MassBandReport:
    """Factorial-radius mass bound for the growing-base schedule.

    At level n the radius r = 1/(n+1)! satisfies 2r <= cell width once
    n >= 3, so a ball meets at most two cells and its mass is bounded by
    2/P_n exactly; the check scans cell endpoints and midpoints and
    compares in exact rationals.  The ratio max mass / r^(1 - 2 eps) is
    reported per level for trend reading; the bound 1 for it is asymptotic
    and small levels may exceed it without failing the check.
    """
    if tree.schedule.variant != "B":
        raise ValueError(f"variant mismatch: need a variant B tree, got {tree.schedule.variant!r}")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if levels is None:
        levels = range(4, tree.depth + 1)
    levels = sorted(set(int(n) for n in levels))
    if not levels:
        raise ValueError("no levels to check")
    for n in levels:
        if not 3 <= n <= tree.depth:
            raise ValueError(f"level {n} outside [3, depth={tree.depth}]")

    exponent = Fraction(1) - 2 * Fraction(str(epsilon))
    checks: List[LevelMassCheck] = []
    for n in levels:
        step = level_intervals(tree, n)
        r = Fraction(1, math.factorial(n + 1))
        lattice = _Lattice(step, math.lcm(2 * step.Q, r.denominator))
        top = lattice.column_extremes(np.concatenate(lattice.cell_points()), [r], True)[0][0]
        max_mass = lattice.mass(top)
        bound = Fraction(2, step.cell_count)
        checks.append(
            LevelMassCheck(
                level=n,
                radius=r,
                max_mass=max_mass,
                cell_bound=bound,
                within_bound=max_mass <= bound,
                frostman_ratio=_ratio_float(max_mass, r, exponent),
            )
        )
    ratios = [c.frostman_ratio for c in checks]
    return MassBandReport(
        epsilon=float(epsilon),
        checks=tuple(checks),
        all_within=all(c.within_bound for c in checks),
        trend_declining=ratios[-1] <= ratios[0] if len(ratios) > 1 else True,
    )
