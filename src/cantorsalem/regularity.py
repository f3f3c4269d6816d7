"""Exact ball-mass computation and mass-regularity scans.

Ball masses of level-n step measures are computed in exact rational
arithmetic: a ball (x - r, x + r) decomposes over the sorted cell offsets
into a run of fully covered cells (one binary search at each end) plus at
most two partially covered boundary cells.  Power-law comparisons
mass <=> const * r**t with rational t are settled exactly by
`cantor_tree._cmp_pow`, so the two-sided regularity verdicts carry no
floating-point uncertainty.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .cantor_tree import MeasureTree, StepMeasure, _as_fraction, _cmp_pow, level_intervals

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac_log(f: Fraction) -> float:
    # big-int safe: math.log on numerator and denominator separately
    return math.log(f.numerator) - math.log(f.denominator)


def _segment_mass(step: StepMeasure, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact mass of (lo, hi) within [0, 1]; endpoints carry no mass."""
    lo = max(lo, _ZERO)
    hi = min(hi, _ONE)
    if hi <= lo:
        return _ZERO
    q = step.Q
    offsets = step.offsets
    p = step.cell_count
    lo_q = lo * q
    hi_q = hi * q
    # cells [c, c+1] (in 1/Q units) fully inside [lo_q, hi_q]
    cl = math.ceil(lo_q)
    fl = math.floor(hi_q - 1)
    mass = Fraction(bisect_right(offsets, fl) - bisect_left(offsets, cl), p) if fl >= cl else _ZERO
    inv_p = Fraction(1, p)
    boundary = set()
    c_first = math.floor(lo_q)
    if c_first < cl:
        boundary.add(c_first)
    c_last = math.floor(hi_q)
    if c_last > fl:
        boundary.add(c_last)
    for c in boundary:
        i = bisect_left(offsets, c)
        if i < len(offsets) and offsets[i] == c:
            s = max(lo_q, Fraction(c))
            e = min(hi_q, Fraction(c + 1))
            if e > s:
                mass += (e - s) * inv_p
    return mass


def _ball_mass_step(step: StepMeasure, x: Fraction, r: Fraction, circle: bool) -> Fraction:
    lo = x - r
    hi = x + r
    if not circle:
        return _segment_mass(step, lo, hi)
    if 2 * r >= 1:
        return _ONE
    if lo < 0:
        return _segment_mass(step, lo + 1, _ONE) + _segment_mass(step, _ZERO, hi)
    if hi > 1:
        return _segment_mass(step, lo, _ONE) + _segment_mass(step, _ZERO, hi - 1)
    return _segment_mass(step, lo, hi)


def ball_mass(tree: MeasureTree, n: int, x, r, circle: bool = True) -> Fraction:
    """Exact level-n mass of the open ball (x - r, x + r).

    With circle=True the ball wraps around 1; otherwise it is clipped to
    [0, 1].  x and r accept Fractions, ints, decimal floats, or "p/q"
    strings.
    """
    x = _as_fraction(x)
    r = _as_fraction(r)
    if not 0 <= x < 1:
        raise ValueError("x must lie in [0, 1)")
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    return _ball_mass_step(level_intervals(tree, n), x, r, circle)


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
    both verdicts and, in `violation`, the first bound that fails.
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

    q = step.Q
    midpoints = [Fraction(2 * c + 1, 2 * q) for c in step.offsets]
    uppers = set(midpoints)
    for c in step.offsets:
        uppers.add(Fraction(c, q))
        uppers.add(Fraction((c + 1) % q, q))
    for i in range(grid):
        uppers.add(Fraction(2 * i + 1, 2 * grid))
    upper_points = sorted(uppers)

    variant_a = sched.variant == "A"
    m0 = sched.M[0]
    x_size = sched.L[0]
    upper_scale = Fraction(2 * m0 + 1)

    best_up = -1.0
    up_witness = (upper_points[0], radii[0])
    upper_ok = True
    upper_violation = None
    upper_by_radius = [-1.0] * len(radii)
    for x in upper_points:
        for j, r in enumerate(radii):
            mass = _ball_mass_step(step, x, r, circle)
            ratio = _ratio_float(mass, r, t)
            if ratio > upper_by_radius[j]:
                upper_by_radius[j] = ratio
            if ratio > best_up:
                best_up = ratio
                up_witness = (x, r)
            if variant_a and upper_ok and _cmp_pow(mass, r, t, upper_scale) > 0:
                upper_ok = False
                upper_violation = f"upper regularity constant exceeded 2M+1 at x={x}, r={r}"

    best_lo = math.inf
    lo_witness = (midpoints[0], radii[0])
    lower_ok = True
    lower_violation = None
    lower_by_radius = [math.inf] * len(radii)
    for x in midpoints:
        for j, r in enumerate(radii):
            mass = _ball_mass_step(step, x, r, circle)
            ratio = _ratio_float(mass, r, t)
            if ratio < lower_by_radius[j]:
                lower_by_radius[j] = ratio
            if ratio < best_lo:
                best_lo = ratio
                lo_witness = (x, r)
            # mass >= r^t / (M^t |X|)  <=>  mass * |X| >= (r/M)^t
            if variant_a and lower_ok and _cmp_pow(mass * x_size, Fraction(r, m0), t) < 0:
                lower_ok = False
                lower_violation = f"lower regularity constant fell below 1/(M^t |X|) at x={x}, r={r}"

    return RegularityReport(
        t=t,
        radii=radii,
        c_upper=best_up,
        c_lower=best_lo,
        upper_witness=up_witness,
        lower_witness=lo_witness,
        variant=sched.variant,
        upper_by_radius=tuple(upper_by_radius),
        lower_by_radius=tuple(lower_by_radius),
        reference_upper=float(2 * m0 + 1) if variant_a else None,
        reference_lower=math.exp(-float(t) * math.log(m0)) / x_size if variant_a else None,
        upper_ok=upper_ok if variant_a else None,
        lower_ok=lower_ok if variant_a else None,
        violation=upper_violation or lower_violation,
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
        q = step.Q
        xs = set()
        for c in step.offsets:
            xs.add(Fraction(c, q))
            xs.add(Fraction(2 * c + 1, 2 * q))
            xs.add(Fraction((c + 1) % q, q))
        max_mass = _ZERO
        for x in sorted(xs):
            mass = _ball_mass_step(step, x, r, circle=True)
            if mass > max_mass:
                max_mass = mass
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
