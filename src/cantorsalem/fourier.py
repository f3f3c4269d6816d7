"""Fourier analysis of Cantor-series step measures.

Sign convention: mu_hat(k) = integral of exp(-2 pi i k x) dmu(x).

For a level-n step measure with cells [c/Q, (c+1)/Q) of mass 1/P each,

    mu_hat(k) = (1/P) * sum_c exp(-i pi k (2c+1) / Q) * sinc(pi k / Q),

with sinc(u) = sin(u)/u.  Both trig arguments are reduced in exact integer
arithmetic before any float conversion: the phase integer k(2c+1) is
reduced mod 2Q and split as sign * residue with residue in [0, Q), and the
sinc numerator uses k mod Q with a parity sign.  Two consequences that the
diagnostics rely on:

  * phase error is independent of |k| and of the size of Q (Q can be a
    factorial-sized big integer and the phase stays accurate to an ulp);
  * aliased frequencies k and k + Q*l reuse bit-identical trig values, so
    the exact modulation identity (k + Ql) mu_hat(k + Ql) = k mu_hat(k)
    survives in floating point to machine precision, and mu_hat vanishes
    exactly at nonzero multiples of Q.

The integer k(2c+1) mod 2Q is formed by one of three routes, chosen by Q
alone: a direct int64 product when (2Q-1)^2 < 2^63, a Horner loop over
s-bit limbs of k mod 2Q with s = 62 - bits(2Q-1) >= 1 when 2Q <= 2^61, and
a per-cell big-integer reduction beyond that.  Frequencies are evaluated in
blocks of fixed shape (rows x cols, at most _BLOCK_ELEMS cells) and each
cell sum is a numpy row sum over that shape; the last block of a batch,
and a scalar call, are padded with k = 0 rows.  A coefficient therefore
never depends on the batch it was computed in.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .cantor_tree import MeasureTree, Schedule, StepMeasure, level_intervals

DEFAULT_K_CAP = 1 << 20

# cells per block: 64 KB per float64 or int64 temporary
_BLOCK_ELEMS = 1 << 13

_AT_ZERO_TOL = 1e-12
_HERMITIAN_TOL = 1e-12


def worker_count() -> int:
    """Worker cap from SALEM_THREADS; 0 or unset means automatic.

    Kept only for the benchmark's run record: the Fourier kernel is
    single-threaded and reads no worker count.
    """
    raw = os.environ.get("SALEM_THREADS", "0").strip()
    try:
        v = int(raw)
    except ValueError:
        raise ValueError(f"SALEM_THREADS must be an integer, got {raw!r}")
    if v < 0:
        raise ValueError("SALEM_THREADS must be >= 0")
    if v == 0:
        return min(8, os.cpu_count() or 1)
    return v


def _sinc_reduced(k: int, Q: int) -> float:
    """sin(pi k/Q) / (pi k/Q) with the numerator argument reduced mod Q.

    Exactly 0.0 at nonzero multiples of Q and exactly 1.0 at k = 0; for
    astronomically large Q the ratio underflows and the limit value 1.0 is
    returned.
    """
    if k == 0:
        return 1.0
    r = k % Q
    if r == 0:
        return 0.0
    ratio = k / Q  # big-int true division is correctly rounded
    if ratio == 0.0:
        return 1.0
    # symmetric remainder keeps the sine argument away from pi, where the
    # small result would carry a large relative error
    if 2 * r > Q:
        s = -math.sin(math.pi * ((r - Q) / Q))
    else:
        s = math.sin(math.pi * (r / Q))
    if (k // Q) & 1:
        s = -s
    return s / (math.pi * ratio)


def interval_ft(c: int, Q: int, k: int) -> complex:
    """Exact-phase transform of one cell: integral over [c/Q, (c+1)/Q).

    Value is (1/Q) exp(-2 pi i k (2c+1)/(2Q)) sinc(pi k/Q).  The phase
    integer k(2c+1) is reduced mod 2Q before float conversion.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if not 0 <= c < Q:
        raise ValueError(f"offset {c} outside [0, {Q})")
    u = (k * (2 * c + 1)) % (2 * Q)
    sign = 1.0
    if u >= Q:
        u -= Q
        sign = -1.0
    ang = math.pi * (u / Q)
    s = _sinc_reduced(k, Q)
    inv_q = 1 / Q
    return complex(sign * math.cos(ang) * s * inv_q, -sign * math.sin(ang) * s * inv_q)


class _LevelEvaluator:
    """Per-level kernel: mu_hat over fixed-shape (rows x cols) blocks.

    Row i of a block holds the cell terms of one frequency, over a run of
    cols consecutive cells; a level with more than _BLOCK_ELEMS cells is
    split into column chunks whose row sums are then added.  The block
    shape and the phase route are functions of the level alone, and short
    blocks are padded with k = 0 rows, so every frequency's sum sees the
    same shape and order wherever it sits in a batch.
    """

    def __init__(self, step: StepMeasure):
        self.Q = step.Q
        self.two_q = 2 * step.Q
        self.P = step.cell_count
        self.cols = min(self.P, _BLOCK_ELEMS)
        self.rows = _BLOCK_ELEMS // self.cols
        bits = (self.two_q - 1).bit_length()
        if (self.two_q - 1) ** 2 < 1 << 63:
            self.limb_bits, self.dtype = bits, np.int64  # one limb: a direct product
        elif bits < 62:
            self.limb_bits, self.dtype = 62 - bits, np.int64
        else:
            self.limb_bits, self.dtype = bits, object  # one big-integer product per cell
        self.shifts = tuple(range(0, bits, self.limb_bits))[::-1]
        cp1 = [2 * c + 1 for c in step.offsets]
        self.chunks = [np.array(cp1[lo:lo + self.cols], dtype=self.dtype) for lo in range(0, self.P, self.cols)]

    def values(self, ks: Sequence[int]) -> List[complex]:
        out: List[complex] = []
        rows = self.rows
        for lo in range(0, len(ks), rows):
            block = list(ks[lo:lo + rows])
            kms = [k % self.two_q for k in block] + [0] * (rows - len(block))
            re_sums = im_sums = 0.0
            for cp in self.chunks:
                neg, frac = self._phases(kms, cp)
                ang = np.multiply(np.pi, frac, out=frac)
                re = np.cos(ang)
                im = np.sin(ang, out=ang)
                np.negative(re, out=re, where=neg)
                np.negative(im, out=im, where=~neg)
                re_sums = re_sums + re.sum(axis=1)
                im_sums = im_sums + im.sum(axis=1)
            for k, sr, si in zip(block, re_sums.tolist(), im_sums.tolist()):
                if k == 0:
                    out.append(complex(1.0, 0.0))
                    continue
                sinc = _sinc_reduced(k, self.Q)
                out.append(complex((sr * sinc) / self.P, (si * sinc) / self.P))
        return out

    def _phases(self, kms: List[int], cp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sign mask and u/Q for u = k(2c+1) mod 2Q, split as sign * u, 0 <= u < Q."""
        km = np.array(kms, dtype=self.dtype)[:, None]
        mask = (1 << self.limb_bits) - 1
        u = None
        for shift in self.shifts:  # Horner over limbs: int64 partials stay below 2^63
            term = ((km >> shift) & mask) * cp
            u = term if u is None else (u << self.limb_bits) + term
            u %= self.two_q
        neg = u >= self.Q
        np.subtract(u, self.Q, out=u, where=neg)
        if self.dtype is object:
            return neg, (u / self.Q).astype(np.float64)  # big-int true division rounds correctly
        frac = u.astype(np.float64)
        frac /= float(self.Q)
        return neg, frac


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients of one level, keyed by integer frequency.

    Construction validates the two cheap exactness contracts: the value at
    k = 0 is 1 within 1e-12, and conjugate pairs are Hermitian within
    1e-12 whenever both frequencies are present.
    """

    level: int
    ks: Tuple[int, ...]
    values: Tuple[complex, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.values):
            raise ValueError("ks and values length mismatch")
        by_k = {}
        for k, v in zip(self.ks, self.values):
            by_k[k] = v
        object.__setattr__(self, "_by_k", by_k)
        v0 = by_k.get(0)
        if v0 is not None and abs(v0 - 1.0) > _AT_ZERO_TOL:
            raise ValueError(f"value at k = 0 is {v0}, expected 1")
        for k, v in by_k.items():
            if k > 0 and -k in by_k:
                if abs(by_k[-k] - v.conjugate()) > _HERMITIAN_TOL:
                    raise ValueError(f"Hermitian symmetry violated at k = {k}")

    def value(self, k: int) -> complex:
        return self._by_k[k]

    def __len__(self) -> int:
        return len(self.ks)


def mu_hat(tree: MeasureTree, n: int, k: int) -> complex:
    """Level-n coefficient at one frequency; delegates to the batch kernel."""
    return mu_hat_batch(tree, n, (k,)).values[0]


def mu_hat_batch(
    tree: MeasureTree,
    n: int,
    k_set: Iterable[int],
) -> FourierCoeffs:
    """Coefficients for every frequency in k_set, in the given order.

    Results equal per-frequency mu_hat calls bit for bit whatever the batch
    composition: every frequency is summed in a block of the same shape.
    """
    ks = [int(k) for k in k_set]
    values = _LevelEvaluator(level_intervals(tree, n)).values(ks)
    return FourierCoeffs(n, tuple(ks), tuple(values))


def write_coeffs_csv(coeffs: FourierCoeffs, path: str) -> None:
    """CSV with header k,re,im,abs; rows in ascending frequency order."""
    rows = sorted(zip(coeffs.ks, coeffs.values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,re,im,abs\n")
        for k, v in rows:
            fh.write(f"{k},{v.real!r},{v.imag!r},{abs(v)!r}\n")


@dataclass(frozen=True)
class DecayProfile:
    """Dyadic-band suprema with a fitted power-law envelope.

    sigma_hat = -2 * slope of the least-squares line through
    (log 2^b, log sup_b); C_hat = exp(intercept).  Bands whose sup is
    exactly zero are excluded from the fit and listed in excluded_bands.
    When every band sup is at most 1e-12 the fit is skipped and flat_zero
    is set.
    """

    k_min: int
    band_lows: Tuple[int, ...]
    band_sups: Tuple[float, ...]
    sigma_hat: Optional[float]
    C_hat: Optional[float]
    flat_zero: bool
    excluded_bands: Tuple[int, ...] = ()

    def __post_init__(self):
        if any(s < 0 for s in self.band_sups):
            raise ValueError("band sups must be non-negative")
        if len(self.band_lows) != len(self.band_sups):
            raise ValueError("band arrays length mismatch")


_FLAT_ZERO_TOL = 1e-12


def decay_profile(coeffs: FourierCoeffs, k_min: int = 1) -> DecayProfile:
    """Fit |value| against the dyadic-band envelope above k_min.

    A band [2^b, 2^(b+1)) participates only when every integer frequency
    in it is present (positive frequencies; the transform is Hermitian).
    Requires at least three complete bands.
    """
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    present = {k: abs(v) for k, v in zip(coeffs.ks, coeffs.values) if k > 0}
    if not present:
        raise ValueError("no positive frequencies")
    k_top = max(present)
    band_lows: List[int] = []
    band_sups: List[float] = []
    b = 0
    while (1 << b) <= k_top:
        lo, hi = 1 << b, 1 << (b + 1)
        b += 1
        if lo < k_min or hi - 1 > k_top:
            continue
        sup = -1.0
        complete = True
        for k in range(lo, hi):
            a = present.get(k)
            if a is None:
                complete = False
                break
            if a > sup:
                sup = a
        if complete:
            band_lows.append(lo)
            band_sups.append(sup)
    if len(band_lows) < 3:
        raise ValueError(f"need >= 3 complete dyadic bands above k_min, got {len(band_lows)}")

    if all(s <= _FLAT_ZERO_TOL for s in band_sups):
        return DecayProfile(k_min, tuple(band_lows), tuple(band_sups), None, None, True)

    excluded = tuple(lo for lo, s in zip(band_lows, band_sups) if s == 0.0)
    fit_pairs = [(lo, s) for lo, s in zip(band_lows, band_sups) if s > 0.0]
    if len(fit_pairs) < 2:
        raise ValueError("not enough nonzero bands to fit a line")
    xs = np.log([float(lo) for lo, _ in fit_pairs])
    ys = np.log([s for _, s in fit_pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    return DecayProfile(
        k_min,
        tuple(band_lows),
        tuple(band_sups),
        float(-2.0 * slope),
        float(math.exp(intercept)),
        False,
        excluded,
    )


def modulation_check(tree: MeasureTree, n: int, k: int, ell: int) -> float:
    """Relative defect of (k + Q l) mu_hat(k + Q l) = k mu_hat(k)."""
    if ell == 0:
        raise ValueError("ell must be nonzero")
    q = tree.schedule.Q(n)
    if not -q < k < q:
        raise ValueError(f"need |k| < Q_n = {q}")
    coeffs = mu_hat_batch(tree, n, (k, k + q * ell))
    base = k * coeffs.values[0]
    shifted = (k + q * ell) * coeffs.values[1]
    return abs(shifted - base) / max(1.0, abs(base))


def hoeffding_bound(kappa: float, R: float, J: int) -> float:
    """Tail bound 4 exp(-kappa^2 / (4 R^2 J)); may exceed 1 (vacuous)."""
    if kappa <= 0 or R <= 0:
        raise ValueError("kappa and R must be positive")
    if J < 1:
        raise ValueError("J must be >= 1")
    return 4.0 * math.exp(-(kappa * kappa) / (4.0 * R * R * J))


@dataclass(frozen=True)
class IncrementBound:
    """Theoretical per-frequency bound for the level n -> n+1 increment."""

    level: int
    sigma: float
    per_k: float
    union_proxy: float  # min(1, 2 Q_{n+1} * per_k)


def increment_bound(schedule: Schedule, n: int, sigma: float) -> IncrementBound:
    """Concentration bound 4 exp(-L^2 P Q^(-sigma) / (16 M^(2+sigma))).

    Here L and M belong to the refining level and P, Q to the coarse one.
    The exponent is evaluated in log space with 50-digit arithmetic since
    Q can be far beyond double-precision range.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not 0 <= n < schedule.depth_limit:
        raise ValueError(f"no transition at level {n}")
    L = schedule.L[n]
    M = schedule.M[n]
    P = schedule.P(n)
    Q = schedule.Q(n)
    q_next = schedule.Q(n + 1)
    with mp.workdps(50):
        s = mp.mpf(sigma)
        log_mag = 2 * mp.log(L) + mp.log(P) - s * mp.log(Q) - mp.log(16) - (2 + s) * mp.log(M)
        per_k = 4 * mp.exp(-mp.exp(log_mag))
        proxy = min(mp.mpf(1), 2 * mp.mpf(q_next) * per_k)
        return IncrementBound(n, float(sigma), float(per_k), float(proxy))


@dataclass(frozen=True)
class IncrementReport:
    """Observed martingale increments |mu_hat_{n+1}(k) - mu_hat_n(k)|.

    Only positive frequencies are evaluated; Hermitian symmetry makes the
    increment at -k identical, so scanned and exceedance counts are
    doubled to cover 0 < |k| < Q_{n+1}.
    """

    level: int
    sigma: float
    threshold: float  # Q_{n+1}^(-sigma/2)
    k_cap: int
    ks: Tuple[int, ...]
    increments: Tuple[float, ...]
    scanned: int
    exceedances: int
    max_increment: float
    bound: IncrementBound
    coverage: float

    def __post_init__(self):
        if self.exceedances > self.scanned:
            raise ValueError("exceedance count cannot exceed scanned count")


def increment_scan(
    tree: MeasureTree,
    n: int,
    sigma: float,
    k_cap: int = DEFAULT_K_CAP,
) -> IncrementReport:
    """Scan 0 < |k| < Q_{n+1} (capped) for increments above Q_{n+1}^(-sigma/2)."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if n + 1 > tree.depth:
        raise ValueError(f"need depth >= {n + 1}, have {tree.depth}")
    if k_cap < 1:
        raise ValueError("k_cap must be >= 1")
    q_next = tree.schedule.Q(n + 1)
    k_hi = min(q_next - 1, k_cap)
    ks = range(1, k_hi + 1)
    coarse = mu_hat_batch(tree, n, ks)
    fine = mu_hat_batch(tree, n + 1, ks)
    increments = tuple(abs(f - c) for f, c in zip(fine.values, coarse.values))
    threshold = math.exp(-0.5 * sigma * math.log(q_next)) if q_next > 1 else 1.0
    exceed = sum(1 for d in increments if d > threshold)
    cov = k_hi / (q_next - 1) if q_next > 1 else 1.0
    return IncrementReport(
        level=n,
        sigma=float(sigma),
        threshold=threshold,
        k_cap=k_cap,
        ks=tuple(ks),
        increments=increments,
        scanned=2 * k_hi,
        exceedances=2 * exceed,
        max_increment=max(increments, default=0.0),
        bound=increment_bound(tree.schedule, n, sigma),
        coverage=cov,
    )


def tail_envelope(schedule: Schedule, sigma: float, n1: int) -> float:
    """Telescoped tail envelope 4 Q_{n1}^(-sigma/2) for |k| >= Q_{n1}."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not 0 <= n1 <= schedule.depth_limit:
        raise ValueError(f"level {n1} outside schedule")
    q = schedule.Q(n1)
    if q == 1:
        return 4.0
    return 4.0 * math.exp(-0.5 * sigma * math.log(q))
