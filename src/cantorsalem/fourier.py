"""Fourier analysis of Cantor-series step measures.

Sign convention: mu_hat(k) = integral of exp(-2 pi i k x) dmu(x).

For a level-n step measure with cells [c/Q, (c+1)/Q) of mass 1/P each and
S(k) = sum_c exp(-i pi k (2c+1) / Q),

    mu_hat(k) = S(k) sinc(pi k/Q) / P = S(r) sin(pi r/Q) / (P pi k/Q),  r = k mod Q,

since S and sin(pi k/Q) both change sign under k -> k + Q.  S is summed
over aligned windows r = bW + j of W = min(2^13, 2Q) residues.  With
W(2c+1) = 2Q m_c + rem_c exactly, rem_c in [-Q, Q), delta_c = rem_c / 2Q
rounded once, s = j/W - 1/2 and exact cell weights
w_c = exp(-i pi ((2b+1) rem_c mod 4Q) / 2Q),

    S(bW + j) = sum_{t < R} a_t s^t FFT_W(bincount(m_c mod W, w_c delta_c^t))[j],

a_t the monomials of the Chebyshev expansion J_0(pi/2) + 2 sum_{0<n<R}
(-i)^n J_n(pi/2) T_n(4u) of exp(-2 pi i u) on |u| = |s delta_c| <= 1/4:
rank R = 18 truncates by at most 2 sum_{n >= 18} |J_n(pi/2)| < 4.1e-18.
a_t, real for even t and imaginary for odd t, is folded into the cell
weights, so Horner costs two length-W operations per term.  When every
delta_c is 0 (always when 2Q <= 2^13, where W = 2Q) R is 1, a_0 = 1.0 and S
is an exact length-2Q DFT.  A batch costs R FFTs per distinct window, one
window alive at a time; no buffer grows with Q.  Contracts relied on:

  * every integer entering a trig argument (r, rem_c, the weight's
    residue) is reduced exactly before one float conversion, so phase
    error is independent of |k| and of the size of Q;
  * a value is a function of (level, k) alone, so batch and scalar calls
    agree bit for bit;
  * k and k + Q*l share one window sum and one sine, so
    (k + Ql) mu_hat(k + Ql) = k mu_hat(k) holds to rounding and mu_hat
    vanishes exactly at nonzero multiples of Q;
  * mu_hat(0) is exactly 1; where k/Q underflows, the sinc factor takes
    its limit sign(k); past |k/Q| = 2^1023 it is a signed 0.0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cantor_tree import MeasureTree, Schedule, StepMeasure, level_intervals

DEFAULT_K_CAP = 1 << 20

# frequencies are evaluated in aligned windows of this many residues mod Q
# (clipped to 2Q per level); each window costs _RANK length-W FFTs
_WINDOW = 1 << 13
# the Chebyshev monomials a_t of the module docstring, stored as a_t for even t and a_t / i for odd t
_COEFFS = (1.0, -6.283185307179586, -19.739208802178705, 41.34170224039975, 64.93939402266396, -81.60524927607172,
           -85.45681720598118, 76.70585975263434, 60.24464131319568, -42.05869391526577, -26.426254067893844,
           15.094641368684599, 7.90346251484126, -3.8199227975201033, -1.7132186347396439, 0.7176853699001249,
           0.27194674558121545, -0.10071467531221244)
_RANK = len(_COEFFS)

# most work a CLI call may ask of the kernel, counted as windows x (P + W log2 W) summed over its levels and runs
MAX_WORK = 1 << 25

_AT_ZERO_TOL = 1e-12
_HERMITIAN_TOL = 1e-12


def worker_count() -> int:
    """CPUs, at most 8.  Kept only for the benchmark's run record: the Fourier kernel is single-threaded."""
    return min(8, os.cpu_count() or 1)


def _window_size(Q: int) -> int:
    return min(_WINDOW, 2 * Q)


def check_work(tree: MeasureTree, levels: Sequence[int], ks: range, runs: int = 1) -> None:
    """Refuse, before any window is built, more than MAX_WORK of kernel work for the frequencies ks (step 1) at
    each of the levels, runs times over.  A level's windows, those holding some k mod Q, are counted from the
    ends of ks alone; a level outside the tree is left to level_intervals to report."""
    if not ks or not all(0 <= n <= tree.depth for n in levels):
        return
    work = 0
    for n in levels:
        Q, W = tree.schedule.Q(n), _window_size(tree.schedule.Q(n))
        a, b, last = ks[0] % Q, ks[-1] % Q, (Q - 1) // W  # residues a..b, wrapping past Q - 1 when a > b
        windows = last + 1 if len(ks) >= Q else min(last + 1, (last + 1) * (a > b) + b // W - a // W + 1)
        work += runs * windows * (tree.schedule.P(n) + W * (W - 1).bit_length())
    if work > MAX_WORK:
        raise ValueError(f"Fourier work of {work} (windows x (P + W log2 W)) requested, limit is {MAX_WORK}")


class _WindowedLevel:
    """Per-level kernel: cell sums S over windows of W residues (see the module docstring).

    The level's bins m_c mod W and offsets delta_c are built once; each
    window is built on demand and dropped after its frequencies are read.
    """

    def __init__(self, step: StepMeasure):
        Q = self.Q = step.Q
        self.P = step.cell_count
        self.W = W = _window_size(Q)
        splits = [divmod(W * (2 * c + 1) + Q, 2 * Q) for c in step.offsets.tolist()]  # shifted so rem_c >= -Q
        self.bins = np.array([m % W for m, _ in splits], dtype=np.intp)
        self.rems = [rem - Q for _, rem in splits]
        self.delta = np.array([rem / (2 * Q) for rem in self.rems], dtype=np.float64)
        self.rank = _RANK if any(self.rems) else 1  # every delta_c = 0: an exact DFT

    def window(self, b: int) -> np.ndarray:
        """S(bW + j) for 0 <= j < W, by Horner from the top term down."""
        two_q, four_q, W = 2 * self.Q, 4 * self.Q, self.W
        f = 2 * b + 1
        ang = np.pi * np.array([f * rem % four_q / two_q for rem in self.rems], dtype=np.float64)
        cos, sin = np.cos(ang), np.sin(ang)
        weights = (cos, -sin), (sin, cos)  # a_t w_c / _COEFFS[t] for even t (a_t real) and odd t (imaginary)
        s = np.arange(W) / W - 0.5
        term = np.empty(W, dtype=np.complex128)
        acc = None
        for t in reversed(range(self.rank)):
            scaled = _COEFFS[t] * self.delta ** t
            re, im = weights[t % 2]
            term.real = np.bincount(self.bins, re * scaled, W)
            term.imag = np.bincount(self.bins, im * scaled, W)
            if acc is None:
                acc = np.fft.fft(term)
                continue
            acc *= s
            acc += np.fft.fft(term)  # no out=: numpy < 2.0 has no in-place fft
        return acc

    def values(self, ks: np.ndarray) -> List[complex]:
        """mu_hat(k) = S(r) sin(pi r/Q) / (P pi k/Q) with r = k mod Q, for the frequencies of _freqs(ks, Q).

        S and sin(pi k/Q) both change sign under k -> k + Q, so the product
        is a function of r alone: aliased frequencies share one window sum.
        """
        Q, W = self.Q, self.W
        rs = ks % Q
        windows, ids, counts = np.unique(rs // W, return_inverse=True, return_counts=True)
        groups = np.split(np.argsort(ids, kind="stable"), np.cumsum(counts)[:-1])
        js = (rs % W).astype(np.intp)
        sums = np.empty(len(ks), dtype=np.complex128)
        for b, idx in zip(windows.tolist(), groups):  # one window alive at a time
            sums[idx] = self.window(b)[js[idx]]
        # sin(pi r/Q) = sin(pi (Q - r)/Q) keeps the argument in [0, pi/2]; r/Q and k/Q are correctly rounded
        num = np.sin(np.pi * (np.minimum(rs, Q - rs) / Q).astype(np.float64))
        # sinc limits: sign(k) where k/Q underflows (huge Q); past |k/Q| = 2^1023, pi k/Q is inf and the factor 0.0
        ratio = np.where(rs != 0, (np.clip(ks, -(Q << 1023), Q << 1023) / Q).astype(np.float64), 1.0)
        with np.errstate(over="ignore"):
            sums *= np.divide(num, np.multiply(np.pi, ratio), out=np.copysign(1.0, ratio), where=ratio != 0.0)
        sums /= self.P
        sums[ks == 0] = 1.0
        return sums.tolist()


def _freqs(k_set: Iterable[int], Q: int) -> np.ndarray:
    """The frequencies as one integer array: int64 while every |k| and Q are at most 2^53 (exact floats), else ints."""
    ks = tuple(k_set)
    try:
        arr = np.array(ks, dtype=np.int64)
    except OverflowError:  # some |k| >= 2^63
        return np.array([int(k) for k in ks], dtype=object)
    small = Q <= 1 << 53 and -(1 << 53) <= arr.min(initial=0) and arr.max(initial=0) <= 1 << 53
    return arr if small else arr.astype(object)


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
        by_k = dict(zip(self.ks, self.values))  # a repeated k keeps its last value
        object.__setattr__(self, "_by_k", by_k)
        v0 = by_k.get(0)
        if v0 is not None and abs(v0 - 1.0) > _AT_ZERO_TOL:
            raise ValueError(f"value at k = 0 is {v0}, expected 1")
        if min(by_k, default=0) < 0:  # only then can some k > 0 have its negation present
            for k in sorted(by_k.keys() & {-k for k in by_k if k < 0}):
                if abs(by_k[-k] - by_k[k].conjugate()) > _HERMITIAN_TOL:
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
    composition: every value is a function of the level and k alone.
    """
    step = level_intervals(tree, n)
    ks = _freqs(k_set, step.Q)
    return FourierCoeffs(n, tuple(ks.tolist()), tuple(_WindowedLevel(step).values(ks)))


def write_coeffs_csv(coeffs: FourierCoeffs, path: str) -> None:
    """CSV with header k,re,im,abs; rows in ascending frequency order."""
    rows = zip(coeffs.ks, coeffs.values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,re,im,abs\n")
        for k, v in rows if sorted(coeffs.ks) == list(coeffs.ks) else sorted(rows):
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
    k_top = max(coeffs._by_k, default=0)
    if k_top < 1:
        raise ValueError("no positive frequencies")
    band_lows: List[int] = []
    band_sups: List[float] = []
    # bands [2^b, 2^(b+1)) with k_min <= 2^b and 2^(b+1) - 1 <= k_top; a band is dropped at its first missing k
    for b in range((k_min - 1).bit_length(), (k_top + 1).bit_length() - 1):
        try:
            band_sups.append(max(map(abs, map(coeffs._by_k.__getitem__, range(1 << b, 2 << b)))))
        except KeyError:
            continue
        band_lows.append(1 << b)
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
    import mpmath as mp  # deferred, so that importing the package does not load it

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
    coarse, fine = (_WindowedLevel(step).values(_freqs(ks, step.Q)) for step in
                    (level_intervals(tree, n), level_intervals(tree, n + 1)))
    increments = tuple(abs(f - c) for f, c in zip(fine, coarse))
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
