"""Per-cell exact-phase transform: the slow oracle for the windowed Fourier kernel.

Each cell's transform is evaluated on its own, with its phase reduced in
integers before one float conversion, so nothing here shares the kernel's
windows, Taylor terms or FFTs.
"""

import math


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
