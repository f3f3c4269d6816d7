"""Per-cell exact-phase transform: the slow oracle for the windowed Fourier kernel.

Each cell's transform is evaluated on its own, with its phase reduced in
integers before one float conversion, so nothing here shares the kernel's
windows, expansion terms or FFTs.  The kernel's expansion coefficients are
derived here independently, in 50-digit arithmetic.
"""

import math

import mpmath as mp

CHEBYSHEV_DEGREE = 17


def chebyshev_monomials(degree: int = CHEBYSHEV_DEGREE):
    """Monomial coefficients a_t of J_0(pi/2) + 2 sum_{1 <= n <= degree} (-i)^n J_n(pi/2) T_n(4u), the
    Chebyshev expansion of exp(-2 pi i u) on |u| <= 1/4, as 50-digit mpmath complex numbers.

    T_n is expanded in integer monomials by T_{n+1} = 2y T_n - T_{n-1}.
    """
    polys = [[1], [0, 1]]
    while len(polys) <= degree:
        up = [0] + [2 * c for c in polys[-1]]
        polys.append([u - (polys[-2][i] if i < len(polys[-2]) else 0) for i, u in enumerate(up)])
    with mp.workdps(50):
        z = mp.pi / 2
        series = [mp.besselj(0, z)] + [2 * mp.mpc(0, -1) ** n * mp.besselj(n, z) for n in range(1, degree + 1)]
        return [+(4 ** t * mp.fsum(series[n] * polys[n][t] for n in range(t, degree + 1))) for t in range(degree + 1)]


def chebyshev_tail(degree: int = CHEBYSHEV_DEGREE):
    """2 sum_{n > degree} |J_n(pi/2)|, the truncation bound of chebyshev_monomials on |u| <= 1/4."""
    with mp.workdps(50):
        return 2 * mp.nsum(lambda n: abs(mp.besselj(n, mp.pi / 2)), [degree + 1, mp.inf])


def _sinc_reduced(k: int, Q: int) -> float:
    """sin(pi k/Q) / (pi k/Q) with the numerator argument reduced mod Q.

    Exactly 0.0 at nonzero multiples of Q and exactly 1.0 at k = 0; for
    astronomically large Q the ratio underflows and the limit value 1.0 is
    returned, and where k/Q overflows a float the value, below
    Q/(pi |k|) < 2e-309, is a signed 0.0.
    """
    if k == 0:
        return 1.0
    r = k % Q
    if r == 0:
        return 0.0
    try:
        ratio = k / Q  # big-int true division is correctly rounded
    except OverflowError:
        ratio = math.inf if k > 0 else -math.inf
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
