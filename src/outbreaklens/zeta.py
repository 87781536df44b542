"""The Hurwitz zeta function, which normalizes the discrete power law,
and its first two derivatives in s, which give the power-law score and
Fisher information."""

from __future__ import annotations

import math

# B_{2m} for m = 1..10; enough Euler-Maclaurin pairs to push the
# truncation error of the zeta tail well below 1e-13 once the head
# covers a + k >= ~15.
_BERNOULLI_2M = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)
# B_{2m} / (2m)!, the Euler-Maclaurin correction coefficients
_EM_COEFFICIENTS = tuple(b2m / math.factorial(2 * m)
                         for m, b2m in enumerate(_BERNOULLI_2M, start=1))


def _zeta_core(s: float, a: float, order: int) -> tuple[float, float, float]:
    """zeta(s, a) and its first/second s-derivatives by head summation
    plus an Euler-Maclaurin tail starting at x = a + N.

    Derivative terms follow from differentiating each tail component in
    s: the integral x^(1-s)/(s-1), the half term x^(-s)/2, and the
    Bernoulli corrections c_m * P_m(s) * x^-(s+2m-1) with
    P_m(s) = prod(s+i, i=0..2m-2).
    """
    if not s > 1.0:
        raise ValueError(f"hurwitz_zeta requires s > 1, got {s!r}")
    if not a > 0.0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got {a!r}")

    target = max(15.0, 1.5 * s)
    head_terms = max(0, math.ceil(target - a))

    h0 = h1 = h2 = 0.0
    if order == 0:
        for k in range(head_terms):
            h0 += (a + k) ** (-s)
    else:
        for k in range(head_terms):
            base = a + k
            term = base ** (-s)
            lnb = math.log(base)
            h0 += term
            h1 += lnb * term
            h2 += lnb * lnb * term

    x = a + head_terms
    u = math.log(x)
    xs = x ** (-s)
    g = 1.0 / (s - 1.0)

    z0 = h0 + x * xs * g + 0.5 * xs
    z1 = z2 = 0.0
    if order >= 1:
        z1 = -h1 - x * xs * (u * g + g * g) - 0.5 * u * xs
    if order >= 2:
        z2 = h2 + x * xs * (u * u * g + 2.0 * u * g * g + 2.0 * g ** 3) \
            + 0.5 * u * u * xs

    p = 1.0          # prod(s+i)
    q1 = q2 = 0.0    # sum 1/(s+i), sum 1/(s+i)^2
    next_i = 0       # p currently covers i < next_i
    for m, c in enumerate(_EM_COEFFICIENTS, start=1):
        while next_i <= 2 * m - 2:
            p *= s + next_i
            q1 += 1.0 / (s + next_i)
            q2 += 1.0 / (s + next_i) ** 2
            next_i += 1
        e = x ** (-(s + 2 * m - 1))
        z0 += c * p * e
        if order >= 1:
            z1 += c * p * e * (q1 - u)
        if order >= 2:
            z2 += c * p * e * ((q1 - u) ** 2 - q2)
    return z0, z1, z2


def hurwitz_zeta(s: float, a: float = 1.0) -> float:
    """zeta(s, a) = sum_{k>=0} (a+k)^(-s), for s > 1."""
    return _zeta_core(s, a, order=0)[0]


def hurwitz_zeta_derivatives(s: float, a: float = 1.0) -> tuple[float, float, float]:
    """(zeta, d zeta/ds, d^2 zeta/ds^2) at (s, a), for s > 1."""
    return _zeta_core(s, a, order=2)
