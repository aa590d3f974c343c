"""Closed forms and combinatorial identities, all in exact arithmetic.

Every division goes through :func:`fractions.Fraction` with an integrality
check at the end, never integer division, so a transcription slip fails
loudly instead of truncating. Binomials vanish outside 0 <= k <= n; the
t = 1 layer silently relies on that convention.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binom(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n (and zero for negative n)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _as_integer(q: Fraction, what: str) -> int:
    if q.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {q}")
    return q.numerator


def layer_length_closed(m: int, t: int) -> int:
    """Length of Ext^{2m-3}(I^{t-1}/I^t, R) in closed form.

    (1/(m-1)) * C(m+t-3, m-2) * (C(m+t-1, m+1) + C(m+t-2, m+1)); zero at
    t = 1 because both bracket binomials vanish.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    bracket = binom(m + t - 1, m + 1) + binom(m + t - 2, m + 1)
    value = Fraction(binom(m + t - 3, m - 2) * bracket, m - 1)
    return _as_integer(value, f"layer length at m={m}, t={t}")


def cumulative_length(m: int, t: int) -> int:
    """Length of H^3_m(R/I^t): (1/(m+1)) * C(m+t-2, m) * C(m+t-1, m)."""
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    value = Fraction(binom(m + t - 2, m) * binom(m + t - 1, m), m + 1)
    return _as_integer(value, f"cumulative length at m={m}, t={t}")


def asymptotic_multiplicity(m: int) -> Fraction:
    """Limit of cumulative_length(m, t) / t^(2m): exactly 1 / ((m+1) * m!^2)."""
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    return Fraction(1, (m + 1) * math.factorial(m) ** 2)


def catalan(m: int) -> int:
    """The m-th Catalan number C(2m, m) / (m + 1).

    Also equals (2m)! times :func:`asymptotic_multiplicity`, which the
    verification suite checks.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return _as_integer(Fraction(binom(2 * m, m), m + 1), f"Catalan number at m={m}")


def identity_lhs(a: int, b: int) -> int:
    """Brute-force sum over e from 1 to b - a of e^2 * C(b - e, a)."""
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    return sum(e * e * binom(b - e, a) for e in range(1, b - a + 1))


def identity_rhs(a: int, b: int) -> int:
    """Closed form C(b+2, a+3) + C(b+1, a+3) of the same sum."""
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    return binom(b + 2, a + 3) + binom(b + 1, a + 3)


def identity_holds(a: int, b: int) -> bool:
    """Whether the square-weighted binomial sum matches its closed form."""
    return identity_lhs(a, b) == identity_rhs(a, b)


def telescoping_holds(m: int, t_max: int) -> bool:
    """Whether the layer lengths up to t_max sum to the cumulative closed form."""
    total = sum(layer_length_closed(m, t) for t in range(1, t_max + 1))
    return total == cumulative_length(m, t_max)

