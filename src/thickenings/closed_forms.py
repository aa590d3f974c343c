"""Closed forms and combinatorial identities, all in exact arithmetic.

Every division that must come out whole goes through :func:`exact_quotient`,
which raises on a remainder, so a transcription slip fails loudly instead of
truncating. Binomials vanish outside 0 <= k <= n; the t = 1 layer silently
relies on that convention.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def binom(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n (and zero for negative n)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def check_integer(name: str, value: object, least: int, most: int | None = None) -> None:
    """The one check on integer parameters: ``TypeError`` for a bool or a
    non-int, ``ValueError`` outside least..most (no upper bound if None).

    A plain ``int`` is accepted after one ``type`` test; only other values
    reach the ``isinstance`` tests, so an int subclass other than bool passes."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den, raising ``ArithmeticError`` (naming ``what``) on a remainder."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what} is not an integer")
    return q


def layer_length_closed(m: int, t: int) -> int:
    """Length of Ext^{2m-3}(I^{t-1}/I^t, R) in closed form.

    (1/(m-1)) * C(m+t-3, m-2) * (C(m+t-1, m+1) + C(m+t-2, m+1)); zero at
    t = 1 because both bracket binomials vanish.
    """
    check_integer("m", m, 3)
    check_integer("t", t, 1)
    bracket = binom(m + t - 1, m + 1) + binom(m + t - 2, m + 1)
    return exact_quotient(
        binom(m + t - 3, m - 2) * bracket, m - 1, f"layer length at m={m}, t={t}"
    )


def cumulative_length(m: int, t: int) -> int:
    """Length of H^3_m(R/I^t): (1/(m+1)) * C(m+t-2, m) * C(m+t-1, m).

    This is the Narayana number N(n, k) = C(n, k) * C(n, k-1) / n with
    n = m+t-1 and k = m+1, the number of Dyck paths of semilength m+t-1 with
    m+1 peaks (Stanley, Catalan Numbers, 2015): C(n, k) / n = C(n-1, k-1) / k,
    and here C(n-1, k-1) = C(m+t-2, m) and C(n, k-1) = C(m+t-1, m).
    """
    check_integer("m", m, 3)
    check_integer("t", t, 1)
    return exact_quotient(
        binom(m + t - 2, m) * binom(m + t - 1, m), m + 1, f"cumulative length at m={m}, t={t}"
    )


def asymptotic_multiplicity(m: int) -> Fraction:
    """Limit of cumulative_length(m, t) / t^(2m): exactly 1 / ((m+1) * m!^2)."""
    # Imported here, its one use, so that importing the package skips fractions and decimal.
    from fractions import Fraction

    check_integer("m", m, 3)
    return Fraction(1, (m + 1) * math.factorial(m) ** 2)


def identity_lhs(a: int, b: int) -> int:
    """Brute-force sum over e from 1 to b - a of e^2 * C(b - e, a)."""
    check_integer("a", a, 0)
    check_integer("b", b, a)
    return sum(e * e * binom(b - e, a) for e in range(1, b - a + 1))


def identity_rhs(a: int, b: int) -> int:
    """Closed form C(b+2, a+3) + C(b+1, a+3) of the same sum."""
    check_integer("a", a, 0)
    check_integer("b", b, a)
    return binom(b + 2, a + 3) + binom(b + 1, a + 3)

