"""Vanishing structure of the local cohomology of R/I^t.

Graded duality trades H^j_m(R/I^t) for Ext^{2m-j}(R/I^t, R), and the Ext
modules vanish away from the indices 2m - 3 and m - 1. Back on the local
cohomology side that leaves exactly two live indices: j = m + 1 (the top,
infinite length) and j = 3 (finite length, the cumulative closed form).
"""

from __future__ import annotations

from .closed_forms import check_integer, cumulative_length


def nonvanishing_indices(n: int, m: int) -> set[int]:
    """Cohomological indices where H^j_I(R) is nonzero, for maximal minors.

    These are (n - r)(m - n) + 1 for 0 <= r < n; at n = 2 that is
    {m - 1, 2m - 3}. Requires 2 <= n < m, since equal sizes collapse the
    indices and the maximal-minor picture degenerates. At n = 2 their
    graded-duality partners 2m - j are the live indices {3, m + 1} of
    :func:`local_cohomology_length`, which the tests check it against.
    """
    check_integer("n", n, 2)
    check_integer("m", m, n + 1)
    return {(n - r) * (m - n) + 1 for r in range(n)}


def local_cohomology_length(m: int, t: int, j: int) -> int | None:
    """Length of H^j_m(R/I^t) for the 2 x m matrix and its 2 x 2 minors.

    ``None`` (infinite length) at the top index j = m + 1, the Krull
    dimension of R/I^t; the cumulative closed form at j = 3 (zero at t = 1,
    where R/I is Cohen-Macaulay); and zero everywhere else.
    """
    check_integer("m", m, 3)
    check_integer("t", t, 1)
    check_integer("j", j, 0, 2 * m)
    if j == m + 1:
        return None
    if j == 3:
        return cumulative_length(m, t)
    return 0
