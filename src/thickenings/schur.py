"""Exact dimensions of Schur functors on finite-dimensional complex spaces.

Two independent routes are kept side by side: ``weyl_dim`` evaluates the
closed product formula (Fulton-Harris, Representation Theory, 24.1)

    dim S_lambda(C^n) = prod_{1 <= i < j <= n} (lambda_i - lambda_j + j - i) / (j - i)

one block of equal entries at a time, while ``ssyt_count`` counts
semistandard tableaux by plain backtracking, with no formula shortcuts,
precisely so it can serve as an oracle for the product.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .closed_forms import check_integer, exact_quotient
from .partitions import DominantWeight, Partition, _as_partition, _as_weight


def weyl_dim(weight: DominantWeight | Sequence[int], n: int) -> int:
    """Dimension of the Schur functor of a length-n dominant weight on C^n.

    The Weyl product is taken run by run. A pair inside a run of equal
    entries contributes exactly 1. For an earlier run I = [i0, i1) of value
    x and a later run J = [j0, j1) of value y, write c = x - y, p = |I| and
    q = |J|; the block of pairs I x J contributes

        prod_{d=j0-i0}^{j1-i0-1} C(c + d, p) / C(d, p)    (a factor per j in J)
      = prod_{e=j1-i1}^{j1-i0-1} C(c + e, q) / C(e, q)    (a factor per i in I)

    and one loop takes the form with fewer factors, from its own start to the
    shared end j1 - i0 - 1. When the later run has length 1, its one factor
    is taken without the loop. A dominant weight keeps equal entries
    contiguous, so each run ends where the C-level ``tuple.count`` of its
    first entry says. The cost is one ``count`` per run plus about
    (number of runs)^2 x (shorter run length) ``math.comb`` calls, in place
    of the n(n-1)/2 factors of the plain product.

    Numerator and denominator are accumulated as integers and divided once
    by ``exact_quotient``; dominance guarantees the division is exact, so an
    ``ArithmeticError`` would mean the formula was transcribed wrong.
    """
    w = _as_weight(weight)
    check_integer("n", n, 1)
    if len(w) != n:
        raise ValueError(f"weight {w!r} has length {len(w)}, expected {n}")
    num = 1
    den = 1
    runs: list[tuple[int, int, int]] = []  # (i0, i1, x) of each run passed
    j0 = 0
    while j0 < n:
        y = w[j0]
        j1 = j0 + w.count(y)
        q = j1 - j0
        for i0, i1, x in runs:
            c = x - y
            p = i1 - i0
            if q == 1:
                num *= comb(c + j0 - i0, p)
                den *= comb(j0 - i0, p)
            else:
                lo, size = (j0 - i0, p) if q <= p else (j1 - i1, q)
                for d in range(lo, j1 - i0):
                    num *= comb(c + d, size)
                    den *= comb(d, size)
        runs.append((j0, j1, y))
        j0 = j1
    return exact_quotient(num, den, "Weyl product")


def schur_dim(shape: Partition | Sequence[int], n: int) -> int:
    """Dimension of the Schur functor of a partition shape on C^n.

    Zero when the shape has more rows than n (the functor vanishes there);
    otherwise the shape is zero-padded to length n and fed to ``weyl_dim``.
    """
    p = _as_partition(shape)
    check_integer("n", n, 1)
    if len(p) > n:
        return 0
    return weyl_dim(p + (0,) * (n - len(p)), n)


def ssyt_count(shape: Partition | Sequence[int], n: int) -> int:
    """Count semistandard tableaux of the given shape with entries in 1..n.

    Rows weakly increase, columns strictly increase. Complete backtracking
    enumeration, one leaf per tableau; returns 0 when the shape has more
    than n rows and 1 for the empty shape. It visits exactly
    ``schur_dim(shape, n)`` leaves, so its cost is known before it runs and
    grows exponentially with the number of boxes; callers keep shapes small.
    """
    p = _as_partition(shape)
    check_integer("n", n, 1)
    if len(p) > n:
        return 0
    if not p:
        return 1
    rows = len(p)
    grid = [[0] * p[r] for r in range(rows)]

    def fill(r: int, c: int) -> int:
        if r == rows:
            return 1
        nr, nc = (r, c + 1) if c + 1 < p[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        total = 0
        for v in range(lo, n + 1):
            grid[r][c] = v
            total += fill(nr, nc)
        return total

    return fill(0, 0)


def tensor_pair_dim(
    weight_m: DominantWeight | Sequence[int],
    weight_n: DominantWeight | Sequence[int],
) -> int:
    """Dimension of S_a(C^m) tensor S_b(C^n), each factor on a space of its own length."""
    return weyl_dim(weight_m, len(weight_m)) * weyl_dim(weight_n, len(weight_n))
