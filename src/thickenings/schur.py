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
    entries contributes exactly 1. For an earlier run of p entries of value
    x starting at i0 and a later run of q entries of value y starting at j0,
    write c = x - y and d = j0 - i0; the block of their pairs contributes

        prod_{e=d}^{d+q-1} C(c + e, p) / C(e, p),

    one factor per later entry, taken without a loop when q = 1. A dominant
    weight keeps equal entries contiguous, so a run whose next entry
    differs has length 1, found with one comparison, and a longer run ends
    where the C-level ``tuple.count`` of its first entry says. The cost is
    one comparison per one-entry run and one ``count`` (a scan of all n
    entries) per longer run, plus one ``math.comb`` pair per (earlier run,
    later entry) in place of the n(n-1)/2 factors of the plain product; so
    a zero-padded one-row shape (k, 0, ..., 0) takes n - 1 pairs.

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
    runs: list[tuple[int, int, int]] = []  # (i0, p, x) of each run passed
    j0 = 0
    while j0 < n:
        y = w[j0]
        q = w.count(y) if j0 + 1 < n and w[j0 + 1] == y else 1
        for i0, p, x in runs:
            c = x - y
            d = j0 - i0
            if q == 1:
                num *= comb(c + d, p)
                den *= comb(d, p)
            else:
                for e in range(d, d + q):
                    num *= comb(c + e, p)
                    den *= comb(e, p)
        runs.append((j0, q, y))
        j0 += q
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
    enumeration over the cells in row-major order, each cell's value bounded
    below by its left neighbour and by one more than the cell above; returns
    0 when the shape has more than n rows and 1 for the empty shape. The
    last cell adds one tableau per value it may take, but the walk makes
    one call for every valid filling of every proper prefix of the cell
    order, dead ends included, so ``schur_dim(shape, n)`` does not bound
    the calls: (3, 3, 3) on C^3 takes 69 calls for 1 tableau. The cost is
    exponential in the number of boxes, and the walk recurses one frame per
    box, so a shape near the recursion limit (1000 boxes by default) raises
    ``RecursionError``; callers keep shapes small.
    """
    p = _as_partition(shape)
    check_integer("n", n, 1)
    if len(p) > n:
        return 0
    if not p:
        return 1
    # For cell k, the index of its left neighbour and of the cell above, or
    # -1 for none; filled[-1] stays 0, the value of a missing neighbour.
    cells = [(r, c) for r, length in enumerate(p) for c in range(length)]
    left = [k - 1 if c else -1 for k, (r, c) in enumerate(cells)]
    above = [k - p[r - 1] if r else -1 for k, (r, c) in enumerate(cells)]
    last = len(cells) - 1
    filled = [0] * (len(cells) + 1)

    def fill(k: int) -> int:
        lo = filled[left[k]]
        up = filled[above[k]] + 1
        if up > lo:
            lo = up
        if k == last:
            return n + 1 - lo  # lo <= n + 1, as every filled value is <= n
        total = 0
        for v in range(lo, n + 1):
            filled[k] = v
            total += fill(k + 1)
        return total

    return fill(0)


def tensor_pair_dim(
    weight_m: DominantWeight | Sequence[int],
    weight_n: DominantWeight | Sequence[int],
) -> int:
    """Dimension of S_a(C^m) tensor S_b(C^n), each factor on a space of its own length."""
    return weyl_dim(weight_m, len(weight_m)) * weyl_dim(weight_n, len(weight_n))
