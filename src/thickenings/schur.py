"""Exact dimensions of Schur functors on finite-dimensional complex spaces.

Two independent routes are kept side by side: ``weyl_dim`` evaluates the
closed product formula (Fulton-Harris, Representation Theory, 24.1)

    dim S_lambda(C^n) = prod_{1 <= i < j <= n} (lambda_i - lambda_j + j - i) / (j - i)

one block of equal entries at a time, while ``ssyt_levels`` counts
semistandard tableaux with no formula shortcuts, precisely so it can serve
as an oracle for the product. It builds each tableau bottom up as a chain
of horizontal strips, one entry value per level, so one pass gives the
count of every shape inside a bound on C^1, C^2, ..., C^n at once, and
shapes that share subshapes share their work. ``ssyt_count`` reads one
shape on one C^n from that pass.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from math import comb
from typing import Iterator, Sequence

from .closed_forms import check_integer, exact_quotient
from .partitions import DominantWeight, Partition, _as_partition


def weyl_dim(weight: DominantWeight | Sequence[int], n: int) -> int:
    """Dimension of the Schur functor of a length-n dominant weight on C^n.

    The Weyl product is taken run by run. A pair inside a run of equal
    entries contributes exactly 1. For an earlier run of p entries of value
    x starting at i0 and a later run of q entries of value y starting at j0,
    write c = x - y and d = j0 - i0; the block of their pairs contributes

        prod_{e=d}^{d+q-1} C(c + e, p) / C(e, p),

    one factor per later entry, taken without a loop when q = 1, and as
    (c + d) / d without ``math.comb`` when p = q = 1 as well. A dominant
    weight keeps equal entries contiguous, so a run whose next entry
    differs has length 1, found with one comparison, and a longer run ends
    where the C-level ``tuple.count`` of its first entry says. The cost is
    one comparison per one-entry run and one ``count`` (a scan of all n
    entries) per longer run, plus one pair of factors per (earlier run,
    later entry) in place of the n(n-1)/2 factors of the plain product:
    two integer products when both runs have one entry, one ``math.comb``
    pair otherwise. So a zero-padded one-row shape (k, 0, ..., 0) takes
    n - 1 pairs. When q = 1 and the later entry directly follows the
    earlier run (d = p, as the entry after the -2 pad of the route's
    lambda(0) does), the denominator C(p, p) = 1 is skipped.

    A weight that is not a ``DominantWeight`` is checked by building one;
    the ``isinstance`` test is inline, not a helper call, because the route
    calls this twice per weight.

    Numerator and denominator are accumulated as integers and divided once
    by ``exact_quotient``; dominance guarantees the division is exact, so an
    ``ArithmeticError`` would mean the formula was transcribed wrong. After
    the checks, a weight of length 2 returns w0 - w1 + 1 and one of length 1
    returns 1, the whole product on GL_2 and GL_1, without the loop.
    """
    w = weight if isinstance(weight, DominantWeight) else DominantWeight(weight)
    check_integer("n", n, 1)
    if len(w) != n:
        raise ValueError(f"weight {w!r} has length {len(w)}, expected {n}")
    if n < 3:
        return w[0] - w[1] + 1 if n == 2 else 1
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
                if p == 1:
                    num *= c + d
                    den *= d
                else:
                    num *= comb(c + d, p)
                    if d > p:
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


def ssyt_levels(bound: Partition | Sequence[int], size: int, n: int) -> Iterator[dict[tuple[int, ...], int]]:
    """Count semistandard tableaux of every small shape, one entry value at a time.

    Rows weakly increase, columns strictly increase. A tableau with entries
    in 1..k is a chain of shapes () = lambda^(0) <= ... <= lambda^(k) whose
    steps, the boxes holding each value, are horizontal strips (Stanley,
    EC2, 7.10; Fulton, Young Tableaux, 1.1). So level k adds the strip of
    k's to each shape mu of level k - 1 in every way: row i grows from mu_i
    up to min(bound_i, mu_{i-1}) (row 0 up to bound_0), and the box total
    stays within ``size``. Rows from k on stay empty, as the old row above
    each of them is.

    For k = 1..n this yields the count of tableaux with entries in 1..k of
    every partition that fits inside ``bound`` and has at most ``size``
    boxes, keyed by the partition padded with zeros to ``len(bound)``; each
    level holds exactly the shapes with at most k rows. Each level is a new
    dict that the next level is computed from, so a caller must not change
    it. The arguments are checked at the call, before the first level. The
    cost is n levels, each one pass over those shapes and their strips,
    with no recursion and no formula.
    """
    b = _as_partition(bound)
    check_integer("size", size, 0)
    check_integer("n", n, 1)
    return _strip_levels(b, size, n)


def _strip_levels(bound: Partition, size: int, n: int) -> Iterator[dict[tuple[int, ...], int]]:
    counts = {(0,) * len(bound): 1}
    for _ in range(n):
        step: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for mu, c in counts.items():
            spare = size - sum(mu)
            tops = bound[:1] + mu[:-1]  # row i grows up to the old row above it
            ranges = [range(lo, min(cap, top, lo + spare) + 1) for lo, cap, top in zip(mu, bound, tops)]
            for head in product(*ranges):
                if sum(head) <= size:
                    step[head] += c
        counts = dict(step)
        yield counts


def ssyt_count(shape: Partition | Sequence[int], n: int) -> int:
    """Count semistandard tableaux of the given shape with entries in 1..n.

    The last level of the ``ssyt_levels`` pass, unchecked, with the shape
    as its bound and its box count as the size. Returns 0 when the shape
    has more than n rows and 1 for the empty shape.
    """
    p = _as_partition(shape)
    check_integer("n", n, 1)
    if len(p) > n:
        return 0
    for counts in _strip_levels(p, sum(p), n):
        pass
    return counts[p]


def tensor_pair_dim(
    weight_m: DominantWeight | Sequence[int],
    weight_n: DominantWeight | Sequence[int],
) -> int:
    """Dimension of S_a(C^m) tensor S_b(C^n), each factor on a space of its own length."""
    return weyl_dim(weight_m, len(weight_m)) * weyl_dim(weight_n, len(weight_n))
