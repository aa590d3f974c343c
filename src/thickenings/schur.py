"""Exact dimensions of Schur functors on finite-dimensional complex spaces.

Two independent routes are kept side by side: ``weyl_dim`` evaluates the
closed product formula (Fulton-Harris, Representation Theory, 24.1)

    dim S_lambda(C^n) = prod_{1 <= i < j <= n} (lambda_i - lambda_j + j - i) / (j - i)

one block of equal entries at a time, while ``ssyt_count`` counts
semistandard tableaux as chains of horizontal strips, one entry value at a
time, with no formula shortcuts, precisely so it can serve as an oracle for
the product.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
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

    Rows weakly increase, columns strictly increase. A tableau is a chain of
    shapes () = lambda^(0) <= ... <= lambda^(n) = lambda whose steps, the
    boxes holding k, are horizontal strips (Stanley, EC2, 7.10; Fulton,
    Young Tableaux, 1.1). For k = n down to 1 the count holds, per subshape
    mu, the fillings of lambda/mu with entries above k, and removes the
    strip of k's from each mu in every way: nu_i from mu_{i+1} to mu_i, and
    nu keeps at most k - 1 rows for the entries below k (every mu at level k
    has at most k rows, so the rest of nu is empty). The answer is the count
    at the empty shape. That is n levels of at most prod(lambda_i + 1)
    subshapes and their strips, polynomial in the box count for a fixed
    number of rows, with no recursion. Returns 0 when the shape has more
    than n rows and 1 for the empty shape.
    """
    p = _as_partition(shape)
    check_integer("n", n, 1)
    if len(p) > n:
        return 0
    # counts[mu]: the fillings of p/mu with entries above k. Each mu is padded
    # to len(p) + 1 entries, so mu[i + 1] exists for every row i of p.
    empty = (0,) * (len(p) + 1)
    counts = {p + (0,): 1}
    for k in range(n, 0, -1):
        free = min(k - 1, len(p))  # the rows nu may keep
        pad = empty[free:]
        step: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for mu, c in counts.items():
            for head in product(*[range(lo, hi + 1) for lo, hi in zip(mu[1:], mu[:free])]):
                step[head + pad] += c
        counts = step
    return counts[empty]


def tensor_pair_dim(
    weight_m: DominantWeight | Sequence[int],
    weight_n: DominantWeight | Sequence[int],
) -> int:
    """Dimension of S_a(C^m) tensor S_b(C^n), each factor on a space of its own length."""
    return weyl_dim(weight_m, len(weight_m)) * weyl_dim(weight_n, len(weight_n))
