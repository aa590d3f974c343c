"""The Ext-split filtration of R/I^t and its weight-by-weight decomposition.

R is the polynomial ring on a 2 x m matrix of variables and I the ideal of
its 2 x 2 minors. Powers I^t are GL-invariant, so R/I^t carries a finite
GL-invariant filtration whose factors J_(z,l) are indexed by pairs of a
weakly decreasing n-tuple z (a partition with at most n parts, zero-padded
to length n) and an integer l, and Ext against R splits as a direct sum over
those factors. Each factor in turn contributes, at cohomological index
2m - 3, one summand S_{lambda(0)}(C^m) tensor S_lambda(C^2) per dominant
weight lambda in an explicit interval. Summing exact dimensions over that
chain is the long route to the length of Ext^{2m-3}(R/I^t, R); the short
route is the closed form in :mod:`thickenings.closed_forms`, and the test
suite insists the two agree.

``filtration_indices`` enumerates the index pairs for general matrix and
minor sizes by bounded exhaustive search, so the n = 2 characterization
(all indices are ((z, z), 1) with z <= t - 1) is something the tests can
check rather than assume.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement
from typing import NamedTuple, Sequence

from .closed_forms import check_integer
from .partitions import DominantWeight, _as_weight
from .schur import tensor_pair_dim


class LayerSummand(NamedTuple):
    """One weight summand of Ext^{2m-3}(I^{t-1}/I^t, R).

    ``gl2_weight`` is the length-2 weight lambda, ``glm_weight`` the paired
    length-m weight lambda(0), ``epsilon`` their spread lambda_1 - lambda_2,
    and ``dim`` the exact dimension of the tensor product.
    """

    epsilon: int
    gl2_weight: DominantWeight
    glm_weight: DominantWeight
    dim: int


def filtration_indices(n: int, minor_size: int, t: int) -> frozenset[tuple[tuple[int, ...], int]]:
    """All filtration indices (z, l) for the t-th power of the size-``minor_size`` minor ideal.

    Exhausts weakly decreasing n-tuples z with entries in 0..t - 1, zeros
    kept, and levels 0 <= l <= minor_size - 1, keeping the pairs that satisfy

        z_1 = ... = z_{l+1} <= t - 1
        |z| + (t - z_1) * l + 1  <=  minor_size * t  <=  |z| + (t - z_1) * (l + 1)

    The part bound makes the search space finite: the first call for each
    (n, minor_size, t) in a process examines exactly
    C(t - 1 + n, n) * minor_size candidates (z, l). The set depends only on
    those three integers, so it is stored, and every later call with them
    returns the same ``frozenset``, which no caller can change. The store is
    never emptied. It holds about 160 B per kept index (tracemalloc): for
    n = minor_size = 2, about 0.44 MB for all t <= 72 and 7.2 MB for all
    t <= 300. The arguments are checked on every call before the store is
    read, so t = True is refused even after t = 1 is stored.

    For n = minor_size = 2 the indices are exactly ((z, z), 1), 0 <= z <= t - 1.
    Level l = 0: the upper bound reads 2t <= t + z_2, so z_2 >= t, impossible.
    Level l = 1: z_1 = z_2 = z, and the bounds read t + z + 1 <= 2t <= 2t, so z <= t - 1.
    """
    check_integer("n", n, 1)
    check_integer("minor_size", minor_size, 1, n)
    check_integer("t", t, 1)
    return _search_indices(n, minor_size, t)


# Unbounded: an LRU bound would store and evict on every call of an
# ascending sweep over more values of t than its size.
@cache
def _search_indices(n: int, minor_size: int, t: int) -> frozenset[tuple[tuple[int, ...], int]]:
    found = set()
    for z in combinations_with_replacement(range(t - 1, -1, -1), n):
        total = sum(z)
        for l in range(minor_size):
            if z[l] != z[0]:
                continue
            lower = total + (t - z[0]) * l + 1
            upper = total + (t - z[0]) * (l + 1)
            if lower <= minor_size * t <= upper:
                found.add((z, l))
    return frozenset(found)


def contributing_weights(z: int, m: int) -> list[DominantWeight]:
    """Length-2 dominant weights contributing at index 2m - 3 for the factor ((z, z), 1).

    These are (lambda_1, 1 - z - m) for lambda_1 from 1 - z - m up to -m,
    in increasing order: exactly z weights, none at all for z = 0, so the
    lowest filtration factor contributes nothing.
    """
    check_integer("z", z, 0)
    check_integer("m", m, 3)
    lam2 = 1 - z - m
    # Dominant without a re-check: lambda_1 runs upward from lambda_2.
    return [tuple.__new__(DominantWeight, (lam1, lam2)) for lam1 in range(lam2, -m + 1)]


def paired_weight(weight: DominantWeight | Sequence[int], m: int) -> DominantWeight:
    """The length-m weight lambda(0) paired with a length-2 weight lambda.

    lambda(0) = (-2, ..., -2, lambda_1 + m - 2, lambda_2 + m - 2) with m - 2
    copies of -2. Dominance needs lambda_1 <= -m; a violation means the
    input was outside the contributing range and is rejected. The route pairs
    whole layers through ``_paired`` without these checks, which cannot fail
    there: ``contributing_weights`` yields only weights with lambda_1 <= -m.
    """
    w = _as_weight(weight)
    if len(w) != 2:
        raise ValueError(f"expected a length-2 weight, got {w!r}")
    check_integer("m", m, 3)
    if w[0] > -m:
        raise ValueError(f"weight {w!r} is out of range: first entry must be <= {-m}")
    return _paired([w], m)[0]


def _paired(weights: Sequence[DominantWeight], m: int) -> list[DominantWeight]:
    # Dominant without a re-check if each w0 <= -m: -2 >= w0 + m - 2 >= w1 + m - 2.
    pad = (-2,) * (m - 2)
    return [tuple.__new__(DominantWeight, pad + (w0 + m - 2, w1 + m - 2)) for w0, w1 in weights]


def layer_summands(m: int, t: int) -> list[LayerSummand]:
    """Weight summands of the layer new at power t, in increasing epsilon order.

    The only filtration index present for I^t but not I^{t-1} is
    ((t-1, t-1), 1), so the layer is the z = t - 1 contribution; for t = 1
    there are no weights and the list is empty. The layer is paired through
    ``_paired`` with no per-weight check (see ``paired_weight``).
    """
    check_integer("m", m, 3)
    check_integer("t", t, 1)
    ws = contributing_weights(t - 1, m)
    out = []
    for glm, w in zip(_paired(ws, m), ws):
        out.append(
            LayerSummand(
                epsilon=w[0] - w[1],
                gl2_weight=w,
                glm_weight=glm,
                dim=tensor_pair_dim(glm, w),
            )
        )
    return out


def cumulative_length_via_decomposition(m: int, t: int) -> int:
    """Length of Ext^{2m-3}(R/I^t, R) through the whole decomposition chain.

    Enumerates the filtration indices, expands each factor into its
    contributing weights, and adds exact tensor dimensions. Defensively
    re-checks that every index has the ((z, z), 1) shape the weight
    machinery is specialized to. The index set comes from the search in
    ``filtration_indices``, run on the first call for each t in a process
    and read from its store after that. Each factor is paired through
    ``_paired`` with no per-weight check (see ``paired_weight``).
    """
    check_integer("m", m, 3)
    check_integer("t", t, 1)
    total = 0
    for (z1, z2), l in filtration_indices(2, 2, t):
        if l != 1 or z1 != z2:
            raise AssertionError(f"unexpected filtration index {((z1, z2), l)!r} for n = 2")
        ws = contributing_weights(z1, m)
        for glm, w in zip(_paired(ws, m), ws):
            total += tensor_pair_dim(glm, w)
    return total
