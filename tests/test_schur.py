from itertools import combinations_with_replacement, product

import pytest

from thickenings.partitions import Partition
from thickenings.schur import schur_dim, ssyt_count, ssyt_levels, weyl_dim


def compositions(n):
    """Every sequence of positive integers summing to n."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions(n - k)]


def run_weight(lengths, gap):
    """The dominant weight with runs of these lengths, values 500, 500 - gap, ..."""
    return tuple(v for i, k in enumerate(lengths) for v in [500 - gap * i] * k)


# Run lengths: long runs next to short ones in every order, and every
# composition of a short weight. Each becomes a weight twice, once with unit
# gaps between run values and once with large gaps, cut at length 30.
RUN_LENGTHS = [
    *(lengths for r in range(1, 5) for lengths in product((1, 2, 3, 20), repeat=r)),
    *(lengths for n in range(1, 9) for lengths in compositions(n)),
]
RUN_WEIGHTS = [run_weight(lengths, gap)[:30] for gap in (1, 997) for lengths in RUN_LENGTHS]

# The run shapes of the decomposition's weights (-2, ..., -2, a, b), at the
# lengths m the benchmark reaches and RUN_WEIGHTS cuts away.
LONG_WEIGHTS = [
    run_weight(lengths, gap)
    for m in (30, 60, 200)
    for lengths in ((m - 2, 1, 1), (m - 2, 2))
    for gap in (1, 997)
]

# Every weakly decreasing weight of length <= 5 with entries in -9..9.
GRID_WEIGHTS = [w for n in range(1, 6) for w in combinations_with_replacement(range(9, -10, -1), n)]


def plain_weyl_product(w):
    """The Weyl product over all n(n-1)/2 pairs, one factor at a time."""
    n = len(w)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


# Every partition of at most 5 boxes, the empty one included.
SMALL_SHAPES = [c for b in range(6) for c in compositions(b) if list(c) == sorted(c, reverse=True)]


def definition_ssyt_count(shape, n):
    """Every filling with entries in 1..n, kept when rows weakly and columns strictly increase."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    count = 0
    for values in product(range(1, n + 1), repeat=len(cells)):
        filled = dict(zip(cells, values))
        count += all(
            (c == 0 or filled[r, c - 1] <= v) and (r == 0 or filled[r - 1, c] < v)
            for (r, c), v in filled.items()
        )
    return count


class TestWeylDim:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 0), 3)
        # the checks run before the closed forms for n <= 2
        for weight in ((1, 0, 0), (1,)):
            with pytest.raises(ValueError):
                weyl_dim(weight, 2)
        for weight, n in (((3, 1), True), ((2.0, 1), 2)):
            with pytest.raises(TypeError):
                weyl_dim(weight, n)

    def test_matches_plain_product(self):
        assert (len(RUN_WEIGHTS), len(LONG_WEIGHTS), len(GRID_WEIGHTS)) == (1190, 12, 42503)
        for w in RUN_WEIGHTS + LONG_WEIGHTS + GRID_WEIGHTS:
            assert weyl_dim(w, len(w)) == plain_weyl_product(w)

    def test_rejects_non_dominant(self):
        # The run scan counts each run's entries, which is right only when
        # equal entries are contiguous; every other order must be refused,
        # here by the DominantWeight constructor that weyl_dim calls.
        for n in range(1, 6):
            for w in product(range(4), repeat=n):
                if list(w) != sorted(w, reverse=True):
                    with pytest.raises(ValueError):
                        weyl_dim(w, n)


class TestSsytCount:
    def test_matches_the_definition(self):
        assert len(SMALL_SHAPES) == 19
        for shape in SMALL_SHAPES:
            for n in range(1, 5):
                assert ssyt_count(shape, n) == definition_ssyt_count(shape, n), (shape, n)

    def test_long_row_needs_no_recursion(self):
        # more boxes than Python's default recursion limit of 1000
        assert ssyt_count(Partition([1100]), 1) == 1

    def test_many_letters(self):
        assert ssyt_count(Partition([3]), 3000) == schur_dim(Partition([3]), 3000)


class TestSsytLevels:
    def test_every_level_matches_the_definition(self):
        # The partitions inside bound (5,)*5 with at most 5 boxes, padded to
        # 5 rows, are the SMALL_SHAPES family.
        inside = [z for z in combinations_with_replacement(range(5, -1, -1), 5) if sum(z) <= 5]
        assert {Partition(z) for z in inside} == set(SMALL_SHAPES)
        levels = list(ssyt_levels((5,) * 5, 5, 4))
        assert len(levels) == 4
        for k, counts in enumerate(levels, 1):
            assert counts.keys() == {z for z in inside if len(Partition(z)) <= min(k, 5)}, k
            for z, count in counts.items():
                assert count == definition_ssyt_count(z, k), (z, k)

    @pytest.mark.parametrize(
        "size, rows, n, pinned",
        [(10, 4, 7, (23, 937272)), (14, 5, 9, (70, 885515427))],
        ids=["10-boxes-C7", "14-boxes-C9"],
    )
    def test_matches_weyl_past_the_schur_suite(self, size, rows, n, pinned):
        # Every partition of at most size boxes in at most rows rows, on C^1..C^n;
        # pinned is the count and tableau total on C^n of those of exactly size boxes.
        for k, counts in enumerate(ssyt_levels((size,) * rows, size, n), 1):
            assert all(count == schur_dim(z, k) for z, count in counts.items()), k
        top = [count for z, count in counts.items() if sum(z) == size]
        assert (len(top), sum(top)) == pinned
