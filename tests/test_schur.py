from itertools import combinations_with_replacement, product

import pytest

from thickenings.partitions import Partition
from thickenings.schur import schur_dim, ssyt_count, tensor_pair_dim, weyl_dim


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


class TestWeylDim:
    def test_adjoint_of_gl3(self):
        # frozen from the tableau-counting oracle
        assert weyl_dim((2, 1, 0), 3) == 8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 0), 3)

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


class TestSchurDim:
    def test_too_many_rows_vanishes(self):
        assert schur_dim(Partition([1, 1, 1]), 2) == 0
        assert schur_dim(Partition([2, 2, 1]), 2) == 0

    def test_pads_short_shapes(self):
        assert schur_dim(Partition([2, 1]), 3) == weyl_dim((2, 1, 0), 3)


class TestSsytCount:
    def test_single_column_two_rows(self):
        assert ssyt_count(Partition([1, 1]), 2) == 1

    def test_hook_two_letters(self):
        assert ssyt_count(Partition([2, 1]), 2) == 2

    def test_empty_shape(self):
        assert ssyt_count(Partition(), 3) == 1

    def test_more_rows_than_letters(self):
        assert ssyt_count(Partition([1, 1, 1]), 2) == 0


class TestTensorPairDim:
    def test_second_factor_trivial(self):
        for m in (3, 4, 5):
            for eps in range(4):
                assert tensor_pair_dim((0,) * m, (eps, 0)) == eps + 1
