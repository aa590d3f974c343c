import pytest
from hypothesis import given
from hypothesis import strategies as st

from thickenings.partitions import DominantWeight, Partition
from thickenings.schur import schur_dim, ssyt_count, tensor_pair_dim, weyl_dim


def weight_strategy(max_len=5):
    return st.lists(
        st.integers(min_value=-6, max_value=6), min_size=1, max_size=max_len
    ).map(lambda xs: DominantWeight(sorted(xs, reverse=True)))


# A few distinct values, each repeated, so that long runs of equal entries
# sit next to short ones across large gaps; the weight is cut at length 30.
run_weights = st.lists(
    st.tuples(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=1, max_value=20)),
    min_size=1,
    max_size=6,
    unique_by=lambda run: run[0],
).map(
    lambda runs: DominantWeight(
        [v for v, k in sorted(runs, reverse=True) for _ in range(k)][:30]
    )
)


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
    def test_trivial_weight(self):
        for n in range(1, 6):
            assert weyl_dim((0,) * n, n) == 1

    def test_adjoint_of_gl3(self):
        # frozen from the tableau-counting oracle
        assert weyl_dim((2, 1, 0), 3) == 8

    def test_negative_constant_weight(self):
        assert weyl_dim((-3, -3), 2) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 0), 3)

    @given(run_weights)
    def test_matches_plain_product(self, w):
        assert weyl_dim(w, len(w)) == plain_weyl_product(w)

    @given(run_weights.filter(lambda w: w[0] != w[-1]), st.randoms())
    def test_rejects_non_dominant(self, w, rnd):
        # The run scan counts each run's entries, which is right only when
        # equal entries are contiguous; every other order must be refused.
        entries = list(w)
        while tuple(entries) == w:
            rnd.shuffle(entries)
        with pytest.raises(ValueError):
            weyl_dim(tuple(entries), len(entries))

    @given(weight_strategy(), st.integers(min_value=-3, max_value=3))
    def test_shift_invariance(self, w, c):
        assert weyl_dim(w, len(w)) == weyl_dim(tuple(e + c for e in w), len(w))


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
    def test_trivial_pair(self):
        assert tensor_pair_dim((-2, -2, -2), (-3, -3)) == 1

    def test_second_factor_trivial(self):
        for m in (3, 4, 5):
            for eps in range(4):
                assert tensor_pair_dim((0,) * m, (eps, 0)) == eps + 1

    def test_layer_pair(self):
        # m=3, t=3, eps=1 summand
        assert tensor_pair_dim((-2, -2, -3), (-3, -4)) == 6
