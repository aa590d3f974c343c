import pytest
from hypothesis import given
from hypothesis import strategies as st

from thickenings.partitions import DominantWeight, Partition
from thickenings.schur import schur_dim, ssyt_count, tensor_pair_dim, weyl_dim


def weight_strategy(max_len=5):
    return st.lists(
        st.integers(min_value=-6, max_value=6), min_size=1, max_size=max_len
    ).map(lambda xs: DominantWeight(sorted(xs, reverse=True)))


class TestWeylDim:
    def test_symmetric_power_on_c2(self):
        for eps in range(8):
            assert weyl_dim((eps, 0), 2) == eps + 1

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

    def test_single_row(self):
        for eps in range(7):
            assert ssyt_count(Partition([eps] if eps else []), 2) == eps + 1

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
