import pytest

from thickenings import filtration
from thickenings.closed_forms import cumulative_length
from thickenings.filtration import (
    FiltrationIndex,
    contributing_weights,
    cumulative_length_via_decomposition,
    filtration_indices,
    layer_summands,
    paired_weight,
)
from thickenings.partitions import DominantWeight
from thickenings.schur import weyl_dim


def zz(z):
    return FiltrationIndex((z, z), 1)


class TestFiltrationIndices:
    def test_t1(self):
        assert filtration_indices(2, 2, 1) == {zz(0)}

    def test_t3(self):
        assert filtration_indices(2, 2, 3) == {zz(0), zz(1), zz(2)}

    def test_t5_all_level_one(self):
        found = filtration_indices(2, 2, 5)
        assert len(found) == 5
        assert all(idx.l == 1 for idx in found)

    def test_entries_satisfy_bounds(self):
        # general parameters: the invariants of the index pairs hold as stated
        for (n, d, t) in [(3, 2, 3), (3, 3, 2), (4, 2, 4)]:
            for idx in filtration_indices(n, d, t):
                assert 0 <= idx.l <= d - 1
                z = idx.z
                assert len(z) == n
                assert all(z[i] == z[0] for i in range(idx.l + 1))
                assert z[0] <= t - 1
                total = sum(z)
                assert total + (t - z[0]) * idx.l + 1 <= d * t
                assert d * t <= total + (t - z[0]) * (idx.l + 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            filtration_indices(2, 3, 3)


class TestContributingWeights:
    def test_z2_m4(self):
        assert contributing_weights(2, 4) == [
            DominantWeight([-5, -5]),
            DominantWeight([-4, -5]),
        ]

    def test_z1_m3(self):
        assert contributing_weights(1, 3) == [DominantWeight([-3, -3])]

    def test_z0_empty(self):
        assert contributing_weights(0, 5) == []

    def test_count_is_z(self):
        for m in range(3, 9):
            for z in range(16):
                assert len(contributing_weights(z, m)) == z


class TestPairedWeight:
    def test_formula(self):
        # (2-t-m+eps, 2-t-m) maps to (-2, ..., -2, -t+eps, -t)
        for m in (3, 4, 6):
            for t in range(2, 7):
                for eps in range(t - 1):
                    lam = (2 - t - m + eps, 2 - t - m)
                    expected = (-2,) * (m - 2) + (-t + eps, -t)
                    assert paired_weight(lam, m) == expected

    def test_constant_weight(self):
        assert paired_weight((-3, -3), 3) == (-2, -2, -2)

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            paired_weight((-2, -3), 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            paired_weight((-4, -4, -4), 3)


def test_built_weights_are_dominant():
    # The library builds these weights without re-checking them; check here.
    for m in range(3, 41):
        for z in range(41):
            for w in contributing_weights(z, m):
                glm = paired_weight(w, m)
                for x in (w, glm):
                    assert type(x) is DominantWeight
                    assert x == DominantWeight(list(x))
                assert len(glm) == m


class TestLayerSummands:
    def test_m3_t2(self):
        (s,) = layer_summands(3, 2)
        assert s.epsilon == 0 and s.dim == 1
        assert s.gl2_weight == DominantWeight([-3, -3])
        assert s.glm_weight == DominantWeight([-2, -2, -2])

    def test_m3_t3_dims(self):
        assert [s.dim for s in layer_summands(3, 3)] == [3, 6]

    def test_m5_t4_dims(self):
        # frozen from an independent evaluation of the product formula
        assert [s.dim for s in layer_summands(5, 4)] == [50, 80, 45]

    def test_t1_empty(self):
        for m in (3, 4, 7):
            assert layer_summands(m, 1) == []

    def test_epsilon_is_weight_spread(self):
        for s in layer_summands(4, 5):
            assert s.epsilon == s.gl2_weight[0] - s.gl2_weight[1]
            assert weyl_dim(s.gl2_weight, 2) == s.epsilon + 1


class TestRecords:
    def test_fields_are_read_only(self):
        for record, name in ((zz(1), "l"), (layer_summands(3, 2)[0], "dim")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_sets_hash_and_compare_by_fields(self):
        assert {zz(1), FiltrationIndex((1, 1), 1), zz(2)} == {zz(2), zz(1)}
        assert len({*layer_summands(4, 5), *layer_summands(4, 5)}) == 4

    def test_repr(self):
        assert repr(zz(1)) == "FiltrationIndex(z=(1, 1), l=1)"
        assert repr(layer_summands(3, 2)[0]) == (
            "LayerSummand(epsilon=0, gl2_weight=DominantWeight([-3, -3]), "
            "glm_weight=DominantWeight([-2, -2, -2]), dim=1)"
        )


def layer_total(m, t):
    return sum(s.dim for s in layer_summands(m, t))


class TestLayerLength:
    def test_small_values(self):
        assert [layer_total(3, t) for t in (1, 2, 3)] == [0, 1, 9]


class TestCumulativeDecomposition:
    def test_small_values(self):
        assert cumulative_length_via_decomposition(3, 1) == 0
        assert cumulative_length_via_decomposition(3, 2) == 1
        assert cumulative_length_via_decomposition(3, 3) == 10

    def test_rejects_an_index_outside_the_n2_shape(self, monkeypatch):
        monkeypatch.setattr(
            filtration, "filtration_indices", lambda n, k, t: {FiltrationIndex((2, 1), 1)}
        )
        with pytest.raises(AssertionError, match="unexpected filtration index"):
            cumulative_length_via_decomposition(3, 3)

    def test_matches_closed_form_at_large_m(self):
        # Long weights: the route stays fast only because the Weyl product
        # works run by run instead of over all m(m-1)/2 pairs.
        for m, t in ((50, 100), (150, 40), (200, 30)):
            assert cumulative_length_via_decomposition(m, t) == cumulative_length(m, t)
