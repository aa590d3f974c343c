import math
from itertools import combinations_with_replacement

import pytest

from thickenings import filtration, verify
from thickenings.closed_forms import cumulative_length
from thickenings.filtration import (
    _paired,
    contributing_weights,
    cumulative_length_via_decomposition,
    filtration_indices,
    layer_summands,
    paired_weight,
)
from thickenings.partitions import DominantWeight


class TestFiltrationIndices:
    def test_entries_satisfy_bounds(self):
        # general parameters: the invariants of the index pairs hold as stated
        for (n, d, t) in [(3, 2, 3), (3, 3, 2), (4, 2, 4)]:
            for z, l in filtration_indices(n, d, t):
                assert 0 <= l <= d - 1
                assert len(z) == n
                assert all(z[i] == z[0] for i in range(l + 1))
                assert z[0] <= t - 1
                total = sum(z)
                assert total + (t - z[0]) * l + 1 <= d * t
                assert d * t <= total + (t - z[0]) * (l + 1)

    def test_one_row_keeps_every_z_at_level_0(self):
        # n = minor_size = 1: only l = 0, where the bounds read z + 1 <= t <= t.
        for t in range(1, 6):
            assert filtration_indices(1, 1, t) == {((z,), 0) for z in range(t)}

    def test_search_examines_the_stated_candidates(self, monkeypatch):
        # The docstring's cost: C(t - 1 + n, n) tuples z, each with every l.
        counts = []

        def counted(values, n):
            tuples = list(combinations_with_replacement(values, n))
            counts.append(len(tuples))
            return tuples

        monkeypatch.setattr(filtration, "combinations_with_replacement", counted)
        cases = ((2, 5), (3, 4))
        for n, t in cases:
            filtration_indices(n, 2, t)
        assert counts == [math.comb(t - 1 + n, n) for n, t in cases]

    def test_zset_runs_the_search_after_the_route(self, monkeypatch):
        for t in range(1, 6):
            cumulative_length_via_decomposition(3, t)
        monkeypatch.setattr(filtration, "combinations_with_replacement", lambda values, n: ())
        assert len(verify.verify_zset(5).failures) == 5


class TestPairedWeight:
    def test_formula(self):
        # (2-t-m+eps, 2-t-m) maps to (-2, ..., -2, -t+eps, -t)
        for m in (3, 4, 6):
            for t in range(2, 7):
                for eps in range(t - 1):
                    lam = (2 - t - m + eps, 2 - t - m)
                    expected = (-2,) * (m - 2) + (-t + eps, -t)
                    assert paired_weight(lam, m) == expected

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            paired_weight((-2, -3), 3)

    def test_non_dominant_weight_rejected(self):
        with pytest.raises(ValueError):
            paired_weight((-3, -2), 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            paired_weight((-4, -4, -4), 3)


def test_built_weights_are_dominant():
    # The library builds these weights without re-checking them; check here.
    for m in range(3, 41):
        for z in range(41):
            weights = contributing_weights(z, m)
            assert len(weights) == z
            for w, glm in zip(weights, _paired(weights, m), strict=True):
                for x in (w, glm):
                    assert type(x) is DominantWeight
                    assert x == DominantWeight(list(x))
                assert glm == paired_weight(w, m)
                assert len(glm) == m


class TestLayerSummands:
    def test_t1_empty(self):
        for m in (3, 4, 7):
            assert layer_summands(m, 1) == []


class TestRecords:
    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            layer_summands(3, 2)[0].dim = 0

    def test_sets_hash_and_compare_by_fields(self):
        assert len({*layer_summands(4, 5), *layer_summands(4, 5)}) == 4

    def test_repr(self):
        assert repr(layer_summands(3, 2)[0]) == (
            "LayerSummand(epsilon=0, gl2_weight=DominantWeight([-3, -3]), "
            "glm_weight=DominantWeight([-2, -2, -2]), dim=1)"
        )


class TestCumulativeDecomposition:
    def test_rejects_an_index_outside_the_n2_shape(self, monkeypatch):
        filtration._factor_zs.cache_clear()
        monkeypatch.setattr(filtration, "filtration_indices", lambda n, k, t: {((2, 1), 1)})
        with pytest.raises(AssertionError, match="unexpected filtration index"):
            cumulative_length_via_decomposition(3, 3)

    def test_one_search_per_t(self, monkeypatch):
        filtration._factor_zs.cache_clear()
        calls, search = [], filtration.filtration_indices
        monkeypatch.setattr(filtration, "filtration_indices", lambda *args: calls.append(args) or search(*args))
        for m in (3, 4, 3):
            cumulative_length_via_decomposition(m, 7)
        assert calls == [(2, 2, 7)]

    def test_bool_refused_after_its_int_is_stored(self):
        cumulative_length_via_decomposition(3, 1)
        for t in (True, 1.0, False):
            with pytest.raises(TypeError):
                cumulative_length_via_decomposition(3, t)

    def test_matches_closed_form_at_large_m(self):
        # Long weights: the route stays fast only because the Weyl product
        # works run by run instead of over all m(m-1)/2 pairs.
        for m, t in ((50, 100), (150, 40), (200, 30)):
            assert cumulative_length_via_decomposition(m, t) == cumulative_length(m, t)
