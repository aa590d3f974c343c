from thickenings.closed_forms import cumulative_length
from thickenings.cohomology import dual_index, local_cohomology_length, nonvanishing_indices


class TestNonvanishingIndices:
    def test_n2(self):
        assert nonvanishing_indices(2, 5) == {4, 7}
        assert nonvanishing_indices(2, 3) == {2, 3}

    def test_n3(self):
        assert nonvanishing_indices(3, 7) == {5, 9, 13}


class TestDualIndex:
    def test_examples(self):
        assert dual_index(5, 2, 3) == 7
        assert dual_index(4, 2, 5) == 3
        assert dual_index(6, 2, 0) == 12

    def test_involution(self):
        for m in range(3, 9):
            for j in range(0, 2 * m + 1):
                assert dual_index(m, 2, dual_index(m, 2, j)) == j


class TestLocalCohomologyLength:
    def test_matches_cumulative(self):
        for m in (3, 5):
            for t in range(2, 8):
                assert local_cohomology_length(m, t, 3) == cumulative_length(m, t)
