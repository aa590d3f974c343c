from thickenings.closed_forms import cumulative_length
from thickenings.cohomology import local_cohomology_length, nonvanishing_indices


class TestNonvanishingIndices:
    def test_n2(self):
        assert nonvanishing_indices(2, 5) == {4, 7}
        assert nonvanishing_indices(2, 3) == {2, 3}

    def test_n3(self):
        assert nonvanishing_indices(3, 7) == {5, 9, 13}


class TestLocalCohomologyLength:
    def test_matches_cumulative(self):
        for m in (3, 5):
            for t in range(2, 8):
                assert local_cohomology_length(m, t, 3) == cumulative_length(m, t)
