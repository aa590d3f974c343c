from thickenings.cohomology import nonvanishing_indices


class TestNonvanishingIndices:
    def test_n3(self):
        assert nonvanishing_indices(3, 7) == {5, 9, 13}
