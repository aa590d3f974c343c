import json
import math

import pytest

from thickenings.partitions import DominantWeight, Partition


class TestPartition:
    def test_trailing_zeros_stripped(self):
        assert Partition([3, 2, 1, 0, 0, 0]) == Partition([3, 2, 1])
        assert Partition([3, 2, 1, 0]) == (3, 2, 1)
        assert hash(Partition([3, 2, 1, 0])) == hash(Partition([3, 2, 1]))
        assert Partition([1] + [0] * 10**5) == (1,)

    def test_empty(self):
        assert Partition() == ()
        assert Partition([0, 0]) == Partition()
        assert not Partition()
        assert len(Partition()) == 0

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_json_round_trip(self):
        p = Partition([4, 2, 2, 1])
        data = json.loads(json.dumps(p))
        assert data == [4, 2, 2, 1]
        assert Partition(data) == p


class TestDominantWeight:
    def test_keeps_length(self):
        w = DominantWeight([0, 0, 0])
        assert len(w) == 3
        assert w != DominantWeight([0, 0])

    def test_negative_entries_allowed(self):
        w = DominantWeight([-3, -5])
        assert w == (-3, -5) and hash(w) == hash((-3, -5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DominantWeight([])


def test_non_integer_entries_rejected():
    for x in (True, False, 0.0, 2.0, 0.5, math.inf, -math.inf, math.nan, 1e300):
        with pytest.raises(TypeError):
            Partition([x])
        with pytest.raises(TypeError):
            DominantWeight([x, x])
