import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thickenings.partitions import DominantWeight, Partition


class TestPartition:
    def test_trailing_zeros_stripped(self):
        assert Partition([3, 2, 1, 0, 0, 0]) == Partition([3, 2, 1])
        assert Partition([3, 2, 1, 0]) == (3, 2, 1)
        assert hash(Partition([3, 2, 1, 0])) == hash(Partition([3, 2, 1]))

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

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            DominantWeight([1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DominantWeight([])

    def test_json(self):
        assert json.dumps(DominantWeight([-4, -5])) == "[-4, -5]"


# Runs with weakly decreasing values; adjacent runs may share a value.
valid_runs = st.lists(
    st.tuples(st.integers(min_value=-10, max_value=10), st.integers(min_value=1, max_value=8)),
    min_size=1,
    max_size=5,
).map(lambda runs: sorted(runs, key=lambda run: -run[0]))


def expand(runs):
    return [v for v, k in runs for _ in range(k)]


@given(valid_runs)
def test_from_runs_matches_entry_wise(runs):
    w = DominantWeight.from_runs(runs)
    assert type(w) is DominantWeight
    assert w == DominantWeight(expand(runs))


@given(valid_runs, st.data())
def test_from_runs_rejects_like_entry_wise(runs, data):
    """Each bad run raises the entry-wise constructor's exception type; where
    the runs still expand to entries, its text too."""
    i = data.draw(st.integers(min_value=0, max_value=len(runs) - 1))
    v, k = runs[i]
    bad = list(runs)
    case = data.draw(st.sampled_from(["increasing", "count", "float value", "float count", "empty"]))
    if case == "increasing":
        bad.append((runs[-1][0] + data.draw(st.integers(min_value=1, max_value=5)), 1))
    elif case == "count":
        bad[i] = (v, data.draw(st.integers(max_value=0)))
    elif case == "float value":
        bad[i] = (v + 0.5, k)
    elif case == "float count":
        bad[i] = (v, float(k))
    else:
        bad = []
    if case in ("count", "float count"):
        entry_wise = ValueError if case == "count" else TypeError
        with pytest.raises(entry_wise):
            DominantWeight.from_runs(bad)
        return
    with pytest.raises((TypeError, ValueError)) as entry_wise:
        DominantWeight(expand(bad))
    with pytest.raises(entry_wise.type) as from_runs:
        DominantWeight.from_runs(bad)
    assert str(from_runs.value) == str(entry_wise.value)


@given(st.floats())
def test_non_integer_entries_rejected(x):
    with pytest.raises(TypeError):
        Partition([x])
    with pytest.raises(TypeError):
        DominantWeight([x, x])
