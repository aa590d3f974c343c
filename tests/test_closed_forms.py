import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickenings.closed_forms import (
    asymptotic_multiplicity,
    binom,
    catalan,
    cumulative_length,
    identity_holds,
    identity_lhs,
    identity_rhs,
    layer_length_closed,
)
from thickenings.cohomology import dual_index, local_cohomology_length, nonvanishing_indices
from thickenings.filtration import (
    contributing_weights,
    cumulative_length_via_decomposition,
    degree_parameters,
    filtration_indices,
    layer_summands,
    paired_weight,
)
from thickenings.partitions import Partition
from thickenings.schur import schur_dim, ssyt_count, weyl_dim
from thickenings.verify import (
    verify_catalan,
    verify_decomposition,
    verify_identities,
    verify_zset,
)


class TestBinom:
    def test_basic(self):
        assert binom(5, 2) == 10
        assert binom(7, 0) == 1
        assert binom(0, 0) == 1

    def test_vanishing_convention(self):
        assert binom(3, 4) == 0
        assert binom(3, -1) == 0
        assert binom(-2, 1) == 0

    @given(st.integers(min_value=-5, max_value=30), st.integers(min_value=-5, max_value=35))
    def test_matches_comb_in_range(self, n, k):
        if 0 <= k <= n:
            assert binom(n, k) == math.comb(n, k)
        else:
            assert binom(n, k) == 0


class TestLayerLengthClosed:
    def test_m3(self):
        assert [layer_length_closed(3, t) for t in (1, 2, 3)] == [0, 1, 9]

    def test_m4_t2(self):
        assert layer_length_closed(4, 2) == 1


class TestCumulativeLength:
    def test_m3(self):
        assert [cumulative_length(3, t) for t in (1, 2, 3)] == [0, 1, 10]

    def test_strictly_increasing_from_t2(self):
        for m in range(3, 9):
            for t in range(2, 21):
                assert cumulative_length(m, t + 1) > cumulative_length(m, t)


class TestAsymptoticMultiplicity:
    def test_values(self):
        assert asymptotic_multiplicity(3) == Fraction(1, 144)
        assert asymptotic_multiplicity(4) == Fraction(1, 2880)

    def test_ratio_converges(self):
        # the exact ratio at a large power sits close to the limit
        for m in (3, 4):
            t = 500
            ratio = Fraction(cumulative_length(m, t), t ** (2 * m))
            assert abs(ratio - asymptotic_multiplicity(m)) < asymptotic_multiplicity(m) / 50


class TestCatalan:
    def test_sequence_start(self):
        assert [catalan(m) for m in (1, 2, 3, 4, 5)] == [1, 2, 5, 14, 42]


class TestIdentity:
    def test_worked_example(self):
        assert identity_lhs(1, 3) == 6
        assert identity_rhs(1, 3) == 6

    def test_empty_sum(self):
        assert identity_lhs(4, 4) == 0
        assert identity_rhs(4, 4) == 0

    def test_a0(self):
        assert identity_holds(0, 5)

    def test_rejects_a_above_b(self):
        with pytest.raises(ValueError):
            identity_lhs(3, 2)
        with pytest.raises(ValueError):
            identity_rhs(3, 2)

    @given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=80))
    def test_holds_everywhere(self, a, b):
        if a > b:
            a, b = b, a
        assert identity_holds(a, b)


# Each function that checks its integer parameters with ``check_integer``:
# valid arguments, and the least value of each checked one.
CHECKED = [
    (layer_length_closed, dict(m=4, t=2), dict(m=3, t=1)),
    (cumulative_length, dict(m=4, t=2), dict(m=3, t=1)),
    (layer_summands, dict(m=4, t=2), dict(m=3, t=1)),
    (cumulative_length_via_decomposition, dict(m=4, t=2), dict(m=3, t=1)),
    (local_cohomology_length, dict(m=4, t=2, j=3), dict(m=3, t=1, j=0)),
    (asymptotic_multiplicity, dict(m=4), dict(m=3)),
    (catalan, dict(m=4), dict(m=1)),
    (degree_parameters, dict(m=4, j=5), dict(m=3, j=5)),
    (paired_weight, dict(weight=(-5, -5), m=4), dict(m=3)),
    (contributing_weights, dict(z=2, m=4), dict(z=0, m=3)),
    (filtration_indices, dict(n=2, minor_size=2, t=3), dict(n=1, minor_size=1, t=1)),
    (identity_lhs, dict(a=1, b=3), dict(a=0, b=1)),
    (identity_rhs, dict(a=1, b=3), dict(a=0, b=1)),
    (weyl_dim, dict(weight=(2, 1, 0), n=3), dict(n=1)),
    (schur_dim, dict(shape=(2, 1), n=3), dict(n=1)),
    (ssyt_count, dict(shape=(2, 1), n=3), dict(n=1)),
    (nonvanishing_indices, dict(n=2, m=5), dict(n=2, m=3)),
    (dual_index, dict(m=3, n=2, j=3), dict(m=1, n=1, j=0)),
    (Partition([2, 1]).pad, dict(length=3), dict(length=2)),
    (verify_zset, dict(max_t=2), dict(max_t=1)),
    (verify_decomposition, dict(max_m=3, max_t=2), dict(max_m=3, max_t=1)),
    (verify_identities, dict(max_b=2), dict(max_b=0)),
    (verify_catalan, dict(max_m=4), dict(max_m=3)),
]
CHECKED_ARGUMENTS = [
    (fn, args, name, least) for fn, args, lows in CHECKED for name, least in lows.items()
]


@pytest.mark.parametrize(
    "fn, args, name, least",
    CHECKED_ARGUMENTS,
    ids=[f"{fn.__qualname__}-{name}" for fn, _, name, _ in CHECKED_ARGUMENTS],
)
@settings(max_examples=25)
@given(data=st.data())
def test_integer_arguments_are_checked(fn, args, name, least, data):
    fn(**args)
    with pytest.raises(TypeError):
        fn(**{**args, name: data.draw(st.one_of(st.booleans(), st.floats()))})
    with pytest.raises(ValueError):
        fn(**{**args, name: data.draw(st.integers(max_value=least - 1))})
