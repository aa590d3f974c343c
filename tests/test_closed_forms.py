import math
from fractions import Fraction

import pytest

from thickenings.closed_forms import (
    asymptotic_multiplicity,
    binom,
    catalan,
    cumulative_length,
    exact_quotient,
    identity_lhs,
    identity_rhs,
    layer_length_closed,
)
from thickenings.cohomology import dual_index, local_cohomology_length, nonvanishing_indices
from thickenings.filtration import (
    contributing_weights,
    cumulative_length_via_decomposition,
    filtration_indices,
    layer_summands,
    paired_weight,
)
from thickenings.schur import schur_dim, ssyt_count, weyl_dim
from thickenings.verify import (
    run,
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

    def test_matches_comb_in_range(self):
        for n in range(-5, 31):
            for k in range(-5, 36):
                assert binom(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)


def test_exact_quotient():
    assert exact_quotient(6, 3, "x") == 2
    with pytest.raises(ArithmeticError, match="x is not an integer"):
        exact_quotient(7, 2, "x")


class TestLayerLengthClosed:
    def test_m3(self):
        assert [layer_length_closed(3, t) for t in (1, 2, 3)] == [0, 1, 9]

    def test_m4_t2(self):
        assert layer_length_closed(4, 2) == 1


class TestCumulativeLength:
    def test_m3(self):
        assert [cumulative_length(3, t) for t in (1, 2, 3)] == [0, 1, 10]

    def test_strictly_increasing_from_t1(self):
        for m in range(3, 9):
            for t in range(1, 21):
                assert cumulative_length(m, t + 1) > cumulative_length(m, t)


class TestAsymptoticMultiplicity:
    def test_values(self):
        assert asymptotic_multiplicity(3) == Fraction(1, 144)
        assert isinstance(asymptotic_multiplicity(3), Fraction)
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


# Each function that checks its integer parameters with ``check_integer``:
# valid arguments, the least value of each checked one, and the largest
# value of each that has one.
CHECKED = [
    (layer_length_closed, dict(m=4, t=2), dict(m=3, t=1), {}),
    (cumulative_length, dict(m=4, t=2), dict(m=3, t=1), {}),
    (layer_summands, dict(m=4, t=2), dict(m=3, t=1), {}),
    (cumulative_length_via_decomposition, dict(m=4, t=2), dict(m=3, t=1), {}),
    (local_cohomology_length, dict(m=4, t=2, j=3), dict(m=3, t=1, j=0), dict(j=8)),
    (asymptotic_multiplicity, dict(m=4), dict(m=3), {}),
    (catalan, dict(m=4), dict(m=1), {}),
    (paired_weight, dict(weight=(-5, -5), m=4), dict(m=3), {}),
    (contributing_weights, dict(z=2, m=4), dict(z=0, m=3), {}),
    (filtration_indices, dict(n=2, minor_size=2, t=3), dict(n=1, minor_size=1, t=1), dict(minor_size=2)),
    (identity_lhs, dict(a=1, b=3), dict(a=0, b=1), {}),
    (identity_rhs, dict(a=1, b=3), dict(a=0, b=1), {}),
    (weyl_dim, dict(weight=(2, 1, 0), n=3), dict(n=1), {}),
    (schur_dim, dict(shape=(2, 1), n=3), dict(n=1), {}),
    (ssyt_count, dict(shape=(2, 1), n=3), dict(n=1), {}),
    (nonvanishing_indices, dict(n=3, m=5), dict(n=2, m=4), {}),
    (dual_index, dict(m=3, n=2, j=3), dict(m=1, n=1, j=0), dict(j=6)),
    (verify_zset, dict(max_t=2), dict(max_t=1), dict(max_t=100)),
    (verify_decomposition, dict(max_m=3, max_t=2), dict(max_m=3, max_t=1), dict(max_m=200, max_t=100)),
    (verify_identities, dict(max_b=2), dict(max_b=0), dict(max_b=400)),
    (verify_catalan, dict(max_m=4), dict(max_m=3), dict(max_m=200)),
    (
        run,
        dict(suite="zset", max_m=3, max_t=1, max_b=0),
        dict(max_m=3, max_t=1, max_b=0),
        dict(max_m=200, max_t=100, max_b=400),
    ),
]
CHECKED_ARGUMENTS = [
    (fn, args, name, least, highs.get(name))
    for fn, args, lows, highs in CHECKED
    for name, least in lows.items()
]


@pytest.mark.parametrize(
    "fn, args, name, least, most",
    CHECKED_ARGUMENTS,
    ids=[f"{fn.__qualname__}-{name}" for fn, _, name, _, _ in CHECKED_ARGUMENTS],
)
def test_integer_arguments_are_checked(fn, args, name, least, most):
    fn(**args)
    for bad in (True, False, 0.0, 3.0, 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(TypeError):
            fn(**{**args, name: bad})
    rules = [(f"least {least}", least - 1), (f"least {least}", least - 2**70)]
    if most is not None:
        rules += [(f"most {most}", most + 1), (f"most {most}", most + 2**70)]
    for rule, value in rules:
        with pytest.raises(ValueError, match=f"^{name} must be at {rule}, "):
            fn(**{**args, name: value})
