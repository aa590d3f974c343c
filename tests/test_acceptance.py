"""Acceptance suite: the headline claims, each at its stated bound.

Every criterion is one test that fails on any mismatch; ``pytest -v`` lists
them by name. The brute-force checks are the ``verify`` suites, run here at
the same or larger bounds than the CLI default; a suite that checks no case
fails. All comparisons are exact; the single limit statement is checked as
an exact rational inequality.
"""

from fractions import Fraction

from thickenings import verify
from thickenings.closed_forms import asymptotic_multiplicity, cumulative_length
from thickenings.cohomology import local_cohomology_length, nonvanishing_indices


def test_criterion_1_decomposition_reproduces_closed_form():
    # full pipeline: filtration indices -> weights -> paired weights ->
    # exact tensor dimensions -> layer and cumulative sums. The suite checks
    # the cumulative route at its top t only, so sweep the top t.
    assert all(verify.verify_decomposition(8, t).passed for t in range(1, 13))


def test_criterion_2_catalan_and_limit():
    assert verify.verify_catalan(20).passed
    m, t = 3, 2000
    ratio = Fraction(cumulative_length(m, t), t ** (2 * m))
    limit = asymptotic_multiplicity(m)
    assert abs(ratio - limit) / limit < Fraction(5, 100)


def test_criterion_3_filtration_index_characterization():
    # the filtration index set is ((z, z), 1) with z <= t - 1
    assert verify.verify_zset(20).passed


def test_criterion_4_schur_dimension_oracle():
    # the Weyl product equals the tableau count
    assert verify.verify_schur().passed


def test_criterion_5_binomial_identity():
    # the square-weighted binomial identity on 0 <= a <= b <= 80
    assert verify.verify_identities(80).passed


def test_criterion_6_telescoping():
    # the suite checks telescoping at every t up to its top t
    assert verify.verify_decomposition(10, 30).passed


def test_criterion_7_vanishing_structure():
    # graded duality: the partners 2m - i of the nonzero H^i_I indices are
    # the live indices, the top one is the only infinite length, and at t = 1
    # (R/I is Cohen-Macaulay) only the top one is nonzero; so H^j vanishes
    # away from j = 3 and j = m + 1
    for m in range(3, 9):
        live = {2 * m - i for i in nonvanishing_indices(2, m)}
        for t in range(1, 11):
            lengths = {j: local_cohomology_length(m, t, j) for j in range(2 * m + 1)}
            nonzero = {j for j, v in lengths.items() if v != 0}
            infinite = {j for j, v in lengths.items() if v is None}
            assert nonzero == (live if t >= 2 else {max(live)}), (m, t)
            assert infinite == {max(live)}, (m, t)
