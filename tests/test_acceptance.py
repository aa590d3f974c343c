"""Acceptance suite: the headline claims, each at its stated bound.

Every criterion prints one pass/fail line (run with ``pytest -s`` to see
them) and fails its test on any mismatch. The brute-force checks are the
``verify`` suites, run here at the same or larger bounds than the CLI
default; a suite that checks no case fails. All comparisons are exact; the
single limit statement is checked as an exact rational inequality.
"""

from fractions import Fraction

from thickenings import verify
from thickenings.closed_forms import asymptotic_multiplicity, cumulative_length
from thickenings.cohomology import dual_index, local_cohomology_length, nonvanishing_indices


def _criterion(name, thunk):
    try:
        ok = thunk()
    except Exception as exc:
        print(f"[acceptance] {name}: FAIL ({exc!r})")
        raise
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_decomposition_reproduces_closed_form():
    # full pipeline: filtration indices -> weights -> paired weights ->
    # exact tensor dimensions -> layer and cumulative sums. The suite checks
    # the cumulative route at its top t only, so sweep the top t.
    def run():
        return all(verify.verify_decomposition(8, t).passed for t in range(1, 13))

    _criterion("1 length via decomposition equals closed form", run)


def test_criterion_2_catalan_and_limit():
    def run():
        if not verify.verify_catalan(20).passed:
            return False
        m, t = 3, 2000
        ratio = Fraction(cumulative_length(m, t), t ** (2 * m))
        limit = asymptotic_multiplicity(m)
        return abs(ratio - limit) / limit < Fraction(5, 100)

    _criterion("2 Catalan corollary and asymptotic ratio", run)


def test_criterion_3_filtration_index_characterization():
    _criterion(
        "3 filtration index set is ((z, z), 1), z <= t-1",
        lambda: verify.verify_zset(20).passed,
    )


def test_criterion_4_schur_dimension_oracle():
    _criterion("4 Weyl product equals tableau count", lambda: verify.verify_schur().passed)


def test_criterion_5_binomial_identity():
    _criterion(
        "5 square-weighted binomial identity on 0 <= a <= b <= 40",
        lambda: verify.verify_identities(40).passed,
    )


def test_criterion_6_telescoping():
    # the suite checks telescoping at every t up to its top t
    _criterion(
        "6 layer sums telescope to the cumulative form",
        lambda: verify.verify_decomposition(10, 30).passed,
    )


def test_criterion_7_vanishing_structure():
    # graded duality: the partners of the nonzero H^j_I indices are the live
    # indices, the top one is the only infinite length, and at t = 1 (R/I is
    # Cohen-Macaulay) only the top one is nonzero
    def run():
        for m in range(3, 9):
            live = {dual_index(m, 2, i) for i in nonvanishing_indices(2, m)}
            for t in range(1, 11):
                lengths = {j: local_cohomology_length(m, t, j) for j in range(2 * m + 1)}
                nonzero = {j for j, v in lengths.items() if v != 0}
                infinite = {j for j, v in lengths.items() if v is None}
                if nonzero != (live if t >= 2 else {max(live)}) or infinite != {max(live)}:
                    return False
        return True

    _criterion("7 vanishing away from j = 3 and j = m + 1", run)
