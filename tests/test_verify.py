import pytest

from thickenings import verify


def test_schur_suite_passes():
    res = verify.verify_schur()
    assert res.passed
    assert res.cases == 426


def test_zset_suite_passes():
    res = verify.verify_zset(max_t=20)
    assert res.passed
    assert res.cases == 20


def test_decomposition_suite_passes():
    res = verify.verify_decomposition(max_m=6, max_t=8)
    assert res.passed


def test_identities_suite_counts():
    res = verify.verify_identities(max_b=40)
    assert res.passed
    assert res.cases == 861


def test_catalan_suite_counts():
    res = verify.verify_catalan(max_m=20)
    assert res.passed
    assert res.cases == 18


def test_run_all():
    results = verify.run("all", max_m=5, max_t=6, max_b=10)
    assert [r.name for r in results] == list(verify.SUITE_NAMES)
    assert all(r.passed for r in results)


def test_run_unknown_suite():
    with pytest.raises(ValueError):
        verify.run("nope")


def test_zero_case_suite_fails():
    res = verify.SuiteResult("zset")
    assert not res.passed
    assert res.summary() == "zset: FAIL (no case checked)"


def test_failures_are_reported(monkeypatch):
    monkeypatch.setattr(verify, "catalan", lambda m: -1)
    res = verify.verify_catalan(max_m=5)
    assert not res.passed
    assert res.cases == 3
    assert "FAIL" in res.summary()
