import pytest

from thickenings import verify


def test_run_unknown_suite():
    with pytest.raises(ValueError):
        verify.run("nope")


def test_zero_case_suite_fails():
    assert not verify.SuiteResult("zset").passed


def test_failures_are_reported(monkeypatch):
    monkeypatch.setattr(verify, "catalan", lambda m: -1)
    res = verify.verify_catalan(max_m=5)
    assert not res.passed
    assert res.failures == [f"Catalan identity fails at m={m}" for m in (3, 4, 5)]
