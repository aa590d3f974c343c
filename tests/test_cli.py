import os

import pytest
from click.testing import CliRunner

from thickenings import verify
from thickenings.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestTable:
    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        result = invoke(
            "table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "2",
            "--out", str(target),
        )
        assert result.exit_code == 0
        assert target.read_text() == "m,t,layer,cumulative\n3,1,0,0\n3,2,1,1\n"
        # a second write replaces the existing file
        result = invoke(
            "table", "--m-min", "3", "--m-max", "3", "--t-min", "3", "--t-max", "3",
            "--out", str(target),
        )
        assert result.exit_code == 0
        assert target.read_text() == "m,t,layer,cumulative\n3,3,9,10\n"
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        leftovers = [p for p in tmp_path.iterdir() if p.name != "table.csv"]
        assert leftovers == []

    def test_out_into_missing_directory_is_click_error(self, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        result = invoke(
            "table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "2",
            "--out", str(target),
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("zset", "--max-t", "0"),
            ("identities", "--max-b", "-3"),
            ("decomposition", "--max-m", "2"),
            ("decomposition", "--max-t", "0"),
        ],
    )
    def test_bound_out_of_range_is_usage_error(self, suite, flag, value):
        result = invoke("verify", "--suite", suite, flag, value)
        assert result.exit_code == 2
        assert "PASS" not in result.output

    def test_bounds_at_their_caps_are_accepted(self):
        # catalan reads only --max-m, so every cap is parsed in well under a
        # second. CI's decomposition step runs --max-m 200 --max-t 24.
        result = invoke("verify", "--suite", "catalan", "--max-m", "200", "--max-t", "100", "--max-b", "400")
        assert result.exit_code == 0

    def test_unknown_suite_is_usage_error(self):
        result = invoke("verify", "--suite", "nonsense")
        assert result.exit_code == 2

    def test_failure_exits_one(self, monkeypatch):
        monkeypatch.setattr(verify, "catalan", lambda m: -1)
        result = invoke("verify", "--suite", "catalan", "--max-m", "5")
        assert result.exit_code == 1
        assert result.output.splitlines() == ["catalan: FAIL (3 failed) (3 cases)"] + [
            f"  Catalan identity fails at m={m}" for m in (3, 4, 5)
        ]

    def test_zero_case_suite_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "verify_zset", lambda **bounds: verify.SuiteResult("zset"))
        result = invoke("verify", "--suite", "zset")
        assert result.exit_code == 1
        assert result.output == "zset: FAIL (no case checked)\n"
