import json

import pytest
from click.testing import CliRunner

from thickenings import verify
from thickenings.cli import main
from thickenings.closed_forms import cumulative_length, layer_length_closed


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestLength:
    def test_json(self):
        result = invoke("length", "--m", "3", "--t", "3", "--json")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"kind": "finite", "value": "10"}


class TestTable:
    def test_csv(self):
        result = invoke("table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "3")
        assert result.exit_code == 0
        assert result.output == (
            "m,t,layer,cumulative\n"
            "3,1,0,0\n"
            "3,2,1,1\n"
            "3,3,9,10\n"
        )

    def test_csv_round_trips(self):
        result = invoke(
            "table", "--m-min", "3", "--m-max", "5", "--t-min", "1", "--t-max", "6"
        )
        assert result.exit_code == 0
        header, *rows = result.output.splitlines()
        assert header == "m,t,layer,cumulative"
        rebuilt = ["m,t,layer,cumulative"]
        for row in rows:
            m, t, layer, cumulative = row.split(",")
            m, t = int(m), int(t)
            assert layer == str(layer_length_closed(m, t))
            assert cumulative == str(cumulative_length(m, t))
            rebuilt.append(f"{m},{t},{layer_length_closed(m, t)},{cumulative_length(m, t)}")
        assert "\n".join(rebuilt) + "\n" == result.output

    def test_row_order(self):
        result = invoke(
            "table", "--m-min", "3", "--m-max", "4", "--t-min", "1", "--t-max", "2",
            "--format", "json",
        )
        rows = json.loads(result.output)
        assert [(r["m"], r["t"]) for r in rows] == [(3, 1), (3, 2), (4, 1), (4, 2)]

    def test_json_values_are_strings(self):
        result = invoke(
            "table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "3",
            "--format", "json",
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert rows[2] == {"m": 3, "t": 3, "layer": "9", "cumulative": "10"}
        # stable key order
        pairs = json.loads(
            result.output, object_pairs_hook=lambda kv: [k for k, _ in kv]
        )
        assert pairs == [["m", "t", "layer", "cumulative"]] * 3

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        result = invoke(
            "table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "2",
            "--out", str(target),
        )
        assert result.exit_code == 0
        assert target.read_text() == "m,t,layer,cumulative\n3,1,0,0\n3,2,1,1\n"
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


class TestDecompose:
    def test_m3_t3(self):
        result = invoke("decompose", "--m", "3", "--t", "3")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 3
        assert lines[0] == "epsilon=0  lambda=(-4, -4)  lambda_s=(-2, -3, -3)  dim=3"
        assert lines[1] == "epsilon=1  lambda=(-3, -4)  lambda_s=(-2, -2, -3)  dim=6"
        assert lines[2] == "total=9  closed_form=9  [match]"

    def test_t1_empty(self):
        result = invoke("decompose", "--m", "3", "--t", "1")
        assert result.exit_code == 0
        assert result.output == "total=0  closed_form=0  [match]\n"

    def test_json(self):
        result = invoke("decompose", "--m", "4", "--t", "2", "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["match"] is True
        assert payload["total"] == payload["closed_form"] == "1"
        (summand,) = payload["summands"]
        assert summand == {
            "epsilon": 0,
            "lambda": [-4, -4],
            "lambda_s": [-2, -2, -2, -2],
            "dim": "1",
        }


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
