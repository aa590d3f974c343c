"""Tests of the benchmark itself: its gate, its counters and its contract.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
import workloads
from tracer import Tracer, span_names
from workloads import ROOT, SRC, check_cli, run_cli, run_pass

sys.path.insert(0, str(SRC))
import thickenings  # noqa: E402
from thickenings import closed_forms, filtration, schur  # noqa: E402

CLOSED = SimpleNamespace(
    cumulative_length=closed_forms.cumulative_length,
    layer_length_closed=closed_forms.layer_length_closed,
)


def test_pass_is_clean_at_this_commit(monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_GAP_S", 0.0)
    record = run_pass("decomp-wide", seed=3, n_cases=2)
    assert record["attempted"] == 2
    assert record["failures"] == []
    # With no gap, one reference run before each case and one after the last.
    refs = [r / 1000.0 for r in record["reference_ms"]]
    assert len(refs) == 3
    expected = [workloads.scaled_ms(raw / 1000.0, refs[i], refs[i + 1]) for i, raw in enumerate(record["raw_times_ms"])]
    assert record["times_ms"] == pytest.approx(expected)


def test_case_times_are_scaled_to_the_reference_speed():
    ref = workloads.REFERENCE_MS / 1000.0
    # A case timed while the reference took twice its nominal time reads half as long.
    assert workloads.scaled_ms(0.2, 2 * ref, 2 * ref) == pytest.approx(100.0)
    assert workloads.scaled_ms(0.2, ref, 3 * ref) == pytest.approx(100.0)
    assert workloads.scaled_ms(0.2, ref, ref) == pytest.approx(200.0)


def test_gate_catches_a_wrong_decomposition(monkeypatch):
    wrong = lambda m, t: closed_forms.cumulative_length(m, t) + 1  # noqa: E731
    monkeypatch.setattr(thickenings, "cumulative_length_via_decomposition", wrong)
    record = run_pass("decomp-wide", seed=3, n_cases=5)
    assert len(record["failures"]) == 5


def test_gate_counts_a_raising_case_as_failed(monkeypatch):
    def boom(m, t):
        raise ValueError("broken")

    monkeypatch.setattr(thickenings, "cumulative_length_via_decomposition", boom)
    record = run_pass("decomp-wide", seed=3, n_cases=2)
    assert record["attempted"] == 2
    assert all("raised" in f for f in record["failures"])


CLI_CASES = [
    ["length", "--m", "5", "--t", "7", "--j", "3", "--json"],
    ["length", "--m", "5", "--t", "7", "--j", "6", "--json"],
    ["length", "--m", "5", "--t", "7", "--j", "2", "--json"],
    ["table", "--m-min", "3", "--m-max", "5", "--t-min", "1", "--t-max", "6", "--format", "csv"],
    ["table", "--m-min", "3", "--m-max", "5", "--t-min", "1", "--t-max", "6", "--format", "json"],
    ["decompose", "--m", "6", "--t", "5", "--json"],
    ["verify", "--suite", "all"],
]


def _tamper(out: str) -> str:
    """A wrong answer: one suite failing, a swapped kind, or one digit off."""
    if "PASS" in out:
        return out.replace("PASS", "FAIL (1 failed)", 1)
    if '"zero"' in out or '"infinite"' in out:
        return out.replace('"zero"', '"swap"').replace('"infinite"', '"zero"').replace('"swap"', '"infinite"')
    for i in range(len(out) - 1, -1, -1):
        if out[i] in "123456789":
            return out[:i] + str(int(out[i]) - 1) + out[i + 1:]
    raise AssertionError("no digit to tamper with")


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda a: " ".join(a[:1] + a[-1:]))
def test_cli_gate_accepts_right_and_rejects_wrong_output(argv):
    code, out, _, _ = run_cli(argv, traced=False, env=workloads.python_env())
    assert check_cli(argv, code, out, CLOSED) is None
    assert check_cli(argv, 1, out, CLOSED) is not None
    assert check_cli(argv, code, _tamper(out), CLOSED) is not None
    assert check_cli(argv, code, out[: len(out) // 2], CLOSED) is not None


def test_verify_gate_rejects_a_zero_case_suite():
    out = "".join(f"{s}: PASS (0 cases)\n" for s in workloads.VERIFY_SUITES) + "all checks passed\n"
    assert check_cli(["verify", "--suite", "all"], 0, out, CLOSED) is not None


def test_traced_cli_keeps_stdout_and_reports_spans():
    argv = CLI_CASES[0]
    env = workloads.python_env()
    plain = run_cli(argv, traced=False, env=env)
    code, out, _, trace = run_cli(argv, traced=True, env=env)
    assert (code, out) == plain[:2]
    assert trace["calls"]["cli.length"] == 1
    assert trace["calls"]["cohomology.local_cohomology_length"] == 1


def test_tracer_counts_and_restores():
    originals = (filtration.filtration_indices, schur.weyl_dim, thickenings.Partition.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert thickenings.cumulative_length_via_decomposition(3, 3) == closed_forms.cumulative_length(3, 3)
        assert isinstance(thickenings.Partition([1]), thickenings.Partition)
    finally:
        tracer.uninstall()
    assert (filtration.filtration_indices, schur.weyl_dim, thickenings.Partition.__init__) == originals
    counts = tracer.counts
    assert tracer.calls["filtration.filtration_indices"] == 1
    assert counts["filtration.candidates"] == 12  # t (t + 1) at t = 3
    assert counts["filtration.kept"] == 3
    assert counts["filtration.weights"] == 3  # z = 0, 1, 2 give 0 + 1 + 2 weights
    assert tracer.calls["schur.tensor_pair_dim"] == 3
    assert tracer.calls["schur.weyl_dim"] == 6
    assert counts["schur.weyl_factors"] == 3 * (3 + 1)  # per pair: C(3, 2) + C(2, 2)
    # Self times and hook time add up to the time spent inside the top-level span.
    total = sum(tracer.self_s.values()) + tracer.hooks_s
    assert total == pytest.approx(tracer.spanned_s, rel=1e-9)


def test_count_check_flags_any_difference():
    first = {"calls": {"schur.weyl_dim": 6}, "counts": {"filtration.kept": 3}}
    second = {"calls": {"schur.weyl_dim": 6}, "counts": {"filtration.kept": 4}}
    assert run.count_differences(first, first) == []
    assert run.count_differences(first, second) == ["filtration.kept: 3 != 4"]


def test_tail_is_a_nearest_rank_percentile():
    assert run.tail([float(i) for i in range(100, 0, -1)], 90) == (90.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)], 99) == (990.0, 10)
    assert run.tail([5.0], 75) == (5.0, 0)


def test_case_lists_repeat_for_a_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.case_list_sha256(workload, 5) == workloads.case_list_sha256(workload, 5)
        assert workloads.case_list_sha256(workload, 5) != workloads.case_list_sha256(workload, 6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert len(span_names()) == 19


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "decomp-wide", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
