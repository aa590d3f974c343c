import contextlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from test_golden import invoke

from thickenings import verify
from thickenings.cli import main
from thickenings.closed_forms import cumulative_length, exact_quotient, layer_length_closed

TABLE = ("table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "2")
TABLE_TEXT = "m,t,layer,cumulative\n3,1,0,0\n3,2,1,1\n"


class TestTable:
    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        assert invoke(*TABLE, "--out", str(target))[0] == 0
        assert target.read_text() == TABLE_TEXT
        # a second write replaces the existing file
        assert invoke(*TABLE[:5], "--t-min", "3", "--t-max", "3", "--out", str(target))[0] == 0
        assert target.read_text() == "m,t,layer,cumulative\n3,3,9,10\n"
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        leftovers = [p for p in tmp_path.iterdir() if p.name != "table.csv"]
        assert leftovers == []

    def test_out_through_symlink_writes_its_target(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        assert invoke(*TABLE, "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == TABLE_TEXT
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_out_into_missing_directory_is_one_line_error(self, tmp_path):
        # main turns any exception that is not a usage error into one Error:
        # line and exit 1, so invoke sees no raw exception from the command.
        # The line names the path given, not the temp file beside it.
        code, out, err = invoke(*TABLE, "--out", str(tmp_path / "missing" / "table.csv"))
        assert (code, out) == (1, "")
        assert err.startswith("Error: ") and err.count("\n") == 1
        assert os.path.join("missing", "table.csv'") in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_stale_temp_file_is_named_and_kept(self, tmp_path):
        target = tmp_path / "table.csv"
        stale = tmp_path / f"table.csv.{os.getpid()}.tmp"
        stale.write_text("left by a killed run\n")
        code, out, err = invoke(*TABLE, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("Error: ") and f"{stale.name}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name]

    def test_out_to_existing_directory_is_usage_error(self, tmp_path):
        code, out, err = invoke(*TABLE, "--out", str(tmp_path))
        assert (code, out) == (2, "") and "is a directory" in err
        assert list(tmp_path.iterdir()) == []
        assert list(tmp_path.parent.glob(f"{tmp_path.name}*.tmp")) == []

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        target.write_text("old\n")

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        assert invoke(*TABLE, "--out", str(target)) == (1, "", "Error: [Errno 28] No space left on device\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_failure_mid_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        target.write_text("old\n")

        def fails_at_five(m, t):
            if t == 5:
                raise ArithmeticError("no cumulative length at t = 5")
            return cumulative_length(m, t)

        monkeypatch.setattr("thickenings.cli.cumulative_length", fails_at_five)
        code, out, err = invoke(*TABLE[:8], "9", "--out", str(target))
        assert (code, out, err) == (1, "", "Error: no cumulative length at t = 5\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_json_parses_to_the_closed_forms(self):
        code, out, _ = invoke("table", "--m-min", "3", "--m-max", "5", "--t-min", "1", "--t-max", "40", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"m": m, "t": t, "layer": str(layer_length_closed(m, t)), "cumulative": str(cumulative_length(m, t))}
            for m in range(3, 6)
            for t in range(1, 41)
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_rows(self, fmt, monkeypatch):
        # 20 000 rows take several MB as text; streamed, the peak is one
        # write's worth of rows. tracemalloc sees this run alone, where a
        # child's ru_maxrss starts from the peak of the pytest that forked it.
        # Powers with a few more digits than the lengths stand in for the
        # closed forms, whose traced arithmetic would take most of a second.
        monkeypatch.setattr("thickenings.cli.layer_length_closed", lambda m, t: t**5)
        monkeypatch.setattr("thickenings.cli.cumulative_length", lambda m, t: t**6)
        args = ["table", "--m-min", "3", "--m-max", "3", "--t-min", "1", "--t-max", "20000", "--format", fmt]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                main.main(args=args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_out_is_usage_error(self, tmp_path, monkeypatch):
        # '' resolves to the working directory, as _write_atomic would read it.
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        code, out, _ = invoke(*TABLE, "--out", "")
        assert (code, out) == (2, "")
        assert list(tmp_path.glob("*.tmp")) == []


class TestDecompose:
    @pytest.mark.parametrize("flags, verdict", [((), "[MISMATCH]"), (("--json",), '"match": false')], ids=["text", "json"])
    def test_mismatch_exits_one(self, monkeypatch, flags, verdict):
        monkeypatch.setattr("thickenings.cli.layer_length_closed", lambda m, t: layer_length_closed(m, t) + 1)
        code, out, _ = invoke("decompose", "--m", "3", "--t", "3", *flags)
        assert code == 1
        assert verdict in out


class TestVerify:
    def test_run_unknown_suite(self):
        with pytest.raises(ValueError):
            verify.run("nope")

    def test_run_unknown_bound(self):
        with pytest.raises(TypeError, match="max_x"):
            verify.run("zset", max_x=1)

    def test_bounds_at_their_caps_are_accepted(self):
        # catalan reads only --max-m, so every cap is accepted in well under a
        # second. CI's decomposition step runs --max-m 200 --max-t 24.
        code, _, _ = invoke("verify", "--suite", "catalan", "--max-m", "200", "--max-t", "100", "--max-b", "400")
        assert code == 0

    def test_failure_exits_one(self, monkeypatch):
        monkeypatch.setattr(verify, "catalan", lambda m: -1)
        code, out, _ = invoke("verify", "--suite", "catalan", "--max-m", "10")
        assert code == 1
        assert out.splitlines() == [
            "catalan: FAIL (8 failed) (8 cases)",
            *(f"  Catalan identity fails at m={m}" for m in range(3, 8)),
            "  ... and 3 more",
        ]

    def test_untelescoped_layers_are_named(self, monkeypatch):
        # The cumulative form is one too large from t = 5 on, so the layer
        # sums first stop telescoping there, and the top t fails too.
        monkeypatch.setattr(verify, "cumulative_length", lambda m, t: cumulative_length(m, t) + (1 if t >= 5 else 0))
        code, out, _ = invoke("verify", "--suite", "decomposition", "--max-m", "3", "--max-t", "6")
        assert code == 1
        assert out.splitlines() == [
            "decomposition: FAIL (2 failed) (8 cases)",
            "  cumulative decomposition mismatch at m=3, t=6",
            "  layer sums do not telescope at m=3, t=5",
        ]

    def test_zero_case_suite_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "verify_zset", lambda **bounds: verify.SuiteResult("zset"))
        code, out, _ = invoke("verify", "--suite", "zset")
        assert code == 1
        assert out == "zset: FAIL (no case checked)\n"

    def test_a_table_row_is_a_suite(self, monkeypatch):
        # In the package a new suite is one SUITES row plus its verify_<name>
        # function: run passes it the row's default, or the bound given, with
        # no other edit to src/. (bench/tracer.py's VERIFY_SUITES is apart.)
        calls = []

        def verify_extra(max_t):
            calls.append(max_t)
            return verify.SuiteResult("extra")

        monkeypatch.setitem(verify.SUITES, "extra", {"max_t": 7})
        monkeypatch.setattr(verify, "verify_extra", verify_extra, raising=False)
        assert [r.name for r in verify.run("all")][-2:] == ["catalan", "extra"]
        assert [r.name for r in verify.run("extra", max_t=3)] == ["extra"]
        assert calls == [7, 3]


# A command line the parser refuses, and its message on stderr: exit 2, nothing on stdout.
USAGE_ERRORS = {
    "no-command": ((), "the following arguments are required: COMMAND"),
    "unknown-command": (("nope",), "argument COMMAND: invalid choice: 'nope' (choose from "
                        "'length', 'table', 'decompose', 'verify')"),
    "unknown-flag": (("length", "--m", "3", "--t", "3", "--bogus"), "unrecognized arguments: --bogus"),
    "abbreviated-flag": (("length", "--m", "3", "--t", "3", "--js"), "unrecognized arguments: --js"),
    "stray-word": (("length", "--m", "3", "--t", "3", "stray"), "unrecognized arguments: stray"),
    "flag-with-value": (("length", "--m", "3", "--t", "3", "--json=1"), "unrecognized arguments: --json=1"),
    "no-value-at-end": (("length", "--t", "3", "--m"), "argument --m: expected one argument"),
    "flag-as-value": (("length", "--m", "--t", "3"), "argument --m: expected one argument"),
    "not-an-int": (("length", "--m", "x", "--t", "3"), "argument --m: invalid int value: 'x'"),
    "unknown-format": (TABLE + ("--format", "xml"), "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    "unknown-suite": (("verify", "--suite", "nonsense"), "argument --suite: invalid choice: 'nonsense' (choose from "
                      "'schur', 'zset', 'decomposition', 'identities', 'catalan', 'all')"),
    "missing-flag": (("length", "--m", "3"), "the following arguments are required: --t"),
    "missing-flags": (("length",), "the following arguments are required: --m, --t"),
    # A negative value is a value; the library's range check refuses it.
    "negative-value": (("length", "--m", "3", "--t", "-1"), "t must be at least 1, got -1"),
}


@pytest.mark.parametrize("args, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error(args, message):
    code, out, err = invoke(*args)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    prog = f"thickenings {args[0]}" if args and args[0] in main.commands else "thickenings"
    assert usage.startswith(f"usage: {prog} [--help] ")
    assert error == f"{prog}: error: {message}"


def test_values_after_equals_signs():
    assert invoke("length", "--m=3", "--t=3") == (0, "finite 10\n", "")


def test_help_needs_no_required_flag():
    code, out, err = invoke("length", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: thickenings length [--help] --m M --t T [--j J] [--json]\n")


# Each command's options as its --help lists them, whitespace collapsed.
HELP = {
    None: [
        "length Length of H^j_m(R/I^t): zero, finite, or infinite.",
        "table Layer and cumulative lengths over an (m, t) grid, m ascending then t.",
        "decompose List the weight summands of the layer new at power t.",
        "verify Run brute-force verification suites; exit 0 only if every case passes.",
    ],
    "length": [
        "--m M Number of matrix columns, at least 3.",
        "--t T Power of the ideal, at least 1.",
        "--j J Cohomological index, 0..2m (default: 3).",
        "--json Emit the JSON form instead of text.",
    ],
    "table": [
        "--m-min M_MIN Smallest m, at least 3.",
        "--m-max M_MAX Largest m, at least --m-min.",
        "--t-min T_MIN Smallest t, at least 1.",
        "--t-max T_MAX Largest t, at least --t-min.",
        "--format {csv,json} Output format (default: csv).",
        "--out FILE Write atomically to a file instead of stdout.",
    ],
    "decompose": [
        "--m M Number of matrix columns, at least 3.",
        "--t T Power of the ideal whose new layer is listed, at least 1.",
        "--json Emit the summand list as JSON.",
    ],
    "verify": [
        "--suite {schur,zset,decomposition,identities,catalan,all} Suite to run, or all of them.",
        "--max-m MAX_M Upper m bound, 3..200 (default: 8 for decomposition, 20 for catalan).",
        "--max-t MAX_T Upper t bound, 1..100 (default: 20 for zset, 12 for decomposition).",
        "--max-b MAX_B Upper b bound, 0..400 (default: 40 for identities).",
    ],
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "main")
def test_help_names_every_option(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside an entry
    code, out, err = invoke(*([command] if command else []), "--help")
    assert (code, err) == (0, "")
    text = " ".join(out.split())
    for entry in HELP[command] + ["--help Show this message and exit."]:
        assert entry in text


def test_interrupt_prints_aborted_without_traceback(monkeypatch):
    def interrupted(**options):
        raise KeyboardInterrupt

    monkeypatch.setattr(main.commands["length"], "callback", interrupted)
    assert invoke("length", "--m", "3", "--t", "3") == (1, "", "\nAborted!\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no str(int) digit limit")
def test_int_digit_limit_is_put_back():
    # main lifts the limit for its own run only, whether the command
    # succeeds (a 4327-digit length) or exits with a usage error. The test
    # starts from the default, whatever limit an earlier test left.
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for args, code in ((("length", "--m", "3600", "--t", "3600"), 0), (("length", "--m", "2", "--t", "1"), 2)):
            assert invoke(*args)[0] == code
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_runs_without_a_digit_limit(monkeypatch):
    # Pythons before 3.10.7 have no str(int) digit limit to lift.
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert invoke("length", "--m", "3", "--t", "3") == (0, "finite 10\n", "")


def test_other_failure_is_one_error_line(monkeypatch):
    monkeypatch.setattr(main.commands["length"], "callback", lambda **options: exact_quotient(1, 2, "the length"))
    assert invoke("length", "--m", "3", "--t", "3") == (1, "", "Error: the length is not an integer\n")


@pytest.mark.parametrize(
    "args, head",
    [
        (("table", "--m-min", "3", "--m-max", "40", "--t-min", "1", "--t-max", "500"), b"m,t,layer,cumulative"),
        (("length", "--m", "3", "--t", "3"), b""),
    ],
    ids=["mid-write", "at-flush"],
)
def test_closed_pipe_exits_one_silently(args, head):
    # The table (2.25 MB, far more than a pipe holds) meets the closed pipe
    # mid-write; the length line meets it at the flush, where only the switch
    # to devnull keeps the flush at exit from failing again. ``invoke`` has
    # no real stdout file descriptor, so each runs in a subprocess, buffered
    # and under PYTHONUNBUFFERED. Unbuffered, a write cut short by the reader
    # is dropped silently, so only the table's next write of 1024 rows raises;
    # a reader who closes during the last write can still go unseen (exit 0).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cmd = [sys.executable, "-m", "thickenings.cli", *args]
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, **unbuffered}) as proc:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""
