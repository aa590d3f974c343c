"""CLI output pinned byte for byte against files in ``tests/golden/``.

Each case runs one command in-process through ``invoke`` and compares its
stdout with ``tests/golden/<name>.txt`` and its exit code with the table.
To capture the files again from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from thickenings.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("length-finite", ["length", "--m", "3", "--t", "3"], 0),
    ("length-zero", ["length", "--m", "4", "--t", "1"], 0),
    ("length-infinite", ["length", "--m", "5", "--t", "2", "--j", "6"], 0),
    ("length-finite-json", ["length", "--m", "7", "--t", "40", "--json"], 0),
    ("length-zero-json", ["length", "--m", "6", "--t", "9", "--j", "5", "--json"], 0),
    ("length-infinite-json", ["length", "--m", "6", "--t", "9", "--j", "7", "--json"], 0),
    ("length-4327-digits", ["length", "--m", "3600", "--t", "3600"], 0),
    ("table-csv", ["table", "--m-min", "3", "--m-max", "12", "--t-min", "1", "--t-max", "60"], 0),
    (
        "table-json",
        ["table", "--m-min", "3", "--m-max", "8", "--t-min", "1", "--t-max", "30", "--format", "json"],
        0,
    ),
    ("decompose", ["decompose", "--m", "5", "--t", "6"], 0),
    ("decompose-json", ["decompose", "--m", "7", "--t", "9", "--json"], 0),
    ("decompose-empty-layer", ["decompose", "--m", "3", "--t", "1"], 0),
    ("verify-all", ["verify", "--suite", "all"], 0),
    ("verify-all-bounded", ["verify", "--suite", "all", "--max-m", "5", "--max-t", "6", "--max-b", "10"], 0),
    # Usage errors: exit code 2, and the message goes to stderr only.
    ("length-narrow-matrix", ["length", "--m", "2", "--t", "1"], 2),
    ("length-zero-power", ["length", "--m", "3", "--t", "0"], 2),
    ("length-index-out-of-range", ["length", "--m", "3", "--t", "1", "--j", "7"], 2),
    ("decompose-narrow-matrix", ["decompose", "--m", "2", "--t", "3"], 2),
    ("decompose-zero-power", ["decompose", "--m", "3", "--t", "0"], 2),
    ("table-narrow-matrix", ["table", "--m-min", "2", "--m-max", "4", "--t-min", "1", "--t-max", "3"], 2),
    ("table-zero-power", ["table", "--m-min", "3", "--m-max", "4", "--t-min", "0", "--t-max", "3"], 2),
    ("table-empty-range", ["table", "--m-min", "4", "--m-max", "3", "--t-min", "1", "--t-max", "2"], 2),
    ("verify-max-m-over-cap", ["verify", "--suite", "all", "--max-m", "201"], 2),
    ("verify-max-t-over-cap", ["verify", "--suite", "all", "--max-t", "1000000"], 2),
    ("verify-max-b-over-cap", ["verify", "--suite", "all", "--max-b", "401"], 2),
]


def invoke(*args):
    """Run the CLI in-process on ``args``; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(args), prog_name="thickenings")
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, args, exit_code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, args, exit_code):
    code, stdout, stderr = invoke(*args)
    assert code == exit_code
    assert stdout.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    assert bool(stderr) == (exit_code == 2)


def test_every_golden_file_is_a_case():
    # The capture below rewrites only the CASES files, so a renamed or
    # deleted row would otherwise leave a stale file that no test reads.
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(name for name, _, _ in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args, exit_code in CASES:
        code, stdout, _ = invoke(*args)
        assert code == exit_code, (name, code)
        (GOLDEN / f"{name}.txt").write_bytes(stdout.encode())
