"""CLI output pinned byte for byte against files in ``tests/golden/``.

Each case runs one command in-process through ``invoke``, which must exit 0
with nothing on stderr, and compares its stdout with
``tests/golden/<name>.txt``. Usage errors, which print nothing on stdout, are
pinned with their message in ``test_cli.USAGE_ERRORS`` instead.
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
    ("length-finite", ["length", "--m", "3", "--t", "3"]),
    ("length-zero", ["length", "--m", "4", "--t", "1"]),
    ("length-infinite", ["length", "--m", "5", "--t", "2", "--j", "6"]),
    ("length-finite-json", ["length", "--m", "7", "--t", "40", "--json"]),
    ("length-zero-json", ["length", "--m", "6", "--t", "9", "--j", "5", "--json"]),
    ("length-infinite-json", ["length", "--m", "6", "--t", "9", "--j", "7", "--json"]),
    ("length-4327-digits", ["length", "--m", "3600", "--t", "3600"]),
    ("table-csv", ["table", "--m-min", "3", "--m-max", "12", "--t-min", "1", "--t-max", "60"]),
    ("table-json", ["table", "--m-min", "3", "--m-max", "8", "--t-min", "1", "--t-max", "30", "--format", "json"]),
    ("decompose", ["decompose", "--m", "5", "--t", "6"]),
    ("decompose-json", ["decompose", "--m", "7", "--t", "9", "--json"]),
    ("decompose-empty-layer", ["decompose", "--m", "3", "--t", "1"]),
    ("verify-all", ["verify", "--suite", "all"]),
    ("verify-all-bounded", ["verify", "--suite", "all", "--max-m", "5", "--max-t", "6", "--max-b", "10"]),
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


@pytest.mark.parametrize("name, args", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, args):
    code, stdout, stderr = invoke(*args)
    assert (code, stderr) == (0, "")
    assert stdout.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def test_every_golden_file_is_a_case():
    # The capture below rewrites only the CASES files, so a renamed or
    # deleted row would otherwise leave a stale file that no test reads.
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES:
        code, stdout, _ = invoke(*args)
        assert code == 0, (name, code)
        (GOLDEN / f"{name}.txt").write_bytes(stdout.encode())
