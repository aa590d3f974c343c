"""What importing the package loads, each check in a fresh interpreter.

Each check diffs ``sys.modules`` around the import, so it holds whatever
``site`` preloads. The child inherits the environment, so it imports the
package the tests run against (``PYTHONPATH=src`` or the installed one).
"""

import subprocess
import sys

import pytest


def newly_loaded(module: str) -> set[str]:
    """Modules a fresh interpreter adds to ``sys.modules`` for ``import module``."""
    code = f"import sys\nbefore = set(sys.modules)\nimport {module}\nprint(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module, absent",
    [
        ("thickenings", {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal"}),
        ("thickenings.cli", {"click", "dataclasses", "fractions", "decimal", "tempfile"}),
    ],
    ids=["package", "cli"],
)
def test_import_skips_unused_modules(module, absent):
    loaded = newly_loaded(module)
    assert module in loaded
    assert not loaded & absent
