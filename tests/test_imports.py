"""What importing the package loads, each check in a fresh interpreter.

Each check diffs ``sys.modules`` around the import, so it holds whatever
``site`` preloads. The child inherits the environment, so it imports the
package the tests run against (``PYTHONPATH=src`` or the installed one).
"""

import subprocess
import sys

import pytest


def newly_loaded(module: str, then: str = "") -> set[str]:
    """Modules a fresh interpreter adds to ``sys.modules`` for ``import module`` and the statement ``then``."""
    code = f"import sys\nbefore = set(sys.modules)\nimport {module}\n{then}\nprint(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "module, absent",
    [
        ("thickenings", {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal"}),
        ("thickenings.cli", {"click", "argparse", "gettext", "dataclasses", "fractions", "decimal", "tempfile", "json"}),
    ],
    ids=["package", "cli"],
)
def test_import_skips_unused_modules(module, absent):
    loaded = newly_loaded(module)
    assert module in loaded
    assert not loaded & absent


def test_a_cli_run_skips_argparse_and_locale():
    # argparse imported gettext, and gettext imported locale at the first parse.
    loaded = newly_loaded("thickenings.cli", "thickenings.cli.main.main(['length', '--m', '3', '--t', '3'])")
    assert "thickenings.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}
