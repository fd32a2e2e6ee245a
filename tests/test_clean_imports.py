"""Every module imports, and the CLI runs, without undeclared packages.

``pyproject.toml`` declares the runtime dependencies; anything else a
development environment happens to carry (``networkx`` arrives with
some linters) must not be needed.  A subprocess blocks such a package
and imports the whole ``repro`` tree, then asks the CLI for its help.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any import of it raises ImportError
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
import repro.cli
try:
    repro.cli.main(["--help"])
except SystemExit as exc:
    sys.exit(exc.code)
"""


def test_imports_and_cli_help_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
