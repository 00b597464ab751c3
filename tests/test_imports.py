"""Each module imports on its own, first, in a fresh interpreter.

Test collection imports the modules in one order and caches them, which can
hide an import cycle that only bites when a user imports another module
first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotcover

PACKAGE = Path(knotcover.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert {"cli", "cosets", "homcheck", "perm", "words"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import knotcover.{module}"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
