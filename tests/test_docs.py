"""The examples in the docs run: every module's docstring examples, and
README's "Library use" block."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import knotcover

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples_of_every_module():
    attempted = {}
    for info in pkgutil.iter_modules(knotcover.__path__):
        module = importlib.import_module(f"knotcover.{info.name}")
        results = doctest.testmod(module)
        assert results.failed == 0, info.name
        attempted[info.name] = results.attempted
    assert attempted["perm"] > 0 and attempted["snf"] > 0


def test_readme_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import" in block and "assert" in block
    exec(compile(block, "README.md", "exec"), {})
