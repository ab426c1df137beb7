import ast
import importlib
from pathlib import Path

import pytest

import tcladder


def test_no_global_statements():
    """The numeric path holds no process-global mutable state."""
    sources = sorted(Path(tcladder.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert not lines, f"{path.name}: global statement at lines {lines}"


MODULES = ["tcladder"] + [
    f"tcladder.{path.stem}"
    for path in sorted(Path(tcladder.__file__).parent.glob("*.py"))
    if path.stem != "__init__"
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    """No ``__all__`` lists a name its module no longer defines."""
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
