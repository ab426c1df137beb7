import ast
from pathlib import Path

import tcladder


def test_no_global_statements():
    """The numeric path holds no process-global mutable state."""
    sources = sorted(Path(tcladder.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert not lines, f"{path.name}: global statement at lines {lines}"
