import ast
import importlib
import importlib.util
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


#: listed by the benchmark's tracer, but gone from the package already
_STALE_TRACED = {"eigenanalysis.eps_manifold1"}


def test_traced_functions_resolve():
    """Every function the benchmark's tracer wraps is a callable of its
    module, so a deletion or rename cannot leave a per-layer key reading 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.FUNCTIONS:
        module, func = name.split(".")
        target = getattr(importlib.import_module(f"tcladder.{module}"), func, None)
        if not callable(target) and name not in _STALE_TRACED:
            missing.append(name)
    assert not missing, f"traced functions missing from tcladder: {missing}"
