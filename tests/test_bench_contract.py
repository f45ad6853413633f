"""Every name the benchmark imports from cyleta still exists.

The benchmark scripts import cyleta inside functions that only its traced
runs reach, so a deleted or renamed name would otherwise go unnoticed
until the benchmark itself runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _cyleta_imports(path):
    """(module, name) for each `from cyleta... import name` in the file,
    and (module, None) for each `import cyleta...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "cyleta":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "cyleta"]
    return found


@pytest.mark.parametrize("script", ["probe.py", "workloads.py", "spans.py"])
def test_bench_imports_from_cyleta_resolve(script):
    imports = _cyleta_imports(BENCH / script)
    assert imports, f"bench/{script} imports nothing from cyleta"
    for module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None:
            assert hasattr(loaded, name), \
                f"bench/{script}: {module} has no {name}"
