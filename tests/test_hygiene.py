"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "cluster_forge")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _module_imports(tree):
    """Names bound by the module's top-level import statements, with the
    line of each; ``from __future__`` imports bind nothing usable."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in _module_imports(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"
