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


ROOT = os.path.join(PACKAGE, "..", "..")


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


@pytest.fixture(scope="module")
def names_used():
    """Every identifier, attribute name and string constant in the Python
    files of src/, tests/ and bench/, except a module-level definition's
    uses of its own name inside its own body."""
    used = set()
    for top in ("src", "tests", "bench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if not f.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=f)
                for stmt in tree.body:
                    own = getattr(stmt, "name", None)
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.Name):
                            name = node.id
                        elif isinstance(node, ast.Attribute):
                            name = node.attr
                        elif (isinstance(node, ast.Constant)
                              and isinstance(node.value, str)):
                            name = node.value
                        else:
                            continue
                        if name != own:
                            used.add(name)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_level_definitions_are_used(module, names_used):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not _is_click_command(node)]
    unused = sorted(name for name in defined if name not in names_used)
    assert not unused, f"{module} defines but nothing uses: {', '.join(unused)}"
