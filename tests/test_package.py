"""Package hygiene: exported names resolve and module imports are used."""

import ast
import importlib
import pathlib

import pytest

import ymflow

SOURCE = pathlib.Path(ymflow.__file__).parent
MODULES = sorted(p.stem for p in SOURCE.glob("*.py"))


def _module_name(stem):
    return "ymflow" if stem == "__init__" else f"ymflow.{stem}"


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_resolve(stem):
    module = importlib.import_module(_module_name(stem))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def _imported_names(tree):
    """(bound name, line) of every module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_module_imports(stem):
    tree = ast.parse((SOURCE / f"{stem}.py").read_text())
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a name listed in __all__ is re-exported, hence used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{stem}.py imports names it never uses: {unused}"
