"""The package's import graph: layered, acyclic, module-level, through public names only."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mfgcontrols"
# each module may import only modules before it; __init__ re-exports every module
# but cli, which reads __version__ from it
ORDER = ("errors", "grid", "model", "prox", "verify", "varsolve", "picard", "diagnostics",
         "instances", "io", "config", "__init__", "cli")


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(tree):
    """(imported module, imported names) of each relative import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module, [alias.name for alias in node.names]
            else:  # from . import name: a module, or a name of __init__
                for alias in node.names:
                    yield (alias.name, []) if (PACKAGE / f"{alias.name}.py").exists() else ("__init__", [alias.name])


def test_every_module_is_ordered():
    assert sorted(_trees()) == sorted(ORDER)


def test_no_import_inside_a_function():
    nested = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.{fn.name}" for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_modules_import_only_earlier_modules():
    upward = [f"{name} imports {module}" for name, tree in _trees().items()
              for module, _ in _package_imports(tree) if ORDER.index(module) >= ORDER.index(name)]
    assert upward == []


def test_no_private_name_crosses_a_module():
    private = [f"{name} imports {module}.{imported}" for name, tree in _trees().items()
               for module, names in _package_imports(tree) for imported in names
               if imported.startswith("_") and not imported.startswith("__")]
    assert private == []


@pytest.mark.parametrize("name", ["picard", "diagnostics"])
def test_cross_checks_share_nothing_with_the_pd_solver(name):
    assert "varsolve" not in [module for module, _ in _package_imports(_trees()[name])]
