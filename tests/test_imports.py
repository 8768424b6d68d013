"""Source hygiene: every module under src/gcpim uses each name it imports,
and reads each private module-level name it defines.

Package ``__init__`` modules are skipped, since they import to re-export.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gcpim"


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def unread_private_names(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` definitions (not dunders) never loaded in the module."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__") and name not in loaded]


def problems_in_modules(check) -> dict[str, list[str]]:
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    return {str(path.relative_to(SRC)): found for path in modules
            if (found := check(ast.parse(path.read_text())))}


def test_no_module_imports_a_name_it_never_uses():
    assert problems_in_modules(unused_imports) == {}


def test_no_module_defines_a_private_name_it_never_reads():
    assert problems_in_modules(unread_private_names) == {}


def test_unused_import_check_catches_one():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["line 1: math", "line 2: path"]


def test_unread_private_name_check_catches_one():
    tree = ast.parse("_A, B = 1, 2\n_c = 3\n__all__ = []\n"
                     "def _f():\n    return _c\nclass _K:\n    _x = 1\n")
    assert unread_private_names(tree) == ["line 1: _A", "line 6: _K", "line 4: _f"]
