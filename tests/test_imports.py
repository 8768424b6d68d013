"""Source hygiene: every module under src/gcpim uses each name it imports.

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


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    problems = {
        str(path.relative_to(SRC)): unused
        for path in modules
        if (unused := unused_imports(ast.parse(path.read_text())))
    }
    assert problems == {}


def test_unused_import_check_catches_one():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["line 1: math", "line 2: path"]
