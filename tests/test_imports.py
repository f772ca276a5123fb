"""Every module of the package and of the tests uses each name it imports.

A name bound by an import and never read again is reported, with its file and line.
``__init__.py`` (whose imports are the package's re-exports), ``from __future__``
imports and lines marked ``noqa`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "conzopt").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}       # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                line = getattr(alias, "lineno", node.lineno)
                if "noqa" not in lines[line - 1] and "noqa" not in lines[node.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = line
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert MODULES
    unused = [entry for path in MODULES if path.name != "__init__.py" for entry in unused_imports(path)]
    assert unused == []
