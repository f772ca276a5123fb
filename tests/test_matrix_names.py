"""Every ``_matrix`` call in the package outside ``sparse.py`` names its argument.

``sparse._matrix`` checks a matrix argument's entries, shape and symmetry only when it is
given the argument's name; the nameless call is the plain conversion that ``hcat``, ``vcat``
and ``blkdiag`` use inside ``sparse.py``. A call elsewhere that passes no name, positionally
or as ``name=``, is reported with its file and line, so no new argument site skips the rule.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for path in sorted((ROOT / "src" / "conzopt").glob("*.py")) if path.name != "sparse.py"]


def nameless_matrix_calls(source):
    """Line numbers of the ``_matrix(...)`` or ``sparse._matrix(...)`` calls that pass no name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_matrix"
            and len(node.args) < 2 and not any(k.arg == "name" for k in node.keywords)]


def test_finder_tells_named_from_nameless_calls():
    source = "_matrix(m)\n_matrix(m, 'A')\nsparse._matrix(m, shape=s)\n_matrix(m, name='R')\n"
    assert nameless_matrix_calls(source) == [1, 3]


def test_every_matrix_argument_is_named():
    assert MODULES
    nameless = [f"{path.relative_to(ROOT)}:{line}" for path in MODULES
                for line in nameless_matrix_calls(path.read_text())]
    assert nameless == []
