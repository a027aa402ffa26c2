"""Every module of the package reads each name it imports, so a deletion
cannot leave a dead import behind. Names a module lists in ``__all__``
are exports, not dead imports."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qproduct"


def _annotation_names(nodes) -> set[str]:
    """Names read inside quoted annotations such as ``-> "Matrix"``."""
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = set()
    for node in (sub for ann in annotations if ann for sub in ast.walk(ann)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                      if isinstance(n, ast.Name)}
    return names


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, exports aside."""
    nodes = list(ast.walk(ast.parse(source)))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in nodes
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names if alias.name != "*"}
    read = {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    exported = {elt.value for node in nodes if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return sorted(imported - read - _annotation_names(nodes) - exported)


def test_the_walk_names_an_unread_import_and_spares_reads_and_exports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .a import kept, dead, exported, quoted\n"
              "__all__ = ['exported']\n"
              "def f(x: 'quoted') -> int:\n    return kept(np.zeros(1), os.sep)\n")
    assert unread_imports(source) == ["dead"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path.read_text()) == []
