"""Unused-import gate for the package sources.

A name that a module imports must be read somewhere in that module,
listed in its ``__all__``, or marked ``# noqa: F401`` on its line (a
deliberate re-export)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vidcorr"


def unused_imports(text):
    """[(line, name)] of the names ``text`` imports and never uses."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
                name = alias.asname or alias.name.split(".")[0]
                line = getattr(alias, "lineno", node.lineno)
                if "# noqa: F401" not in lines[line - 1]:
                    imported.append((line, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_gate_catches_an_unused_import():
    text = ("import os\nimport numpy as np\nfrom a import (\n    b,\n    c,  # noqa: F401\n"
            "    d,\n)\n__all__ = ['d']\nprint(np)\n")
    assert unused_imports(text) == [(1, "os"), (4, "b")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
