"""Unused-import, global-statement and test-only-name gates for the
package sources.

A name that a module imports must be read somewhere in that module,
listed in its ``__all__``, or marked ``# noqa: F401`` on its line (a
deliberate re-export). No function rebinds a module-level name with a
``global`` statement: behaviour follows from a call's inputs, not from
process-wide state. A public top-level function or class must be
read by the program itself (src/, perfbench/ or scripts/), not only by
tests. The package imports the standard library, numpy and itself
alone: pyproject.toml's runtime dependencies are numpy, and scipy stays
a test-only import."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vidcorr"


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


def global_statements(text):
    """[(line, names)] of the ``global`` statements in ``text``."""
    return [(node.lineno, node.names) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Global)]


def test_gate_catches_a_global_statement():
    text = ("x = 0\ndef f():\n    global x\n    x = 1\n"
            "class C:\n    def g(self):\n        global y, z\n")
    assert global_statements(text) == [(3, ["x"]), (7, ["y", "z"])]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


def public_definitions(text):
    """Names of the public top-level functions and classes of ``text``."""
    return [node.name for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


class _Reads(ast.NodeVisitor):
    """Bare names, attribute names and identifier strings (the benchmark
    looks functions up by name); ``__all__`` lists are not reads."""

    def __init__(self):
        self.names = set()

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.names.add(node.value)


def names_read(text):
    reads = _Reads()
    reads.visit(ast.parse(text))
    return reads.names


def test_gate_sees_definitions_and_reads():
    text = ("__all__ = ['f']\ndef f():\n    pass\ndef _g():\n    pass\n"
            "class C:\n    pass\nx = h.C\ny = 'k'\n")
    assert public_definitions(text) == ["f", "C"]
    assert names_read(text) == {"x", "h", "C", "y", "k"}


def test_no_public_name_only_tests_use():
    reads = set()
    for directory in ("src", "perfbench", "scripts"):
        for path in (ROOT / directory).rglob("*.py"):
            if not path.name.startswith("test_"):
                reads |= names_read(path.read_text())
    unused = [f"{path.relative_to(SRC)}: {name}" for path in sorted(SRC.rglob("*.py"))
              for name in public_definitions(path.read_text()) if name not in reads]
    assert unused == []


def imported_modules(text):
    """Top-level names of the modules ``text`` imports, relative imports
    left out."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_gate_sees_imported_modules():
    text = ("import os.path\nimport numpy as np\nfrom scipy.special import erf\n"
            "from . import x\nfrom .y import z\ndef f():\n    import json\n")
    assert imported_modules(text) == {"os", "numpy", "scipy", "json"}


def test_runtime_dependencies_are_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "vidcorr"}
    extra = [f"{path.relative_to(SRC)}: {name}" for path in sorted(SRC.rglob("*.py"))
             for name in sorted(imported_modules(path.read_text()) - allowed)]
    assert extra == []
