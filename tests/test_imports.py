"""Every name a ``tpw`` module imports is used in that module, and every
module-level private function or class is used somewhere in the package.

``__init__.py`` re-exports by design, and ``from __future__`` imports are
compiler directives, so both are left out of the import check.  A private
name counts as used when some statement of ``src/tpw`` other than its own
definition refers to it, as a name, an attribute or an import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tpw"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom .a import b, c as d\nb()\n") == ["d (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no other statement refers to."""
    defined, uses = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            uses.append((statement, names))
            if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and statement.name.startswith("_") and not statement.name.startswith("__")):
                defined.append((module, statement))
    return sorted(
        f"{module}:{d.name} (line {d.lineno})" for module, d in defined
        if not any(d.name in names for statement, names in uses if statement is not d)
    )


def test_checker_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n\nclass _Alone:\n    pass\n",
        "b.py": "from .a import _used\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_Alone (line 7)", "a.py:_recursive (line 4)"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
