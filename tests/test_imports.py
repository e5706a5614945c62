"""Every name a ``tpw`` module imports is used in that module, every
module-level private function or class is used somewhere in the package, and
no module but ``linalg`` calls ``np.linalg``, apart from two named functions
whose decisions are not ranks.

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


# np.linalg calls that decide something other than a rank, by the function that makes them
LINALG_EXCEPTIONS = {"characters.py:_joint_eigenvalue_branches"}


def linalg_uses(module: str, source: str) -> list[str]:
    """``module:function`` for every ``np.linalg`` or ``numpy.linalg`` reference in a module,
    named by the top-level function or class around it (``<module>`` at top level)."""
    found = []
    for statement in ast.parse(source).body:
        where = f"{module}:{getattr(statement, 'name', '<module>')}"
        for node in ast.walk(statement):
            if ((isinstance(node, ast.Attribute) and node.attr == "linalg"
                 and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
                    or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"))
                    or (isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names))):
                found.append(where)
    return found


def test_checker_finds_linalg_uses():
    source = ("import numpy as np\nfrom numpy.linalg import qr\n\n"
              "def f(a):\n    return np.linalg.svd(a)\n\nclass C:\n    def g(self):\n        return np.linalg.eigvals\n")
    assert linalg_uses("m.py", source) == ["m.py:<module>", "m.py:f", "m.py:C"]


def test_rank_decisions_only_in_linalg():
    """Every singular value that becomes a rank goes through ``linalg``'s one cutoff rule."""
    found = {use for p in MODULES if p.name != "linalg.py" for use in linalg_uses(p.name, p.read_text(encoding="utf-8"))}
    assert found <= LINALG_EXCEPTIONS, sorted(found - LINALG_EXCEPTIONS)
