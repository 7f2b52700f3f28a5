"""No module in src/, tests/ or demos/ imports a name it never uses, and no
package module keeps a private helper that nothing uses.

A plain ``ast`` scan: an imported name counts as used when it appears as a
``Name`` anywhere in the module (the root of an attribute chain included)
or in ``__all__``.  A ``# noqa: F401`` comment on the
import line keeps a name that is imported for other modules to find.
Package ``__init__.py`` files re-export and are skipped.

A module-level private name (``_x``) of ``src/affinesurf/*.py`` is dead when
the word occurs only once, at its definition, in all of src/, tests/,
demos/ and benchmarks/ (this file left out, so that its own examples do not
count as uses).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        end = node.end_lineno or node.lineno
        if any("noqa: F401" in lines[i - 1] for i in range(node.lineno, end + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_private_names(source: str) -> set[str]:
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def dead_helpers(modules: list[str], corpus: list[str]) -> list[str]:
    """Private module-level names of ``modules`` whose word occurs once in
    ``corpus``, which holds the modules themselves and every other file."""
    words = Counter(w for text in corpus for w in re.findall(r"\b_\w+", text))
    return sorted(n for text in modules for n in module_private_names(text) if words[n] == 1)


def test_the_scan_sees_a_dead_helper():
    module = "def _used():\n    pass\n\n\ndef _dead():\n    _used()\n\n_TABLE = 1\n"
    assert dead_helpers([module], [module]) == ["_TABLE", "_dead"]
    assert dead_helpers([module], [module, "from m import _dead\nx = m._TABLE\n"]) == []


def test_no_dead_private_helpers():
    modules = sorted((ROOT / "src" / "affinesurf").glob("*.py"))
    corpus = [
        path.read_text()
        for folder in ("src", "tests", "demos", "benchmarks")
        for path in (ROOT / folder).rglob("*.py")
        if path.resolve() != Path(__file__).resolve()
    ]
    assert dead_helpers([path.read_text() for path in modules], corpus) == []
