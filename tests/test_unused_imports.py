"""Every name a library module imports is used in it.

An import left behind when the code that read it is deleted costs import
time and misleads the reader about what the module depends on.  A name
counts as used if the module reads it anywhere or lists it in `__all__`;
`from __future__` imports bind no name and are exempt.
"""

import ast
import pathlib

import pytest

import catalan_stanley

PACKAGE = pathlib.Path(catalan_stanley.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, plus the strings listed in its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert "stats.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported but never used (name: line) {unused}"


def test_detects_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\nimport a.b\nfrom x import y, z as w\n"
        "__all__ = ['y']\n"
        "print(os.sep, a.b)\n"
    )
    used = _used_names(tree)
    assert sorted(n for n in _imported_names(tree) if n not in used) == ["system", "w"]
