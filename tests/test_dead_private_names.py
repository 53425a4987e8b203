"""Every private name a library module defines is read in the package.

A private helper left behind when its last caller is deleted costs the
reader time and hides that nothing depends on it; no caller outside the
package may rely on it.  A name with one leading underscore (not a
dunder) counts as read:

- a module-level function, class or constant, if some module of the
  package loads it by name, imports it, or reads it as an attribute of a
  module (``verify._census``);
- a static or class method, if it is read as ``Class._name`` or through
  ``self`` or ``cls``;
- any other method, if some module reads an attribute ``._name``.
"""

import ast
import pathlib

import catalan_stanley

PACKAGE = pathlib.Path(catalan_stanley.__file__).parent
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(module: str, tree: ast.Module) -> list[tuple[str, str, str]]:
    """(kind, owner, name) of each private module-level function, class or
    constant and each private method, with kind "module", "static" (static
    or class method) or "method"; owner is the module or the class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(("module", module, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found.extend(
                    ("module", module, t.id)
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                )
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = {d.id for d in item.decorator_list if isinstance(d, ast.Name)}
                    static = decorators & {"staticmethod", "classmethod"}
                    found.append(("static" if static else "method", node.name, item.name))
    return [d for d in found if _private(d[2])]


def _reads(trees) -> tuple[set[str], set[tuple[str, str]], set[str]]:
    """(names loaded or imported, (base, attribute) pairs read where the
    base is a plain name, with ``self`` and ``cls`` in a class's body read
    as that class's name, and every attribute read)."""
    names, qualified, attributes = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    qualified.add((cls.name, node.attr))
    return names, qualified, attributes


def _dead(trees: dict[str, ast.Module]) -> list[str]:
    names, qualified, attributes = _reads(trees.values())
    modules = {module.removesuffix(".py") for module in trees}
    dead = []
    for module, tree in trees.items():
        for kind, owner, name in _definitions(module, tree):
            if kind == "module":
                read = name in names or any((m, name) in qualified for m in modules)
            elif kind == "static":
                read = (owner, name) in qualified
            else:
                read = name in attributes
            if not read:
                dead.append(f"{owner.removesuffix('.py')}.{name}")
    return dead


def test_modules_found():
    assert {"tree.py", "cli.py", "__init__.py"} <= TREES.keys()


def test_no_dead_private_names():
    assert _dead(TREES) == [], "private names that nothing in the package reads"


def test_detects_dead_private_names():
    source = (
        "import m\n"
        "_USED, (_pair, _unused_pair) = 1, (2, 3)\n"
        "_ANN: int = 4\n"
        "def _helper(): return _USED + _pair\n"
        "def _orphan(): pass\n"
        "class _Base:\n"
        "    @staticmethod\n"
        "    def _make(): return _Base._made()\n"
        "    @staticmethod\n"
        "    def _made(): pass\n"
        "    @classmethod\n"
        "    def _build(cls): return cls._make()\n"
        "    def _step(self): return 0\n"
        "    def _spare(self): pass\n"
        "    def __repr__(self): return m._ANN + self._step()\n"
        "class Other:\n"
        "    @staticmethod\n"
        "    def _make(): pass\n"
        "    def _step(self): pass\n"
        "_helper(); _Base._build()\n"
    )
    dead = _dead({"a.py": ast.parse(source), "m.py": ast.parse("from a import _orphan\n")})
    assert dead == ["a._unused_pair", "_Base._spare", "Other._make"]
