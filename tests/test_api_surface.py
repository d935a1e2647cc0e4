"""The package holds only code the package runs.

Every top-level function and every public method in `src/polarium` must be
named somewhere in `src/polarium` outside its own body: as a call, an
attribute read or a value passed on. A method counts as used only when some
code reads it as an attribute (`x.name`): a bare name of the same spelling
is a local variable or a function, not the method. Code that only the tests reach belongs
in `tests/oracles.py` or in the test itself. Dunder methods are reached by
the language.

An attribute read cannot tell a method from a method of a built-in type of
the same name (`tail.add` from `seen.add`), so no public method may share
its name with a public method of the built-in containers, `str`, `int` or
`Fraction`.
"""

import ast
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polarium"


def _definitions(tree):
    """(label, node, keys that use it) for each top-level function and public
    method; a function is used by its bare name or as an attribute, a
    method only as an attribute."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, (node.name, "." + node.name)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, ("." + sub.name,)


def _uses(tree) -> dict[str, list[frozenset]]:
    """Each name read in the tree, with the ids of the functions around each
    read; an attribute read `x.name` is keyed ".name"."""
    out: dict[str, list[frozenset]] = {}

    def walk(node, around):
        if isinstance(node, ast.FunctionDef):
            around = around | {id(node)}
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append(around)
        elif isinstance(node, ast.Attribute):
            out.setdefault("." + node.attr, []).append(around)
        for child in ast.iter_child_nodes(node):
            walk(child, around)

    walk(tree, frozenset())
    return out


def unreferenced(src: Path) -> list[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))]
    uses = [_uses(tree) for tree in trees]
    out = []
    for tree in trees:
        for label, node, keys in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(id(node) not in around
                       for u in uses for key in keys for around in u.get(key, ())):
                out.append(label)
    return sorted(out)


BUILTIN_METHODS = frozenset(name for kind in (dict, set, frozenset, list, tuple, str, int, Fraction)
                            for name in dir(kind) if not name.startswith("_"))


def shadowing(src: Path) -> list[str]:
    """Public methods named like a public method of a built-in type."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))]
    return sorted(label for tree in trees for label, node, keys in _definitions(tree)
                  if "." in label and node.name in BUILTIN_METHODS)


def test_every_function_in_src_is_used_in_src():
    assert unreferenced(SRC) == []


def test_no_method_shares_a_name_with_a_builtin_method():
    assert shadowing(SRC) == []


def test_guard_sees_a_method_named_like_a_builtin_one(tmp_path):
    # `add` is read as `seen.add` in the same module, so only the name
    # check sees that the method is never called
    (tmp_path / "mod.py").write_text(
        "class Tail:\n    def add(self, other):\n        return self\n\n"
        "    def restrict(self):\n        return self\n\n\n"
        "def use(seen, tail):\n    seen.add(tail.restrict())\n\n\nuse(set(), Tail())\n",
        encoding="utf-8")
    assert unreferenced(tmp_path) == []
    assert shadowing(tmp_path) == ["Tail.add"]


def test_guard_sees_a_function_used_only_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    scale = 1\n    return scale\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class C:\n    def method(self):\n        return self.method()\n\n"
        "    def scale(self):\n        return 2\n\n"
        "    def __eq__(self, other):\n        return True\n",
        encoding="utf-8")
    assert unreferenced(tmp_path) == ["C.method", "C.scale", "recursive"]
