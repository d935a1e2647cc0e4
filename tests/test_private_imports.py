"""No module of the package imports another module's private names.

A `_`-prefixed name belongs to the module that defines it; a name that
another module needs is public there. The guard reads every import of
names in `src/polarium`, at module top or inside a function, whose source
is a `polarium` module, by a relative or an absolute path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polarium"


def private_imports(src: Path) -> list[str]:
    """`module: name from source` for each private name imported from the
    package."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level or source.split(".")[0] == "polarium":
                out += [f"{path.stem}: {alias.name} from {'.' * node.level}{source}"
                        for alias in node.names if alias.name.startswith("_")]
    return sorted(out)


def test_no_module_imports_a_private_name_from_another():
    assert private_imports(SRC) == []


def test_guard_sees_private_imports(tmp_path):
    # relative and absolute sources, at module top and inside a function;
    # a private name from outside the package is not the guard's business
    (tmp_path / "mod.py").write_text(
        "from math import gcd, _private\n"
        "from .cyclo import _reduce, zeta\n"
        "from polarium.linalg import _primitive\n\n\n"
        "def retract():\n    from . import _grid\n    return _grid\n",
        encoding="utf-8")
    assert private_imports(tmp_path) == [
        "mod: _grid from .", "mod: _primitive from polarium.linalg", "mod: _reduce from .cyclo"]
