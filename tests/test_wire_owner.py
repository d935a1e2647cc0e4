"""Only `jsonio` knows the wire format.

A wire codec (a function or method named `to_json` or `*_to_json`, a
`*_from_json` or `*_from_request` decoder, or `parse_fraction`) and a bound
on wire input (`WIRE_BOUNDS`) are defined in `jsonio` alone. The guard reads
every function and method definition, nested ones included, and every
assignment in the package's other modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polarium"
OWNER = "jsonio"
WIRE_BOUNDS = frozenset({"COEFF_PHI_BOUND", "WINDOW_STEPS_BOUND", "NESTING_BOUND"})


def _is_codec(name: str) -> bool:
    return name in ("to_json", "parse_fraction") \
        or name.endswith(("_to_json", "_from_json", "_from_request"))


def wire_definitions(src: Path) -> list[str]:
    """`module: name` for each wire codec or wire bound defined outside the
    owner."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name] if _is_codec(node.name) else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id in WIRE_BOUNDS]
            else:
                continue
            out += [f"{path.stem}: {name}" for name in names]
    return sorted(out)


def test_only_jsonio_defines_wire_codecs_and_bounds():
    assert wire_definitions(SRC) == []


def test_guard_sees_wire_definitions(tmp_path):
    # functions, methods and bounds outside the owner; the owner's own
    # definitions and other names ending in json are not the guard's business
    (tmp_path / "mod.py").write_text(
        "COEFF_PHI_BOUND = 24\nTWIST_PHI_BOUND = 400\n"
        "WINDOW_STEPS_BOUND: int = 256\n\n\n"
        "def parse_fraction(s):\n    return s\n\n\n"
        "def _ladder_from_request(datum, doc):\n    return doc\n\n\n"
        "def _mono_json(line):\n    return line\n\n\n"
        "class Lattice:\n    def to_json(self):\n        return {}\n\n"
        "    def grid_from_json(self, docs):\n        return docs\n",
        encoding="utf-8")
    (tmp_path / "jsonio.py").write_text(
        "COEFF_PHI_BOUND = 24\n\n\ndef tail_to_json(tail):\n    return {}\n", encoding="utf-8")
    assert wire_definitions(tmp_path) == [
        "mod: COEFF_PHI_BOUND", "mod: WINDOW_STEPS_BOUND", "mod: _ladder_from_request",
        "mod: grid_from_json", "mod: parse_fraction", "mod: to_json"]
