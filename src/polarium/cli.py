"""Command-line surface: classification, extraction, construction and
verification as batch subcommands with JSON input and output.

Exit statuses: 0 success, 1 domain error, 2 verification report with
violations, 3 internal invariant violation. All randomness is seeded and
surfaced in the output; identical (input, seed) gives byte-identical output.
"""

from __future__ import annotations

import json
import sys

from . import chevmap, jsonio, looplie, polar
from .errors import InternalInvariantViolation, InvalidArgumentError, PolariumError
from .rootdata import build
from .tori import list_torus_classes, regular_numbers
from .yuseq import extract


def _load_input(path: str | None) -> dict:
    """Request document from a path, - for stdin, or inline JSON text."""
    if path is None:
        return {}
    if path.startswith("{"):
        raw = path
    elif path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read input {path!r}: {exc.strerror}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"malformed JSON input: {exc}") from exc
    except RecursionError as exc:
        raise jsonio.nesting_refusal() from exc
    if not isinstance(doc, dict):
        raise InvalidArgumentError("input document must be a JSON object")
    return doc


def _run_classify(doc: dict) -> tuple[dict, int]:
    datum = jsonio.datum_from_json({k: v for k, v in doc.items() if k != "levi"})
    return jsonio.datum_to_json(datum), 0


def _run_yu_sequence(doc: dict) -> tuple[dict, int]:
    datum = jsonio.datum_from_json(doc)
    ladder = extract(datum)
    out = {"datum": jsonio.datum_to_json(datum), "ladder": jsonio.ladder_to_json(ladder)}
    return out, 0


def _run_epipelagic(doc: dict) -> tuple[dict, int]:
    datum = polar.epipelagic_datum(build(doc["type"]), int(doc["m"]))
    return jsonio.datum_to_json(datum), 0


def _run_homogeneous(doc: dict) -> tuple[dict, int]:
    datum = polar.homogeneous_datum(build(doc["type"]), int(doc["m"]), int(doc["i"]))
    return jsonio.datum_to_json(datum), 0


def _run_jlattice(doc: dict) -> tuple[dict, int]:
    datum = jsonio.datum_from_json(doc["datum"])
    ladder = extract(datum)
    x = jsonio.parse_coweight(datum.rd, doc.get("x"))
    lattice = looplie.build_j_lattice(datum, ladder, x)
    psi = looplie.psi_lambda_check(lattice)
    out = {"jlattice": jsonio.jlattice_to_json(lattice), "psi_lambda": psi,
           "bracket_closure": "verified"}
    return out, 0


def _run_moveability(doc: dict) -> tuple[dict, int]:
    datum = jsonio.datum_from_json(doc["datum"])
    ladder_doc = doc.get("ladder")
    ladder = jsonio.ladder_from_json(datum, ladder_doc)
    x = jsonio.parse_coweight(datum.rd, doc.get("x"))
    try:
        report = {"type": jsonio.type_to_json(datum.rd),
                  **looplie.moveability_check(datum, ladder, x, variant=doc.get("variant", "J"))}
    except InternalInvariantViolation as exc:
        # an unvalidated user ladder vouches for its own breaks: when the
        # check then fails an invariant, a break that is not a depth of the
        # tail is the input's fault
        if ladder_doc and not ladder_doc.get("validate", True):
            jsonio.refuse_off_depth(datum, ladder)
        raise
    return report, 0 if report["full_rank"] else 2


def _run_verify_sl2(doc: dict) -> tuple[dict, int]:
    grid_spec = doc.get("grid", "default")
    grid = None if grid_spec == "default" else jsonio.grid_from_json(grid_spec)
    report = chevmap.verify_sl2(grid)
    return report, 0 if not report["violations"] else 2


def _run_regular_numbers(doc: dict) -> tuple[dict, int]:
    rd = build(doc["type"])
    out = {"type": jsonio.type_to_json(rd), **regular_numbers(rd)}
    return out, 0


def _run_list_tori(doc: dict) -> tuple[dict, int]:
    rd = build(doc["type"])
    classes = [jsonio.torus_to_json(tc) for tc in list_torus_classes(rd)]
    return {"type": jsonio.type_to_json(rd), "classes": classes}, 0


def _run_partition_check(doc: dict) -> tuple[dict, int]:
    rd = build(doc["type"])
    report = {"type": jsonio.type_to_json(rd), **polar.partition_check(
        rd,
        samples=int(doc.get("samples", 200)),
        seed=int(doc.get("seed", 0)),
        zero_only=bool(doc.get("zero_only", False)),
        disjoint_pairs=int(doc.get("disjoint_pairs", 50)),
    )}
    return report, 0 if not report["violations"] else 2


_HANDLERS = {
    "classify": _run_classify,
    "yu-sequence": _run_yu_sequence,
    "epipelagic": _run_epipelagic,
    "homogeneous": _run_homogeneous,
    "jlattice": _run_jlattice,
    "moveability": _run_moveability,
    "verify-sl2": _run_verify_sl2,
    "regular-numbers": _run_regular_numbers,
    "list-tori": _run_list_tori,
    "partition-check": _run_partition_check,
}


def _format_table(doc: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_format_table(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for entry in value:
                row = "  ".join(f"{k}={entry[k]}" for k in sorted(entry))
                lines.append(f"{indent}  {row}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each flag sets the request field of its name: its value is read as JSON
# when it parses and as the string otherwise, and the command's schema alone
# decides whether the field belongs and what it must hold.
_FIELD_FLAGS = {"--type": "type", "--seed": "seed", "--samples": "samples", "-m": "m",
                "-i": "i", "--variant": "variant", "--grid": "grid"}
_USAGE = ("usage: polarium {" + ",".join(_HANDLERS) + "} [--input PATH|-|JSON] "
          "[--format json|table] [--out PATH] "
          + " ".join(f"[{flag} VALUE]" for flag in _FIELD_FLAGS) + "\n")


def _parse_argv(argv: list[str]) -> tuple[str, dict, dict]:
    """(command, request fields, CLI options) from `COMMAND [--flag value |
    --flag=value]...`; a later flag overrides an earlier one."""
    if not argv or argv[0] not in _HANDLERS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise InvalidArgumentError(f"{given}; expected one of {', '.join(_HANDLERS)}")
    fields, options = {}, {"--input": None, "--format": "json", "--out": None}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag not in _FIELD_FLAGS and flag not in options:
            raise InvalidArgumentError(f"unknown flag {flag!r}")
        if not eq:
            value = next(rest, None)
            if value is None:
                raise InvalidArgumentError(f"flag {flag} needs a value")
        if flag in options:
            options[flag] = value
            continue
        try:
            fields[_FIELD_FLAGS[flag]] = json.loads(value)
        except json.JSONDecodeError:
            fields[_FIELD_FLAGS[flag]] = value
        except RecursionError as exc:
            raise jsonio.nesting_refusal() from exc
    if options["--format"] not in ("json", "table"):
        raise InvalidArgumentError(f"--format must be json or table, got {options['--format']!r}")
    return argv[0], fields, options


def _envelope(exc: PolariumError) -> str:
    return jsonio.canonical_dumps({"error": {"code": exc.code, "message": str(exc)}})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        return 0
    out_path = None
    try:
        command, fields, options = _parse_argv(argv)
        out_path = options["--out"]
        doc = {**_load_input(options["--input"]), **fields}
        jsonio.validate_request(command, doc)
        result, status = _HANDLERS[command](doc)
        if options["--format"] == "table":
            text = _format_table(result) + "\n"
        else:
            text = jsonio.canonical_dumps(result)
    except Exception as exc:
        if not isinstance(exc, PolariumError):
            # last resort: an unforeseen fault still ends in the envelope, never a traceback
            exc = InternalInvariantViolation(f"unexpected {type(exc).__name__}: {exc}")
        text, status = _envelope(exc), exc.exit_status
    try:
        _emit(text, out_path)
    except OSError as exc:
        # the --out target is unusable, so stdout is the only place left for the envelope
        err = InvalidArgumentError(f"cannot write output to {out_path!r}: {exc.strerror}")
        _emit(_envelope(err), None)
        return err.exit_status
    return status

