"""Command-line surface: classification, extraction, construction and
verification as batch subcommands with JSON input and output.

Exit statuses: 0 success, 1 domain error, 2 verification report with
violations, 3 internal invariant violation. All randomness is seeded and
surfaced in the output; identical (input, seed) gives byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import chevmap, jsonio, looplie, polar, yuseq
from .cyclo import parse_fraction
from .errors import InternalInvariantViolation, InvalidArgumentError, PolariumError
from .rootdata import build, rootdatum_to_json
from .tails import window_from_json
from .tori import list_torus_classes, regular_numbers
from .yuseq import YuLadder, decompose_lambda, extract


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
    if not isinstance(doc, dict):
        raise InvalidArgumentError("input document must be a JSON object")
    return doc


def _ladder_from_request(datum, doc: dict | None) -> YuLadder:
    if not doc:
        return extract(datum)
    nroots = len(datum.rd.roots)
    breaks = [parse_fraction(b) for b in doc["breaks"]]
    levels = [frozenset(level) for level in doc["levels"]]
    if any(i >= nroots for level in levels for i in level):
        raise InvalidArgumentError(f"ladder level index out of range: "
                                   f"{datum.rd.type_label()} has {nroots} roots")
    components = decompose_lambda(datum, breaks)
    try:
        return YuLadder(datum, breaks, levels, components,
                        validate=doc.get("validate", True))
    except InternalInvariantViolation as exc:  # a user ladder's fault is in the input
        raise InvalidArgumentError(f"ladder rejected: {exc}") from exc


def _run_classify(doc: dict) -> tuple[dict, int]:
    datum = jsonio.datum_from_json({k: v for k, v in doc.items() if k != "levi"})
    return jsonio.datum_to_json(datum), 0


def _run_yu_sequence(doc: dict) -> tuple[dict, int]:
    datum = jsonio.datum_from_json(doc)
    ladder = extract(datum)
    out = {"datum": jsonio.datum_to_json(datum), "ladder": yuseq.ladder_to_json(ladder)}
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
    out = {"jlattice": lattice.to_json(), "psi_lambda": psi,
           "bracket_closure": "verified"}
    return out, 0


def _run_moveability(doc: dict) -> tuple[dict, int]:
    datum_doc = doc["datum"]
    datum = jsonio.datum_from_json(datum_doc, validate=datum_doc.get("validate", True))
    ladder = _ladder_from_request(datum, doc.get("ladder"))
    x = jsonio.parse_coweight(datum.rd, doc.get("x"))
    report = looplie.moveability_check(datum, ladder, x, variant=doc.get("variant", "J"))
    return report, 0 if report["full_rank"] else 2


def _run_verify_sl2(doc: dict) -> tuple[dict, int]:
    grid_spec = doc.get("grid", "default")
    grid = None if grid_spec == "default" else [window_from_json(w) for w in grid_spec]
    report = chevmap.verify_sl2(grid)
    return report, 0 if not report["violations"] else 2


def _run_regular_numbers(doc: dict) -> tuple[dict, int]:
    rd = build(doc["type"])
    out = {"type": rootdatum_to_json(rd)["type"], **regular_numbers(rd)}
    return out, 0


def _run_list_tori(doc: dict) -> tuple[dict, int]:
    rd = build(doc["type"])
    classes = [jsonio.torus_to_json(tc) for tc in list_torus_classes(rd)]
    return {"type": rootdatum_to_json(rd)["type"], "classes": classes}, 0


def _run_partition_check(doc: dict) -> tuple[dict, int]:
    rd = build(doc["type"])
    report = polar.partition_check(
        rd,
        samples=int(doc.get("samples", 200)),
        seed=int(doc.get("seed", 0)),
        zero_only=bool(doc.get("zero_only", False)),
        disjoint_pairs=int(doc.get("disjoint_pairs", 50)),
    )
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="polarium",
        description="Exact classification of Laurent-tail coadjoint data into "
                    "polar strata, with ladder extraction and lattice verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--type", help="Cartan type label, e.g. A2 or G2")
        p.add_argument("--input", help="JSON request document: a path, - for stdin, or inline JSON")
        p.add_argument("--seed", type=int, help="seed for sampled commands")
        p.add_argument("--samples", type=int, help="sample count for sampled commands")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if name == "verify-sl2":
            p.add_argument("--grid", default="default")
        if name == "epipelagic" or name == "homogeneous":
            p.add_argument("-m", type=int, help="torus order")
        if name == "homogeneous":
            p.add_argument("-i", type=int, help="graded exponent index")
        if name == "moveability":
            p.add_argument("--variant", choices=("J", "K"))
    return parser


def _merge_flags(args: argparse.Namespace, doc: dict) -> dict:
    merged = dict(doc)
    if args.type:
        merged["type"] = args.type
    if args.seed is not None and args.command == "partition-check":
        merged["seed"] = args.seed
    if args.samples is not None and args.command == "partition-check":
        merged["samples"] = args.samples
    if getattr(args, "m", None) is not None:
        merged["m"] = args.m
    if getattr(args, "i", None) is not None:
        merged["i"] = args.i
    if getattr(args, "variant", None):
        merged["variant"] = args.variant
    if args.command == "verify-sl2" and getattr(args, "grid", None) \
            and "grid" not in merged:
        merged["grid"] = args.grid
    return merged


def _envelope(exc: PolariumError) -> str:
    return jsonio.canonical_dumps({"error": {"code": exc.code, "message": str(exc)}})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _merge_flags(args, _load_input(args.input))
        jsonio.validate_request(args.command, doc)
        result, status = _HANDLERS[args.command](doc)
        if args.format == "table":
            text = _format_table(result) + "\n"
        else:
            text = jsonio.canonical_dumps(result)
    except Exception as exc:
        if not isinstance(exc, PolariumError):
            # last resort: an unforeseen fault still ends in the envelope, never a traceback
            exc = InternalInvariantViolation(f"unexpected {type(exc).__name__}: {exc}")
        text, status = _envelope(exc), exc.exit_status
    try:
        _emit(text, args.out)
    except OSError as exc:
        # the --out target is unusable, so stdout is the only place left for the envelope
        err = InvalidArgumentError(f"cannot write output to {args.out!r}: {exc.strerror}")
        _emit(_envelope(err), None)
        return err.exit_status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
