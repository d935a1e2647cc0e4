"""Canonical JSON encoding/decoding for every wire type, plus schema checks.

Output is byte-deterministic: sorted keys, tight separators, rationals as
"p/q" strings. Request documents are checked against the shipped JSON
Schemas before any computation touches them. Validity is decided by a plain
predicate compiled once per command from its schema (`compile_checker`);
`jsonschema` is imported only when that predicate rejects a document, to
word the rejection exactly as `jsonschema.validate` would.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from importlib import resources

from .cyclo import parse_fraction
from .errors import InternalInvariantViolation, InvalidArgumentError
from .polar import PolarDatum, classify
from .rootdata import RootDatum, WeylElement, build, rootdatum_to_json
from .tails import tail_from_json, tail_to_json
from .tori import TorusClass, split_torus_class


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@cache
def schemas() -> dict:
    text = resources.files("polarium.schemas").joinpath("schemas.json").read_text()
    return json.loads(text)


# -- compiled request checks ----------------------------------------------

# Draft 2020-12 types as jsonschema 4.26 decides them: a bool is neither an
# integer nor a number, and a float with an integral value is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
}
_KEYWORDS = frozenset({
    "type", "$ref", "required", "properties", "additionalProperties", "items",
    "prefixItems", "minItems", "maxItems", "minimum", "pattern", "enum", "oneOf",
})


def _unsupported(what: str):
    return InternalInvariantViolation(f"schema uses {what}, outside the compiled subset")


def compile_checker(schema: dict):
    """Predicate deciding Draft 2020-12 validity of a document against schema.

    Covers the keywords of `_KEYWORDS`, with `$ref` only into the schema's
    own `$defs`; any other keyword raises `InternalInvariantViolation`. Each
    keyword constrains only the instances of its own type, as in the spec:
    `minimum` fails only when `instance < minimum` (NaN passes), `pattern`
    is a `re.search`, and `items` covers the elements after `prefixItems`.
    """
    defs = schema.get("$defs", {})
    refs: dict = {}

    def ref(target: str):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise _unsupported(f"$ref {target!r}")
        if name not in refs:
            refs[name] = node(defs[name])
        return refs[name]

    def node(s: dict):
        if not isinstance(s, dict):
            raise _unsupported(f"the schema {s!r}")
        unknown = sorted(s.keys() - _KEYWORDS - {"$defs"})
        if unknown:
            raise _unsupported(f"keyword {unknown[0]!r}")
        checks = []
        if "type" in s:
            if s["type"] not in _TYPES:
                raise _unsupported(f"type {s['type']!r}")
            checks.append(_TYPES[s["type"]])
        if "$ref" in s:
            checks.append(ref(s["$ref"]))
        if s.keys() & {"required", "properties", "additionalProperties"}:
            checks.append(_object_check(s, node))
        if s.keys() & {"items", "prefixItems", "minItems", "maxItems"}:
            checks.append(_array_check(s, node))
        if "minimum" in s:
            low, is_number = s["minimum"], _TYPES["number"]
            checks.append(lambda x: not is_number(x) or not x < low)
        if "pattern" in s:
            search = re.compile(s["pattern"]).search
            checks.append(lambda x: not isinstance(x, str) or search(x) is not None)
        if "enum" in s:
            if not all(isinstance(v, str) for v in s["enum"]):
                raise _unsupported("an enum of non-strings")
            values = frozenset(s["enum"])
            checks.append(lambda x: isinstance(x, str) and x in values)
        if "oneOf" in s:
            branches = [node(b) for b in s["oneOf"]]
            checks.append(lambda x: sum(1 for b in branches if b(x)) == 1)
        return _all_of(checks)

    return node(schema)


def _all_of(checks: list):
    if len(checks) == 1:
        return checks[0]

    def check(x) -> bool:
        for c in checks:
            if not c(x):
                return False
        return True
    return check


def _object_check(s: dict, node):
    required = tuple(s.get("required", ()))
    props = {k: node(v) for k, v in s.get("properties", {}).items()}
    extra = s.get("additionalProperties", True)
    if not isinstance(extra, bool):
        extra = node(extra)

    def check(x) -> bool:
        if not isinstance(x, dict):
            return True
        for k in required:
            if k not in x:
                return False
        for k, v in x.items():
            c = props.get(k)
            if c is None:
                if extra is False or (extra is not True and not extra(v)):
                    return False
            elif not c(v):
                return False
        return True
    return check


def _array_check(s: dict, node):
    prefix = [node(p) for p in s.get("prefixItems", ())]
    items = node(s["items"]) if "items" in s else None
    least, most = s.get("minItems", 0), s.get("maxItems")

    def check(x) -> bool:
        if not isinstance(x, list):
            return True
        if len(x) < least or (most is not None and len(x) > most):
            return False
        for c, v in zip(prefix, x):
            if not c(v):
                return False
        if items is not None:
            for v in x[len(prefix):]:
                if not items(v):
                    return False
        return True
    return check


def _request_schema(key: str) -> dict:
    store = schemas()
    return {**store["requests"][key], "$defs": store["$defs"]}


@cache
def _request_checker(key: str):
    """The compiled predicate of one request schema, built once per process."""
    return compile_checker(_request_schema(key))


@cache
def _request_validator(key: str):
    """jsonschema's checked validator of one request schema, built on first reject."""
    import jsonschema

    schema = _request_schema(key)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_request(command: str, doc) -> None:
    """Raise `InvalidArgumentError` with jsonschema's best match unless doc fits."""
    key = command.replace("-", "_")
    if key not in schemas()["requests"]:
        raise InvalidArgumentError(f"no requests schema for command {command}")
    if _request_checker(key)(doc):
        return
    import jsonschema

    # best_match over every error, as jsonschema.validate reports it
    error = jsonschema.exceptions.best_match(_request_validator(key).iter_errors(doc))
    if error is None:
        raise InternalInvariantViolation(
            f"compiled {command} request check rejects a document jsonschema accepts")
    raise InvalidArgumentError(f"requests rejected by schema: {error.message}") from error


# -- torus / datum codecs -------------------------------------------------


def torus_to_json(tc: TorusClass) -> dict:
    return {"m": tc.m, "w": [list(row) for row in tc.w.matrix],
            "eigendims": tc.eigendims}


def torus_from_json(rd: RootDatum, doc: dict) -> TorusClass:
    if len(doc["w"]) != rd.dim or any(len(row) != rd.dim for row in doc["w"]):
        raise InvalidArgumentError(f"torus matrix w must be {rd.dim}x{rd.dim}")
    mat = tuple(tuple(int(v) for v in row) for row in doc["w"])
    return TorusClass(rd, WeylElement.from_matrix(rd, mat), int(doc["m"]))


def datum_to_json(d: PolarDatum) -> dict:
    return {
        "type": rootdatum_to_json(d.rd)["type"],
        "torus": {"m": d.torus.m, "w": [list(row) for row in d.torus.w.matrix]},
        "levi": sorted(d.levi),
        "lambda": tail_to_json(d.lam),
    }


def datum_from_json(doc: dict) -> PolarDatum:
    rd = build(doc["type"])
    torus_doc = doc.get("torus")
    if torus_doc is None:
        tc = split_torus_class(rd)
    else:
        tc = torus_from_json(rd, torus_doc)
    lam = tail_from_json(rd, doc["lambda"])
    if "levi" in doc:
        levi = frozenset(int(i) for i in doc["levi"])
        if any(i >= len(rd.roots) for i in levi):
            raise InvalidArgumentError(f"levi index out of range: {rd.type_label()} has "
                                       f"{len(rd.roots)} roots")
        return PolarDatum(tc, levi, lam, validate=doc.get("validate", True))
    return classify(tc, lam)


def parse_coweight(rd: RootDatum, value) -> tuple[Fraction, ...] | None:
    """Apartment point: explicit coordinates, a named preset, or None."""
    if value is None:
        return None
    if isinstance(value, str):
        if value == "zero":
            return tuple(Fraction(0) for _ in range(rd.dim))
        if value.startswith("rho/"):
            m = value[len("rho/"):]
            if not m.isdecimal() or int(m) == 0:
                raise InvalidArgumentError(f"apartment preset {value!r} needs a positive integer m")
            return tuple(v / int(m) for v in rd.rho_coweight())
        raise InvalidArgumentError(f"unknown apartment preset {value!r}")
    coords = tuple(parse_fraction(v) for v in value)
    if len(coords) != rd.dim:
        raise InvalidArgumentError(
            f"apartment point has {len(coords)} coordinates, expected {rd.dim}"
        )
    return coords
