"""Canonical JSON encoding/decoding for every wire type, plus schema checks.

Output is byte-deterministic: sorted keys, tight separators, rationals as
"p/q" strings. Request documents are validated against the shipped JSON
Schemas before any computation touches them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from importlib import resources

import jsonschema

from .cyclo import parse_fraction
from .errors import InvalidArgumentError
from .polar import PolarDatum, classify
from .rootdata import RootDatum, WeylElement, build
from .tails import tail_from_json, tail_to_json
from .tori import TorusClass, split_torus_class


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@cache
def schemas() -> dict:
    text = resources.files("polarium.schemas").joinpath("schemas.json").read_text()
    return json.loads(text)


@cache
def _validator(section: str, key: str):
    """The checked, compiled validator of one schema, built once per process."""
    store = schemas()
    schema = dict(store[section][key])
    schema["$defs"] = store["$defs"]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate_against(section: str, command: str, doc) -> None:
    key = command.replace("-", "_")
    if key not in schemas()[section]:
        raise InvalidArgumentError(f"no {section} schema for command {command}")
    # best_match over every error, as jsonschema.validate reports it
    error = jsonschema.exceptions.best_match(_validator(section, key).iter_errors(doc))
    if error is not None:
        raise InvalidArgumentError(f"{section} rejected by schema: {error.message}") from error


def validate_request(command: str, doc) -> None:
    _validate_against("requests", command, doc)


def validate_response(command: str, doc) -> None:
    _validate_against("responses", command, doc)


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
    from .rootdata import rootdatum_to_json

    return {
        "type": rootdatum_to_json(d.rd)["type"],
        "torus": {"m": d.torus.m, "w": [list(row) for row in d.torus.w.matrix]},
        "levi": sorted(d.levi),
        "lambda": tail_to_json(d.lam),
    }


def datum_from_json(doc: dict, validate: bool = True) -> PolarDatum:
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
        return PolarDatum(tc, levi, lam, validate=validate and doc.get("validate", True))
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
