"""The wire format: the JSON codecs of every type that crosses it, the
bounds on wire input, which a decoder checks before it builds anything,
the shape of a wire tail or window, which its decoder checks because the
constructors check nothing, and the request schema checks.

Output is byte-deterministic: sorted keys, tight separators, rationals as
"p/q" strings. Request documents are checked against the shipped JSON
Schemas before any computation touches them, once their nesting is within
its bound. Validity is decided by a plain predicate compiled once per
command from its schema (`compile_checker`). A rejection is worded by an
error walker compiled from the same schema on the command's first rejection
(`compile_walker`), exactly as jsonschema 4.26's `best_match` words it; the
program never imports `jsonschema`, which the tests use as the oracle.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from importlib import resources
from math import lcm

from .cyclo import CycloNumber, as_cyclo, euler_phi
from .errors import InternalInvariantViolation, InvalidArgumentError, ResourceLimitError
from .looplie import JLattice
from .polar import PolarDatum, classify
from .rootdata import RootDatum, WeylElement, build
from .tails import LaurentWindow, Tail
from .tori import TorusClass, split_torus_class
from .yuseq import YuLadder, breaks, decompose_lambda, extract

# Largest phi(L) for L the lcm of the conductors of a wire tail's or
# window's coefficients. Dense arithmetic at conductor L costs about
# phi(L)^2 per product and more per inverse. A `homogeneous` datum's
# coefficients live at its regular number m, with phi(m) <= 16 up to rank 16.
COEFF_PHI_BOUND = 24
# A wire window counts 2 (hi - lo) den steps, the steps of its square root
# read at t = tau^2, and a verify-sl2 grid may hold windows whose squared
# step counts sum to at most this bound squared: one window of 256 steps, or
# many shorter ones. The recursion is quadratic in its steps, and the lift
# runs it only on the window's principal steps (chevmap.sl2_crosscheck), at
# most half of the count. The default grid's 265 windows count 12 steps each
# or fewer.
WINDOW_STEPS_BOUND = 256
# Deepest nesting of lists and objects in a request document, the document
# itself counting 1. A schema-valid request nests about 10 levels; json.loads
# and repr recurse, and fail near 1000.
NESTING_BOUND = 100


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


def _compile(schema: dict, build):
    """Compile schema node by node: build(s, node, ref) makes the function of
    one schema object s, compiling its subschemas with node and its `$ref`
    target with ref.

    Covers the keywords of `_KEYWORDS`, with `$ref` only into the schema's
    own `$defs`, each compiled once, a single type name and an enum of
    strings; anything else raises `InternalInvariantViolation`.
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
        if "type" in s and not (isinstance(s["type"], str) and s["type"] in _TYPES):
            raise _unsupported(f"type {s['type']!r}")
        if "enum" in s and not all(isinstance(v, str) for v in s["enum"]):
            raise _unsupported("an enum of non-strings")
        return build(s, node, ref)

    return node(schema)


def compile_checker(schema: dict):
    """Predicate deciding Draft 2020-12 validity of a document against schema.

    Each keyword constrains only the instances of its own type, as in the
    spec: `minimum` fails only when `instance < minimum` (NaN passes),
    `pattern` is a `re.search`, and `items` covers the elements after
    `prefixItems`.
    """
    return _compile(schema, _check_node)


def _check_node(s: dict, node, ref):
    checks = []
    if "type" in s:
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
        values = frozenset(s["enum"])
        checks.append(lambda x: isinstance(x, str) and x in values)
    if "oneOf" in s:
        branches = [node(b) for b in s["oneOf"]]
        checks.append(lambda x: sum(1 for b in branches if b(x)) == 1)
    return _all_of(checks)


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


# -- rejection wording ----------------------------------------------------

# An error is (path, keyword, message, matches, context): the path from the
# walked instance to the failing one, the failing keyword and its message,
# whether the failing instance has the type its own schema names, and, for a
# oneOf no branch fits, every branch's errors with paths from the same
# instance. This is what jsonschema 4.26's `best_match` reads of an error.


def compile_walker(schema: dict):
    """The errors of a document against schema, in the order and words of
    jsonschema 4.26's `iter_errors`: keywords in the schema's key order,
    `$ref` transparent, `properties` in schema order, `required` in order,
    `items` by index after `prefixItems`, and a oneOf stopping at its first
    valid branch. `additionalProperties` with a schema value, whose extras
    jsonschema walks in set order, is refused."""
    return _compile(schema, _walk_node)


def _walk_node(s: dict, node, ref):
    if isinstance(s.get("additionalProperties"), dict):
        raise _unsupported("additionalProperties with a schema")
    props = {k: node(v) for k, v in s.get("properties", {}).items()}
    prefix = [node(p) for p in s.get("prefixItems", ())]
    items = node(s["items"]) if "items" in s else None
    branches = [(b, node(b)) for b in s.get("oneOf", ())]
    target = ref(s["$ref"]) if "$ref" in s else None
    matches = _TYPES.get(s.get("type"), lambda x: False)

    def walk(x) -> list:
        errors = []

        def own(k, message, context=()):
            errors.append(((), k, message, matches(x), context))

        def descend(step, sub, y):
            errors.extend(((step, *path), *rest) for path, *rest in sub(y))

        for k, v in s.items():
            if k == "type":
                if not _TYPES[v](x):
                    own(k, f"{x!r} is not of type {v!r}")
            elif k == "$ref":
                errors += target(x)
            elif k == "enum":
                if not (isinstance(x, str) and x in v):
                    own(k, f"{x!r} is not one of {v!r}")
            elif k == "minimum":
                if _TYPES["number"](x) and x < v:
                    own(k, f"{x!r} is less than the minimum of {v!r}")
            elif k == "pattern":
                if isinstance(x, str) and not re.search(v, x):
                    own(k, f"{x!r} does not match {v!r}")
            elif k == "oneOf":
                context = []
                for i, (b, sub) in enumerate(branches):
                    found = sub(x)
                    if not found:
                        more = [c for c, later in branches[i + 1:] if not later(x)]
                        if more:
                            own(k, f"{x!r} is valid under each of "
                                   f"{', '.join(map(repr, more + [b]))}")
                        break
                    context += found
                else:
                    own(k, f"{x!r} is not valid under any of the given schemas", context)
            elif isinstance(x, dict):
                if k == "required":
                    for p in v:
                        if p not in x:
                            own(k, f"{p!r} is a required property")
                elif k == "properties":
                    for p, sub in props.items():
                        if p in x:
                            descend(p, sub, x[p])
                elif k == "additionalProperties" and v is False:
                    extras = sorted(p for p in x if p not in props)
                    if extras:
                        verb = "was" if len(extras) == 1 else "were"
                        own(k, f"Additional properties are not allowed "
                               f"({', '.join(map(repr, extras))} {verb} unexpected)")
            elif isinstance(x, list):
                if k == "prefixItems":
                    for i, (sub, y) in enumerate(zip(prefix, x)):
                        descend(i, sub, y)
                elif k == "items":
                    for i in range(len(prefix), len(x)):
                        descend(i, items, x[i])
                elif k == "minItems" and len(x) < v:
                    own(k, f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}")
                elif k == "maxItems" and len(x) > v:
                    own(k, f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}")
        return errors
    return walk


def _relevance(error) -> tuple:
    """jsonschema's relevance key: shallower first, then the later path, a
    keyword other than oneOf, and a failing instance off its schema's type
    (its constant "strong keyword" entry is left out)."""
    path, keyword, _message, matches, _context = error
    return -len(path), path, keyword != "oneOf", not matches


def _best_match(errors: list):
    """The error jsonschema 4.26's `best_match` picks: the first most
    relevant one, then, while it has a context, the least relevant error of
    that context unless the two least relevant ones tie."""
    best = max(errors, key=_relevance)
    while best[4]:
        least = sorted(best[4], key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            return best
        best = least[0]
    return best


def _request_schema(key: str) -> dict:
    store = schemas()
    return {**store["requests"][key], "$defs": store["$defs"]}


@cache
def _request_checker(key: str):
    """The compiled predicate of one request schema, built once per process."""
    return compile_checker(_request_schema(key))


@cache
def _request_walker(key: str):
    """The error walker of one request schema, built on its first rejection."""
    return compile_walker(_request_schema(key))


def nesting_refusal() -> InvalidArgumentError:
    """The refusal of a request nesting past NESTING_BOUND, also when
    json.loads meets it as a RecursionError."""
    return InvalidArgumentError(
        f"request refused: lists and objects nest deeper than bound {NESTING_BOUND}")


_CONTAINERS = frozenset({dict, list})


def _check_nesting(doc) -> None:
    """Refuse a document whose lists and objects, the types json.loads
    makes, nest past NESTING_BOUND; level by level, without recursion."""
    level = [doc] if type(doc) in _CONTAINERS else []
    for _ in range(NESTING_BOUND):
        if not level:
            return
        level = [v for x in level for v in (x.values() if type(x) is dict else x)
                 if type(v) in _CONTAINERS]
    if level:
        raise nesting_refusal()


def validate_request(command: str, doc) -> None:
    """Raise `InvalidArgumentError` unless doc nests within NESTING_BOUND and
    fits its command's schema, worded as jsonschema's best match."""
    key = command.replace("-", "_")
    if key not in schemas()["requests"]:
        raise InvalidArgumentError(f"no requests schema for command {command}")
    _check_nesting(doc)
    if _request_checker(key)(doc):
        return
    errors = _request_walker(key)(doc)
    if not errors:
        raise InternalInvariantViolation(
            f"compiled {command} request check rejects a document its walker accepts")
    raise InvalidArgumentError(f"requests rejected by schema: {_best_match(errors)[2]}")


# -- codecs ---------------------------------------------------------------


def parse_fraction(s) -> Fraction:
    """A rational from wire input; a malformed one or a zero denominator is
    an invalid argument."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"malformed rational {s!r}") from exc


def cyclo_to_json(c: CycloNumber) -> dict:
    return {"conductor": c.conductor, "coeffs": [str(x) for x in c.coeffs]}


def cyclo_from_json(doc: dict) -> CycloNumber:
    """A wire coefficient. phi(L) >= sqrt(L/2), so a conductor above twice
    the square of the coefficient count cannot match it; it is refused
    before anything factors L."""
    conductor = int(doc["conductor"])
    count = len(doc["coeffs"])
    if conductor > 2 * count * count:
        raise InvalidArgumentError(
            f"conductor {conductor} refused: phi(L) >= sqrt(L/2) exceeds the "
            f"coefficient count {count}")
    coeffs = tuple(parse_fraction(s) for s in doc["coeffs"])
    return CycloNumber(conductor, coeffs)


def tail_to_json(tail: Tail) -> dict:
    return {
        "m": tail.m,
        "terms": [
            {"q": str(q), "coeff": [cyclo_to_json(x) for x in c]}
            for q, c in sorted(tail.terms.items())
        ],
    }


def _terms_from_json(doc: dict, covectors: bool) -> dict:
    """Exponent -> coefficient list of the terms of a wire tail, whose term
    holds a covector, or of a wire window, whose term holds one coefficient.
    They are refused when phi(L) passes COEFF_PHI_BOUND for L the lcm of
    their conductors, and phi(L) >= sqrt(L/2) refuses L above twice the
    bound's square before L is factored."""
    terms = {}
    for entry in doc.get("terms", []):
        coeff = entry["coeff"] if covectors else [entry["coeff"]]
        terms[parse_fraction(entry["q"])] = [
            cyclo_from_json(x) if isinstance(x, dict)
            else CycloNumber.from_rational(parse_fraction(x)) for x in coeff]
    L = lcm(*(c.conductor for coeff in terms.values() for c in coeff))
    if L > 2 * COEFF_PHI_BOUND ** 2 or euler_phi(L) > COEFF_PHI_BOUND:
        raise ResourceLimitError(
            f"coefficients live at conductor {L}: phi({L}) larger than bound {COEFF_PHI_BOUND}")
    return terms


def tail_from_json(rd: RootDatum, doc: dict) -> Tail:
    """A wire tail. Once every term is read, each is refused at a negative
    exponent, off the grid of 1/m or with a covector of the wrong length; a
    zero covector is dropped."""
    m = int(doc.get("m", 1))
    terms = {}
    for q, c in _terms_from_json(doc, covectors=True).items():
        if q < 0:
            raise InvalidArgumentError(f"exponent {q} negative; tails live at q >= 0")
        if (q * m).denominator != 1:
            raise InvalidArgumentError(f"exponent {q} has denominator not dividing m={m}")
        if len(c) != rd.dim:
            raise InvalidArgumentError(f"covector has length {len(c)}, expected {rd.dim}")
        if not all(x.is_zero() for x in c):
            terms[q] = tuple(c)
    return Tail(rd, m, terms)


def grid_from_json(docs: list) -> list[LaurentWindow]:
    """The windows of a verify-sl2 grid, refused before any is built when
    the squares of their step counts 2 (hi - lo) den sum past
    WINDOW_STEPS_BOUND squared; an empty window counts 0. Then window by
    window, once its terms are read, an empty window, a bound off the grid
    of 1/den, and a term outside [lo, hi) or off that grid are refused; a
    zero coefficient is dropped."""
    spans = [(parse_fraction(doc["lo"]), parse_fraction(doc["hi"]), int(doc.get("den", 1)))
             for doc in docs]
    total = sum(max(2 * (hi - lo) * den, 0) ** 2 for lo, hi, den in spans)
    if total > WINDOW_STEPS_BOUND ** 2:
        raise ResourceLimitError(
            f"the grid windows' squared step counts 2 (hi - lo) den sum to {total}, "
            f"larger than bound {WINDOW_STEPS_BOUND}^2")
    windows = []
    for doc, (lo, hi, den) in zip(docs, spans):
        read = _terms_from_json(doc, covectors=False)
        if hi <= lo:
            raise InvalidArgumentError(f"empty window [{lo}, {hi})")
        for bound in (lo, hi):
            if (bound * den).denominator != 1:
                raise InvalidArgumentError(f"bound {bound} not a multiple of 1/{den}")
        terms = {}
        for q, (c,) in read.items():
            if not lo <= q < hi:
                raise InvalidArgumentError(f"exponent {q} outside window [{lo}, {hi})")
            if (q * den).denominator != 1:
                raise InvalidArgumentError(f"exponent {q} not a multiple of 1/{den}")
            if not c.is_zero():
                terms[q] = c
        windows.append(LaurentWindow(lo, hi, terms, den))
    return windows


def type_to_json(rd: RootDatum):
    """The type of a root datum: "A2" for one simple factor, else the list
    of [letter, rank] factors with ["torus", rank] last."""
    spec = [[letter, n] for letter, n in rd.factors]
    if rd.torus_rank:
        spec.append(["torus", rd.torus_rank])
    if len(spec) == 1 and spec[0][0] != "torus":
        return f"{spec[0][0]}{spec[0][1]}"
    return spec


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
        "type": type_to_json(d.rd),
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


def ladder_to_json(ladder: YuLadder) -> dict:
    return {
        "breaks": [str(b) for b in ladder.breaks],
        "half_depths": [str(s) for s in ladder.half_depths],
        "levels": [sorted(level) for level in ladder.levels],
        "components": [tail_to_json(part) for part in ladder.components],
    }


def refuse_off_depth(datum: PolarDatum, ladder: YuLadder) -> None:
    """Refuse a user ladder, naming its first break that is not a depth of
    the datum's tail."""
    depths = breaks(datum)
    off = [r for r in ladder.breaks if r not in depths]
    if off:
        raise InvalidArgumentError(f"ladder rejected: break {off[0]} is not a depth of the "
                                   f"tail: [{', '.join(map(str, depths))}]")


def ladder_from_json(datum: PolarDatum, doc: dict | None) -> YuLadder:
    """The ladder a request gives for datum, the extracted one when it gives
    none. A user ladder's fault is in the input, so each refusal is an
    invalid argument; a validated one must also break at depths of the tail
    and be generic."""
    if not doc:
        return extract(datum)
    nroots = len(datum.rd.roots)
    break_seq = [parse_fraction(b) for b in doc["breaks"]]
    # a validated ladder's centralizer check refuses repeated breaks
    drops = [f"{r} before {s}" for r, s in zip(break_seq, break_seq[1:]) if s < r]
    if drops:
        raise InvalidArgumentError(f"ladder breaks decrease: {', '.join(drops)}")
    levels = [frozenset(level) for level in doc["levels"]]
    if any(i >= nroots for level in levels for i in level):
        raise InvalidArgumentError(f"ladder level index out of range: "
                                   f"{datum.rd.type_label()} has {nroots} roots")
    if len(levels) != len(break_seq) + 1:  # unvalidated, such a ladder would index past its levels
        raise InvalidArgumentError("ladder rejected: level count must be break count + 1")
    components = decompose_lambda(datum, break_seq)
    validate = doc.get("validate", True)
    try:
        ladder = YuLadder(datum, break_seq, levels, components, validate=validate)
    except InternalInvariantViolation as exc:
        raise InvalidArgumentError(f"ladder rejected: {exc}") from exc
    if validate:
        refuse_off_depth(datum, ladder)
        # generic (GE1, Yu 2001, section 8): a root entering at level j + 1
        # pairs with band component j at depth exactly break j
        for j, (r, part) in enumerate(zip(ladder.breaks, ladder.components)):
            depths = part.coroot_depths()
            for idx in sorted(ladder.levels[j + 1] - ladder.levels[j]):
                if depths[idx] != r:
                    raise InvalidArgumentError(
                        f"ladder rejected: root {idx} pairs with band component {j} at "
                        f"depth {depths[idx]}, not at its break {r}")
    return ladder


def jlattice_to_json(lattice: JLattice) -> dict:
    real = lattice.real
    thresholds = [{"q": str(real.fraction(real.degree((gen, lattice.threshold(gen))))),
                   "root" if gen[0] == "r" else "torus": gen[1]} for gen in real.generators()]
    lagrangians = []
    for rec in lattice.break_pieces:
        lagrangians.append({
            "j": rec["j"],
            "degree": str(real.fraction(rec["degree"])),
            "basis": [
                [{"root": m[0][1] if m[0][0] == "r" else None,
                  "torus": m[0][1] if m[0][0] == "h" else None,
                  "n": m[1], "coeff": cyclo_to_json(as_cyclo(c))} for m, c in line.items()]
                for line in rec["lagrangian"]
            ],
        })
    return {"kind": lattice.kind, "thresholds": thresholds, "lagrangians": lagrangians,
            "breaks": [str(b) for b in real.ladder.breaks]}
