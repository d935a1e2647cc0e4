"""The compiled request checks against jsonschema, the independent oracle.

`jsonio.compile_checker` decides validity, and `jsonio.compile_walker` words
a rejection; the program never imports jsonschema. Every verdict here is
compared with `Draft202012Validator.is_valid` on the same document:
documents generated from each request schema, the same documents after one
hostile mutation, every single hostile edit of the golden requests and of
the first benchmark documents of each command, every request document of
the benchmark universes and every golden request. Each rejection must also
reach the user as the envelope of jsonschema's best match. Every generated
valid document is also run through the CLI on small types, which must answer
with one canonical JSON document and a documented exit status in bounded
time.
"""

import copy
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarium import cli, jsonio
from polarium.errors import InternalInvariantViolation, InvalidArgumentError

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

COMMANDS = sorted(cli._HANDLERS)

# Replacements for one value of a valid document: bools and floats where an
# integer is expected, NaN and infinities, values below each minimum,
# strings outside each pattern (a trailing newline still matches "$"), and
# wrong types.
HOSTILE = (True, False, 0, -1, 1.0, 2.5, math.nan, math.inf, -math.inf,
           "x", "1.5", "1\n", "a1", None, [], {}, [[]], {"m": 1})


def _schema(command: str) -> dict:
    store = jsonio.schemas()
    return {**store["requests"][command.replace("-", "_")], "$defs": store["$defs"]}


@cache
def _oracle(command: str):
    return jsonschema.Draft202012Validator(_schema(command))


def from_schema(schema: dict, defs: dict):
    """Strategy for documents of the keyword subset `schemas.json` uses."""
    if "$ref" in schema:
        return from_schema(defs[schema["$ref"].removeprefix("#/$defs/")], defs)
    if "oneOf" in schema:
        return st.one_of([from_schema(s, defs) for s in schema["oneOf"]])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = schema.get("properties", {})
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {k: from_schema(props[k], defs) for k in required},
            optional={k: from_schema(v, defs) for k, v in props.items() if k not in required})
    if kind == "array":
        prefix = [from_schema(s, defs) for s in schema.get("prefixItems", [])]
        rest = from_schema(schema["items"], defs) if "items" in schema else st.nothing()
        least = max(0, schema.get("minItems", 0) - len(prefix))
        most = min(3, schema.get("maxItems", 3 + len(prefix)) - len(prefix))
        return st.tuples(*prefix, st.lists(rest, min_size=least, max_size=most)).map(
            lambda parts: [*parts[:-1], *parts[-1]])
    if kind == "integer":
        low = schema.get("minimum", -3)
        return st.integers(min_value=low, max_value=low + 8)
    if kind == "string":
        pattern = schema.get("pattern")
        return st.from_regex(pattern) if pattern else st.text(max_size=4)
    if kind == "boolean":
        return st.booleans()
    raise AssertionError(f"no strategy for {schema}")


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


EXTRA_KEYS = ("extra", "power", "eigendims")


def _edit(doc, path, kind, arg):
    """doc after one hostile edit at path: "replace" its value by arg, or,
    when it is an object, "drop" its key arg or add the "extra" key arg.
    Only the containers along path are copied."""
    if path:
        edited = copy.copy(doc)
        edited[path[0]] = _edit(doc[path[0]], path[1:], kind, arg)
        return edited
    if kind == "replace":
        return copy.deepcopy(arg)
    edited = dict(doc)
    if kind == "drop":
        del edited[arg]
    else:
        edited[arg] = 1
    return edited


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(data, doc):
    """One hostile edit: replace a value, drop a key or add one."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(("replace", "drop", "extra")))
    if kind == "replace":
        return _edit(doc, path, kind, data.draw(st.sampled_from(HOSTILE)))
    node = _at(doc, path)
    if not isinstance(node, dict):
        return doc
    if kind == "drop" and node:
        return _edit(doc, path, kind, data.draw(st.sampled_from(sorted(node))))
    return _edit(doc, path, "extra", data.draw(st.sampled_from(EXTRA_KEYS)))


def _edits(doc):
    """Every single hostile edit of doc: each value replaced by each HOSTILE
    value, and each object with each of its keys dropped or each extra key
    added."""
    for path in _paths(doc):
        for value in HOSTILE:
            yield _edit(doc, path, "replace", value)
        node = _at(doc, path)
        if isinstance(node, dict):
            for key in node:
                yield _edit(doc, path, "drop", key)
            for key in EXTRA_KEYS:
                yield _edit(doc, path, "extra", key)


def _assert_agrees(command: str, doc, capsys) -> None:
    """Compiled verdict equals jsonschema's; a reject prints its best match."""
    errors = list(_oracle(command).iter_errors(doc))
    valid = not errors
    assert jsonio._request_checker(command.replace("-", "_"))(doc) is valid, (command, doc)
    if valid:
        return
    message = f"requests rejected by schema: {jsonschema.exceptions.best_match(errors).message}"
    if not isinstance(doc, dict):
        # the CLI refuses a non-object document before any schema is read
        with pytest.raises(InvalidArgumentError) as exc:
            jsonio.validate_request(command, doc)
        assert str(exc.value) == message
        return
    status = cli.main([command, "--input", json.dumps(doc)])
    assert status == 1
    assert capsys.readouterr().out == jsonio.canonical_dumps({"error": {
        "code": "invalid-argument", "message": message}})


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_compiled_check_agrees_with_jsonschema(command, data, capsys):
    schema = _schema(command)
    doc = data.draw(from_schema(schema, schema["$defs"]))
    _assert_agrees(command, doc, capsys)
    _assert_agrees(command, _mutate(data, doc), capsys)


# Cartan types small enough that any schema-valid request on them is cheap,
# two products in array form and one rank-8 type, whose Weyl group is past
# every enumeration bound; the labels stand in for the `cartan_type`
# definition when generating.
TOTALITY_TYPES = ("A1", "A2", "A3", "B2", "C3", "D4", "G2", [["A", 1], ["A", 2]],
                  [["B", 2], ["G", 2], ["torus", 1]], "D8")
TOTALITY_SECONDS = 10


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_schema_valid_request_ends_in_a_result_or_an_envelope(command, data, capsys):
    schema = _schema(command)
    defs = {**schema["$defs"], "cartan_type": {"enum": list(TOTALITY_TYPES)}}
    doc = data.draw(from_schema(schema, defs))
    start = time.perf_counter()
    status = cli.main([command, "--input", json.dumps(doc)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert status in (0, 1, 2, 3), (command, doc, status)
    body = json.loads(out)
    assert out == jsonio.canonical_dumps(body), (command, doc)
    assert ("error" in body) == (status in (1, 3)), (command, doc, out)
    if "error" in body:
        assert not body["error"]["message"].startswith("unexpected "), (command, doc, out)
    assert elapsed < TOTALITY_SECONDS, (command, doc, elapsed)


def _golden_requests():
    chained = ("sl3_classify_request", "sl3_classify_output",
               "a1_period720_classify_output", "epi_output")
    names = {
        "classify": ("a1_period720_classify_request", "sl3_classify_request"),
        "yu-sequence": chained,
        "epipelagic": ("epi_request",),
        "jlattice": ("jlattice_request", "jlattice_mixed_conductor_request"),
        "moveability": ("moveability_mixed_conductor_request",),
    }
    for command, files in names.items():
        for name in files:
            yield command, (GOLDENS / f"{name}.json").read_text()


def test_compiled_check_agrees_on_benchmark_and_golden_requests(capsys):
    requests = [(req.command, req.text) for make in workloads.UNIVERSES.values()
                for req in make().values() if req.text is not None]
    requests += list(_golden_requests())
    rejected = 0
    for command, text in requests:
        doc = json.loads(text)
        _assert_agrees(command, doc, capsys)
        rejected += not _oracle(command).is_valid(doc)
    assert rejected == workloads.LIGHT_REJECTED


# Keyword semantics the shipped schemas cannot show on their own: every
# minimum there sits beside "type": "integer", and their oneOf branches
# never overlap.
EDGE_CASES = [
    ({"minimum": 1}, [math.nan, math.inf, -math.inf, 0, 1, True, False, "x"]),
    ({"type": "integer"}, [True, 1, 1.0, 1.5, math.nan, math.inf, "1"]),
    ({"pattern": "^a$"}, ["a", "a\n", "ba", 3]),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     [["a", 1], [1, 1], ["a", "b"], [], "a"]),
    ({"properties": {"a": {"type": "integer"}}, "additionalProperties": True},
     [{"b": "x"}, {"a": "x"}, {"a": True}]),
    ({"additionalProperties": {"type": "integer"}}, [{"b": 1}, {"b": "x"}]),
    ({"required": ["a"]}, [{"a": None}, {}, [], "a"]),
    ({"minItems": 1, "maxItems": 2}, [[], [1], [1, 2, 3], {}]),
    ({"enum": ["J", "K"]}, ["J", "L", 1, ["J"]]),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, [1, -1, 0.5, -0.5, "x"]),
    # errors follow the schema's order of properties and of required names
    ({"properties": {"b": {"type": "integer"}, "a": {"type": "integer"}}, "required": ["d", "c"]},
     [{"a": "x", "b": "y", "c": 1, "d": 1}, {}, {"a": 1, "b": 1}]),
]


@pytest.mark.parametrize("schema, instances", EDGE_CASES)
def test_compiled_keyword_semantics_match_jsonschema(schema, instances):
    check = jsonio.compile_checker(schema)
    oracle = jsonschema.Draft202012Validator(schema)
    for x in instances:
        assert check(x) is oracle.is_valid(x), (schema, x)


@pytest.mark.parametrize("schema, instances", [
    case for case in EDGE_CASES if not isinstance(case[0].get("additionalProperties"), dict)])
def test_walker_errors_match_jsonschema(schema, instances):
    # the overlapping oneOf here is the one place "valid under each" shows
    walk = jsonio.compile_walker(schema)
    oracle = jsonschema.Draft202012Validator(schema)
    for x in instances:
        expected = list(oracle.iter_errors(x))
        errors = walk(x)
        assert [(p, k, m) for p, k, m, _, _ in errors] == [
            (tuple(e.path), e.validator, e.message) for e in expected], (schema, x)
        if expected:
            best = jsonschema.exceptions.best_match(expected)
            assert jsonio._best_match(errors)[2] == best.message, (schema, x)


def test_shipped_schemas_fit_the_metaschema():
    store = jsonio.schemas()
    assert store["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    for section in ("requests", "responses"):
        for schema in store[section].values():
            jsonschema.Draft202012Validator.check_schema({**schema, "$defs": store["$defs"]})


@pytest.mark.parametrize("schema", [
    {"type": "string", "maxLength": 3},
    {"type": "object", "properties": {"a": {"type": "string", "format": "date"}}},
    {"type": "array", "items": {"$ref": "#/$defs/missing"}, "$defs": {}},
    {"$ref": "other.json#/x"},
    {"enum": [1, 2]},
])
def test_compiling_outside_the_subset_raises(schema):
    for compile_ in (jsonio.compile_checker, jsonio.compile_walker):
        with pytest.raises(InternalInvariantViolation):
            compile_(schema)


def test_compiled_reject_that_jsonschema_accepts_is_an_internal_fault(capsys, monkeypatch):
    # the predicate and the walker must never disagree; if the predicate
    # rejects a document the walker cannot word, the request is not run
    monkeypatch.setattr(jsonio, "_request_checker", lambda key: lambda doc: False)
    status = cli.main(["epipelagic", "--input", '{"type":"A1","m":2}'])
    assert status == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"code": "internal-invariant-violation", "message":
                     "compiled epipelagic request check rejects a document its walker accepts"}


# Rejections worded by hand from jsonschema 4.26's keywords and best match.
A1_DATUM = {"type": "A1", "lambda": {"m": 1, "terms": []}}
WORDING = [
    # the two least relevant errors of the oneOf context tie
    ("regular-numbers", {"type": 5}, "5 is not valid under any of the given schemas"),
    # the deepest error of the oneOf context wins
    ("regular-numbers", {"type": [["A", 0]]}, "0 is less than the minimum of 1"),
    # the shallowest error wins at the top level
    ("classify", {"type": "A1", "lambda": {"m": 1.5, "terms": []}, "x": 1, "y": 2},
     "Additional properties are not allowed ('x', 'y' were unexpected)"),
    ("classify", {**A1_DATUM, "power": 1},
     "Additional properties are not allowed ('power' was unexpected)"),
    # extras are named in sorted order, not in the document's
    ("regular-numbers", {"type": "A1", "y": 1, "x": 2},
     "Additional properties are not allowed ('x', 'y' were unexpected)"),
    ("regular-numbers", {"type": [["A"]]}, "['A'] is too short"),
    ("regular-numbers", {"type": [["A", 1, 2]]}, "['A', 1, 2] is too long"),
    ("partition-check", {"type": "A1", "samples": math.nan}, "nan is not of type 'integer'"),
    ("moveability", {"datum": A1_DATUM, "variant": "L"}, "'L' is not one of ['J', 'K']"),
    ("regular-numbers", {}, "'type' is a required property"),
    # of two sibling errors, the later path wins: samples after disjoint_pairs
    ("partition-check", {"type": "A1", "samples": 0, "disjoint_pairs": -1},
     "0 is less than the minimum of 1"),
    ("classify", {"type": "A1", "lambda": {"m": 1, "terms": [{"q": "1/x", "coeff": []}]}},
     "'1/x' does not match '^-?[0-9]+(/[0-9]+)?$'"),
]


@pytest.mark.parametrize("command, doc, message", WORDING)
def test_rejection_wording(command, doc, message, capsys):
    expected = jsonschema.exceptions.best_match(_oracle(command).iter_errors(doc))
    assert expected.message == message
    status = cli.main([command, "--input", json.dumps(doc)])
    assert status == 1
    assert capsys.readouterr().out == jsonio.canonical_dumps({"error": {
        "code": "invalid-argument", "message": f"requests rejected by schema: {message}"}})


def _first_requests(per_command: int = 10):
    """The golden requests and the first documents of each command in each
    benchmark universe."""
    yield from ((command, json.loads(text)) for command, text in _golden_requests())
    for make in workloads.UNIVERSES.values():
        taken: dict = {}
        for req in make().values():
            if req.text is not None and taken.get(req.command, 0) < per_command:
                taken[req.command] = taken.get(req.command, 0) + 1
                yield req.command, json.loads(req.text)


def test_every_single_hostile_edit_agrees_with_jsonschema(capsys):
    # an edit that gives a document already checked is not checked again
    seen = set()
    for command, doc in _first_requests():
        for edited in _edits(doc):
            key = command, json.dumps(edited)
            if key not in seen:
                seen.add(key)
                _assert_agrees(command, edited, capsys)


def test_walker_refuses_additional_properties_with_a_schema():
    schema = {"type": "object", "additionalProperties": {"type": "integer"}}
    assert jsonio.compile_checker(schema)({"a": 1})
    with pytest.raises(InternalInvariantViolation):
        jsonio.compile_walker(schema)
