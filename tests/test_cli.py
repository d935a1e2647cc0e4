import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polarium.cli import main

GOLDENS = Path(__file__).parent / "goldens"


def run_main(capsys, *argv) -> tuple[int, str]:
    status = main(list(argv))
    return status, capsys.readouterr().out


def test_classify_golden(capsys):
    status, out = run_main(
        capsys, "classify", "--input", str(GOLDENS / "sl3_classify_request.json"))
    assert status == 0
    assert out == (GOLDENS / "sl3_classify_output.json").read_text()


def test_yu_sequence_golden_and_chaining(capsys, tmp_path):
    status, out = run_main(
        capsys, "yu-sequence", "--input", str(GOLDENS / "sl3_classify_request.json"))
    assert status == 0
    assert out == (GOLDENS / "sl3_yu_output.json").read_text()
    doc = json.loads(out)
    assert doc["ladder"]["breaks"] == ["1", "2"]
    assert doc["ladder"]["levels"] == [[], [1, 4], [0, 1, 2, 3, 4, 5]]
    # chain: classify output feeds yu-sequence directly
    classified = (GOLDENS / "sl3_classify_output.json").read_text()
    chained_input = tmp_path / "chained.json"
    chained_input.write_text(classified)
    status2, out2 = run_main(capsys, "yu-sequence", "--input", str(chained_input))
    assert status2 == 0
    assert json.loads(out2)["ladder"]["breaks"] == ["1", "2"]


def test_epipelagic_golden(capsys):
    status, out = run_main(
        capsys, "epipelagic", "--input", str(GOLDENS / "epi_request.json"))
    assert status == 0
    assert out == (GOLDENS / "epi_output.json").read_text()


def test_inline_json_input(capsys):
    request = (GOLDENS / "epi_request.json").read_text().strip()
    status, out = run_main(capsys, "epipelagic", "--input", request)
    assert status == 0
    assert out == (GOLDENS / "epi_output.json").read_text()
    # the documented form: flags merged over an inline document
    status2, out2 = run_main(capsys, "epipelagic", "--type", "A1", "--input", '{"m":2}')
    assert status2 == 0
    assert out2 == out


def test_regular_numbers_golden(capsys):
    status, out = run_main(capsys, "regular-numbers", "--type", "G2")
    assert status == 0
    assert out == (GOLDENS / "g2_regular_output.json").read_text()
    assert 6 in json.loads(out)["regular"]


def test_partition_check_golden_deterministic(capsys):
    argv = ("partition-check", "--type", "A1", "--samples", "25", "--seed", "11")
    status, out = run_main(capsys, *argv)
    assert status == 0
    assert out == (GOLDENS / "partition_a1_output.json").read_text()
    status2, out2 = run_main(capsys, *argv)
    assert out2 == out


def test_jlattice_golden(capsys):
    status, out = run_main(
        capsys, "jlattice", "--input", str(GOLDENS / "jlattice_request.json"))
    assert status == 0
    assert out == (GOLDENS / "jlattice_output.json").read_text()
    doc = json.loads(out)
    assert doc["psi_lambda"] is True


def test_jlattice_mixed_conductor_golden(capsys):
    # coefficients at conductors 3, 1 and 4: printed values live at conductor 12
    status, out = run_main(
        capsys, "jlattice", "--input", str(GOLDENS / "jlattice_mixed_conductor_request.json"))
    assert status == 0
    assert out == (GOLDENS / "jlattice_mixed_conductor_output.json").read_text()


def test_moveability_mixed_conductor_golden(capsys):
    # the same datum through the J moveability blocks, whose pairings mix a
    # conductor-12 dual with rational lattice vectors
    status, out = run_main(
        capsys, "moveability", "--input",
        str(GOLDENS / "moveability_mixed_conductor_request.json"))
    assert status == 0
    assert out == (GOLDENS / "moveability_mixed_conductor_output.json").read_text()


def test_list_tori(capsys):
    status, out = run_main(capsys, "list-tori", "--type", "A2")
    assert status == 0
    classes = json.loads(out)["classes"]
    assert len(classes) == 3
    assert sorted(c["m"] for c in classes) == [1, 2, 3]


def test_verify_sl2(capsys):
    status, out = run_main(capsys, "verify-sl2")
    assert status == 0
    assert json.loads(out)["violations"] == []


def test_moveability_exit_codes(capsys, tmp_path):
    good = {
        "datum": {"type": "A1",
                  "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1"]}]}},
        "x": ["1/4"],
        "variant": "K",
    }
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    status, out = run_main(capsys, "moveability", "--input", str(path))
    assert status == 0
    assert json.loads(out)["full_rank"] is True

    bad = {
        "datum": {"type": "A2", "levi": [], "validate": False,
                  "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1", "0"]}]}},
        "variant": "K",
        "ladder": {"breaks": ["1"], "levels": [[], [0, 1, 2, 3, 4, 5]],
                   "validate": False},
    }
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps(bad))
    status2, out2 = run_main(capsys, "moveability", "--input", str(path2))
    assert status2 == 2
    assert json.loads(out2)["full_rank"] is False


def test_error_exit_codes(capsys, tmp_path):
    # schema rejection before computation
    path = tmp_path / "bad.json"
    path.write_text('{"type":"A2","lambda":{"m":1,"terms":[{"q":"1","coeff":["x"]}]}}')
    status, out = run_main(capsys, "classify", "--input", str(path))
    assert status == 1
    assert json.loads(out)["error"]["code"] == "invalid-argument"

    path2 = tmp_path / "unsupported.json"
    path2.write_text('{"type":"E8","lambda":{"m":1,"terms":[]}}')
    status2, out2 = run_main(capsys, "classify", "--input", str(path2))
    assert status2 == 1
    assert json.loads(out2)["error"]["code"] == "unsupported-feature"

    path3 = tmp_path / "notjson.json"
    path3.write_text("{nope")
    status3, out3 = run_main(capsys, "classify", "--input", str(path3))
    assert status3 == 1

    # unreadable input and zero denominators end in the envelope, not a traceback
    enveloped = [
        ("classify", ["--input", str(tmp_path / "missing.json")]),
        ("classify", ["--input", '{"type":"A1","lambda":{"m":1,"terms":[{"q":"1/0","coeff":["1"]}]}}']),
        ("classify", ["--input", '{"type":"A1","lambda":{"m":1,"terms":[{"q":"1","coeff":["2/0"]}]}}']),
        ("verify-sl2", ["--input", '{"grid":[{"lo":"0","hi":"1/0","terms":[]}]}']),
        # levi indices past the last root, with or without validation
        ("yu-sequence", ["--input", '{"type":"A2","levi":[99],"lambda":{"m":1,"terms":[]}}']),
        ("jlattice", ["--input",
                      '{"datum":{"type":"A2","levi":[7],"lambda":{"m":1,"terms":[]}}}']),
        ("moveability", ["--input", '{"datum":{"type":"A2","validate":false,'
                         '"levi":[0,1,2,3,4,5,6],"lambda":{"m":1,"terms":[]}}}']),
        # an apartment preset rho/m whose m is not a positive integer
        ("jlattice", ["--input", '{"datum":{"type":"A2","lambda":{"m":1,"terms":[]}},'
                      '"x":"rho/0"}']),
        ("moveability", ["--input", '{"datum":{"type":"A2","lambda":{"m":1,"terms":[]}},'
                         '"x":"rho/x"}']),
        # a user ladder without breaks or levels, or with a level index past
        # the last root when its validation is switched off
        ("moveability", ["--input", '{"datum":{"type":"A1","lambda":{"m":1,"terms":[]}},'
                         '"ladder":{"levels":[[],[0,1]]}}']),
        ("moveability", ["--input", '{"datum":{"type":"A1","lambda":{"m":1,"terms":[]}},'
                         '"ladder":{"breaks":["1"]}}']),
        ("moveability", ["--input", '{"datum":{"type":"A1","lambda":{"m":1,'
                         '"terms":[{"q":"1","coeff":["1"]}]}},'
                         '"ladder":{"breaks":["1"],"levels":[[],[0,1,5]],"validate":false}}']),
        # a user ladder with a zero-denominator break, or a validated user
        # ladder of the wrong shape: the fault is in the input, not the program
        ("moveability", ["--input", '{"datum":{"type":"A1","lambda":{"m":1,'
                         '"terms":[{"q":"1","coeff":["1"]}]}},'
                         '"ladder":{"breaks":["1/0"],"levels":[[],[0,1]]}}']),
        ("moveability", ["--input", '{"datum":{"type":"A1","lambda":{"m":1,'
                         '"terms":[{"q":"1","coeff":["1"]}]}},'
                         '"ladder":{"breaks":["1","2"],"levels":[[],[0,1]]}}']),
        ("moveability", ["--input", '{"datum":{"type":"A1","lambda":{"m":1,'
                         '"terms":[{"q":"1","coeff":["1"]}]}},'
                         '"ladder":{"breaks":["1"],"levels":[[],[0]]}}']),
        # an unvalidated Coxeter-class datum with an integral tail exponent
        ("jlattice", ["--input", '{"datum":{"type":"A2","torus":{"m":3,"w":[[-1,1],[-1,0]]},'
                      '"levi":[],"validate":false,'
                      '"lambda":{"m":3,"terms":[{"q":"1","coeff":["1","1"]}]}}}']),
    ]
    # a torus matrix of the wrong shape, singular, or not unimodular
    for w in ([[1, 0], [0]], [[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0]],
              [[1, 1], [1, 1]], [[2, 0], [0, 1]]):
        doc = {"type": "A2", "torus": {"m": 1, "w": w}, "lambda": {"m": 1, "terms": []}}
        enveloped.append(("classify", ["--input", json.dumps(doc)]))
    for command, argv in enveloped:
        status4, out4 = run_main(capsys, command, *argv)
        assert status4 == 1, argv
        assert json.loads(out4)["error"]["code"] == "invalid-argument", argv

    # a user torus matrix is checked on the character side: on A1xT1 this w
    # permutes the coroots, yet sends the root (2,0) to (-2,2)
    for w, message in (([[-1, 1], [0, 1]], "matrix does not permute the roots"),
                       ([[1, 0], [0, 0]], "matrix is not invertible")):
        doc = {"type": [["A", 1], ["torus", 1]], "torus": {"m": 2, "w": w},
               "lambda": {"m": 2, "terms": []}}
        status5, out5 = run_main(capsys, "classify", "--input", json.dumps(doc))
        assert status5 == 1
        assert json.loads(out5)["error"] == {"code": "invalid-argument", "message": message}


def test_table_format(capsys):
    status, out = run_main(capsys, "regular-numbers", "--type", "A2",
                           "--format", "table")
    assert status == 0
    assert "regular" in out and "[1, 2, 3]" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    status, _ = run_main(capsys, "regular-numbers", "--type", "A1",
                         "--out", str(target))
    assert status == 0
    assert json.loads(target.read_text())["regular"] == [1, 2]


def test_out_file_that_cannot_be_opened(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    status, out = run_main(capsys, "regular-numbers", "--type", "A1",
                           "--out", str(target))
    assert status == 1
    assert json.loads(out)["error"]["code"] == "invalid-argument"
    assert not target.exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polarium", "regular-numbers", "--type", "B2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regular"] == [1, 2, 4]


def test_outputs_conform_to_response_schemas(capsys, tmp_path):
    from .oracles import validate_response

    cases = [
        ("classify", ["--input", str(GOLDENS / "sl3_classify_request.json")]),
        ("yu-sequence", ["--input", str(GOLDENS / "sl3_classify_request.json")]),
        ("epipelagic", ["--input", str(GOLDENS / "epi_request.json")]),
        ("regular-numbers", ["--type", "G2"]),
        ("list-tori", ["--type", "A2"]),
        ("partition-check", ["--type", "A1", "--samples", "10", "--seed", "3"]),
        ("jlattice", ["--input", str(GOLDENS / "jlattice_request.json")]),
        ("verify-sl2", []),
    ]
    for command, argv in cases:
        status, out = run_main(capsys, command, *argv)
        assert status == 0, command
        validate_response(command, json.loads(out))


def test_homogeneous_cli(capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text('{"type":"A2","m":3,"i":2}')
    status, out = run_main(capsys, "homogeneous", "--input", str(path))
    assert status == 0
    doc = json.loads(out)
    assert doc["lambda"]["terms"][0]["q"] == "2/3"
    from .oracles import validate_response

    validate_response("homogeneous", doc)


def test_twisted_datum_chains_through_lattice_commands(capsys, tmp_path):
    req = tmp_path / "epi.json"
    req.write_text('{"type":"A2","m":3}')
    status, out = run_main(capsys, "epipelagic", "--input", str(req))
    assert status == 0
    datum_doc = json.loads(out)
    for command, extra in (("jlattice", {}), ("moveability", {"variant": "J"})):
        payload = tmp_path / f"{command}.json"
        payload.write_text(json.dumps({"datum": datum_doc, **extra}))
        status2, out2 = run_main(capsys, command, "--input", str(payload))
        assert status2 == 0, (command, out2)
    report = json.loads(out2)
    assert report["full_rank"] is True


def test_schema_reject_names_the_best_match_among_several_errors(capsys):
    import jsonschema

    from polarium.jsonio import schemas

    # a bad type label and an unknown property: the first error found and
    # jsonschema's best match are different errors
    doc = {"type": 5, "lambda": {"m": 1, "terms": []}, "extra": 1}
    schema = dict(schemas()["requests"]["classify"], **{"$defs": schemas()["$defs"]})
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(doc, schema)
    status, out = run_main(capsys, "classify", "--input", json.dumps(doc))
    assert status == 1
    assert json.loads(out)["error"] == {
        "code": "invalid-argument",
        "message": f"requests rejected by schema: {exc.value.message}"}


def test_one_checker_per_command(capsys, monkeypatch):
    # the compiled check is built on the first request of a command, and
    # jsonschema's checked validator on its first rejection; both are reused
    import jsonschema

    from polarium import jsonio

    compiled, checked = [], []
    compile_checker = jsonio.compile_checker
    monkeypatch.setattr(jsonio, "compile_checker",
                        lambda s: compiled.append(s) or compile_checker(s))
    cls = jsonschema.validators.validator_for(jsonio.schemas())
    original = cls.check_schema.__func__
    monkeypatch.setattr(cls, "check_schema",
                        classmethod(lambda c, s: checked.append(s) or original(c, s)))
    jsonio._request_checker.cache_clear()
    jsonio._request_validator.cache_clear()
    for request in ('{"type":"A1","m":2}', '{"type":"A2","m":3}'):
        status, _ = run_main(capsys, "epipelagic", "--input", request)
        assert status == 0
    for request in ('{"type":"A1","m":0}', '{"type":"A1"}'):
        status, _ = run_main(capsys, "epipelagic", "--input", request)
        assert status == 1
    assert len(compiled) == 1 and len(checked) == 1
    jsonio._request_checker.cache_clear()
    jsonio._request_validator.cache_clear()


def test_accepted_request_imports_no_jsonschema():
    # nor an argument parser or dataclasses, which the request fields and
    # the SL2 stratum record do without
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "polarium", "list-tori",
         "--input", '{"type":"A1"}'],
        capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["type"] == "A1"
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert not imported & {"jsonschema", "argparse", "dataclasses"}


def test_flags_are_request_fields(capsys):
    # a malformed command line ends in the envelope with exit 1, like any
    # other invalid argument; exit 2 belongs to verification reports
    for argv in (("classify", "--seed", "x"), ("jlattice", "--window", "1:2"),
                 ("bogus",), (), ("regular-numbers", "--type"),
                 ("regular-numbers", "--type", "A2", "--format", "xml"),
                 ("classify", "--seed", "3", "--input",
                  '{"type":"A1","lambda":{"m":1,"terms":[]}}')):
        status, out = run_main(capsys, *argv)
        assert status == 1, argv
        assert json.loads(out)["error"]["code"] == "invalid-argument", argv
    status, out = run_main(capsys, "regular-numbers", "--type=A2")
    assert status == 0 and json.loads(out)["type"] == "A2"
    for argv in (("--help",), ("classify", "-h")):
        status, out = run_main(capsys, *argv)
        assert status == 0 and out.startswith("usage: polarium ") and out.count("\n") == 1
    # a flag overrides the document, --grid included
    status, out = run_main(capsys, "epipelagic", "--type", "A2", "-m", "3",
                           "--input", '{"type":"A1","m":2}')
    assert status == 0 and json.loads(out)["type"] == "A2"
    status, out = run_main(capsys, "verify-sl2", "--grid", "[]", "--input", '{"grid":"default"}')
    assert status == 0 and json.loads(out)["points"] == 0
    status, out = run_main(capsys, "verify-sl2", "--grid", "default", "--input", '{"grid":[]}')
    assert status == 0 and json.loads(out)["points"] > 0


def _fresh_process(*argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "polarium", *argv],
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_shared_parser_keeps_no_flag_between_calls(capsys):
    datum = json.dumps({"datum": {"type": "A1",
                                  "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1"]}]}},
                        "x": ["1/4"]})
    status, with_k = run_main(capsys, "moveability", "--variant", "K", "--input", datum)
    assert status == 0 and json.loads(with_k)["variant"] == "K"
    status, out = run_main(capsys, "moveability", "--input", datum)
    assert status == 0
    assert out == _fresh_process("moveability", "--input", datum)

    argv = ("partition-check", "--type", "A1", "--samples", "3")
    status, seeded = run_main(capsys, *argv, "--seed", "7")
    assert status == 0 and json.loads(seeded)["seed"] == 7
    status, out = run_main(capsys, *argv)
    assert status == 0
    assert out == _fresh_process(*argv)


def test_unexpected_exception_ends_in_the_envelope(capsys, monkeypatch):
    from polarium import cli

    def broken(doc):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "regular-numbers", broken)
    status, out = run_main(capsys, "regular-numbers", "--type", "A1")
    assert status == 3
    assert out == ('{"error":{"code":"internal-invariant-violation",'
                   '"message":"unexpected RuntimeError: boom"}}\n')


def _refuse(*args):
    raise AssertionError("closed-form request reached Weyl enumeration or a nullspace")


def test_regular_numbers_from_degrees_alone(capsys, monkeypatch):
    # |W| of D8 is 5 160 960: only the degrees may be read
    import polarium.rootdata as rootdata
    import polarium.tori as tori

    monkeypatch.setattr(rootdata, "_reflect_left", _refuse)
    monkeypatch.setattr(tori, "nullspace", _refuse)
    expected = {"A7": ([1, 2, 4, 7, 8], [8]),
                "B8": ([1, 2, 4, 8, 16], [2, 4, 8, 16]),
                "D8": ([1, 2, 4, 7, 8, 14], [2, 4, 8, 14])}
    for label, (regular, elliptic) in expected.items():
        status, out = run_main(capsys, "regular-numbers", "--type", label)
        assert status == 0, out
        assert json.loads(out) == {"type": label, "regular": regular, "elliptic": elliptic}


def test_high_period_classify_solves_no_eigenspace(capsys, monkeypatch):
    import polarium.tori as tori

    monkeypatch.setattr(tori, "nullspace", _refuse)
    status, out = run_main(
        capsys, "classify", "--input", str(GOLDENS / "a1_period720_classify_request.json"))
    assert status == 0
    assert out == (GOLDENS / "a1_period720_classify_output.json").read_text()


def test_torus_period_bound(capsys):
    # the powers of w stop at its order, so the largest allowed period is cheap,
    # and a period past the bound is refused before any power is taken
    def classify_period(m):
        doc = {"type": "A1", "torus": {"m": m, "w": [[1]]}, "lambda": {"m": 1, "terms": []}}
        return run_main(capsys, "classify", "--input", json.dumps(doc))

    start = time.perf_counter()
    status, out = classify_period(10**6)
    assert time.perf_counter() - start < 1
    assert status == 0
    assert json.loads(out)["torus"]["m"] == 10**6
    for m in (10**6 + 1, 10**8):
        status, out = classify_period(m)
        assert status == 1
        assert json.loads(out)["error"]["code"] == "resource-limit"


def test_sample_and_window_bounds(capsys, monkeypatch):
    # counts past their bounds are refused before any sampling; a float count
    # the schema takes as an integer is no way round. A lattice window is no
    # request field: the closure proof covers all of J, so the schema refuses it.
    import polarium.polar as polar

    datum = {"type": "A1", "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1"]}]}}
    status, _out = run_main(capsys, "jlattice", "--input", json.dumps({"datum": datum}))
    assert status == 0
    for command in ("jlattice", "moveability"):
        for window in (10, 167, 10**4, 10**5):
            status, out = run_main(capsys, command, "--input",
                                   json.dumps({"datum": datum, "window": window}))
            assert status == 1, (command, window)
            assert json.loads(out)["error"]["code"] == "invalid-argument", (command, window)
    monkeypatch.setattr(polar, "list_torus_classes", _refuse)
    for doc in ({"type": "A1", "samples": 10**9}, {"type": "A1", "samples": 1e300},
                {"type": "A1", "disjoint_pairs": polar.DISJOINT_PAIRS_BOUND + 1}):
        status, out = run_main(capsys, "partition-check", "--input", json.dumps(doc))
        assert status == 1
        assert json.loads(out)["error"]["code"] == "resource-limit", doc


def test_datum_dimension_bound(capsys, monkeypatch):
    # the largest datum inside the bound answers; one past it is refused
    # before any root is built, however cheap its answer would be
    import polarium.rootdata as rootdata

    doc = {"type": "B16", "lambda": {"m": 1, "terms": []}}
    status, out = run_main(capsys, "classify", "--input", json.dumps(doc))
    assert status == 0
    assert len(json.loads(out)["levi"]) == 2 * 16**2

    def refuse(*args):
        raise AssertionError("roots built for a datum past the dimension bound")

    monkeypatch.setattr(rootdata.RootDatum, "_close_roots", refuse)
    torus_doc = {"type": [["A", 1], ["torus", 2000]], "lambda": {"m": 1, "terms": []}}
    for argv in (("regular-numbers", "--type", "A17"), ("regular-numbers", "--type", "A80"),
                 ("classify", "--input", json.dumps(torus_doc))):
        status, out = run_main(capsys, *argv)
        assert status == 1
        assert json.loads(out)["error"]["code"] == "resource-limit"


def test_tail_twist_bound(capsys, monkeypatch):
    # a root-of-unity twist inside the phi bound multiplies rational entries
    # without a reduction table; one past the bound is refused before any
    # cyclotomic polynomial is built
    import polarium.cyclo as cyclo

    def classify_term(m, q):
        doc = {"type": "A1", "torus": {"m": m, "w": [[1]]},
               "lambda": {"m": m, "terms": [{"q": q, "coeff": ["1"]}]}}
        return run_main(capsys, "classify", "--input", json.dumps(doc))

    def refuse(*args):
        raise AssertionError("cyclotomic work the request does not need")

    with monkeypatch.context() as m:
        m.setattr(cyclo, "_reduction_table", refuse)
        for q in ("1/1000", "999/1000"):
            start = time.perf_counter()
            status, out = classify_term(1000, q)
            assert time.perf_counter() - start < 2
            assert status == 1
            assert json.loads(out)["error"]["code"] == "invalid-argument"  # not equivariant
        # an integer exponent needs no root of unity, whatever the period
        status, out = classify_term(10**6, "1")
        assert status == 0
        assert json.loads(out)["lambda"]["m"] == 10**6
    monkeypatch.setattr(cyclo, "cyclotomic_polynomial", refuse)
    for q in ("1/10000", "9999/10000"):
        status, out = classify_term(10**4, q)
        assert status == 1
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit"
        assert "phi(10000) = 4000" in error["message"]


def test_oversized_wire_conductor_refused_before_factoring(capsys):
    # the prime 2^61 - 1 as a coefficient's conductor: phi(L) >= sqrt(L/2)
    # rules it out for one coefficient before trial division could start
    from polarium.cyclo import cyclo_from_json, euler_phi

    coeff = {"conductor": 2**61 - 1, "coeffs": ["1"]}
    doc = {"type": "A1", "lambda": {"m": 1, "terms": [{"q": "1", "coeff": [coeff]}]}}
    start = time.perf_counter()
    status, out = run_main(capsys, "classify", "--input", json.dumps(doc))
    assert time.perf_counter() - start < 2
    assert status == 1
    error = json.loads(out)["error"]
    assert error["code"] == "invalid-argument"
    assert "phi(L) >= sqrt(L/2)" in error["message"]
    # the bound never refuses a conductor that matches its coefficient count
    for L in range(1, 400):
        phi = euler_phi(L)
        value = cyclo_from_json({"conductor": L, "coeffs": ["0"] * (phi - 1) + ["1"]})
        assert value.conductor == L


def test_eigenspace_dimension_check_survives_optimized_python():
    # under -O a bare assert would vanish; the check must still end in exit 3
    script = (
        "import sys\n"
        "import polarium.tori as tori\n"
        "from polarium.cli import main\n"
        "solve = tori.nullspace\n"
        "tori.nullspace = lambda rows, n: solve(rows, n)[1:]\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for argv in (["homogeneous", "--input", '{"type":"A2","m":3,"i":1}'],
                 ["partition-check", "--type", "A2", "--samples", "5"]):
        proc = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error["code"] == "internal-invariant-violation"
        assert error["message"].startswith("eigenspace dimension check"), error


def test_moveability_codegree_bound(capsys, monkeypatch):
    # the scan visits every multiple of the grading step between its ends:
    # at x = 1/d on A1 that is 2d + d//2 + 1 codegrees. Inside the bound the
    # request answers; past it, it is refused before the lattice is assembled.
    import polarium.looplie as looplie

    def moveability_at(d):
        datum = {"type": "A1", "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1"]}]}}
        return run_main(capsys, "moveability", "--input",
                        json.dumps({"datum": datum, "x": [f"1/{d}"]}))

    status, out = moveability_at(399)  # 998 codegrees
    assert status == 0, out
    assert json.loads(out)["full_rank"] is True

    def refuse(*args):
        raise AssertionError("lattice assembled for a scan past the codegree bound")

    monkeypatch.setattr(looplie, "JLattice", refuse)
    for d in (401, 1_000_000_007):
        start = time.perf_counter()
        status, out = moveability_at(d)
        assert time.perf_counter() - start < 2
        assert status == 1
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit"
        assert f"bound {looplie.CODEGREE_BOUND}" in error["message"]


def test_verify_sl2_window_bound(capsys, monkeypatch):
    # 2 (hi - lo) den counts the steps of the square root after an odd
    # valuation doubles them; past the bound no window is built
    import polarium.tails as tails

    def verify(hi, den=1):
        window = {"lo": "-2", "hi": hi, "den": den, "terms": [{"q": "-2", "coeff": "1"}]}
        return run_main(capsys, "verify-sl2", "--input", json.dumps({"grid": [window]}))

    status, out = verify("126")  # 2 * 128 = 256 steps
    assert status == 0, out
    assert json.loads(out)["points"] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("window built past the length bound")

    monkeypatch.setattr(tails, "LaurentWindow", refuse)
    for hi, den in (("127", 1), ("6400", 1), ("0", 10**9)):
        status, out = verify(hi, den)
        assert status == 1
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit", (hi, den)
        assert f"bound {tails.WINDOW_STEPS_BOUND}" in error["message"]


def test_wire_coefficient_conductor_bound(capsys, monkeypatch):
    # the coefficients of a tail or a window are lifted to the lcm L of their
    # conductors; phi(L) past the bound is refused before any tail or window
    # is built, and L past twice the square of the bound before L is factored
    import polarium.tails as tails

    def dense(L):
        from polarium.cyclo import euler_phi

        return {"conductor": L, "coeffs": [str(k % 3 + 1) for k in range(euler_phi(L))]}

    def classify(*conductors):
        terms = [{"q": str(k + 1), "coeff": [dense(L)]} for k, L in enumerate(conductors)]
        doc = {"type": "A1", "lambda": {"m": 1, "terms": terms}}
        return run_main(capsys, "classify", "--input", json.dumps(doc))

    def verify(L):
        window = {"lo": "-2", "hi": "4", "terms": [{"q": "-2", "coeff": "1"},
                                                  {"q": "-1", "coeff": dense(L)}]}
        return run_main(capsys, "verify-sl2", "--input", json.dumps({"grid": [window]}))

    for L in (35, 72, 90):  # phi(L) = 24 = COEFF_PHI_BOUND
        status, out = classify(L)
        assert status == 0, (L, out)
    status, out = classify(5, 7)
    assert status == 0, out
    status, out = verify(35)
    assert status == 0, out

    def refuse(*args, **kwargs):
        raise AssertionError("arithmetic past the conductor bound")

    monkeypatch.setattr(tails, "Tail", refuse)
    monkeypatch.setattr(tails, "LaurentWindow", refuse)
    refused = [classify(101), classify(997), classify(5, 7, 3), verify(101), verify(211)]
    monkeypatch.setattr(tails, "euler_phi", refuse)
    refused += [classify(101, 103), classify(1153), verify(1153)]
    for status, out in refused:
        assert status == 1
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit"
        assert f"bound {tails.COEFF_PHI_BOUND}" in error["message"]
