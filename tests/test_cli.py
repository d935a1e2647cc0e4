import hashlib
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


@pytest.mark.parametrize("label", ["A4", "B3"])
def test_partition_check_goldens_outside_the_benchmark_types(capsys, label):
    # 200 samples at seed 3; A4 brings tails at conductor 5
    status, out = run_main(capsys, "partition-check", "--type", label, "--seed", "3")
    assert status == 0
    assert out == (GOLDENS / f"{label.lower()}_seed3_partition_output.json").read_text()


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


def test_user_ladder_bytes(capsys):
    # the sl3 two-break datum with decreasing breaks (refused before its
    # bands are cut), with a repeated break (the bands partition the tail,
    # the centralizer identity fails), with one break and three levels at
    # rho/2 for both variants (refused by shape, validated or not), with
    # one break at 5, not one of its depths 1 and 2, at rho/2 (validated,
    # the ladder passes its checks and is refused for that break under
    # either variant; unvalidated, variant J's break form fails on the
    # input's break and is refused, and variant K answers with its rank
    # report), with one break at 2 whose band holds the roots of depth 1
    # (validated, the ladder passes its checks and is refused as not
    # generic at both points under either variant), and the A2 zero tail
    # without breaks, as moveability and yu-sequence print them
    sl3 = ('{"datum":{"type":"A2","lambda":{"m":1,"terms":[{"q":"2","coeff":["3","0"]},'
           '{"q":"1","coeff":["-1","2"]}]}},"ladder":{"breaks":%s,'
           '"levels":[[],[1,4],[0,1,2,3,4,5]]}}')
    one_break = ('{"datum":{"type":"A2","lambda":{"m":1,"terms":[{"q":"2","coeff":["3","0"]},'
                 '{"q":"1","coeff":["-1","2"]}]}},"x":"rho/2","variant":"%s","ladder":'
                 '{"breaks":["1"],"levels":[[],[1,4],[0,1,2,3,4,5]]%s}}')
    off_depth = ('{"datum":{"type":"A2","lambda":{"m":1,"terms":[{"q":"2","coeff":["3","0"]},'
                 '{"q":"1","coeff":["-1","2"]}]}},"x":"rho/2","variant":"%s","ladder":'
                 '{"breaks":["5"],"levels":[[],[0,1,2,3,4,5]]%s}}')
    skip_depth = ('{"datum":{"type":"A2","lambda":{"m":1,"terms":[{"q":"2","coeff":["3","0"]},'
                  '{"q":"1","coeff":["-1","2"]}]}},"x":"%s","variant":"%s","ladder":'
                  '{"breaks":["2"],"levels":[[],[0,1,2,3,4,5]]}}')
    rejected = '{"error":{"code":"invalid-argument","message":"ladder rejected: %s"}}\n'
    zero = '{"type":"A2","lambda":{"m":1,"terms":[]}}'
    cases = [
        ("moveability", sl3 % '["2","1"]', 1,
         '{"error":{"code":"invalid-argument","message":"ladder breaks decrease: 2 before 1"}}\n'),
        ("moveability", sl3 % '["1","1"]', 1,
         rejected % "centralizer identity fails at level 2: [1, 4] vs [0, 1, 2, 3, 4, 5]"),
        *(("moveability", one_break % (variant, validate), 1,
           rejected % "level count must be break count + 1")
          for validate in ('', ',"validate":false') for variant in "JK"),
        *(("moveability", off_depth % (variant, validate), 1,
           rejected % "break 5 is not a depth of the tail: [1, 2]")
          for variant, validate in (("J", ',"validate":false'), ("J", ""), ("K", ""))),
        *(("moveability", skip_depth % (x, variant), 1,
           rejected % "root 1 pairs with band component 0 at depth 1, not at its break 2")
          for x in ("zero", "rho/2") for variant in "JK"),
        ("moveability", '{"datum":%s}' % zero, 0,
         '{"blocks":[],"full_rank":true,"rank_defects":0,"type":"A2","variant":"J"}\n'),
    ]
    for command, text, expected_status, expected_out in cases:
        assert run_main(capsys, command, "--input", text) == (expected_status, expected_out)
    status, out = run_main(capsys, "moveability", "--input",
                           off_depth % ("K", ',"validate":false'))
    assert (status, json.loads(out)["rank_defects"]) == (2, 12)
    status, out = run_main(capsys, "yu-sequence", "--input", zero)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("3f53626e2fe2a747")


def test_user_datum_refusals(capsys):
    # each PolarDatum validation refusal, reached by a yu-sequence request
    # that gives its levi: a w-unstable levi, a non-equivariant tail, a
    # levi coroot pairing nonzero and a non-levi coroot pairing to zero
    cases = [
        ('{"type":"A2","torus":{"m":3,"w":[[-1,1],[-1,0]]},"levi":[0,2],'
         '"lambda":{"m":3,"terms":[]}}',
         "levi subset not stable under the twisting element"),
        ('{"type":"A2","torus":{"m":2,"w":[[-1,1],[0,1]]},"levi":[],'
         '"lambda":{"m":2,"terms":[{"q":"1","coeff":["1","0"]}]}}',
         "tail violates the torus equivariance condition"),
        ('{"type":"A2","levi":[0,2],"lambda":{"m":1,"terms":[{"q":"1","coeff":["1","1"]}]}}',
         "tail not central: coroot 0 pairs nonzero"),
        ('{"type":"A2","levi":[],"lambda":{"m":1,"terms":[]}}',
         "tail not G-regular: coroot 0 pairing vanishes"),
    ]
    for text, message in cases:
        assert run_main(capsys, "yu-sequence", "--input", text) == (
            1, '{"error":{"code":"invalid-argument","message":"%s"}}\n' % message)


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

    # a user torus matrix is checked on the character side: on A1xT1 the
    # first w permutes the coroots, yet sends the root (2,0) to (-2,2). The
    # others permute the roots but are not in W: a singular matrix that fixes
    # the roots, the diagram automorphism of A2, and -1 on the central
    # coordinate of A2xT1
    a1t1, a2t1 = [["A", 1], ["torus", 1]], [["A", 2], ["torus", 1]]
    for datum_type, w, message in (
            (a1t1, [[-1, 1], [0, 1]], "matrix does not permute the roots"),
            (a1t1, [[1, 0], [0, 0]], "matrix is not in the Weyl group"),
            ("A2", [[0, 1], [1, 0]], "matrix is not in the Weyl group"),
            (a2t1, [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "matrix is not in the Weyl group")):
        doc = {"type": datum_type, "torus": {"m": 2, "w": w}, "lambda": {"m": 2, "terms": []}}
        status5, out5 = run_main(capsys, "classify", "--input", json.dumps(doc))
        assert status5 == 1
        assert json.loads(out5)["error"] == {"code": "invalid-argument", "message": message}


def test_table_format(capsys):
    status, out = run_main(capsys, "regular-numbers", "--type", "A2",
                           "--format", "table")
    assert status == 0
    assert "regular" in out and "[1, 2, 3]" in out


def test_table_format_nested_reports(capsys):
    # a dict value is an indented table and a list of dicts one row per entry
    status, out = run_main(capsys, "partition-check", "--type", "A1", "--samples", "5",
                           "--format", "table")
    assert status == 0
    assert "torus_orders:\n  1: 1\n  2: 4\ntype: A1\n" in out
    doc = {"datum": {"type": "A1", "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1"]}]}}}
    status, out = run_main(capsys, "moveability", "--input", json.dumps(doc), "--format", "table")
    assert status == 0
    assert out.startswith("blocks:\n  cols=2  full=True  gamma=0  rank=2  rows=2\n"
                          "  cols=2  full=True  gamma=1  rank=2  rows=2\n")


def test_zero_apartment_preset(capsys):
    # "zero" is the origin: on split data the same bytes as its coordinates
    # and as no point at all; a twisted datum needs rho_vee/m and refuses it
    datum = {"type": "A2", "lambda": {"m": 1, "terms": [{"q": "2", "coeff": ["3", "0"]},
                                                         {"q": "1", "coeff": ["-1", "2"]}]}}
    for command in ("jlattice", "moveability"):
        outs = {run_main(capsys, command, "--input", json.dumps(dict({"datum": datum}, **x)))
                for x in ({"x": "zero"}, {"x": ["0", "0"]}, {})}
        assert len(outs) == 1 and outs.pop()[0] == 0
    _, epi = run_main(capsys, "epipelagic", "--type", "A2", "-m", "3")
    status, out = run_main(capsys, "jlattice", "--input",
                           json.dumps({"datum": json.loads(epi), "x": "zero"}))
    assert (status, json.loads(out)["error"]["message"]) == (
        1, "twisted realization requires the barycentric point rho_vee/m")


@pytest.mark.parametrize("label", [[["A", 1], ["torus", 1]], [["A", 1], ["A", 2]]],
                         ids=["A1xT1", "A1xA2"])
def test_array_form_type_printed_back(capsys, label):
    # every report that names its type spells it as a request does
    for command, extra in (("regular-numbers", {}), ("list-tori", {}),
                           ("partition-check", {"samples": 3})):
        status, out = run_main(capsys, command, "--input", json.dumps({"type": label, **extra}))
        assert status == 0 and json.loads(out)["type"] == label


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
    # its error walker on its first rejection; both are reused
    from polarium import jsonio

    built = {"compile_checker": [], "compile_walker": []}
    for name, calls in built.items():
        compile_ = getattr(jsonio, name)
        monkeypatch.setattr(jsonio, name,
                            lambda s, compile_=compile_, calls=calls: calls.append(s) or compile_(s))
    jsonio._request_checker.cache_clear()
    jsonio._request_walker.cache_clear()
    for request in ('{"type":"A1","m":2}', '{"type":"A2","m":3}'):
        status, _ = run_main(capsys, "epipelagic", "--input", request)
        assert status == 0
    assert len(built["compile_checker"]) == 1 and not built["compile_walker"]
    for request in ('{"type":"A1","m":0}', '{"type":"A1"}'):
        status, _ = run_main(capsys, "epipelagic", "--input", request)
        assert status == 1
    assert len(built["compile_checker"]) == 1 and len(built["compile_walker"]) == 1
    jsonio._request_checker.cache_clear()
    jsonio._request_walker.cache_clear()


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


# Runs the CLI on its arguments in a fresh interpreter, then reports on
# stderr whether jsonschema was imported; with "block" as the first argument,
# importing jsonschema fails from the start.
_REPORT_JSONSCHEMA = """import sys
if sys.argv[1] == "block":
    sys.modules["jsonschema"] = None
from polarium.cli import main
status = main(sys.argv[2:])
print("jsonschema" in sys.modules and sys.modules["jsonschema"] is not None, file=sys.stderr)
sys.exit(status)
"""


@pytest.mark.parametrize("argv, status", [
    (("list-tori", "--input", '{"type":"A1"}'), 0),
    (("classify", "--input", '{"type":"A1"}'), 1),
    (("regular-numbers", "--input", '{"type":[["A",0]]}'), 1),
])
def test_requests_answer_without_jsonschema(argv, status):
    # the runtime never imports jsonschema: with its import blocked, a request
    # prints the bytes it prints without the block, and an interpreter that
    # has answered it holds no jsonschema
    blocked, free = [subprocess.run([sys.executable, "-c", _REPORT_JSONSCHEMA, mode, *argv],
                                    capture_output=True, text=True) for mode in ("block", "free")]
    assert blocked.returncode == free.returncode == status
    assert blocked.stdout == free.stdout
    assert blocked.stderr == free.stderr == "False\n"
    if status == 1:
        assert json.loads(free.stdout)["error"]["message"].startswith("requests rejected by schema: ")


def _nested_type(lists: int) -> str:
    return "[" * lists + "]" * lists


NESTING_REFUSAL = {"code": "invalid-argument",
                   "message": "request refused: lists and objects nest deeper than bound 100"}


@pytest.mark.parametrize("depth", [101, 984, 100_000])
@pytest.mark.parametrize("via", ["--input", "--type"])
def test_over_deep_request_refused(capsys, via, depth):
    # depth counts the request document itself; json.loads recurses, and
    # fails near 1000 levels, and a recursion error is refused the same way
    lists = depth - 1
    value = f'{{"type":{_nested_type(lists)}}}' if via == "--input" else _nested_type(lists)
    status, out = run_main(capsys, "regular-numbers", via, value)
    assert status == 1
    assert json.loads(out)["error"] == NESTING_REFUSAL


@pytest.mark.parametrize("depth", [50, 100])
def test_nesting_within_the_bound_keeps_the_schema_message(capsys, depth):
    import jsonschema

    from polarium.jsonio import schemas

    doc = {"type": json.loads(_nested_type(depth - 1))}
    schema = dict(schemas()["requests"]["regular_numbers"], **{"$defs": schemas()["$defs"]})
    expected = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    for argv in (("--input", json.dumps(doc)), ("--type", json.dumps(doc["type"]))):
        status, out = run_main(capsys, "regular-numbers", *argv)
        assert status == 1
        assert json.loads(out)["error"] == {
            "code": "invalid-argument",
            "message": f"requests rejected by schema: {expected.message}"}


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

    monkeypatch.setattr(rootdata, "_born_left", _refuse)
    monkeypatch.setattr(tori, "nullspace", _refuse)
    expected = {"A7": ([1, 2, 4, 7, 8], [8]),
                "B8": ([1, 2, 4, 8, 16], [2, 4, 8, 16]),
                "D8": ([1, 2, 4, 7, 8, 14], [2, 4, 8, 14])}
    for label, (regular, elliptic) in expected.items():
        status, out = run_main(capsys, "regular-numbers", "--type", label)
        assert status == 0, out
        assert json.loads(out) == {"type": label, "regular": regular, "elliptic": elliptic}


def test_non_regular_homogeneous_refused_from_degrees(capsys, monkeypatch):
    # a non-regular number is refused from the degrees before W is
    # enumerated; a regular one past the Weyl order bound stays a resource limit
    import polarium.rootdata as rootdata
    import polarium.tori as tori

    monkeypatch.setattr(rootdata, "_born_left", _refuse)
    monkeypatch.setattr(tori, "nullspace", _refuse)
    for label, m, error in (
            ("A7", 5, {"code": "invalid-argument", "message": "5 is not a regular number for A7"}),
            ("A9", 7, {"code": "invalid-argument", "message": "7 is not a regular number for A9"}),
            ("A9", 10, {"code": "resource-limit",
                        "message": "Weyl group larger than bound 100000"})):
        doc = {"type": label, "m": m, "i": 1}
        status, out = run_main(capsys, "homogeneous", "--input", json.dumps(doc))
        assert (status, json.loads(out)) == (1, {"error": error})


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


def test_jlattice_far_out_in_the_apartment_answers_quickly(capsys):
    # at x = 441067 the generators' exponents spread over about 441067
    # shifts; the tail character pairs only at the shifts that meet the
    # dual's keys (the zero tail at m = 8 took 45-55 s when it paired at
    # every shift in between)
    for m, terms in ((8, []), (1, [{"q": "1", "coeff": ["1"]}])):
        doc = {"datum": {"type": "A1", "lambda": {"m": m, "terms": terms}}, "x": ["441067"]}
        start = time.perf_counter()
        status, out = run_main(capsys, "jlattice", "--input", json.dumps(doc))
        assert time.perf_counter() - start < 2
        assert status == 0, out
        result = json.loads(out)
        assert result["psi_lambda"] is True
        assert result["bracket_closure"] == "verified"


def test_tail_twist_bound(capsys, monkeypatch):
    # a root-of-unity twist inside the phi bound answers quickly; one past the
    # bound is refused before any cyclotomic polynomial is built
    import polarium.cyclo as cyclo

    def classify_term(m, q):
        doc = {"type": "A1", "torus": {"m": m, "w": [[1]]},
               "lambda": {"m": m, "terms": [{"q": q, "coeff": ["1"]}]}}
        return run_main(capsys, "classify", "--input", json.dumps(doc))

    def refuse(*args):
        raise AssertionError("cyclotomic work the request does not need")

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
    from polarium.cyclo import euler_phi
    from polarium.jsonio import cyclo_from_json

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
    import polarium.jsonio as jsonio

    def verify(hi, den=1):
        window = {"lo": "-2", "hi": hi, "den": den, "terms": [{"q": "-2", "coeff": "1"}]}
        return run_main(capsys, "verify-sl2", "--input", json.dumps({"grid": [window]}))

    status, out = verify("126")  # 2 * 128 = 256 steps
    assert status == 0, out
    assert json.loads(out)["points"] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("window built past the length bound")

    monkeypatch.setattr(jsonio, "LaurentWindow", refuse)
    for hi, den in (("127", 1), ("6400", 1), ("0", 10**9)):
        status, out = verify(hi, den)
        assert status == 1
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit", (hi, den)
        assert f"bound {jsonio.WINDOW_STEPS_BOUND}" in error["message"]


def test_verify_sl2_refuses_a_lift_the_torus_cannot_carry(capsys):
    # a window with den > 1 can lift to a term off Z on the split torus or
    # off 1/2 + Z on the ramified one; the request is refused before the
    # tail is classified, naming the window and the exponent, and a den-2
    # window whose lift stays on Z is answered with the bytes it had before
    def window(den, *qs):
        return {"lo": qs[0], "hi": "1", "den": den, "terms": [{"q": q, "coeff": "1"} for q in qs]}

    def verify(*grid):
        return run_main(capsys, "verify-sl2", "--input", json.dumps({"grid": list(grid)}))

    answered = window(2, "-4", "-3")
    status, out = verify(answered)
    assert (status, out) == (0, '{"points":1,"stratum_counts":{"G-zero":0,"nonsplit-toral":0,'
                                '"split-toral":1},"violations":[]}\n')
    refused = ((window(4, "-3", "-11/4"), "1/4", "ramified torus"),
               (window(2, "-3", "-5/2"), "0", "ramified torus"),
               (window(2, "-4", "-7/2"), "1/2", "split torus"))
    for bad, exponent, torus in refused:
        for grid, k in (([bad], 0), ([answered, bad], 1)):
            status, out = verify(*grid)
            error = json.loads(out)["error"]
            assert status == 1 and error["code"] == "invalid-argument", out
            message = error["message"]
            assert message.startswith(f"grid window {k}: "), message
            assert f"exponent {exponent} " in message and torus in message, message
            assert "m=" not in message and "equivariant" not in message, message


def test_verify_sl2_names_the_window_of_every_refusal(capsys):
    # a refusal keeps its class, code and exit status and names the window
    # it came from, whether the closed-form stratum or the square root of
    # the lead refuses it
    answered = {"lo": "-4", "hi": "1", "den": 2,
                "terms": [{"q": "-4", "coeff": "1"}, {"q": "-3", "coeff": "1"}]}
    refused = (
        ({"lo": "-5/2", "hi": "1", "den": 2, "terms": [{"q": "-5/2", "coeff": "1"}]},
         "invalid-argument", "stratum defined for integral-exponent input"),
        ({"lo": "-4", "hi": "-2", "terms": []},
         "precision-error", "window ends before exponent -1; stratum unknown"),
        ({"lo": "2", "hi": "4", "terms": [{"q": "2", "coeff": "-3"}]},
         "field-extension-required", "square root of 3 not available in the working field"),
    )
    for window, code, message in refused:
        status, out = run_main(capsys, "verify-sl2", "--input",
                               json.dumps({"grid": [answered, window]}))
        assert status == 1, out
        assert json.loads(out)["error"] == {"code": code, "message": f"grid window 1: {message}"}


def test_verify_sl2_grid_bound(capsys, monkeypatch):
    # the square root costs about n^2 on a window of n steps, so a grid's
    # squared step counts share the budget of one window at the bound; the
    # default grid written out sums to 38116 and is answered as "default" is
    import polarium.jsonio as jsonio
    from polarium.chevmap import default_grid

    def grid_doc(windows):
        return json.dumps({"grid": [{"lo": str(w.lo), "hi": str(w.hi), "den": w.den,
                                     "terms": [{"q": str(q), "coeff": str(c.as_rational())}
                                               for q, c in w.terms.items()]}
                                    for w in windows]})

    explicit = run_main(capsys, "verify-sl2", "--input", grid_doc(default_grid()))
    assert explicit == run_main(capsys, "verify-sl2", "--input", '{"grid":"default"}')
    assert explicit[0] == 0 and json.loads(explicit[1])["points"] == 265

    def refuse(*args, **kwargs):
        raise AssertionError("window built for a grid past the bound")

    monkeypatch.setattr(jsonio, "LaurentWindow", refuse)
    window = {"lo": "-2", "hi": "126", "terms": [{"q": "-2", "coeff": "1"}]}  # 256 steps
    status, out = run_main(capsys, "verify-sl2", "--input", json.dumps({"grid": [window] * 2}))
    assert status == 1
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert "131072" in error["message"] and f"bound {jsonio.WINDOW_STEPS_BOUND}^2" in error["message"]


def test_verify_sl2_lift_bits_bound(capsys, monkeypatch):
    # the square root's numbers grow with the principal steps times the bits
    # of the coefficients on their common denominator; a grid whose windows
    # sum past the bound is refused before any square root is taken, and
    # the windows that CI times are answered
    import polarium.chevmap as chevmap
    import polarium.jsonio as jsonio

    def dense(k, dens):
        coeffs = [f"{(i * 7 + k) % 23 + 1}" + (f"/{949 + (i + 3 * k) % dens}" if dens else "")
                  for i in range(24)]
        return {"conductor": 35, "coeffs": coeffs}

    def window(lo, hi, dens):
        terms = [{"q": str(lo), "coeff": "-1"}]
        terms += [{"q": str(q), "coeff": dense(q - lo, dens)} for q in range(lo + 1, hi)]
        return {"lo": str(lo), "hi": str(hi), "terms": terms}

    def verify(*grid):
        return run_main(capsys, "verify-sl2", "--input", json.dumps({"grid": list(grid)}))

    lead_only = window(-2, 126, 0)  # its lead is its one principal step
    integer = window(-127, 1, 0)  # 63 principal steps of 5 bits
    grids = [jsonio.grid_from_json([w]) for w in (lead_only, integer)]
    assert [chevmap._lift_bits(grid[0]) for grid in grids] == [1, 315]
    lead = jsonio.grid_from_json([{"lo": "-2", "hi": "126", "terms": [{"q": "-2", "coeff": "-4/49"}]}])
    assert chevmap._lift_bits(lead[0]) == 6  # one step, max(49, 4) has 6 bits
    # 31 principal steps over the 8 denominators 949..956
    mid = window(-63, 1, 8)
    mid_bits = chevmap._lift_bits(jsonio.grid_from_json([mid])[0])
    assert mid_bits <= chevmap.LIFT_BITS_BOUND < 2 * mid_bits
    for w in (lead_only, integer, mid):
        status, out = verify(w)
        assert status == 0 and json.loads(out)["violations"] == [], out

    def refuse(*args, **kwargs):
        raise AssertionError("square root taken past the lift bits bound")

    monkeypatch.setattr(chevmap, "sqrt_series", refuse)
    # the same 63 steps over the 47 denominators 949..995: 306 bits each
    heavy = window(-127, 1, 47)
    start = time.perf_counter()
    refused = [verify(heavy)]
    assert time.perf_counter() - start < 1
    refused.append(verify(mid, mid))
    for status, out in refused:
        assert status == 1, out
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit"
        assert f"bound {chevmap.LIFT_BITS_BOUND}" in error["message"]
    assert "sum to 19278," in refused[0][1]


def test_wire_coefficient_conductor_bound(capsys, monkeypatch):
    # the coefficients of a tail or a window are lifted to the lcm L of their
    # conductors; phi(L) past the bound is refused before any tail or window
    # is built, and L past twice the square of the bound before L is factored
    import polarium.jsonio as jsonio

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

    monkeypatch.setattr(jsonio, "Tail", refuse)
    monkeypatch.setattr(jsonio, "LaurentWindow", refuse)
    refused = [classify(101), classify(997), classify(5, 7, 3), verify(101), verify(211)]
    monkeypatch.setattr(jsonio, "euler_phi", refuse)
    refused += [classify(101, 103), classify(1153), verify(1153)]
    for status, out in refused:
        assert status == 1
        error = json.loads(out)["error"]
        assert error["code"] == "resource-limit"
        assert f"bound {jsonio.COEFF_PHI_BOUND}" in error["message"]
