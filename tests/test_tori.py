import json

import pytest

import polarium.tori as tori
from polarium.cli import main
from polarium.errors import InternalInvariantViolation, InvalidArgumentError
from polarium.rootdata import build
from polarium.tori import (TorusClass, _eigendims, conjugacy_classes, is_springer_regular,
                           list_torus_classes, regular_class_of_order,
                           regular_numbers, split_torus_class)

from .oracles import (conjugacy_classes_by_products, eigen_dims_by_charpoly,
                      regular_numbers_by_enumeration, springer_regular_by_eigenspace,
                      springer_regular_sampled)

CLASS_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5", "G2",
               (("A", 1), ("A", 2)), (("A", 2), ("torus", 1)))
ELEMENT_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "G2", "D4",
                 (("A", 1), ("A", 2)), (("A", 2), ("torus", 1)))
REGULAR_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5", "G2",
                 (("A", 1), ("A", 2)), (("A", 2), ("G", 2)), (("A", 2), ("torus", 1)),
                 (("B", 2), ("B", 2)), (("A", 3), ("A", 1)))


def _type_id(spec) -> str:
    return build(spec).type_label()


def test_make_torus_class_a1(a1):
    s = a1.weyl_elements()[1]
    tc = TorusClass(a1, s, 2)
    assert [len(tc.eigenspace(i)) for i in range(2)] == [0, 1]
    assert tc.eigendims[0] == 0  # elliptic


def test_make_torus_class_identity(a2):
    tc = split_torus_class(a2)
    assert len(tc.eigenspace(0)) == a2.dim


def test_period_must_kill_w(a2):
    w = a2.weyl_elements()[1]
    with pytest.raises(InvalidArgumentError):
        TorusClass(a2, w, 3)


def test_period_may_be_multiple_of_order(a1):
    s = a1.weyl_elements()[1]
    tc = TorusClass(a1, s, 4)
    # eigenvalue -1 = zeta_4^2 sits at index 2 of the refined grading
    assert [len(tc.eigenspace(i)) for i in range(4)] == [0, 0, 1, 0]


def test_trace_eigendims_at_multiples_of_the_order(a2, b2, g2):
    # the powers stop at the order of w; the traces repeat up to the period
    for rd in (a2, b2, g2):
        for tc in list_torus_classes(rd):
            for m in (2 * tc.m, 3 * tc.m):
                oracle = eigen_dims_by_charpoly(
                    [list(row) for row in tc.w.covector_matrix()], m)
                assert TorusClass(rd, tc.w, m).eigendims == oracle


def test_trace_eigendims_refuse_inconsistent_traces():
    # traces of no rational matrix of order 2: 3/2 fixed directions
    with pytest.raises(InternalInvariantViolation, match="trace count gives 3/2 eigenvalues"):
        _eigendims([2, 1], 4)
    # traces of no rational matrix of order 3: the two primitive cube roots
    # of unity would share one eigenvalue
    with pytest.raises(InternalInvariantViolation, match=r"gives 1 eigenvalues .* phi\(3\) = 2"):
        _eigendims([2, 0, 1], 3)
    assert _eigendims([2, -1, -1], 6) == [0, 0, 1, 0, 1, 0]


def test_eigenspace_dims_match_charpoly_oracle(a2, b2, g2):
    for rd in (a2, b2, g2):
        for tc in list_torus_classes(rd):
            dims = [len(tc.eigenspace(i)) for i in range(tc.m)]
            oracle = eigen_dims_by_charpoly(
                [list(row) for row in tc.w.covector_matrix()], tc.m)
            assert dims == oracle


def test_coxeter_class_dims(a2):
    cox = regular_class_of_order(a2, 3)
    assert cox is not None
    assert [len(cox.eigenspace(i)) for i in range(3)] == [0, 1, 1]


def test_class_counts(a1, a2, b2):
    assert len(list_torus_classes(a1)) == 2
    assert len(list_torus_classes(a2)) == 3
    assert len(list_torus_classes(b2)) == 5


def test_conjugacy_classes_partition(b2):
    classes = conjugacy_classes(b2)
    seen = set()
    for cls in classes:
        for w in cls:
            assert w.matrix not in seen
            seen.add(w.matrix)
    assert len(seen) == len(b2.weyl_elements())


def test_springer_regular_examples(a1, a2):
    s = TorusClass(a1, a1.weyl_elements()[1], 2)
    assert is_springer_regular(s)
    assert is_springer_regular(split_torus_class(a2))
    # reflections in A2 are regular of order 2
    refl = next(tc for tc in list_torus_classes(a2) if tc.m == 2)
    assert is_springer_regular(refl)


def test_sampled_oracle_agreement(a1, a2, a3, b2, g2):
    for rd in (a1, a2, a3, b2, g2):
        for tc in list_torus_classes(rd):
            assert is_springer_regular(tc) == springer_regular_sampled(tc)


def test_regular_numbers_tables(a1, a2, a3, b2, g2):
    assert regular_numbers(a1) == {"regular": [1, 2], "elliptic": [2]}
    assert regular_numbers(a2) == {"regular": [1, 2, 3], "elliptic": [3]}
    assert regular_numbers(a3) == {"regular": [1, 2, 3, 4], "elliptic": [4]}
    assert regular_numbers(b2) == {"regular": [1, 2, 4], "elliptic": [2, 4]}
    assert regular_numbers(g2) == {"regular": [1, 2, 3, 6], "elliptic": [2, 3, 6]}


def test_coxeter_number_always_regular(a1, a2, a3, b2, g2):
    for rd in (a1, a2, a3, b2, g2):
        h = len(rd.roots) // rd.ss_rank
        assert h in regular_numbers(rd)["regular"]


def test_elliptic_iff_no_fixed_covector(b2):
    for tc in list_torus_classes(b2):
        assert (tc.eigendims[0] == 0) == (len(tc.eigenspace(0)) == 0)


def test_torus_rank_blocks_ellipticity():
    rd = build([["A", 1], ["torus", 1]])
    for tc in list_torus_classes(rd):
        assert tc.eigendims[0] != 0


@pytest.mark.parametrize("label", CLASS_TYPES, ids=_type_id)
def test_conjugacy_classes_match_product_oracle(label):
    rd = build(label)
    assert conjugacy_classes(rd) == conjugacy_classes_by_products(rd)


@pytest.mark.parametrize("label", CLASS_TYPES, ids=_type_id)
def test_trace_eigendims_match_charpoly_oracle(label):
    rd = build(label)
    for tc in list_torus_classes(rd):
        oracle = eigen_dims_by_charpoly([list(row) for row in tc.w.covector_matrix()], tc.m)
        assert tc.eigendims == oracle
        assert not tc.eigenspaces  # nothing solved until a caller asks


@pytest.mark.parametrize("label", REGULAR_TYPES, ids=_type_id)
def test_closed_form_regular_numbers_match_enumeration(label):
    rd = build(label)
    assert regular_numbers(rd) == regular_numbers_by_enumeration(rd)


@pytest.mark.parametrize("label", ELEMENT_TYPES, ids=_type_id)
def test_springer_count_matches_eigenspace_oracle_on_every_element(label):
    # every Weyl element, not only class representatives, at periods k, 2k,
    # 3k and 6k for k its order; past k the zeta_m eigenspace is empty, so
    # no count a(m) >= 1 of a regular number m matches it
    rd = build(label)
    for w in rd.weyl_elements():
        k = w.order()
        for m in (k, 2 * k, 3 * k, 6 * k):
            tc = TorusClass(rd, w, m)
            assert is_springer_regular(tc) == springer_regular_by_eigenspace(tc), (w, m)


def test_missing_regular_class_is_an_internal_fault(monkeypatch, capsys):
    # Springer guarantees a class for each regular number, so a search that
    # finds none is a fault of the program, never "m is not a regular number"
    monkeypatch.setattr(tori, "is_springer_regular", lambda tc: False)
    message = "no Springer-regular class of regular order 3 for A2"
    with pytest.raises(InternalInvariantViolation, match=f"^{message}$"):
        regular_class_of_order(build("A2"), 3)
    assert regular_class_of_order(build("A2"), 4) is None
    assert main(["homogeneous", "--input", '{"type":"A2","m":3,"i":1}']) == 3
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "internal-invariant-violation", "message": message}
