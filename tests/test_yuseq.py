import random
from fractions import Fraction as F

import pytest

from polarium import jsonio
from polarium.errors import InternalInvariantViolation
from polarium.polar import classify, epipelagic_datum, sample_equivariant_tail
from polarium.tails import Tail, pair_coroot
from polarium.tori import list_torus_classes, split_torus_class
from polarium.yuseq import YuLadder, breaks, decompose_lambda, extract, levi_ladder

from .oracles import add_tails, cyclo_terms


def sl3_datum(a2):
    return classify(split_torus_class(a2), Tail(a2, 1, cyclo_terms({F(2): [3, 0], F(1): [-1, 2]})))


def test_breaks_worked_example(a2):
    # coroot pairings are mu_i - mu_j of (2,-1,-1) and (0,1,-1): depths {2,2,1}
    assert breaks(sl3_datum(a2)) == [1, 2]


def test_breaks_full_and_epipelagic(a1, a2):
    g0 = classify(split_torus_class(a2), Tail(a2, 1, {}))
    assert breaks(g0) == []
    assert breaks(epipelagic_datum(a1, 2)) == [F(1, 2)]


def test_levi_ladder_worked_example(a2):
    d = sl3_datum(a2)
    levels = levi_ladder(d, breaks(d))
    assert levels[0] == frozenset()
    assert levels[1] == {1, a2.negative_of(1)}
    assert levels[2] == frozenset(range(6))


def test_decompose_bands(a2):
    d = sl3_datum(a2)
    parts = decompose_lambda(d, breaks(d))
    assert parts[0].support() == [F(1)]
    assert parts[1].support() == [F(2)]
    assert parts[2].is_zero()


def test_extract_full_datum_zero(a2):
    ladder = extract(classify(split_torus_class(a2), Tail(a2, 1, {})))
    assert len(ladder.breaks) == 0
    assert len(ladder.levels) == 1
    assert ladder.components[0].is_zero()


def test_extract_a1_depth_one(a1):
    d = classify(split_torus_class(a1), Tail(a1, 1, cyclo_terms({F(1): [1]})))
    ladder = extract(d)
    assert ladder.breaks == [1]
    assert ladder.components[0] == d.lam
    assert ladder.components[1].is_zero()
    assert ladder.half_depths == [F(1, 2)]


def test_sub_break_exponents_absorbed_into_first_band(a2):
    # a term strictly below the first break lands in the lowest component
    tc = next(tc for tc in list_torus_classes(a2) if tc.m == 2)
    lo = tc.eigenspace(1)[0]
    hi = tc.eigenspace(0)[0]
    lam = Tail(a2, 2, cyclo_terms({F(1, 2): lo, F(2): hi}))
    d = classify(tc, lam)
    ladder = extract(d)
    if ladder.breaks[0] > F(1, 2):
        assert F(1, 2) in ladder.components[0].terms
    total = ladder.components[0]
    for part in ladder.components[1:]:
        total = add_tails(total, part)
    assert total == lam


def test_centralizer_identity_on_samples(a1, a2):
    rng = random.Random(77)
    for rd in (a1, a2):
        for tc in list_torus_classes(rd):
            for _ in range(8):
                lam = sample_equivariant_tail(tc, rng)
                ladder = extract(classify(tc, lam))  # constructor checks identities
                assert ladder.levels[-1] == frozenset(range(len(rd.roots)))
                for j, level in enumerate(ladder.levels):
                    for idx in range(len(rd.roots)):
                        vanishes = all(
                            pair_coroot(ladder.components[jj], rd.coroots[idx]) is None
                            for jj in range(j, len(ladder.components))
                        )
                        assert vanishes == (idx in level)


def test_each_tail_paired_once_per_coroot_pair(a3, monkeypatch):
    import polarium.tails as tails

    paired = []
    original = tails.pair_coroot

    def counted(tail, coroot):
        paired.append(tail)
        return original(tail, coroot)

    monkeypatch.setattr(tails, "pair_coroot", counted)
    lam = Tail(a3, 1, cyclo_terms({F(1): [1, 0, 0], F(2): [0, 1, 0]}))
    d = classify(split_torus_class(a3), lam)
    d.depth_multiset()
    ladder = extract(d)
    assert ladder.breaks == [1, 2]
    half = len(a3.roots) // 2
    assert sum(t is lam for t in paired) == half
    # each band component is a tail of its own, paired once per +- pair so
    # that the centralizer identity is checked independently of lam's table
    for part in ladder.components:
        assert sum(t is part for t in paired) <= half
    assert all(any(t is x for x in [lam, *ladder.components]) for t in paired)


def test_ladder_validation_rejects_bad_levels(a2):
    d = sl3_datum(a2)
    seq = breaks(d)
    parts = decompose_lambda(d, seq)
    with pytest.raises(InternalInvariantViolation):
        YuLadder(d, seq, [frozenset(), frozenset(range(6)), frozenset(range(6))], parts)


def test_ladder_reassembly_is_a_partition_of_the_exponents(a2):
    # the components must hold each exponent of the tail exactly once, with
    # the tail's coefficient there: a component carrying 2 lambda_q at the
    # tail's exponent q holds the right exponents and is refused on its
    # coefficient, and components that sum to the tail while sharing an
    # exponent are refused too
    d = sl3_datum(a2)
    seq = breaks(d)
    levels = levi_ladder(d, seq)
    low, high, top = decompose_lambda(d, seq)
    doubled = Tail(a2, 1, cyclo_terms({F(1): [-2, 4]}))
    shared = Tail(a2, 1, cyclo_terms({F(1): [1, -2], F(2): [3, 0]}))
    for parts in ([doubled, high, top], [doubled, shared, top]):
        with pytest.raises(InternalInvariantViolation,
                           match="band components do not reassemble the tail"):
            YuLadder(d, seq, levels, parts)
    assert add_tails(add_tails(doubled, shared), top) == d.lam
    YuLadder(d, seq, levels, [low, high, top])


def test_no_breaks_gives_the_tail_as_one_component(a2):
    # without breaks the one band is unbounded on both sides: the zero tail
    # on the split and the twisted classes of A2, and a central tail on
    # A1 x T1, whose coroot pairing vanishes
    data = [classify(tc, Tail(a2, tc.m, {})) for tc in list_torus_classes(a2)]
    assert any(not d.torus.w.is_identity() for d in data)
    data.append(jsonio.datum_from_json({"type": [["A", 1], ["torus", 1]], "lambda": {
        "m": 1, "terms": [{"q": "1", "coeff": ["0", "1"]}]}}))
    for d in data:
        ladder = extract(d)
        assert ladder.breaks == []
        assert ladder.components == [d.lam]
    assert not data[-1].lam.is_zero()


def test_ladder_json(a2):
    doc = jsonio.ladder_to_json(extract(sl3_datum(a2)))
    assert doc["breaks"] == ["1", "2"]
    assert doc["half_depths"] == ["1/2", "1"]
    assert doc["levels"] == [[], [1, 4], [0, 1, 2, 3, 4, 5]]
