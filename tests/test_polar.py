import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import polarium.polar as polar
import polarium.tails as tails
from polarium import cli, jsonio
from polarium.cyclo import dot_int, reduce_conductor, zeta
from polarium.errors import InvalidArgumentError
from polarium.polar import (PolarDatum, classify, conjugate_datum,
                            conjugate_oracle, epipelagic_datum,
                            homogeneous_datum, partition_check,
                            sample_equivariant_tail)
from polarium.rootdata import WeylElement, build
from polarium.tails import Tail, is_equivariant
from polarium.tori import (TorusClass, list_torus_classes, regular_class_of_order,
                           split_torus_class)

from .oracles import (conjugate_by_products, cyclo_terms, equivariant_by_image,
                      regular_vector_by_scan, stabilizer, subgroup_generated)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# the light workload's epipelagic (i = 1) and homogeneous requests, and three
# larger regular numbers
HOMOGENEOUS_CASES = ([(t, m, 1) for t, m in workloads.LIGHT_EPIPELAGIC]
                     + list(workloads.LIGHT_HOMOGENEOUS)
                     + [("B3", 6, 1), ("D4", 6, 1), ("A4", 5, 2)])


def sl3_worked_tail(a2):
    # trace-zero diagonal functionals (2,-1,-1) and (0,1,-1) in weight coords
    return Tail(a2, 1, cyclo_terms({F(2): [3, 0], F(1): [-1, 2]}))


def test_is_g_regular_examples(a1, a2):
    # G-regular: every coroot outside the levi pairs to a nonzero tail
    assert None not in Tail(a1, 1, cyclo_terms({F(1): [1]})).coroot_depths()
    # the zero tail is regular relative to all roots: every pairing vanishes
    assert set(Tail(a2, 1, {}).coroot_depths()) == {None}
    # pi_1 kills the second simple coroot
    assert None in Tail(a2, 1, cyclo_terms({F(1): [1, 0]})).coroot_depths()


def test_classify_examples(a1, a2):
    d = classify(split_torus_class(a1), Tail(a1, 1, cyclo_terms({F(1): [1]})))
    assert d.levi == frozenset()
    d0 = classify(split_torus_class(a2), Tail(a2, 1, {}))
    assert d0.is_full()
    dsl3 = classify(split_torus_class(a2), sl3_worked_tail(a2))
    assert dsl3.levi == frozenset()
    # only the t^-2 part: levi becomes the +-alpha_2 pair
    partial = classify(split_torus_class(a2), Tail(a2, 1, cyclo_terms({F(2): [3, 0]})))
    assert partial.levi == {1, a2.negative_of(1)}


def test_datum_validation_rejects_wrong_levi(a2):
    with pytest.raises(InvalidArgumentError):
        PolarDatum(split_torus_class(a2), frozenset({0}), sl3_worked_tail(a2))


def test_stabilizer_examples(a1, a2):
    assert len(stabilizer(a1, Tail(a1, 1, {}))["elements"]) == 2
    assert len(stabilizer(a2, Tail(a2, 1, {}))["elements"]) == 6
    st = stabilizer(a1, Tail(a1, 1, cyclo_terms({F(1): [1]})))
    assert len(st["elements"]) == 1
    # kills alpha_1 pairing but not alpha_2: stabilized by s_1 only
    lam = Tail(a2, 1, cyclo_terms({F(1): [0, 1]}))
    st2 = stabilizer(a2, lam)
    assert len(st2["elements"]) == 2
    assert len(st2["reflections"]) == 1


def test_stabilizer_generated_by_reflections(a1, a2, b2):
    rng = random.Random(3)
    for rd in (a1, a2, b2):
        tc = split_torus_class(rd)
        for _ in range(60):
            lam = sample_equivariant_tail(tc, rng)
            st = stabilizer(rd, lam)
            generated = subgroup_generated(rd, st["reflections"])
            assert generated == {u.matrix for u in st["elements"]}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "G2"])
def test_conjugate_torus_inherits_the_trace_count(label):
    # the conjugate keeps the source's period and eigenspace dimensions, as
    # a class built afresh from u w u^-1 counts them from its traces, and it
    # starts with no eigenspace of its own
    rd = build(label)
    for tc in list_torus_classes(rd):
        tc.eigenspace(1)
        for u in rd.weyl_elements():
            moved = polar.conjugate_torus(tc, u)
            w = u.compose(tc.w).compose(u.inverse())
            fresh = TorusClass(rd, w, tc.m)
            assert moved.w == w and moved.rd is rd
            assert (moved.m, moved.eigendims) == (fresh.m, fresh.eigendims)
            assert moved.eigenspaces == {}
    # a solved eigenspace of a conjugate passes the dimension check
    for tc in list_torus_classes(rd):
        moved = polar.conjugate_torus(tc, rd.weyl_elements()[-1])
        for i in range(tc.m):
            assert len(moved.eigenspace(i)) == tc.eigendims[i]


def test_conjugate_oracle_reflexive_and_translates(a2):
    rng = random.Random(17)
    tc = split_torus_class(a2)
    for _ in range(10):
        lam = sample_equivariant_tail(tc, rng)
        d = classify(tc, lam)
        assert conjugate_oracle(d, d)
        u = a2.weyl_elements()[rng.randrange(6)]
        moved = conjugate_datum(d, u)
        again = classify(moved.torus, moved.lam)
        assert again.levi == moved.levi
        assert conjugate_oracle(d, again)


def test_conjugate_oracle_distinguishes_torus_classes(a1):
    split = classify(split_torus_class(a1), Tail(a1, 1, cyclo_terms({F(1): [1]})))
    ramified = epipelagic_datum(a1, 2)
    assert not conjugate_oracle(split, ramified)


def test_conjugate_oracle_compares_every_exponent(a1):
    # the identity matches the top terms, s_alpha neither; s_alpha maps lam to -lam
    tc = split_torus_class(a1)
    lam = classify(tc, Tail(a1, 1, cyclo_terms({F(2): [1], F(1): [1]})))
    for terms, expected in (({F(2): [1], F(1): [-1]}, False),
                            ({F(2): [-1], F(1): [-1]}, True),
                            ({F(2): [1]}, False)):
        other = classify(tc, Tail(a1, 1, cyclo_terms(terms)))
        assert conjugate_oracle(lam, other) == conjugate_by_products(lam, other) == expected


def test_epipelagic_examples(a1, a2):
    ep = epipelagic_datum(a1, 2)
    assert ep.lam.support() == [F(1, 2)]
    assert None not in ep.lam.coroot_depths()
    ep3 = epipelagic_datum(a2, 3)
    assert ep3.lam.support() == [F(1, 3)]
    with pytest.raises(InvalidArgumentError):
        epipelagic_datum(a2, 5)


def test_homogeneous_examples(a1, a2):
    assert homogeneous_datum(a1, 2, 1).lam == epipelagic_datum(a1, 2).lam
    h = homogeneous_datum(a2, 3, 2)
    assert h.lam.support() == [F(2, 3)]
    with pytest.raises(InvalidArgumentError):
        homogeneous_datum(a2, 3, 3)


@pytest.mark.parametrize("label, m, i", HOMOGENEOUS_CASES)
def test_homogeneous_datum_solves_one_eigenspace(label, m, i, monkeypatch):
    # the chosen class's eigenspace at index i is the only one solved, and
    # the tail is the one a scan with every coroot paired by ref_dot_int finds
    solved = []
    solve = TorusClass._solve_eigenspace

    def counted(tc, k):
        solved.append((tc, k))
        return solve(tc, k)

    monkeypatch.setattr(TorusClass, "_solve_eigenspace", counted)
    rd = build(label)
    d = homogeneous_datum(rd, m, i)
    assert solved == [(d.torus, i % m)]
    assert d.lam.terms == {F(i, m): regular_vector_by_scan(rd, d.torus.eigenspace(i))}


def test_classify_well_defined_on_orbits(a2):
    rng = random.Random(29)
    for tc in list_torus_classes(a2):
        for _ in range(5):
            lam = sample_equivariant_tail(tc, rng)
            d = classify(tc, lam)
            for u in a2.weyl_elements():
                moved = conjugate_datum(d, u)
                again = classify(moved.torus, moved.lam)
                assert again.levi == moved.levi
                assert conjugate_oracle(d, again)


def test_distinct_depth_multisets_never_conjugate(a2):
    rng = random.Random(41)
    tc = split_torus_class(a2)
    data = []
    while len(data) < 12:
        lam = sample_equivariant_tail(tc, rng)
        data.append(classify(tc, lam))
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            if data[i].depth_multiset() != data[j].depth_multiset():
                assert not conjugate_oracle(data[i], data[j])


def test_partition_check_reports(a1, a2):
    rep = partition_check(a1, samples=60, seed=0)
    assert rep["violations"] == []
    rep2 = partition_check(a2, samples=60, seed=1)
    assert rep2["violations"] == []
    degenerate = partition_check(a1, samples=15, seed=2, zero_only=True)
    assert degenerate["full_levi_count"] == degenerate["classified"] == 15


def test_partition_check_reports_translate_faults(a2, monkeypatch, capsys):
    # a broken translation is reported as a violation, never as an error
    # envelope: a levi mapped by u^-1, a conjugate_oracle forced False and a
    # tail left unmoved each show as their own kind
    translate = polar.conjugate_datum

    def levi_by_inverse(d, u):
        moved = translate(d, u)
        perm = u.inverse().root_permutation
        return PolarDatum(moved.torus, frozenset(perm[i] for i in d.levi), moved.lam,
                          validate=False)

    def tail_unmoved(d, u):
        return PolarDatum(polar.conjugate_torus(d.torus, u), translate(d, u).levi, d.lam,
                          validate=False)

    def kinds(**patch):
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(polar, name, value)
            return [v["kind"] for v in partition_check(a2, samples=30, seed=0)["violations"]]

    assert kinds() == []
    assert set(kinds(conjugate_datum=levi_by_inverse)) == {"translate-levi-mismatch"}
    assert set(kinds(conjugate_oracle=lambda d1, d2: False)) == {"translate-not-conjugate"}
    assert "translate-classify-failed" in kinds(conjugate_datum=tail_unmoved)
    monkeypatch.setattr(polar, "conjugate_datum", tail_unmoved)
    assert cli.main(["partition-check", "--input", '{"type":"A2","samples":30}']) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert {"sample": 0, "kind": "translate-classify-failed",
            "error": "tail is not equivariant for the torus class"} in violations


def test_partition_check_takes_each_depth_multiset_once(a2, monkeypatch):
    calls = []
    original = PolarDatum.depth_multiset

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PolarDatum, "depth_multiset", counted)
    rep = partition_check(a2, samples=30, seed=3, disjoint_pairs=20)
    assert rep["disjoint_pairs_checked"] > 0
    assert len(calls) == rep["classified"]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", [["A", 2], ["torus", 1]]],
                         ids=["A2", "B2", "G2", "A3", "A2xT1"])
def test_conjugate_oracle_matches_product_oracle(label):
    rd = build(label)
    classes = list_torus_classes(rd)
    if rd.torus_rank:
        # -1 on the central coordinate fixes every root but is not in W, so
        # it is refused as a twist: comparing W by root permutations alone,
        # as the oracle does, cannot confuse it with the identity
        flip = tuple(tuple(-1 if i == j == rd.dim - 1 else int(i == j) for j in range(rd.dim))
                     for i in range(rd.dim))
        with pytest.raises(InvalidArgumentError, match="matrix is not in the Weyl group"):
            WeylElement.from_matrix(rd, flip)
        classes.append(TorusClass(rd, rd.identity_element(), 2))
    rng = random.Random(17)
    data = []
    for tc in classes:
        d = classify(tc, sample_equivariant_tail(tc, rng))
        u = rd.weyl_elements()[rng.randrange(len(rd.weyl_elements()))]
        moved = conjugate_datum(d, u)
        data += [d, classify(moved.torus, moved.lam)]
    verdicts = set()
    for d1 in data:
        for d2 in data:
            verdict = conjugate_oracle(d1, d2)
            assert verdict == conjugate_by_products(d1, d2)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_conjugate_oracle_on_twisted_classes_with_negative_controls():
    # tails of the classes of period 3 (A2, G2), 4 (B2) and 6 (G2), each
    # against a Weyl translate (conjugate), the translate with one
    # coefficient moved off the constant column (not conjugate) and the
    # translate with one term moved to another exponent (not conjugate)
    rng = random.Random(30)
    periods = set()
    verdicts = {True: 0, False: 0}
    for label in ("A2", "B2", "G2"):
        rd = build(label)
        weyl = rd.weyl_elements()
        for tc in list_torus_classes(rd):
            if tc.m not in (3, 4, 6):
                continue
            periods.add(tc.m)
            for _ in range(10):
                d = classify(tc, sample_equivariant_tail(tc, rng))
                if d.lam.is_zero():
                    continue
                moved = conjugate_datum(d, rng.choice(weyl))
                moved = classify(moved.torus, moved.lam)
                terms = dict(moved.lam.terms)
                q = rng.choice(sorted(terms))
                i = rng.randrange(rd.dim)
                cov = list(terms[q])
                cov[i] = cov[i] + zeta(tc.m, 1) * F(1, 2)
                perturbed = {**terms, q: tuple(cov)}
                shifted = {(p + 4 if p == q else p): c for p, c in terms.items()}
                for lam, expected in ((moved.lam, True),
                                      (Tail(rd, tc.m, cyclo_terms(perturbed)), False),
                                      (Tail(rd, tc.m, cyclo_terms(shifted)), False)):
                    other = PolarDatum(moved.torus, moved.levi, lam, validate=False)
                    assert conjugate_oracle(d, other) == conjugate_by_products(d, other) \
                        == expected
                    verdicts[expected] += 1
    assert periods == {3, 4, 6}
    assert verdicts[True] > 20 and verdicts[False] > 40


def test_conjugate_oracle_builds_each_grid_once(a2, monkeypatch):
    # on the split torus every u passes the simple-root filter; the two
    # tails sit on different grids, so each of their terms is put on the
    # common grid once per call, not once per u
    built = []
    original = tails.common_grid

    def counted(values, L=None, D=None):
        built.append((L, D))
        return original(values, L, D)

    monkeypatch.setattr(tails, "common_grid", counted)
    split = split_torus_class(a2)
    d1 = classify(split, Tail(a2, 1, cyclo_terms({F(2): [F(1, 2), 1], F(1): [zeta(3, 1), 2]})))
    d2 = classify(split, Tail(a2, 1, cyclo_terms({F(2): [F(1, 3), 1], F(1): [zeta(4, 1), 2]})))
    built.clear()
    for _ in range(3):
        assert not conjugate_oracle(d1, d2)
    assert sorted(set(built)) == [(1, 6), (12, 1)]
    assert len(built) == 3 * 4


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_conjugate_oracle_matches_product_oracle_on_partition_check(label, monkeypatch):
    rd = build(label)
    pairs = []
    original = polar.conjugate_oracle

    def recorded(d1, d2):
        pairs.append((d1, d2))
        return original(d1, d2)

    monkeypatch.setattr(polar, "conjugate_oracle", recorded)
    for seed in range(4):
        partition_check(rd, samples=12, seed=seed, disjoint_pairs=8)
    verdicts = [original(d1, d2) for d1, d2 in pairs]
    assert verdicts == [conjugate_by_products(d1, d2) for d1, d2 in pairs]
    assert True in verdicts
    assert any(d1.lam.support() != d2.lam.support() for d1, d2 in pairs)


def test_equivariance_verdict_memoised_per_torus(a2, monkeypatch):
    ep = epipelagic_datum(a2, 3)
    coxeter, split = ep.torus, split_torus_class(a2)
    lam = Tail(a2, 3, ep.lam.terms)  # a fresh tail: the datum's own has a memo already
    calls = []
    original = tails.sends

    def counted(w, pairs):
        calls.append((pairs, w.matrix))
        return original(w, pairs)

    monkeypatch.setattr(tails, "sends", counted)
    for _ in range(3):
        assert is_equivariant(lam, coxeter.w)
        assert not is_equivariant(lam, split.w)   # a False verdict is kept too
    assert len(calls) == 2
    # the verdict is keyed by the Weyl element alone: another one is computed anew
    reflection = next(tc for tc in list_torus_classes(a2) if tc.m == 2)
    assert not is_equivariant(lam, reflection.w)
    assert is_equivariant(lam, coxeter.w) and not is_equivariant(lam, reflection.w)
    assert len(calls) == 3
    assert [mat for _, mat in calls] == [coxeter.w.matrix, a2.identity_element().matrix,
                                         reflection.w.matrix]


def _twisted_tails(rng: random.Random):
    """(torus class, tail, verdict) for tails of eigenvectors of a regular
    class of order m, each term scaled by a root of unity of order up to 8
    over a small denominator, its entries at their own least conductors. A
    zeta_m^j eigenvector at exponent a/m is equivariant exactly when
    a = j mod m; at another a it is twisted by the wrong root of unity."""
    for label, m in (("A2", 3), ("B2", 4), ("G2", 6), ("A3", 4)):
        tc = regular_class_of_order(build(label), m)
        eigen = [j for j in range(m) if tc.eigenspace(j)]
        for _ in range(12):
            terms, verdict = {}, True
            for _ in range(rng.randint(1, 3)):
                j = rng.choice(eigen)
                a = j + m * rng.randrange(3) if rng.random() < 0.5 else rng.randrange(3 * m)
                if F(a, m) in terms:
                    continue
                basis = tc.eigenspace(j)
                scale = zeta(rng.randint(1, 8), rng.randint(0, 7)) / rng.randint(1, 3)
                weights = [rng.randint(1, 2) for _ in basis]
                terms[F(a, m)] = tuple(reduce_conductor(scale * dot_int(weights, column))
                                       for column in zip(*basis))
                verdict = verdict and (a - j) % m == 0
            yield tc, Tail(tc.rd, m, cyclo_terms(terms)), verdict


def test_is_equivariant_matches_image_reference(monkeypatch):
    # the integer test against the image definition, on fresh copies of the
    # tails: every partition-check sample (A2/B2/G2/A3, seeds 0-7) and every
    # homogeneous datum of the light and lattice workloads under each torus
    # class of its root datum, and eigenvector tails twisted by the right or
    # a wrong root of unity at mixed conductors
    seen = {}
    original = polar.is_equivariant

    def recorded(tail, w):
        seen[id(tail)] = tail
        return original(tail, w)

    monkeypatch.setattr(polar, "is_equivariant", recorded)
    cases = []
    for label in ("A2", "B2", "G2", "A3"):
        seen.clear()
        for seed in range(8):
            partition_check(build(label), samples=12, seed=seed, disjoint_pairs=4)
        cases += [(tail, tc) for tail in seen.values() for tc in list_torus_classes(build(label))]
    data = workloads.load_lattice_data()
    keys = ([workloads.epipelagic_key(t, m) for t, m in workloads.EPIPELAGIC_LATTICE]
            + [workloads.homogeneous_key(*c) for c in workloads.HOMOGENEOUS_LATTICE])
    homogeneous = [jsonio.datum_from_json(data[key]) for key in keys] + [
        homogeneous_datum(build(t), m, i)
        for t, m, i in [(t, m, 1) for t, m in workloads.LIGHT_EPIPELAGIC]
        + list(workloads.LIGHT_HOMOGENEOUS)]
    for d in homogeneous:
        cases += [(d.lam, tc) for tc in list_torus_classes(d.rd)]
    twisted = list(_twisted_tails(random.Random(35)))
    cases += [(lam, tc) for tc, lam, _ in twisted]
    verdicts = [is_equivariant(Tail(lam.rd, lam.m, lam.terms), tc.w)
                for lam, tc in cases]
    assert verdicts == [equivariant_by_image(lam, tc.w) for lam, tc in cases]
    assert verdicts[-len(twisted):] == [verdict for _, _, verdict in twisted]
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000
    assert 10 < sum(verdict for _, _, verdict in twisted) < len(twisted) - 10
    mixed = [c for _, lam, _ in twisted for c in lam.terms.values()
             if len({x.conductor for x in c}) > 1]
    assert len(mixed) > 30
