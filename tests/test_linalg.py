"""Span membership against reduced rows, and the one-rref choice of
independent vectors, checked against elimination of the whole matrix."""

import random
from fractions import Fraction as F

import pytest

from polarium import looplie
from polarium.cyclo import CycloNumber, zeta
from polarium.linalg import in_span, independent, rref
from polarium.polar import classify, epipelagic_datum
from polarium.rootdata import build
from polarium.tails import Tail
from polarium.tori import split_torus_class
from polarium.yuseq import extract

from .oracles import greedy_independent, in_span_by_rref


def _rational(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _cyclotomic(rng):
    # entries at conductors 1, 3, 4 and 12, so a matrix mixes them
    conductor = rng.choice((1, 3, 4, 12))
    value = CycloNumber.from_rational(_rational(rng), conductor)
    return value + _rational(rng) * zeta(conductor, rng.randrange(conductor))


def _cases(rng, entry):
    """(basis, target) pairs: independent and dependent bases, the empty
    basis, zero targets, targets inside and outside the span."""
    out = []
    for _ in range(60):
        ncols = rng.randint(1, 5)
        basis = [tuple(entry(rng) for _ in range(ncols)) for _ in range(rng.randint(0, 4))]
        if basis and rng.random() < 0.5:  # a dependent basis
            a, b = rng.choice(basis), rng.choice(basis)
            basis.append(tuple(x + _rational(rng) * y for x, y in zip(a, b)))
        zero = tuple(F(0) for _ in range(ncols))
        inside = zero
        for vec in basis:
            c = entry(rng)
            inside = tuple(x + c * y for x, y in zip(inside, vec))
        outside = tuple(entry(rng) for _ in range(ncols))
        out += [(basis, zero), (basis, inside), (basis, outside)]
    return out


@pytest.mark.parametrize("entry", [_rational, _cyclotomic], ids=["fraction", "cyclotomic"])
def test_in_span_on_reduced_rows_matches_full_elimination(entry):
    rng = random.Random(29)
    answers = set()
    for basis, target in _cases(rng, entry):
        rows = rref(basis)[0]
        expected = in_span_by_rref(basis, target)
        assert in_span(rows, target) == expected, (basis, target)
        assert independent(basis) == greedy_independent(basis)
        answers.add(expected)
    assert answers == {True, False}


def test_in_span_edge_cases():
    assert in_span([], (F(0), F(0)))
    assert not in_span([], (F(1), F(0)))
    assert independent([]) == []
    assert independent([(F(0), F(0)), (F(0), F(1)), (F(0), F(2))]) == [1]
    assert independent([(), ()]) == []


def _lattice_cases():
    cases = []
    for label, m in (("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5)):
        d = epipelagic_datum(build(label), m)
        cases.append((d, extract(d), None))
    a2 = build("A2")
    d = classify(split_torus_class(a2), Tail(a2, 1, {F(2): [3, 0], F(1): [-1, 2]}))
    cases.append((d, extract(d), tuple(v / 2 for v in a2.rho_coweight())))
    return cases


def test_lattice_pieces_choose_the_greedy_vectors(monkeypatch):
    # every choice of independent vectors the lattice makes, in its pieces and
    # in the moveability rows, equals keeping vectors one in_span at a time
    calls = []

    def checked(vectors):
        got = independent(vectors)
        assert got == greedy_independent(vectors)
        calls.append(len(vectors))
        return got

    monkeypatch.setattr(looplie, "independent", checked)
    for d, ladder, x in _lattice_cases():
        lattice = looplie.build_j_lattice(d, ladder, x)
        assert looplie.psi_lambda_check(lattice)
        for variant in ("J", "K"):
            assert looplie.moveability_check(d, ladder, x, variant=variant)["full_rank"]
    assert len(calls) > 100 and max(calls) > 5
