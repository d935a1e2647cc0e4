"""Elimination against the field reference, span membership against
reduced rows, and the one-elimination choice of independent vectors,
checked against elimination of the whole matrix."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from polarium import cyclo, linalg, looplie
from polarium.cyclo import CycloNumber, euler_phi, zeta
from polarium.linalg import in_span, independent, nullspace, rank, rref
from polarium.polar import classify, epipelagic_datum
from polarium.rootdata import build
from polarium.tails import Tail
from polarium.tori import split_torus_class
from polarium.yuseq import extract

from .oracles import greedy_independent, in_span_by_rref, ref_rref


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
        rows, pivots = rref(basis)
        expected = in_span_by_rref(basis, target)
        assert in_span(rows, target, pivots) == expected, (basis, target)
        assert independent(basis) == greedy_independent(basis)
        answers.add(expected)
    assert answers == {True, False}


def test_in_span_edge_cases():
    assert in_span([], (F(0), F(0)), [])
    assert not in_span([], (F(1), F(0)), [])
    assert independent([]) == []
    assert independent([(F(0), F(0)), (F(0), F(1)), (F(0), F(2))]) == [1]
    assert independent([(), ()]) == []


def _big_rational(rng):
    kind = rng.random()
    if kind < 0.3:
        return F(0)
    if kind < 0.6:
        return F(rng.randint(-10**30, 10**30), rng.randint(1, 5))
    if kind < 0.8:
        return F(rng.randint(-9, 9), rng.randint(1, 10**18))
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))


def _rational_matrices(rng):
    """Edge shapes, then random matrices: wide and tall, sparse and dense,
    small and large numerators and denominators, with dependent and
    duplicate rows."""
    zero = F(0)
    out = [[], [[], []], [[F(3), F(-2), F(1, 2)]], [[F(5)], [zero], [F(-7, 3)]],
           [[zero] * 4 for _ in range(3)], [[F(2), F(-4)], [F(2), F(-4)]], [[F(-1, 10**20)]]]
    for k in range(200):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        entry = _big_rational if k % 3 == 0 else _rational
        rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if k % 4 == 1:  # a duplicate row
            rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
        if k % 4 == 2:  # a combination of two rows
            a, b, c = rng.choice(rows), rng.choice(rows), _big_rational(rng)
            rows.insert(rng.randrange(nrows + 1), [x + c * y for x, y in zip(a, b)])
        out.append(rows)
    return out


def _with_ints(rows):
    """The matrix with each integral Fraction written as a plain int."""
    return [[v.numerator if type(v) is F and v.denominator == 1 else v for v in row]
            for row in rows]


def _same(got, expected) -> bool:
    """Equal entry by entry, with the same types and conductors."""
    if isinstance(expected, (list, tuple)):
        return type(got) is type(expected) and len(got) == len(expected) \
            and all(_same(a, b) for a, b in zip(got, expected))
    if type(got) is not type(expected) or got != expected:
        return False
    return not isinstance(got, CycloNumber) or got.conductor == expected.conductor


def _int_where_integral(values) -> bool:
    """Each value is an int where it is integral and a Fraction elsewhere."""
    return all(type(v) is (int if v.denominator == 1 else F) for v in values)


def _assert_int_entries_read_as_fractions(rows):
    """rref, rank, independent and nullspace on the matrix with its integral
    entries written as ints return what they return on the Fraction form."""
    ints = _with_ints(rows)
    ncols = len(rows[0]) if rows else 3
    vectors = [tuple(row) for row in rows]
    assert _same(rref(ints), rref(rows)), rows
    assert rank(ints) == rank(rows)
    assert independent([tuple(row) for row in ints]) == independent(vectors)
    assert _same(nullspace(ints, ncols), nullspace(rows, ncols)), rows
    return ints


def test_rational_elimination_matches_field_reference(monkeypatch):
    # integer elimination must return the field path's reduced rows and pivots
    # exactly, each value an int where it is integral and a Fraction
    # otherwise; rank, nullspace and independent must agree too,
    # also when integral entries are written as plain ints, and on the
    # matrix cleared of denominators, whose entries are then all ints
    def no_field_path(rows):
        raise AssertionError(f"a rational matrix took the field path: {rows}")

    monkeypatch.setattr(linalg, "_rref_field", no_field_path)
    matrices = _rational_matrices(random.Random(20))
    shapes, ranks, mixed, integral, kinds_out = set(), set(), 0, 0, set()
    for rows in matrices:
        cleared = [[v * lcm(*(w.denominator for w in row)) for v in row] for row in rows]
        for fracs in (rows, cleared):
            ints = _assert_int_entries_read_as_fractions(fracs)
            assert rref(ints) == ref_rref(fracs)
            kinds = {type(v) for row in ints for v in row}
            mixed += kinds == {int, F}
            integral += kinds == {int}
        got, expected = rref(rows), ref_rref(rows)
        assert got == expected, rows
        assert _int_where_integral(v for row in got[0] for v in row), got
        assert rank(rows) == len(expected[1])
        columns = [list(column) for column in zip(*rows)]
        assert independent([tuple(row) for row in rows]) == ref_rref(columns)[1]
        ncols = len(rows[0]) if rows else 3
        basis = nullspace(rows, ncols)
        assert _int_where_integral(v for vec in basis for v in vec), basis
        kinds_out |= {type(v) for vec in got[0] + basis for v in vec}
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows for vec in basis)
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "rref", ref_rref)
            assert basis == nullspace(rows, ncols)
        if rows and rows[0]:
            shapes.add((len(rows) > ncols) - (len(rows) < ncols))
            ranks.add(len(expected[1]) == min(len(rows), ncols))
    assert len(matrices) > 200 and shapes == {-1, 0, 1} and ranks == {True, False}
    assert mixed > 100 and integral > 150 and kinds_out == {int, F}


def test_mixed_matrices_keep_the_field_path_conductors():
    # also with integral entries written as plain ints: an int pivot, an
    # all-zero int row and ints beside CycloNumbers give the Fraction form's
    # values, types and conductors; a drawn matrix with no CycloNumber takes
    # the rational path, an int where a value is integral
    rng = random.Random(21)
    conductors, mixed, int_pivots, rational = set(), 0, 0, 0
    for k in range(40):
        ncols = rng.randint(2, 5)
        rows = [[_cyclotomic(rng) if rng.random() < 0.4 else _rational(rng)
                 for _ in range(ncols)] for _ in range(rng.randint(2, 5))]
        if k % 2:  # an integral pivot, an int in the int form
            rows[0][0] = F(rng.choice((-2, -1, 1, 3)))
        if k % 5 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [F(0)] * ncols)
        mixed += len({type(v) for row in rows for v in row}) == 2
        got, expected = rref(rows), ref_rref(rows)
        assert got[1] == expected[1]
        field = any(isinstance(v, CycloNumber) for row in rows for v in row)
        rational += not field
        for row, ref_row in zip(got[0], expected[0]):
            assert field or _int_where_integral(row), row
            for a, b in zip(row, ref_row):
                assert (type(a) is type(b) or not field) and a == b
                if isinstance(a, CycloNumber):
                    assert a.conductor == b.conductor
                    conductors.add(a.conductor)
        ints = _assert_int_entries_read_as_fractions(rows)
        int_pivots += field and type(ints[0][0]) is int and got[1][:1] == [0]
    assert mixed > 30 and conductors == {1, 3, 4, 12} and int_pivots > 10 and rational


def test_retraction_by_elimination_runs_on_rationals(monkeypatch):
    # try_retract solves by rref when (phi(d) - 1) * L/d >= phi(L); that
    # matrix is all Fraction, so it takes the integer path
    calls = []

    def checked(rows):
        assert all(type(v) is F for row in rows for v in row)
        got = rref(rows)
        assert got == ref_rref(rows)
        calls.append(len(rows))
        return got

    monkeypatch.setattr(cyclo, "rref", checked)
    rng = random.Random(22)
    for L in range(2, 31):
        for d in (d for d in range(1, L) if L % d == 0):
            if (euler_phi(d) - 1) * (L // d) < euler_phi(L):
                continue
            member = CycloNumber(d, [_rational(rng) for _ in range(euler_phi(d))])
            got = member.lift(L).try_retract(d)
            assert got == member and got.conductor == d
            if euler_phi(d) < euler_phi(L):
                assert (member.lift(L) + zeta(L, 1)).try_retract(d) is None
    assert len(calls) > 10


def _lattice_cases():
    cases = []
    for label, m in (("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5)):
        d = epipelagic_datum(build(label), m)
        cases.append((d, extract(d), None))
    a2 = build("A2")
    d = classify(split_torus_class(a2), Tail(a2, 1, {F(2): [3, 0], F(1): [-1, 2]}))
    cases.append((d, extract(d), tuple(v / 2 for v in a2.rho_coweight())))
    return cases


def test_moveability_rows_choose_the_greedy_vectors(monkeypatch):
    # every choice of independent vectors the moveability rows make equals
    # keeping vectors one in_span at a time; a lattice piece reduces its
    # extra lines by one rref and chooses none, so these five cases make 44
    # choices, all of them moveability rows
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
    assert len(calls) > 40 and max(calls) > 5
