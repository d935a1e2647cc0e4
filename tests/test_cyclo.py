import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polarium import cyclo
from polarium.cyclo import (CycloNumber, common_grid, cyclotomic_polynomial, dot_int,
                            euler_phi, from_grid, reduce_conductor, sqrt_cyclo, zeta)
from polarium.errors import (ArithmeticDomainError, FieldExtensionRequired,
                             InvalidArgumentError)
from polarium.jsonio import cyclo_from_json, cyclo_to_json
from polarium.linalg import rank

from .oracles import cyclo_rank, dot_int_oracle


def test_make_examples():
    assert zeta(4, 2) == -1
    assert (zeta(3, 0) + zeta(3, 1) + zeta(3, 2)).is_zero()
    assert zeta(1, 0) == 1


def test_make_rejects_bad_conductor():
    with pytest.raises(InvalidArgumentError):
        zeta(0, 1)


def test_arith_examples():
    assert 1 / zeta(5, 1) == zeta(5, 4)
    assert zeta(6, 1) * zeta(6, 1) == zeta(3, 1)
    mixed = zeta(3, 1) + zeta(4, 1)
    assert mixed.conductor == 12


def test_division_by_zero():
    with pytest.raises(ArithmeticDomainError):
        zeta(3, 1) / CycloNumber.zero()


def test_lift_examples():
    assert CycloNumber.from_rational(-1, 2).lift(4) == zeta(4, 2)
    assert CycloNumber.zero(3).lift(12).is_zero()
    assert zeta(3, 1).lift(12) == zeta(12, 4)


def test_lift_requires_divisibility():
    with pytest.raises(InvalidArgumentError):
        zeta(4, 1).lift(6)


def test_lift_retract_round_trip():
    for e in range(3):
        v = zeta(3, e) + Fraction(1, 2)
        lifted = v.lift(12)
        assert lifted.try_retract(3) == v
    # an honest conductor-12 element does not retract to 4
    assert zeta(12, 1).try_retract(4) is None


def test_reduce_conductor():
    v = zeta(3, 1).lift(12)
    assert reduce_conductor(v).conductor == 3
    assert reduce_conductor(CycloNumber.from_rational(7, 8)).conductor == 1


def test_cyclotomic_degrees():
    for L in range(1, 30):
        assert len(cyclotomic_polynomial(L)) == euler_phi(L) + 1


def _sympy_coeffs(poly, length=None) -> list[Fraction]:
    out = [Fraction(int(c)) for c in reversed(poly.all_coeffs())]
    return out + [Fraction(0)] * ((length or len(out)) - len(out))


def test_cyclotomic_polynomials_and_reduction_tables_match_sympy():
    x = sympy.symbols("x")
    for L in list(range(1, 61)) + [105, 720, 1000, 1260, 2310]:
        modulus = sympy.Poly(sympy.cyclotomic_poly(L, x), x)
        got = cyclotomic_polynomial(L)
        assert list(got) == _sympy_coeffs(modulus), L
        assert all(type(c) is int for c in got)  # Phi_L is monic over Z
        if L <= 105:  # x^k for phi <= k < 2*phi, the top degrees a product reaches
            phi = euler_phi(L)
            for k in range(phi, 2 * phi):
                row = cyclo.reduce_poly(L, [0] * k + [1])
                assert list(row) == _sympy_coeffs(sympy.Poly(x**k, x).rem(modulus), phi), (L, k)
                assert all(type(c) is int for c in row)


def test_products_below_the_modulus_degree_build_no_table(monkeypatch):
    def refuse(L):
        raise AssertionError(f"cyclotomic polynomial for conductor {L}")

    monkeypatch.setattr(cyclo, "cyclotomic_polynomial", refuse)
    assert (zeta(10000, 1) * 3).coeffs[1] == 3
    assert zeta(5, 1) * zeta(5, 2) == zeta(5, 3)
    monkeypatch.undo()
    assert zeta(5, 2) * zeta(5, 3) == 1


def test_euler_phi_memoised_and_still_rejects_zero():
    for _ in range(2):  # the second pass answers from the cache
        for n in range(1, 60):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        with pytest.raises(InvalidArgumentError) as exc:
            euler_phi(0)
        assert exc.value.code == "invalid-argument"


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def cyclo_numbers(conductors=(1, 2, 3, 4, 6)):
    def make(conductor, values):
        coeffs = tuple(values[: euler_phi(conductor)])
        return CycloNumber(conductor, coeffs)

    return st.builds(
        make,
        st.sampled_from(conductors),
        st.lists(small_rationals, min_size=12, max_size=12),
    )


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(cyclo_numbers())
def test_inverse_and_lift_stability(a):
    if not a.is_zero():
        assert a * a.inverse() == 1
    lifted = a.lift(a.conductor * 2)
    assert lifted == a
    assert (lifted + (-a)).is_zero()


@st.composite
def small_int_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=80, deadline=None)
@given(small_int_matrices())
def test_rank_matches_oracle_over_q(m):
    as_cyclo = [[CycloNumber.from_rational(v) for v in row] for row in m]
    expected = cyclo_rank(as_cyclo)
    assert rank([[Fraction(v) for v in row] for row in m]) == expected
    assert rank(as_cyclo) == expected


@st.composite
def int_covector_pairs(draw):
    """An integer vector, zeros and negatives included, and a covector whose
    entries have mixed conductors, zero entries at conductor > 1 included."""
    n = draw(st.integers(0, 6))
    ints = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    u = draw(st.lists(cyclo_numbers((1, 3, 4, 6, 8)) | st.builds(
        CycloNumber.zero, st.sampled_from((3, 4, 6, 8))), min_size=n, max_size=n))
    return ints, u


@settings(max_examples=100, deadline=None)
@given(int_covector_pairs())
def test_dot_int_matches_oracle(pair):
    ints, u = pair
    got, expected = dot_int(ints, u), dot_int_oracle(ints, u)
    assert got == expected
    assert got.conductor == expected.conductor
    assert got.coeffs == expected.coeffs


def test_common_grid_round_trip():
    # values at mixed conductors and denominators, zero at conductors 1 and
    # 7, on their own grid and on a grid at multiples of its L and D: row i
    # is values[i] times D at conductor L, and from_grid reads it back
    rng = random.Random(35)
    values = [CycloNumber(L, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10)))
                              for _ in range(euler_phi(L))]) for L in (1, 3, 4, 5, 12, 8, 1)]
    values += [CycloNumber.zero(), CycloNumber.zero(7), zeta(5, 2) / 4]
    L0 = lcm(*(x.conductor for x in values))
    D0 = lcm(*(x.den for x in values))
    assert (L0, D0) == (840, 60)
    for given in ((None, None), (2 * L0, 7 * D0)):
        L, D, rows = common_grid(values, *given)
        assert (L, D) == ((L0, D0) if given[0] is None else given)
        assert len(rows) == len(values)
        for x, row in zip(values, rows):
            assert len(row) == euler_phi(L) and all(type(n) is int for n in row)
            assert sum((n * zeta(L, j) for j, n in enumerate(row)), CycloNumber.zero()) == x * D
            back = from_grid(L, list(row), D)
            assert back == x and back.conductor == L
            assert (back.nums, back.den) == (x.lift(L).nums, x.den)
        assert rows[-3] == rows[-2] == (0,) * euler_phi(L)
    assert common_grid([]) == (1, 1, ())
    assert common_grid([], 12, 5) == (12, 5, ())
    zero = from_grid(7, [0] * 6, 35)
    assert zero.is_zero() and (zero.nums, zero.den) == ((0,) * 6, 1)


def test_sqrt_supported_values():
    cases = [
        CycloNumber.from_rational(Fraction(4, 9)),
        CycloNumber.from_rational(2),
        CycloNumber.from_rational(-1),
        CycloNumber.from_rational(Fraction(-18, 49)),
        zeta(3, 1),
        2 * zeta(5, 2),
    ]
    for value in cases:
        s = sqrt_cyclo(value)
        assert s * s == value
        # canonical branch: first nonzero coefficient positive
        first = next(c for c in s.coeffs if c != 0)
        assert first > 0


def test_sqrt_unsupported():
    with pytest.raises(FieldExtensionRequired):
        sqrt_cyclo(CycloNumber.from_rational(3))


def test_json_round_trip():
    v = zeta(12, 5) + Fraction(2, 7)
    assert cyclo_from_json(cyclo_to_json(v)) == v


def test_field_arith_dispatch():
    a, b = zeta(6, 1), zeta(4, 1)
    assert (a + b) - b == a
    assert (a - b) + b == a
    assert (a * b).conductor == 12
    assert (a / b) * b == a
