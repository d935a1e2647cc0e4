"""The integer cyclotomic kernel against the Fraction reference field.

Every result is compared with `oracles.RefCyclo` on value, conductor and
printed bytes, and checked to be in lowest terms: a positive denominator
sharing no factor with the numerators, 0/1 for zero.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarium.chevmap import default_grid, sqrt_series
from polarium.cyclo import (CycloNumber, cyclo_to_json, dot_int, euler_phi,
                            reduce_conductor, sqrt_cyclo, zeta)
from polarium.errors import ArithmeticDomainError, FieldExtensionRequired
from polarium.tails import LaurentWindow

from .oracles import (RefCyclo, ref_dot_int, ref_reduce_conductor, ref_sqrt, scale_window,
                      window_product)

CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24)

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)
scalars = st.one_of(st.integers(-4, 4), st.fractions(min_value=-50, max_value=50,
                                                     max_denominator=10**6))


@st.composite
def elements(draw, conductors=CONDUCTORS):
    L = draw(st.sampled_from(conductors))
    return CycloNumber(L, draw(st.lists(coefficients, min_size=euler_phi(L),
                                        max_size=euler_phi(L))))


@st.composite
def pairs(draw):
    """Two elements; the second is often the first's image at a multiple
    conductor, its negative, or zero, so sums and differences vanish at
    conductors above 1."""
    a = draw(elements())
    kind = draw(st.sampled_from(("free", "lifted", "negated", "zero")))
    if kind == "free":
        return a, draw(elements())
    multiples = [L for L in CONDUCTORS if L % a.conductor == 0]
    b = a.lift(draw(st.sampled_from(multiples)))
    if kind == "negated":
        b = -b
    elif kind == "zero":
        b = CycloNumber.zero(b.conductor)
    return a, b


def check(got, expected: RefCyclo) -> None:
    assert type(got) is CycloNumber
    assert got.conductor == expected.conductor
    assert json.dumps(cyclo_to_json(got)) == json.dumps(expected.to_json())
    assert got == CycloNumber(expected.conductor, expected.coeffs)
    assert len(got.nums) == euler_phi(got.conductor)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1
    assert all(type(n) is int for n in got.nums) and type(got.den) is int


def check_raises_alike(fn, ref_fn, error) -> None:
    """Both sides raise `error`, or both answer alike."""
    try:
        expected = ref_fn()
    except error:
        with pytest.raises(error):
            fn()
        return
    check(fn(), expected)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_field_operations_match_reference(pair):
    a, b = pair
    ra, rb = RefCyclo.of(a), RefCyclo.of(b)
    check(a + b, ra + rb)
    check(a - b, ra - rb)
    check(b - a, rb - ra)
    check(a * b, ra * rb)
    check(-a, -ra)
    check(a - a, ra - ra)
    assert (a == b) == (ra == rb)
    assert (a != b) == (not ra == rb)
    check_raises_alike(lambda: a / b, lambda: ra / rb, ArithmeticDomainError)
    check_raises_alike(b.inverse, rb.inverse, ArithmeticDomainError)


def _ref_power(ra: RefCyclo, n: int) -> RefCyclo:
    base = ra if n >= 0 else ra.inverse()
    out = RefCyclo.rational(1, ra.conductor)
    for _ in range(abs(n)):
        out = out * base
    return out


@settings(max_examples=150, deadline=None)
@given(elements(), scalars, st.integers(-2, 3))
def test_scalar_operands_match_reference(a, k, n):
    ra = RefCyclo.of(a)
    check(a + k, ra + k)
    check(k + a, k + ra)
    check(a - k, ra - k)
    check(k - a, k - ra)
    check(a * k, ra * k)
    check(k * a, k * ra)
    check(a * 0, ra * 0)
    assert (a == k) == (ra == k)
    check_raises_alike(lambda: a / k, lambda: ra / k, ArithmeticDomainError)
    check_raises_alike(lambda: k / a, lambda: k / ra, ArithmeticDomainError)
    check_raises_alike(lambda: 1 / a, lambda: 1 / ra, ArithmeticDomainError)
    check_raises_alike(lambda: a ** n, lambda: _ref_power(ra, n), ArithmeticDomainError)


@settings(max_examples=100, deadline=None)
@given(elements(), st.sampled_from((1, 2, 3, 4, 5, 6)))
def test_lift_retract_reduce_match_reference(a, multiple):
    L2 = a.conductor * multiple
    if L2 > 48:
        L2 = a.conductor
    lifted, ref_lifted = a.lift(L2), RefCyclo.of(a).lift(L2)
    check(lifted, ref_lifted)
    for d in range(1, L2 + 1):
        if L2 % d == 0:
            got, expected = lifted.try_retract(d), ref_lifted.try_retract(d)
            assert (got is None) == (expected is None), d
            if got is not None:
                check(got, expected)
    check(reduce_conductor(lifted), ref_reduce_conductor(ref_lifted))


@st.composite
def int_covector_pairs(draw):
    n = draw(st.integers(0, 5))
    ints = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    u = draw(st.lists(elements() | st.builds(CycloNumber.zero, st.sampled_from(CONDUCTORS)),
                      min_size=n, max_size=n))
    return ints, u


@settings(max_examples=150, deadline=None)
@given(int_covector_pairs())
def test_dot_int_matches_reference(pair):
    ints, u = pair
    check(dot_int(ints, u), ref_dot_int(ints, u))


@st.composite
def rational_covector_pairs(draw):
    """An integer vector with zero and negative weights and a covector of
    rationals at conductor 1 with denominators up to 10^18."""
    n = draw(st.integers(0, 8))
    ints = draw(st.lists(st.integers(-5, 5) | st.integers(-10**9, 10**9), min_size=n, max_size=n))
    u = draw(st.lists(st.fractions(min_value=-10**18, max_value=10**18, max_denominator=10**18)
                      .map(CycloNumber.from_rational), min_size=n, max_size=n))
    return ints, u


@settings(max_examples=200, deadline=None)
@given(rational_covector_pairs())
def test_rational_dot_int_matches_reference(pair):
    ints, u = pair
    check(dot_int(ints, u), ref_dot_int(ints, u))


def test_rational_dot_int_cancels_to_lowest_terms():
    # sums that cancel to zero or share a factor with the common denominator
    big = 10**18
    cases = [
        ((2, -4), (Fraction(1, 3), Fraction(1, 6))),
        ((0, 0, 3), (Fraction(1, 2), Fraction(-7, 3), Fraction(0))),
        ((1, 1), (Fraction(1, big), Fraction(-1, big))),
        ((3, -1), (Fraction(1, big), Fraction(3, big))),
        ((-5, 5, 2), (Fraction(7, big), Fraction(9, big), Fraction(1, big // 10))),
        ((big, 1), (Fraction(1, big), Fraction(-1, big - 1))),
        ((), ()),
    ]
    for ints, values in cases:
        u = tuple(map(CycloNumber.from_rational, values))
        check(dot_int(ints, u), ref_dot_int(ints, u))
    assert dot_int((2, -4), tuple(map(CycloNumber.from_rational, cases[0][1]))).den == 1


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**3).filter(bool),
       st.sampled_from((1, 2, 3)), st.sampled_from(CONDUCTORS), st.integers(0, 47),
       elements((1, 3, 4, 5, 6, 8, 12)))
def test_sqrt_matches_reference(q, factor, L, e, other):
    # supported values (a rational square, times 1, 2 or 3, times a root of
    # unity) and an arbitrary element, usually unsupported
    for c in (q * q * factor * zeta(L, e), other):
        check_raises_alike(lambda: sqrt_cyclo(c), lambda: ref_sqrt(RefCyclo.of(c)),
                           FieldExtensionRequired)


def _random_element(rng: random.Random, L: int) -> CycloNumber:
    return CycloNumber(L, [Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))
                           if rng.random() < 0.7 else Fraction(0)
                           for _ in range(euler_phi(L))])


def test_closed_form_retraction_matches_rref_up_to_48():
    rng = random.Random(14)
    for L in range(1, 49):
        x = _random_element(rng, L)
        for d in (d for d in range(1, L + 1) if L % d == 0):
            member = _random_element(rng, d)
            for value in (member, CycloNumber.zero(d)):
                lifted = value.lift(L)
                got = lifted.try_retract(d)
                check(got, RefCyclo.of(lifted).try_retract(d))
                assert got == value and got.conductor == d
            if euler_phi(d) < euler_phi(L):  # zeta_L lies outside Q(zeta_d)
                assert (member.lift(L) + zeta(L, 1)).try_retract(d) is None
            got, expected = x.try_retract(d), RefCyclo.of(x).try_retract(d)
            assert (got is None) == (expected is None), (L, d)
            if got is not None:
                check(got, expected)


def test_inverse_matches_reference_at_41():
    # phi(41) = 40: the product of 39 conjugates over the norm, against
    # Euclid on Fraction remainders (small entries keep the reference quick)
    rng = random.Random(41)
    for _ in range(3):
        x = CycloNumber(41, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             for _ in range(euler_phi(41))])
        check(x.inverse(), RefCyclo.of(x).inverse())
        assert x * x.inverse() == 1


def _sqrt_windows() -> list[LaurentWindow]:
    """The default grid, odd valuations (a root on den 2) included, den-2
    windows: the grid at t^(1/2) (a root on den 4 at an odd valuation) and
    windows with half-integer steps between integer valuations, and seeded
    windows with den 1, 2 and 3 whose later coefficients sit at conductors
    1/3/4/5/12 with fractional coefficients, so the root's recursion runs on
    one grid at a conductor and a denominator above 1."""
    out = []
    for a in default_grid():
        if a.valuation() is not None:
            out += [a, scale_window(a, Fraction(1, 2))]
    for v in range(-5, 3):
        for lead in (1, -1, 2, Fraction(-1, 2), zeta(3, 1), 4 * zeta(8, 3)):
            terms = {Fraction(v): lead, Fraction(2 * v + 1, 2): 1,
                     Fraction(2 * v + 3, 2): Fraction(-1, 2), Fraction(v + 2): zeta(4, 1)}
            out.append(LaurentWindow(v, v + 4, terms, den=2))
    rng = random.Random(30)
    for lead in (1, -4, Fraction(9, 4), 2, zeta(3, 1), 4 * zeta(4, 1), zeta(8, 3)):
        for den in (1, 2, 3):
            v = Fraction(rng.randint(-4, 0) * 2, den)
            terms = {v: lead}
            for k in range(1, 7 * den):
                if rng.random() < 0.6:
                    L = rng.choice((1, 3, 4, 5, 12))
                    terms[v + Fraction(k, den)] = CycloNumber(
                        L, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                            for _ in range(euler_phi(L))])
            out.append(LaurentWindow(v, v + 7, terms, den))
    return out


def test_sqrt_series_squares_back_on_its_window():
    windows = _sqrt_windows()
    assert sum(w.den == 2 for w in windows) > 50
    doubled = 0
    for a in windows:
        s = sqrt_series(a)
        assert window_product(s, s) == LaurentWindow(a.valuation(), a.hi, a.terms, a.den), a
        doubled += s.den == 2 * a.den
    assert doubled > 200
