from fractions import Fraction as F

import pytest

from polarium.chevmap import (Sl2Stratum, default_grid, sl2_crosscheck,
                              sl2_stratum, sqrt_series, verify_sl2)
from polarium.errors import (InvalidArgumentError, NoSqrtInBaseField,
                             PrecisionError)
from polarium.tails import LaurentWindow

from .oracles import charpoly_map, window_product


def test_charpoly_sl2_square():
    a = LaurentWindow(-2, 4, {F(-2): 1, F(0): 3})
    out = charpoly_map([a, a.neg()])
    assert len(out) == 1
    e2 = out[0]
    # e2 = -a^2
    expected = window_product(a, a).neg()
    for q in expected.terms:
        assert e2.coeff(q) == expected.coeff(q)


def test_charpoly_zero_input():
    z = LaurentWindow(-2, 4, {})
    out = charpoly_map([z, z])
    assert out[0].valuation() is None


def test_charpoly_sl3_against_expansion():
    # diagonal (1, t, -1-t): check e2 and e3 against hand expansion
    x1 = LaurentWindow(0, 6, {F(0): 1})
    x2 = LaurentWindow(0, 6, {F(1): 1})
    x3 = LaurentWindow(0, 6, {F(0): -1, F(1): -1})
    e2, e3 = charpoly_map([x1, x2, x3])
    # e2 = x1 x2 + x1 x3 + x2 x3 = t + (-1 - t) + (-t - t^2) = -1 - t - t^2
    assert e2.coeff(0) == -1 and e2.coeff(1) == -1 and e2.coeff(2) == -1
    # e3 = x1 x2 x3 = -t - t^2
    assert e3.coeff(1) == -1 and e3.coeff(2) == -1 and e3.coeff(0) == 0


def test_charpoly_requires_trace_zero():
    a = LaurentWindow(0, 4, {F(0): 1})
    with pytest.raises(InvalidArgumentError):
        charpoly_map([a, a])


def test_sqrt_examples():
    s = sqrt_series(LaurentWindow(2, 8, {F(2): 1}))
    assert s.valuation() == 1 and s.coeff(1) == 1

    s2 = sqrt_series(LaurentWindow(-4, 2, {F(-4): 1, F(-3): 1}))
    assert s2.coeff(-2) == 1
    assert s2.coeff(-1) == F(1, 2)
    assert s2.coeff(0) == F(-1, 8)
    square = window_product(s2, s2)
    assert square.coeff(-4) == 1 and square.coeff(-3) == 1
    for q in square.terms:
        if q not in (F(-4), F(-3)):
            assert square.coeff(q) == 0

    with pytest.raises(NoSqrtInBaseField):
        sqrt_series(LaurentWindow(-3, 3, {F(-3): 1}))
    with pytest.raises(PrecisionError):
        sqrt_series(LaurentWindow(0, 4, {}))


def test_sqrt_squares_back_on_grid():
    for a in default_grid():
        neg = a.neg()
        v = neg.valuation()
        if v is None or int(v) % 2:
            continue
        s = sqrt_series(neg)
        square = window_product(s, s)
        for q in square.terms:
            assert square.coeff(q) == neg.coeff(q), (a, q)


def test_stratum_table():
    assert sl2_stratum(LaurentWindow(-4, 2, {F(-4): 1})) == Sl2Stratum("split-toral", 2)
    assert sl2_stratum(LaurentWindow(-3, 3, {F(-3): 1})) == Sl2Stratum("nonsplit-toral", 1)
    assert sl2_stratum(LaurentWindow(-1, 5, {F(-1): 1})) == Sl2Stratum("G-zero")
    assert sl2_stratum(LaurentWindow(-8, 0, {F(-2): 5})) == Sl2Stratum("split-toral", 1)
    assert sl2_stratum(LaurentWindow(-1, 5, {})) == Sl2Stratum("G-zero")
    with pytest.raises(PrecisionError):
        sl2_stratum(LaurentWindow(-8, -4, {}))


def test_crosscheck_spot_values():
    assert sl2_crosscheck(LaurentWindow(-4, 2, {F(-4): -1}))
    assert sl2_crosscheck(LaurentWindow(-3, 3, {F(-3): -1}))
    assert sl2_crosscheck(LaurentWindow(-1, 5, {F(-1): 1}))
    assert sl2_crosscheck(LaurentWindow(0, 6, {F(0): 2}))


def test_verify_sl2_default_grid():
    report = verify_sl2()
    assert report["violations"] == []
    counts = report["stratum_counts"]
    assert counts["split-toral"] > 0
    assert counts["nonsplit-toral"] > 0
    assert counts["G-zero"] > 0
    assert sum(counts.values()) == report["points"]
