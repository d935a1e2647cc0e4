import random
from collections import Counter
from fractions import Fraction as F

import pytest

from polarium.chevmap import (Sl2Stratum, default_grid, sl2_crosscheck,
                              sl2_stratum, sqrt_series, verify_sl2)
from polarium.cyclo import CycloNumber, euler_phi, zeta
from polarium.errors import (FieldExtensionRequired, InvalidArgumentError,
                             PolariumError, PrecisionError)
from polarium.tails import LaurentWindow

from .oracles import (charpoly_map, cyclo_terms, full_window_crosscheck, neg_window,
                      window_is_valid, window_product)


def test_charpoly_sl2_square():
    a = LaurentWindow(-2, 4, cyclo_terms({F(-2): 1, F(0): 3}))
    out = charpoly_map([a, neg_window(a)])
    assert len(out) == 1
    e2 = out[0]
    # e2 = -a^2
    expected = neg_window(window_product(a, a))
    for q in expected.terms:
        assert e2.coeff(q) == expected.coeff(q)


def test_charpoly_zero_input():
    z = LaurentWindow(-2, 4, {})
    out = charpoly_map([z, z])
    assert out[0].valuation() is None


def test_charpoly_sl3_against_expansion():
    # diagonal (1, t, -1-t): check e2 and e3 against hand expansion
    x1 = LaurentWindow(0, 6, cyclo_terms({F(0): 1}))
    x2 = LaurentWindow(0, 6, cyclo_terms({F(1): 1}))
    x3 = LaurentWindow(0, 6, cyclo_terms({F(0): -1, F(1): -1}))
    e2, e3 = charpoly_map([x1, x2, x3])
    # e2 = x1 x2 + x1 x3 + x2 x3 = t + (-1 - t) + (-t - t^2) = -1 - t - t^2
    assert e2.coeff(0) == -1 and e2.coeff(1) == -1 and e2.coeff(2) == -1
    # e3 = x1 x2 x3 = -t - t^2
    assert e3.coeff(1) == -1 and e3.coeff(2) == -1 and e3.coeff(0) == 0


def test_charpoly_requires_trace_zero():
    a = LaurentWindow(0, 4, cyclo_terms({F(0): 1}))
    with pytest.raises(InvalidArgumentError):
        charpoly_map([a, a])


def test_sqrt_examples():
    s = sqrt_series(LaurentWindow(2, 8, cyclo_terms({F(2): 1})))
    assert s.valuation() == 1 and s.coeff(1) == 1

    s2 = sqrt_series(LaurentWindow(-4, 2, cyclo_terms({F(-4): 1, F(-3): 1})))
    assert s2.coeff(-2) == 1
    assert s2.coeff(-1) == F(1, 2)
    assert s2.coeff(0) == F(-1, 8)
    square = window_product(s2, s2)
    assert square.coeff(-4) == 1 and square.coeff(-3) == 1
    for q in square.terms:
        if q not in (F(-4), F(-3)):
            assert square.coeff(q) == 0

    # an odd valuation puts the root on the doubled lattice
    a = LaurentWindow(-3, 3, cyclo_terms({F(-3): 1, F(-2): 2}))
    s3 = sqrt_series(a)
    assert (s3.lo, s3.hi, s3.den) == (F(-3, 2), F(9, 2), 2)
    assert s3.coeff(F(-3, 2)) == 1 and s3.coeff(F(-1, 2)) == 1 and s3.coeff(F(1, 2)) == F(-1, 2)
    assert window_product(s3, s3) == a
    with pytest.raises(PrecisionError):
        sqrt_series(LaurentWindow(0, 4, {}))


def test_sqrt_squares_back_on_grid():
    for a in default_grid():
        neg = neg_window(a)
        if neg.valuation() is None:
            continue
        s = sqrt_series(neg)
        square = window_product(s, s)
        for q in square.terms:
            assert square.coeff(q) == neg.coeff(q), (a, q)


def test_stratum_table():
    for lo, hi, q, c, stratum in ((-4, 2, -4, 1, Sl2Stratum("split-toral", 2)),
                                  (-3, 3, -3, 1, Sl2Stratum("nonsplit-toral", 1)),
                                  (-1, 5, -1, 1, Sl2Stratum("G-zero")),
                                  (-8, 0, -2, 5, Sl2Stratum("split-toral", 1))):
        assert sl2_stratum(LaurentWindow(lo, hi, cyclo_terms({q: c}))) == stratum
    assert sl2_stratum(LaurentWindow(-1, 5, {})) == Sl2Stratum("G-zero")
    with pytest.raises(PrecisionError):
        sl2_stratum(LaurentWindow(-8, -4, {}))


def test_crosscheck_spot_values():
    for lo, hi, q, c, stratum in ((-4, 2, -4, -1, Sl2Stratum("split-toral", 2)),
                                  (-3, 3, -3, -1, Sl2Stratum("nonsplit-toral", 1)),
                                  (-1, 5, -1, 1, Sl2Stratum("G-zero")),
                                  (0, 6, 0, 2, Sl2Stratum("G-zero"))):
        assert sl2_crosscheck(LaurentWindow(lo, hi, cyclo_terms({q: c}))) == (stratum, True)


def test_default_grid_windows_match_checked_construction():
    # each window built from the module's constants is the window the test
    # builder makes from the same bounds and terms, and passes the checks the
    # wire decoder makes
    from polarium.chevmap import GRID_LEADS, GRID_PATTERNS, GRID_VALUATIONS, GRID_WIDTH

    expected = [LaurentWindow(v, v + GRID_WIDTH, cyclo_terms(
                    {F(v + off): c for off, c in enumerate((lead, *pattern))}))
                for v in GRID_VALUATIONS for lead in GRID_LEADS for pattern in GRID_PATTERNS]
    expected.append(LaurentWindow(-1, 4, {}))
    grid = default_grid()
    assert len(grid) == len(expected) == 265
    for got, want in zip(grid, expected):
        assert window_is_valid(got)
        assert (got.lo, got.hi, got.den) == (want.lo, want.hi, want.den)
        assert list(got.terms) == list(want.terms)
        for q, c in got.terms.items():
            assert type(q) is F
            w = want.terms[q]
            assert (c.conductor, c.nums, c.den) == (w.conductor, w.nums, w.den)
    # a fresh list of fresh windows on every call
    again = default_grid()
    assert again == grid and all(a is not b and a.terms is not b.terms
                                 for a, b in zip(again, grid))


def test_verify_sl2_default_grid():
    report = verify_sl2()
    assert report["violations"] == []
    counts = report["stratum_counts"]
    assert counts["split-toral"] > 0
    assert counts["nonsplit-toral"] > 0
    assert counts["G-zero"] > 0
    assert sum(counts.values()) == report["points"]


def _outcome(crosscheck, a):
    try:
        return crosscheck(a)
    except PolariumError as exc:
        return type(exc), str(exc)


# for the last three, -lead has no square root in the working field
LIFT_LEADS = (1, -1, 4, F(-9, 4), 2, -2, F(1, 2), zeta(3, 1), -4 * zeta(4, 1), zeta(8, 3),
              3, F(-5, 4), 1 + 2 * zeta(5, 1))


def _coefficient(rng):
    if rng.random() < 0.7:
        return F(rng.randint(-3, 3), rng.randint(1, 3))
    L = rng.choice((3, 4, 8))
    return CycloNumber(L, [rng.randint(-2, 2) for _ in range(euler_phi(L))])


def _lift_windows(seed: int, count: int) -> list[LaurentWindow]:
    """Seeded windows with den 1-4: a lead at an integral valuation from -9
    to 2 (odd and even) or, on den > 1, at a fractional one, further terms
    on about half the steps after it up to a width of 1 to 7, and all-zero
    windows ending on both sides of exponent -1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.randint(1, 4)
        v = F(rng.randint(-9, 2))
        if den > 1 and rng.random() < 0.1:
            v += F(rng.randint(1, den - 1), den)
        lo = v - F(rng.randint(0, den), den)
        hi = v + F(rng.randint(1, 7 * den), den)
        if rng.random() < 0.03:
            out.append(LaurentWindow(lo, hi, {}, den))
            continue
        terms = {v: rng.choice(LIFT_LEADS)}
        for k in range(1, int((hi - v) * den)):
            if rng.random() < 0.5:
                terms[v + F(k, den)] = _coefficient(rng)
        out.append(LaurentWindow(lo, hi, cyclo_terms(terms), den))
    return out


def test_principal_lift_matches_the_full_window_lift():
    # the lift takes the square root of the window's principal part alone;
    # the root over the whole window at t = tau^e must give the same stratum
    # and verdict, or refuse with the same error class and message, on the
    # default grid and on seeded windows reaching every refusal kind
    kinds = Counter()
    for a in default_grid() + _lift_windows(33, 1200):
        got = _outcome(sl2_crosscheck, a)
        assert got == _outcome(full_window_crosscheck, a), a
        if isinstance(got[0], Sl2Stratum):
            assert got[1], a
            kinds[got[0].kind] += 1
        else:
            kinds[got[0], " ".join(got[1].split()[:2])] += 1
    assert min(kinds[kind] for kind in ("split-toral", "nonsplit-toral", "G-zero")) > 100, kinds
    assert kinds[InvalidArgumentError, "stratum defined"] > 20, kinds
    assert kinds[InvalidArgumentError, "lifted term"] > 100, kinds
    assert kinds[PrecisionError, "window ends"] > 5, kinds
    assert sum(n for kind, n in kinds.items() if kind[0] is FieldExtensionRequired) > 100, kinds
