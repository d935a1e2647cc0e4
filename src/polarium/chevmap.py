"""The rank-1 characteristic map at series level and the bit-exact SL2 verifier.

The SL2 stratum index n counts pole order against the torus lattice (the
quadratic-differential side), while tails count dt/t exponents; the two
gradings differ by 1 on the split torus and by 1/2 on the ramified one, and
the cross-check converts explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .cyclo import CycloNumber, sqrt_cyclo
from .errors import InvalidArgumentError, NoSqrtInBaseField, PrecisionError
from .polar import classify
from .rootdata import build
from .tails import LaurentWindow, Tail
from .tori import TorusClass, split_torus_class


@cache
def _a1():
    return build("A1")


def sqrt_series(a: LaurentWindow) -> LaurentWindow:
    """Canonical square root on the guaranteed window.

    The leading exponent must be even in the window lattice and the leading
    coefficient a supported square (see sqrt_cyclo); the root's first nonzero
    coefficient is positive, which pins the branch.
    """
    v = a.valuation()
    if v is None:
        raise PrecisionError("series is zero on its window; valuation unknown")
    if (v * a.den) % 2 != 0:
        raise NoSqrtInBaseField(f"odd leading valuation {v}")
    lead = a.coeff(v)
    s0 = sqrt_cyclo(lead)
    inv_lead = lead.inverse()
    # The window holds the exponents v + k/den for 0 <= k < n; the recursion
    # runs on the step k.
    n = int((a.hi - v) * a.den)
    u = {int((q - v) * a.den): c * inv_lead for q, c in a.terms.items() if q != v}
    # Coefficientwise recursion for sqrt(1 + u): 2 s_k = u_k - sum of
    # s_p s_(k-p) over 0 < p < k.
    s_rel: dict[int, CycloNumber] = {0: CycloNumber.one()}
    half = Fraction(1, 2)
    for k in range(1, n):
        acc = u.get(k, CycloNumber.zero())
        for p in range(1, k):
            left, right = s_rel.get(p), s_rel.get(k - p)
            if left is not None and right is not None:
                acc = acc - left * right
        val = half * acc
        if not val.is_zero():
            s_rel[k] = val
    terms = {v / 2 + Fraction(k, a.den): s0 * c for k, c in s_rel.items()}
    return LaurentWindow(v / 2, a.hi - v / 2, terms, a.den)


class Sl2Stratum(NamedTuple):
    kind: str  # split-toral | nonsplit-toral | G-zero
    n: int | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        return out


def sl2_stratum(a: LaurentWindow) -> Sl2Stratum:
    """Closed-form stratum of a quadratic differential a(dt)^2 by valuation."""
    v = a.valuation()
    if v is None:
        if a.hi > -1:
            return Sl2Stratum("G-zero")
        raise PrecisionError("window ends before exponent -1; stratum unknown")
    if v.denominator != 1:
        raise InvalidArgumentError("stratum defined for integral-exponent input")
    v = int(v)
    if v >= -1:
        return Sl2Stratum("G-zero")
    if v % 2 == 0:
        return Sl2Stratum("split-toral", -v // 2)
    return Sl2Stratum("nonsplit-toral", (-v - 1) // 2)


def _tail_from_series(b: LaurentWindow, m: int) -> Tail:
    """The tail of diag(b, -b) dt in dt/t exponents, truncated at q >= 0."""
    rd = _a1()
    terms = {}
    for p, c in b.terms.items():
        q = -(p + 1)
        if q >= 0:
            terms[q] = (2 * c,)
    return Tail(rd, m, terms)


def _nonsplit_class() -> TorusClass:
    rd = _a1()
    s_alpha = rd.weyl_elements()[1]
    return TorusClass(rd, s_alpha, 2)


def sl2_crosscheck(a: LaurentWindow) -> bool:
    """Lift through the characteristic map and compare with the closed form.

    The lift solves -b^2 = a after t = tau^e: e = 1 and the split torus when
    the valuation is even, e = 2 and the ramified torus when it is odd. It
    classifies the resulting tail and matches stratum kind and index against
    sl2_stratum.
    """
    table = sl2_stratum(a)
    neg_a = a.neg()
    v = neg_a.valuation()
    lifted_kind, lifted_n = "G-zero", None
    if v is not None:
        e = 1 if int(v) % 2 == 0 else 2
        b = sqrt_series(neg_a.scale_exponents(e)).scale_exponents(Fraction(1, e))
        tc = split_torus_class(_a1()) if e == 1 else _nonsplit_class()
        datum = classify(tc, _tail_from_series(b, e))
        if not datum.lam.is_zero():
            lifted_kind = "split-toral" if e == 1 else "nonsplit-toral"
            lifted_n = int(datum.lam.depth() + Fraction(1, e))
    return (table.kind, table.n) == (lifted_kind, lifted_n)


# -- the default verification grid ---------------------------------------

GRID_VALUATIONS = range(-8, 3)
GRID_LEADS = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(4), Fraction(-4),
)
GRID_PATTERNS = ((), (1,), (2, -1))  # extra coefficients at offsets 1, 2, ...
GRID_WIDTH = 6  # each window ends this far past its valuation


def default_grid() -> list[LaurentWindow]:
    """Deterministic windows covering every stratum boundary case."""
    grid = []
    for v in GRID_VALUATIONS:
        for lead in GRID_LEADS:
            for pattern in GRID_PATTERNS:
                terms = {Fraction(v): lead}
                for off, c in enumerate(pattern, start=1):
                    terms[Fraction(v + off)] = Fraction(c)
                grid.append(LaurentWindow(v, v + GRID_WIDTH, terms))
    # All-zero windows on both sides of the decidability line.
    grid.append(LaurentWindow(-1, 4, {}))
    return grid


def verify_sl2(grid: list[LaurentWindow] | None = None) -> dict:
    """Run the SL2 partition table and the cross-check over a grid."""
    grid = default_grid() if grid is None else grid
    counts = {"split-toral": 0, "nonsplit-toral": 0, "G-zero": 0}
    violations = []
    for k, a in enumerate(grid):
        stratum = sl2_stratum(a)
        counts[stratum.kind] += 1
        v = a.valuation()
        expected = _expected_from_valuation(v, a.hi)
        if (stratum.kind, stratum.n) != expected:
            violations.append({"point": k, "kind": "stratum-table",
                               "got": stratum.to_json()})
        if not sl2_crosscheck(a):
            violations.append({"point": k, "kind": "crosscheck"})
    return {"points": len(grid), "stratum_counts": counts, "violations": violations}


def _expected_from_valuation(v, hi) -> tuple:
    if v is None:
        return ("G-zero", None) if hi > -1 else ("unknown", None)
    v = int(v)
    if v >= -1:
        return ("G-zero", None)
    if v % 2 == 0:
        return ("split-toral", -v // 2)
    return ("nonsplit-toral", (-v - 1) // 2)
