"""The rank-1 characteristic map at series level and the bit-exact SL2 verifier.

The SL2 stratum index n counts pole order against the torus lattice (the
quadratic-differential side), while tails count dt/t exponents; the two
gradings differ by 1 on the split torus and by 1/2 on the ramified one, and
the cross-check converts explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import floor, lcm
from typing import NamedTuple

from .cyclo import CycloNumber, common_grid, euler_phi, from_grid, reduce_poly, sqrt_cyclo
from .errors import InvalidArgumentError, PolariumError, PrecisionError, ResourceLimitError
from .polar import classify
from .rootdata import build
from .tails import LaurentWindow, Tail
from .tori import TorusClass, split_torus_class


# Most principal steps times coefficient bits (see `_lift_bits`) that the
# square roots of a wire grid may take, summed over its windows. Root step k
# carries about k times the bits of the coefficients on their common
# denominator D, since the recursion scales step k by (4 D)^k, and it sums
# about k/2 products of such numbers; 63 principal steps of dense conductor-35
# coefficients over 65 bits take about 1 s on a 2-vCPU VM, and the integer
# windows that CI times count 315 or fewer.
LIFT_BITS_BOUND = 4096


@cache
def _a1():
    return build("A1")


@cache
def _a1_classes() -> tuple[TorusClass, TorusClass]:
    """The split (m = 1) and ramified (w = s_alpha, m = 2) torus classes of
    A1 that the lifts land on, built once like the root datum."""
    rd = _a1()
    return split_torus_class(rd), TorusClass(rd, rd.weyl_elements()[1], 2)


def sqrt_series(a: LaurentWindow) -> LaurentWindow:
    """Canonical square root on the guaranteed window.

    The leading coefficient must be a supported square (see sqrt_cyclo); the
    root's first nonzero coefficient is positive, which pins the branch. The
    root of a valuation v is at v/2 + k/den for the window's steps k, so an
    odd v * den puts the root on the doubled lattice (1/(2 den))Z.

    With a = lead * (1 + u), the root is sqrt(lead) * s for s = sqrt(1 + u),
    whose coefficients obey 2 s_k = u_k - sum of s_p s_(k-p) over 0 < p < k.
    The recursion runs without division: with every u_k = U_k / D on one
    integer grid at conductor L (`common_grid`), S_k = 2^(2k-1) D^k s_k lies
    in Z[zeta_L] and S_k = 4^(k-1) D^(k-1) U_k - sum of S_p S_(k-p) over
    0 < p < k. The sum is taken on unreduced integer polynomials, each
    product S_p S_(k-p) twice for p < k - p, and reduced once per k by
    `reduce_poly`; s_k is read back with one gcd.
    """
    v = a.valuation()
    if v is None:
        raise PrecisionError("series is zero on its window; valuation unknown")
    lead = a.coeff(v)
    s0 = sqrt_cyclo(lead)
    inv_lead = lead.inverse()
    # The window holds the exponents v + k/den for 0 <= k < n; the recursion
    # runs on the step k.
    n = int((a.hi - v) * a.den)
    u = {int((q - v) * a.den): c * inv_lead for q, c in a.terms.items() if q != v}
    L, D, rows = common_grid(list(u.values()))
    phi = euler_phi(L)
    U = dict(zip(u, rows))
    S: list = [None] * n  # S[k], reduced, where it is nonzero
    terms = {v / 2: s0}
    scale = 1  # (4 D)^(k-1)
    for k in range(1, n):
        acc = [0] * (2 * phi - 1)
        for p in range(1, k // 2 + 1):
            left, right = S[p], S[k - p]
            if left is None or right is None:
                continue
            twice = 1 if 2 * p == k else 2
            for i, x in enumerate(left):
                if x:
                    x *= twice
                    for j, y in enumerate(right, i):
                        acc[j] -= x * y
        if k in U:
            for i, x in enumerate(U[k]):
                acc[i] += scale * x
        nums = reduce_poly(L, acc)
        if any(nums):
            S[k] = nums
            terms[v / 2 + Fraction(k, a.den)] = s0 * from_grid(L, nums, 2 ** (2 * k - 1) * D ** k)
        scale *= 4 * D
    # v < hi, so v/2 < a.hi - v/2, and both bounds and each exponent
    # v/2 + k/den lie on the lattice of den, doubled when v * den is odd
    den = a.den if v * a.den % 2 == 0 else 2 * a.den
    return LaurentWindow(v / 2, a.hi - v / 2, terms, den)


class Sl2Stratum(NamedTuple):
    kind: str  # split-toral | nonsplit-toral | G-zero
    n: int | None = None


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
    """The tail of diag(b, -b) dt in dt/t exponents, truncated at q >= 0.

    Each kept term is 2c for a nonzero window coefficient c, a valid
    covector of the rank-1 datum. Whether the torus carries the lift is
    decided by the exponents: the split torus (m = 1) carries terms in Z and
    the ramified one (m = 2) in 1/2 + Z, the exponents of denominator m, and
    from a wire window with den > 1 a term can land elsewhere."""
    terms = {}
    for p, c in b.terms.items():
        q = -(p + 1)
        if q >= 0:
            if q.denominator != m:
                torus = "split torus (Z)" if m == 1 else "ramified torus (1/2 + Z)"
                raise InvalidArgumentError(f"lifted term at exponent {q} is off the {torus}")
            terms[q] = (2 * c,)
    return Tail(_a1(), m, terms)


def _principal_end(a: LaurentWindow, v: Fraction) -> Fraction:
    """Where the principal part of a window of valuation v ends: just after
    its last step at or below max(v/2 - 1, v), or at the window's end."""
    return min(a.hi, Fraction(floor(max(v / 2 - 1, v) * a.den) + 1, a.den))


def _lift_bits(a: LaurentWindow) -> int:
    """The principal steps of a window times the bit height of their
    coefficients on one common denominator D: the bits of D or of the
    largest numerator over D, whichever is larger; 0 for a zero window."""
    v = a.valuation()
    if v is None:
        return 0
    hi = _principal_end(a, v)
    coeffs = [c for q, c in a.terms.items() if q < hi]
    den = lcm(*(c.den for c in coeffs))
    height = max(den, *(abs(x) * (den // c.den) for c in coeffs for x in c.nums))
    return int((hi - v) * a.den) * height.bit_length()


def sl2_crosscheck(a: LaurentWindow) -> tuple[Sl2Stratum, bool]:
    """The closed-form stratum of a, and whether the lift through the
    characteristic map lands on it.

    The lift solves -b^2 = a: b has valuation v/2, on the split torus when
    v is even and on the ramified one when it is odd. Only its principal
    part reaches the tail (q >= 0 is an exponent <= -1 of b), and root step
    k, at p - v/2, comes from the window's step k at p, so the root is taken
    of -a cut just after its last step at or below max(v/2 - 1, v): every
    principal step, and always the lead, whose square root may be refused.
    """
    table = sl2_stratum(a)
    v = a.valuation()
    lifted = Sl2Stratum("G-zero")
    if v is not None:
        hi = _principal_end(a, v)
        principal = {q: -c for q, c in a.terms.items() if q < hi}
        m = 1 if v % 2 == 0 else 2
        b = sqrt_series(LaurentWindow(a.lo, hi, principal, a.den))
        datum = classify(_a1_classes()[m - 1], _tail_from_series(b, m))
        if not datum.lam.is_zero():
            lifted = Sl2Stratum("split-toral" if m == 1 else "nonsplit-toral",
                                int(datum.lam.depth() + Fraction(1, m)))
    return table, table == lifted


# -- the default verification grid ---------------------------------------

GRID_VALUATIONS = range(-8, 3)
GRID_LEADS = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(4), Fraction(-4),
)
GRID_PATTERNS = ((), (1,), (2, -1))  # extra coefficients at offsets 1, 2, ...
GRID_WIDTH = 6  # each window ends this far past its valuation


def default_grid() -> list[LaurentWindow]:
    """Deterministic windows covering every stratum boundary case.

    The windows are the module's own constants: integer bounds, nonzero
    rational coefficients at integer exponents inside them, so each is a
    valid window; a fresh list of fresh windows on every call."""
    grid = []
    for v in GRID_VALUATIONS:
        lo, hi = Fraction(v), Fraction(v + GRID_WIDTH)
        for lead in GRID_LEADS:
            for pattern in GRID_PATTERNS:
                terms = {lo: CycloNumber.from_rational(lead)}
                for off, c in enumerate(pattern, start=1):
                    terms[lo + off] = CycloNumber.from_rational(c)
                grid.append(LaurentWindow(lo, hi, terms, 1))
    # All-zero windows on both sides of the decidability line.
    grid.append(LaurentWindow(Fraction(-1), Fraction(4), {}, 1))
    return grid


def verify_sl2(grid: list[LaurentWindow] | None = None) -> dict:
    """Run the SL2 partition table and the cross-check over a grid; a
    window's refusal is raised again in its class, naming the window. A
    given grid is refused first when its windows' lift bits sum past
    LIFT_BITS_BOUND."""
    if grid is None:
        grid = default_grid()
    else:
        bits = sum(map(_lift_bits, grid))
        if bits > LIFT_BITS_BOUND:
            raise ResourceLimitError(
                f"the grid windows' principal steps times coefficient bits sum to {bits}, "
                f"larger than bound {LIFT_BITS_BOUND}")
    counts = {"split-toral": 0, "nonsplit-toral": 0, "G-zero": 0}
    violations = []
    for k, a in enumerate(grid):
        try:
            table, agreed = sl2_crosscheck(a)
        except PolariumError as exc:
            raise type(exc)(f"grid window {k}: {exc}") from None
        counts[table.kind] += 1
        if not agreed:
            violations.append({"point": k, "kind": "crosscheck"})
    return {"points": len(grid), "stratum_counts": counts, "violations": violations}

