"""Laurent tails over tame extensions and truncated Laurent windows.

A Tail is a finite family of covector coefficients c_q indexed by rational
exponents q >= 0 with denominator dividing the conductor m; the term q
stands for c_q * t^(-q) * dt/t. Covectors live on the character side of the
ambient root datum (fundamental-weight coordinates), so pairing with a
coroot is an integer dot product on the coefficients.

Strata labels and Yu ladders read one table per tail: the depth of
<alpha^vee, tail> for every root alpha, i.e. the largest exponent whose
covector pairs nonzero with the coroot, or None where the pairing vanishes.
`Tail.coroot_depths` builds it once and keeps it. The coroot of -alpha is
-alpha^vee, whose pairing is the negation and has the same depth, so only
the positive coroots are paired.

Each term has one integer grid, which the tail keeps from its first use
(`Tail.grids`): its entries' numerators at the term's common conductor L,
scaled to their common denominator D, one column per power of zeta_L. An
element of Q(zeta_L) has one numerator vector over a given denominator in
the power basis (Cohen, A Course in Computational Algebraic Number Theory,
section 4.2), so the three readers of a tail work on ints alone:
- a coroot pairs to zero with a term exactly when its integer dot product
  with every column is 0 (`pair_coroot`);
- the Weyl image of a term multiplies the matrix rows by the columns, and
  each image entry is one normalization over D (`Tail.weyl_act`);
- conjugacy compares those products with the other tail's grid
  (`polar.conjugate_oracle`).
No CycloNumber is built for a pairing or for a comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .cyclo import (CycloNumber, _normalized, cyclo_from_json, cyclo_to_json, euler_phi,
                    parse_fraction, zeta)
from .errors import InvalidArgumentError, ResourceLimitError
from .rootdata import RootDatum, WeylElement

Covector = tuple[CycloNumber, ...]

# Largest phi(L) at which a root-of-unity twist is computed (see
# Tail.expected_twist); phi(1000) = 400.
TWIST_PHI_BOUND = 400
# Largest phi(L) for L the lcm of the conductors of a wire tail's or
# window's coefficients. Dense arithmetic at conductor L costs about
# phi(L)^2 per product and more per inverse. A `homogeneous` datum's
# coefficients live at its regular number m, with phi(m) <= 16 up to rank 16.
COEFF_PHI_BOUND = 24
# A wire window counts 2 (hi - lo) den steps, the steps of its square root
# read at t = tau^2, and a verify-sl2 grid may hold windows whose squared
# step counts sum to at most this bound squared: one window of 256 steps, or
# many shorter ones. The recursion is quadratic in its steps, and the lift
# runs it only on the window's principal steps (chevmap.sl2_crosscheck), at
# most half of the count. The default grid's 265 windows count 12 steps each
# or fewer.
WINDOW_STEPS_BOUND = 256


def covector(values, dim: int | None = None) -> Covector:
    """Coerce rationals/CycloNumbers into a covector tuple."""
    out = tuple(
        v if isinstance(v, CycloNumber) else CycloNumber.from_rational(Fraction(v))
        for v in values
    )
    if dim is not None and len(out) != dim:
        raise InvalidArgumentError(f"covector has length {len(out)}, expected {dim}")
    return out


class Tail:
    """An element of t*/t*_tn: finitely many covector terms at exponents q >= 0."""

    __slots__ = ("rd", "m", "terms", "_grids", "_depths", "_equivariant")

    def __init__(self, rd: RootDatum, m: int, terms: dict):
        if m < 1:
            raise InvalidArgumentError(f"conductor must be >= 1, got {m}")
        self.rd = rd
        self.m = m
        clean: dict[Fraction, Covector] = {}
        for q, c in terms.items():
            q = Fraction(q)
            if q < 0:
                raise InvalidArgumentError(f"exponent {q} negative; tails live at q >= 0")
            check_exponent(q, m)
            c = covector(c, rd.dim)
            if not all(x.is_zero() for x in c):
                clean[q] = c
        self.terms = clean
        self._grids: tuple | None = None
        self._depths: tuple | None = None
        self._equivariant: dict | None = None

    @classmethod
    def _derived(cls, rd: RootDatum, m: int, terms: dict) -> "Tail":
        """A tail built from valid data: its exponents are q >= 0 with
        denominators dividing m and its covectors are nonzero tuples of
        CycloNumbers of length rd.dim, so nothing is parsed or checked
        again."""
        tail = cls.__new__(cls)
        tail.rd, tail.m, tail.terms = rd, m, terms
        tail._grids = tail._depths = tail._equivariant = None
        return tail

    @staticmethod
    def zero(rd: RootDatum, m: int = 1) -> "Tail":
        return Tail(rd, m, {})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Fraction]:
        return sorted(self.terms)

    def depth(self) -> Fraction | None:
        return max(self.terms) if self.terms else None

    def grids(self) -> tuple:
        """(q, L, D, columns) for each term by descending exponent, built on
        first use: the term's entries on one integer grid (`_grid`) at the
        lcm L of their conductors and the lcm D of their denominators."""
        if self._grids is None:
            grids = []
            for q in sorted(self.terms, reverse=True):
                c = self.terms[q]
                L, D = lcm(*(x.conductor for x in c)), lcm(*(x.den for x in c))
                grids.append((q, L, D, _grid(c, L, D)))
            self._grids = tuple(grids)
        return self._grids

    def coroot_depths(self) -> tuple:
        """Depth of the pairing with each coroot, indexed by root; None where it vanishes."""
        if self._depths is None:
            rd = self.rd
            depths: list[Fraction | None] = [None] * len(rd.coroots)
            for i in rd.positive:
                depths[i] = depths[rd.negative_of(i)] = pair_coroot(self, rd.coroots[i])
            self._depths = tuple(depths)
        return self._depths

    def weyl_act(self, w: WeylElement) -> "Tail":
        """The image under w: per term, each covector matrix row times the
        grid columns gives one image entry's numerators over the term's D,
        normalized with one gcd."""
        mat = w.covector_matrix()
        out = {}
        for q, L, D, columns in self.grids():
            # w is invertible, so each image term is nonzero
            out[q] = tuple(_normalized(L, [sum(map(mul, row, col)) for col in columns], D)
                           for row in mat)
        return Tail._derived(self.rd, self.m, out)

    def restrict(self, lo, hi) -> "Tail":
        """Terms with exponent in the band lo < q <= hi; None leaves a side
        unbounded."""
        kept = {q: c for q, c in self.terms.items()
                if (lo is None or q > lo) and (hi is None or q <= hi)}
        return Tail._derived(self.rd, self.m, kept)

    def expected_twist(self) -> "Tail":
        """Each term q scaled by zeta_m^(q*m): the equivariance reference.

        That root of unity is zeta_d^a for q = a/d in lowest terms, so a term
        at an integer exponent is left as it is. The product of zeta_d^a with
        an entry lives at the lcm of d and the entry's conductor; past
        TWIST_PHI_BOUND for phi of that lcm the tail is refused before any
        root of unity or cyclotomic polynomial is built.
        """
        twisted = {q: c for q, c in self.terms.items() if q.denominator > 1}
        for q, c in twisted.items():
            L = lcm(q.denominator, *(x.conductor for x in c))
            if euler_phi(L) > TWIST_PHI_BOUND:
                raise ResourceLimitError(
                    f"twist of the term at exponent {q} lives at conductor {L}: "
                    f"phi({L}) = {euler_phi(L)} larger than bound {TWIST_PHI_BOUND}")
        out = dict(self.terms)
        for q, c in twisted.items():
            z = zeta(q.denominator, q.numerator)
            out[q] = tuple(z * x for x in c)
        return Tail._derived(self.rd, self.m, out)

    def __eq__(self, other):
        if not isinstance(other, Tail):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(
            all(a == b for a, b in zip(self.terms[q], other.terms[q])) for q in self.terms
        )

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "Tail(0)"
        bits = [f"t^-{q}*{tuple(map(repr, c))}" for q, c in sorted(self.terms.items())]
        return f"Tail(m={self.m}; " + " + ".join(bits) + ")"


def check_exponent(q: Fraction, m: int) -> None:
    """Refuse an exponent whose denominator does not divide the conductor m."""
    if (q * m).denominator != 1:
        raise InvalidArgumentError(f"exponent {q} has denominator not dividing m={m}")


def pair_coroot(tail: Tail, coroot) -> Fraction | None:
    """Depth of <d(coroot), tail>: the largest exponent whose covector pairs
    nonzero with the coroot, None when every term pairs to zero.

    A term pairs to zero exactly when the coroot is orthogonal to each
    column of its grid (`Tail.grids`, by descending exponent)."""
    for q, _, _, columns in tail.grids():
        for col in columns:
            if sum(map(mul, coroot, col)):
                return q
    return None


def _grid(c: Covector, L: int, D: int) -> tuple[tuple[int, ...], ...]:
    """The covector's entries on one integer grid at conductor L and
    denominator D, multiples of the entries' conductors and denominators:
    column j holds each entry's z^j numerator at L, scaled to D. Entry i
    is sum_j column_j[i] z^j / D, and 1, z, ..., z^(phi(L)-1) is a basis of
    Q(zeta_L), so an integer vector pairs to zero with the covector exactly
    when it is orthogonal to every column."""
    return tuple(zip(*([n * (D // x.den) for n in x.lift(L).nums] for x in c)))


def is_equivariant(tail: Tail, w: WeylElement) -> bool:
    """Fixed-point condition for a torus twisted by w: w sends each term
    q = a/d in lowest terms to zeta_d^a times itself. That twist does not
    depend on the torus's period.

    The verdict, False included, is kept on the tail per w.root_permutation,
    as its coroot depths are, so a tail is acted on once per Weyl element.
    """
    if tail._equivariant is None:
        tail._equivariant = {}
    verdict = tail._equivariant.get(w.root_permutation)
    if verdict is None:
        twist = tail.expected_twist()  # refuses an oversized conductor before other work
        verdict = tail._equivariant[w.root_permutation] = tail.weyl_act(w) == twist
    return verdict


# -- truncated Laurent series -------------------------------------------


class LaurentWindow:
    """Coefficients on [lo, hi) with explicit precision; exponents in (1/den)Z."""

    __slots__ = ("den", "lo", "hi", "terms")

    def __init__(self, lo, hi, terms: dict | None = None, den: int = 1):
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise InvalidArgumentError(f"empty window [{lo}, {hi})")
        for bound in (lo, hi):
            if (bound * den).denominator != 1:
                raise InvalidArgumentError(f"bound {bound} not a multiple of 1/{den}")
        self.den = den
        self.lo = lo
        self.hi = hi
        clean = {}
        for q, c in (terms or {}).items():
            q = Fraction(q)
            if not (lo <= q < hi):
                raise InvalidArgumentError(f"exponent {q} outside window [{lo}, {hi})")
            if (q * den).denominator != 1:
                raise InvalidArgumentError(f"exponent {q} not a multiple of 1/{den}")
            c = c if isinstance(c, CycloNumber) else CycloNumber.from_rational(Fraction(c))
            if not c.is_zero():
                clean[q] = c
        self.terms = clean

    @classmethod
    def _derived(cls, lo: Fraction, hi: Fraction, terms: dict, den: int) -> "LaurentWindow":
        """A window built from valid data: lo < hi are multiples of 1/den and
        the terms are nonzero CycloNumbers at multiples of 1/den in
        [lo, hi), so nothing is parsed or checked again."""
        window = cls.__new__(cls)
        window.lo, window.hi, window.terms, window.den = lo, hi, terms, den
        return window

    def coeff(self, q) -> CycloNumber:
        return self.terms.get(Fraction(q), CycloNumber.zero())

    def valuation(self) -> Fraction | None:
        """Least exponent with a nonzero coefficient, None when zero on the window."""
        return min(self.terms) if self.terms else None

    def __eq__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi) and set(self.terms) == set(other.terms) \
            and all(self.terms[q] == other.terms[q] for q in self.terms)

    __hash__ = None

    def __repr__(self):
        body = " + ".join(f"{c!r}*t^{q}" for q, c in sorted(self.terms.items())) or "0"
        return f"LaurentWindow[{self.lo},{self.hi})({body})"


# -- JSON ---------------------------------------------------------------

def tail_to_json(tail: Tail) -> dict:
    return {
        "m": tail.m,
        "terms": [
            {"q": str(q), "coeff": [cyclo_to_json(x) for x in c]}
            for q, c in sorted(tail.terms.items())
        ],
    }


def _coefficient_from_json(x) -> CycloNumber:
    return cyclo_from_json(x) if isinstance(x, dict) \
        else CycloNumber.from_rational(parse_fraction(x))


def _bound_conductors(values) -> None:
    """Refuse coefficients whose common conductor L has phi(L) above
    COEFF_PHI_BOUND; phi(L) >= sqrt(L/2) refuses L above twice its square
    before L is factored."""
    L = lcm(*(c.conductor for c in values))
    if L > 2 * COEFF_PHI_BOUND ** 2 or euler_phi(L) > COEFF_PHI_BOUND:
        raise ResourceLimitError(
            f"coefficients live at conductor {L}: phi({L}) larger than bound {COEFF_PHI_BOUND}")


def tail_from_json(rd: RootDatum, doc: dict) -> Tail:
    terms = {}
    for entry in doc.get("terms", []):
        terms[parse_fraction(entry["q"])] = [_coefficient_from_json(x) for x in entry["coeff"]]
    _bound_conductors(c for coeff in terms.values() for c in coeff)
    return Tail(rd, int(doc.get("m", 1)), terms)


def grid_from_json(docs: list) -> list[LaurentWindow]:
    """The windows of a verify-sl2 grid, refused before any is built when
    the squares of their step counts 2 (hi - lo) den sum past
    WINDOW_STEPS_BOUND squared; an empty window counts 0 and is refused as
    it is built."""
    total = 0
    for doc in docs:
        lo, hi = parse_fraction(doc["lo"]), parse_fraction(doc["hi"])
        total += max(2 * (hi - lo) * int(doc.get("den", 1)), 0) ** 2
    if total > WINDOW_STEPS_BOUND ** 2:
        raise ResourceLimitError(
            f"the grid windows' squared step counts 2 (hi - lo) den sum to {total}, "
            f"larger than bound {WINDOW_STEPS_BOUND}^2")
    return [window_from_json(doc) for doc in docs]


def window_from_json(doc: dict) -> LaurentWindow:
    lo, hi, den = parse_fraction(doc["lo"]), parse_fraction(doc["hi"]), int(doc.get("den", 1))
    terms = {}
    for entry in doc.get("terms", []):
        terms[parse_fraction(entry["q"])] = _coefficient_from_json(entry["coeff"])
    _bound_conductors(terms.values())
    return LaurentWindow(lo, hi, terms, den)
