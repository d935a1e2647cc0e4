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
-alpha^vee, whose pairing is the negation and has the same depth, so each
+- pair of roots is paired once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclo import (CycloNumber, cyclo_from_json, cyclo_to_json, euler_phi, parse_fraction,
                    zeta)
from .errors import InvalidArgumentError, ResourceLimitError
from .linalg import dot_int
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
# Largest 2 (hi - lo) den of a wire window: the number of steps the square
# root runs on after an odd valuation doubles them; the recursion is
# quadratic in it. The default grid's windows have 12.
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

    __slots__ = ("rd", "m", "terms", "_depths", "_equivariant")

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
            if (q * m).denominator != 1:
                raise InvalidArgumentError(f"exponent {q} has denominator not dividing m={m}")
            c = covector(c, rd.dim)
            if not all(x.is_zero() for x in c):
                clean[q] = c
        self.terms = clean
        self._depths: tuple | None = None
        self._equivariant: dict | None = None

    @staticmethod
    def zero(rd: RootDatum, m: int = 1) -> "Tail":
        return Tail(rd, m, {})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Fraction]:
        return sorted(self.terms)

    def depth(self) -> Fraction | None:
        return max(self.terms) if self.terms else None

    def coroot_depths(self) -> tuple:
        """Depth of the pairing with each coroot, indexed by root; None where it vanishes."""
        if self._depths is None:
            rd = self.rd
            depths: dict[int, Fraction | None] = {}
            for i, coroot in enumerate(rd.coroots):
                if i not in depths:
                    depths[i] = depths[rd.negative_of(i)] = pair_coroot(self, coroot)
            self._depths = tuple(depths[i] for i in range(len(rd.coroots)))
        return self._depths

    def lift_conductor(self, m2: int) -> "Tail":
        if m2 % self.m != 0:
            raise InvalidArgumentError(f"{self.m} does not divide {m2}")
        return Tail(self.rd, m2, dict(self.terms))

    def add(self, other: "Tail") -> "Tail":
        if other.rd is not self.rd and other.rd.roots != self.rd.roots:
            raise InvalidArgumentError("tails over different root data")
        m = lcm(self.m, other.m)
        terms: dict[Fraction, list] = {q: list(c) for q, c in self.terms.items()}
        for q, c in other.terms.items():
            if q in terms:
                terms[q] = [a + b for a, b in zip(terms[q], c)]
            else:
                terms[q] = list(c)
        return Tail(self.rd, m, terms)

    def weyl_act(self, w: WeylElement) -> "Tail":
        mat = w.covector_matrix()
        out = {}
        for q, c in self.terms.items():
            out[q] = tuple(dot_int(row, c) for row in mat)
        return Tail(self.rd, self.m, out)

    def restrict(self, lo, hi) -> "Tail":
        """Terms with exponent in the band lo < q <= hi; None leaves a side
        unbounded."""
        kept = {q: c for q, c in self.terms.items()
                if (lo is None or q > lo) and (hi is None or q <= hi)}
        return Tail(self.rd, self.m, kept)

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
        return Tail(self.rd, self.m, out)

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


def pair_coroot(tail: Tail, coroot) -> Fraction | None:
    """Depth of <d(coroot), tail>: the largest exponent whose covector pairs
    nonzero with the coroot, None when every term pairs to zero."""
    for q in sorted(tail.terms, reverse=True):
        if not dot_int(coroot, tail.terms[q]).is_zero():
            return q
    return None


def is_equivariant(tail: Tail, w: WeylElement, m: int) -> bool:
    """Fixed-point condition for the torus presented by (w, m).

    The verdict, False included, is kept on the tail per (w.matrix, m), as
    its coroot depths are, so a tail is acted on once per torus.
    """
    if tail._equivariant is None:
        tail._equivariant = {}
    key = (w.matrix, m)
    verdict = tail._equivariant.get(key)
    if verdict is None:
        lifted = tail if tail.m == m else tail.lift_conductor(lcm(tail.m, m))
        twist = lifted.expected_twist()  # refuses an oversized conductor before other work
        verdict = tail._equivariant[key] = lifted.weyl_act(w) == twist
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

    def coeff(self, q) -> CycloNumber:
        return self.terms.get(Fraction(q), CycloNumber.zero())

    def valuation(self) -> Fraction | None:
        """Least exponent with a nonzero coefficient, None when zero on the window."""
        return min(self.terms) if self.terms else None

    def neg(self) -> "LaurentWindow":
        return LaurentWindow(self.lo, self.hi, {q: -c for q, c in self.terms.items()}, self.den)

    def scale_exponents(self, r) -> "LaurentWindow":
        """Substitute t -> t^(1/r) viewed on exponents: q maps to q*r."""
        r = Fraction(r)
        if r <= 0:
            raise InvalidArgumentError("exponent scale must be positive")
        den = lcm(self.den * r.denominator, r.denominator)
        return LaurentWindow(self.lo * r, self.hi * r,
                             {q * r: c for q, c in self.terms.items()},
                             int(den))

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


def window_from_json(doc: dict) -> LaurentWindow:
    lo, hi, den = parse_fraction(doc["lo"]), parse_fraction(doc["hi"]), int(doc.get("den", 1))
    if 2 * (hi - lo) * den > WINDOW_STEPS_BOUND:
        raise ResourceLimitError(f"window [{lo}, {hi}) at step 1/{den} has 2 (hi - lo) den = "
                                 f"{2 * (hi - lo) * den}, larger than bound {WINDOW_STEPS_BOUND}")
    terms = {}
    for entry in doc.get("terms", []):
        terms[parse_fraction(entry["q"])] = _coefficient_from_json(entry["coeff"])
    _bound_conductors(terms.values())
    return LaurentWindow(lo, hi, terms, den)
