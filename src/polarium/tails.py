"""Laurent tails over tame extensions and truncated Laurent windows.

A Tail is a finite family of covector coefficients c_q indexed by rational
exponents q >= 0 with denominator dividing the conductor m; the term q
stands for c_q * t^(-q) * dt/t. Covectors live on the character side of the
ambient root datum (fundamental-weight coordinates), so pairing with a
coroot is an integer dot product on the coefficients.

A Tail and a LaurentWindow each have one constructor, which takes valid
terms and checks nothing: the program builds valid ones, and `jsonio` checks
the shape of a wire tail or window as it decodes it.

Strata labels and Yu ladders read one table per tail: the depth of
<alpha^vee, tail> for every root alpha, i.e. the largest exponent whose
covector pairs nonzero with the coroot, or None where the pairing vanishes.
`Tail.coroot_depths` builds it once and keeps it. The coroot of -alpha is
-alpha^vee, whose pairing is the negation and has the same depth, so only
the positive coroots are paired.

Each term has one integer grid, which the tail keeps from its first use
(`Tail.grids`): its entries on their common grid (`cyclo.common_grid`),
numerators at the term's common conductor L over its common denominator D,
read as one column per power of zeta_L. Values on one grid are equal exactly
when their numerators are, so the readers of a tail work on ints alone:
- a coroot pairs to zero with a term exactly when its integer dot product
  with every column is 0 (`pair_coroot`);
- the Weyl image of a term multiplies the matrix rows by the columns, and
  each image entry is one normalization over D (`Tail.weyl_act`);
- whether w sends one tail to another (`sends`) multiplies those rows by
  the first tail's columns and compares with the second's numerators on one
  grid per exponent (`paired_grids`); equivariance (the image is the tail's
  twist) and conjugacy (`polar.conjugate_oracle`) both ask it.
No CycloNumber is built for a pairing or for a comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .cyclo import CycloNumber, common_grid, euler_phi, from_grid, zeta
from .errors import ResourceLimitError
from .rootdata import RootDatum, WeylElement

Covector = tuple[CycloNumber, ...]

# Largest phi(L) at which a root-of-unity twist is computed (see
# Tail.expected_twist); phi(1000) = 400.
TWIST_PHI_BOUND = 400


class Tail:
    """An element of t*/t*_tn: nonzero covectors, tuples of rd.dim
    CycloNumbers, at Fraction exponents q >= 0 with denominators dividing m."""

    __slots__ = ("rd", "m", "terms", "_grids", "_depths", "_equivariant")

    def __init__(self, rd: RootDatum, m: int, terms: dict):
        self.rd, self.m, self.terms = rd, m, terms
        self._grids = self._depths = self._equivariant = None

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Fraction]:
        return sorted(self.terms)

    def depth(self) -> Fraction | None:
        return max(self.terms) if self.terms else None

    def grids(self) -> tuple:
        """(q, L, D, columns) for each term by descending exponent, built on
        first use: column j holds the z^j numerators of the term's entries on
        their common grid (`cyclo.common_grid`)."""
        if self._grids is None:
            grids = []
            for q in sorted(self.terms, reverse=True):
                L, D, rows = common_grid(self.terms[q])
                grids.append((q, L, D, tuple(zip(*rows))))
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
            out[q] = tuple(from_grid(L, [sum(map(mul, row, col)) for col in columns], D)
                           for row in mat)
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
        at an integer exponent, or a tail of such terms, is left as it is. The
        product of zeta_d^a with an entry lives at the lcm of d and the entry's
        conductor; past TWIST_PHI_BOUND for phi of that lcm the tail is
        refused before any root of unity or cyclotomic polynomial is built.
        """
        twisted = {q: c for q, c in self.terms.items() if q.denominator > 1}
        if not twisted:
            return self
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
    nonzero with the coroot, None when every term pairs to zero.

    A term pairs to zero exactly when the coroot is orthogonal to each
    column of its grid (`Tail.grids`, by descending exponent)."""
    for q, _, _, columns in tail.grids():
        for col in columns:
            if sum(map(mul, coroot, col)):
                return q
    return None


def paired_grids(lam: Tail, image: Tail) -> list:
    """Per exponent of two tails with the same exponents, from the top, lam's
    grid columns and image's numerator rows on their common grid; a tail's
    own grid serves when it already sits there."""
    pairs = []
    for (q, L1, D1, cols), (_, L2, D2, image_cols) in zip(lam.grids(), image.grids()):
        L, D = lcm(L1, L2), lcm(D1, D2)
        if (L1, D1) != (L, D):
            cols = tuple(zip(*common_grid(lam.terms[q], L, D)[2]))
        if (L2, D2) != (L, D):
            image_cols = tuple(zip(*common_grid(image.terms[q], L, D)[2]))
        pairs.append((cols, tuple(zip(*image_cols))))
    return pairs


def sends(w: WeylElement, pairs) -> bool:
    """Whether w sends lam to image, given their `paired_grids`: each row of
    w's covector matrix times each column of lam must equal the matching
    numerator of image, exponent by exponent from the top, stopping at the
    first that differs."""
    cov = w.covector_matrix()
    return all(sum(map(mul, row, col)) == x
               for cols, rows in pairs for row, nums in zip(cov, rows)
               for col, x in zip(cols, nums))


def is_equivariant(tail: Tail, w: WeylElement) -> bool:
    """Fixed-point condition for a torus twisted by w: w sends each term
    q = a/d in lowest terms to zeta_d^a times itself (`sends` the tail to
    its `expected_twist`). That twist does not depend on the torus's period.

    The verdict, False included, is kept on the tail per w.root_permutation,
    as its coroot depths are, so a tail is tested once per Weyl element.
    """
    if tail._equivariant is None:
        tail._equivariant = {}
    verdict = tail._equivariant.get(w.root_permutation)
    if verdict is None:
        twist = tail.expected_twist()  # refuses an oversized conductor before other work
        verdict = tail._equivariant[w.root_permutation] = sends(w, paired_grids(tail, twist))
    return verdict


# -- truncated Laurent series -------------------------------------------


class LaurentWindow:
    """Nonzero CycloNumber coefficients at Fraction exponents in [lo, hi),
    known to that precision; lo < hi and the exponents lie in (1/den)Z."""

    __slots__ = ("den", "lo", "hi", "terms")

    def __init__(self, lo: Fraction, hi: Fraction, terms: dict, den: int = 1):
        self.lo, self.hi, self.terms, self.den = lo, hi, terms, den

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
