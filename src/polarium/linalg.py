"""Small dense exact linear algebra over Q and Q(zeta_L).

Everything works on lists of row vectors. `rref` is the package's one
Gaussian elimination; it is generic over the field: entries may be
`Fraction`s or `CycloNumber`s, zero tests use truthiness and a pivot's
reciprocal is `1 / p`. Sizes stay in the tens, so plain elimination is
plenty. The helpers built on it follow the same convention: a rational
value they create (a kernel vector's free coordinate) is a `Fraction`, the
conductor-1 form of the field.

Span membership is split in two: `rref` reduces a spanning set once, and
`in_span` reduces each target against those rows by one subtraction per
row. `independent` picks, in one `rref`, the vectors outside the span of
the vectors before them.

`dot_int`, the pairing of an integer vector with a covector, accumulates
integers in one pass: every entry with a nonzero weight is read at the lcm
of those entries' conductors, its numerators are scaled to the lcm of their
denominators and summed as ints, and one `CycloNumber` is built at the end
with one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclo import CycloNumber, _normalized, euler_phi

Vector = tuple  # of Fractions and CycloNumbers

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dot_int(ints, u: tuple[CycloNumber, ...]) -> CycloNumber:
    """Pair an integer vector with a CycloNumber covector.

    The result lives at the lcm of the conductors of the entries with a
    nonzero weight (1 when there are none), whatever their values.
    """
    terms = [(k, a) for k, a in zip(ints, u) if k]
    if not terms:
        return CycloNumber.zero()
    L = lcm(*(a.conductor for _, a in terms))
    den = lcm(*(a.den for _, a in terms))
    acc = [0] * euler_phi(L)
    for k, a in terms:
        nums = a.nums if a.conductor == L else a.lift(L).nums  # a lift keeps the denominator
        f = k * (den // a.den)
        acc = [s + f * c for s, c in zip(acc, nums)]
    return _normalized(L, acc, den)


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Entries must be field elements: plain ints would divide to floats.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows: list[list]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list], ncols: int) -> list[Vector]:
    """Deterministic basis of the right kernel of the matrix.

    Free coordinates are `Fraction` 0 and 1; pivot coordinates come from the
    reduced matrix, at its entries' conductors.
    """
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][fc]
        basis.append(tuple(vec))
    return basis


def in_span(rows: list[Vector], target: Vector) -> bool:
    """Whether target lies in the span of rows already in reduced echelon form.

    `rows` are the rows of an `rref`: each nonzero row's first nonzero entry
    is a 1 whose column is zero in every other row. The target is reduced
    against them, one subtraction per row, and lies in the span exactly when
    nothing is left. Nothing is eliminated here.
    """
    rest = list(target)
    for row in rows:
        pivot = next((i for i, v in enumerate(row) if v), None)
        if pivot is not None and rest[pivot]:
            f = rest[pivot]
            rest = [t - f * v if v else t for t, v in zip(rest, row)]
    return not any(rest)


def independent(vectors: list[Vector]) -> list[int]:
    """Indices of the vectors outside the span of the vectors before them.

    These are the pivot columns of one `rref` of the matrix with the vectors
    as columns: the same choice as keeping each vector greedily, in order,
    when it is not in the span of those kept so far.
    """
    return rref([list(column) for column in zip(*vectors)])[1]
