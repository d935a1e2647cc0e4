"""Dense exact linear algebra over Q and Q(zeta_L).

Everything works on lists of row vectors. `rref` is the package's one
Gaussian elimination, with two paths chosen by the entries:

- A matrix whose entries are all `int`s or `Fraction`s is eliminated on
  Python ints.
  Each row is multiplied by the lcm of its denominators and divided by its
  content, the gcd of its entries. An update cross-multiplies two rows by
  the cofactors of the gcd of their entries in the pivot column and divides
  the result by its content again: fraction-free elimination as in Bareiss
  (Math. Comp. 22, 1968), with the content for the exact divisor in place of
  the previous pivot. A returned entry is `v // p` where the pivot p
  divides it and `Fraction(v, p)` otherwise. `rank` and `independent` need
  only the pivot columns, read off a forward integer pass.
- Any other matrix (some entry is a `CycloNumber`) takes the field path:
  an `int` entry enters as its `Fraction`, zero tests use truthiness, a
  pivot's reciprocal is `1 / p`, and every result keeps the conductor the
  field arithmetic gives it. It needs only the entries' own operators, so
  this module imports nothing from `cyclo`, and `cyclo` eliminates with
  `rref` where a retraction needs it.

A rational matrix has one reduced row echelon form and one set of pivot
columns, so both paths return the same values, never a float, and an `int`
entry gives what its `Fraction` gives. The rational path returns an `int`
exactly where a value is integral, the field path keeps `Fraction`s, and a
zero row or a kernel vector's free coordinate is the int 0 or 1. Sizes run
from a few entries (a cyclotomic retraction) to the moveability blocks of
a split A16 lattice, 272 rows.

Span membership is split in two: `rref` reduces a spanning set once, and
`in_span` reduces each target against its rows and pivots by one
subtraction per pivot row. A unit row settles its own coordinate, so the
lattice layer reduces only the rows of a piece that are not units, on the
coordinates the units leave; with no such rows, `in_span` asks that the
target vanish there. `independent` picks, in one elimination, the vectors outside the span
of the vectors before them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple  # of ints, Fractions and CycloNumbers


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Entries are ints, Fractions or CycloNumbers; an int reads as its
    Fraction. On a rational matrix an integral result is an int.
    """
    if not _is_rational(rows):
        return _rref_field(rows)
    ints = [_integer_row(row) for row in rows]
    pivots = _echelon(ints, reduce=True)
    out = []
    for row, col in zip(ints, pivots):
        p = row[col]
        out.append([v // p if not v % p else Fraction(v, p) for v in row])
    out += [[0] * len(row) for row in ints[len(pivots):]]
    return out, pivots


def _rref_field(rows: list[list]) -> tuple[list[list], list[int]]:
    # an int enters as its Fraction, so it never divides to a float
    rows = [[Fraction(v) if type(v) is int else v for v in r] for r in rows]
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


def _is_rational(rows) -> bool:
    return all(type(v) is Fraction or type(v) is int for row in rows for v in row)


def primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _integer_row(row) -> list[int]:
    """A row of ints and Fractions as a primitive integer row on the same line."""
    den = lcm(*(v.denominator for v in row))
    if den == 1:
        return primitive([v.numerator for v in row])
    return primitive([v.numerator * (den // v.denominator) for v in row])


def _echelon(rows: list[list[int]], reduce: bool) -> list[int]:
    """Eliminate integer rows in place; returns the pivot columns.

    Row r ends with the r-th pivot, and the rows past the last pivot end at
    zero. Each pivot column is cleared below its pivot, and also above it
    when `reduce` is set; every updated row is made primitive again.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        a = prow[col]
        for i in range(0 if reduce else r + 1, nrows):
            b = rows[i][col]
            if b and i != r:
                g = gcd(a, b)
                ca, cb = a // g, b // g
                rows[i] = primitive([ca * v - cb * w for v, w in zip(rows[i], prow)])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def _pivots(rows: list[list]) -> list[int]:
    """Pivot columns of the reduced row echelon form."""
    if _is_rational(rows):
        return _echelon([_integer_row(row) for row in rows], reduce=False)
    return rref(rows)[1]


def rank(rows: list[list]) -> int:
    return len(_pivots(rows))


def nullspace(rows: list[list], ncols: int) -> list[Vector]:
    """Deterministic basis of the right kernel of the matrix.

    Free coordinates are the ints 0 and 1; pivot coordinates come from the
    reduced matrix, at its entries' conductors.
    """
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][fc]
        basis.append(tuple(vec))
    return basis


def in_span(rows: list[Vector], target: Vector, pivots: list[int]) -> bool:
    """Whether target lies in the span of rows already in reduced echelon form.

    `rows` and `pivots` are what `rref` returns: row i has a 1 in column
    pivots[i], and that column is zero in every other row. The target is
    reduced against them, one subtraction per pivot row, and lies in the
    span exactly when nothing is left. Nothing is eliminated here.
    """
    rest = list(target)
    for row, pivot in zip(rows, pivots):
        f = rest[pivot]
        if f:
            rest = [t - f * v if v else t for t, v in zip(rest, row)]
    return not any(rest)


def independent(vectors: list[Vector]) -> list[int]:
    """Indices of the vectors outside the span of the vectors before them.

    These are the pivot columns of the matrix with the vectors as columns:
    the same choice as keeping each vector greedily, in order, when it is not
    in the span of those kept so far.
    """
    return _pivots([list(column) for column in zip(*vectors)])
