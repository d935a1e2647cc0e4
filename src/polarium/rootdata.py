"""Split root data and Weyl groups: the combinatorial substrate.

Coordinates: the character lattice carries the fundamental-weight basis of
each simple factor (so a simple root is the corresponding Cartan column) and
the cocharacter lattice carries the dual simple-coroot basis, followed by
central-torus coordinates on which everything acts trivially. With these
bases the canonical pairing is the plain integer dot product.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import prod
from operator import mul

from .errors import (InternalInvariantViolation, InvalidArgumentError, ResourceLimitError,
                     UnsupportedFeatureError)
from .linalg import rref

IntVec = tuple[int, ...]

WEYL_ORDER_BOUND = 100_000

_SIMPLE_RANKS = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


def _cartan_matrix(letter: str, n: int) -> list[list[int]]:
    if letter == "G":
        if n != 2:
            raise UnsupportedFeatureError("G admits only rank 2")
        return [[2, -1], [-3, 2]]
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            c[i][i + 1] = -1
            c[i + 1][i] = -1
        if letter == "B" and n >= 2:
            c[n - 1][n - 2] = -2
        if letter == "C" and n >= 2:
            c[n - 2][n - 1] = -2
    elif letter == "D":
        for i in range(n - 2):
            c[i][i + 1] = -1
            c[i + 1][i] = -1
        c[n - 3][n - 1] = -1
        c[n - 1][n - 3] = -1
    else:
        raise UnsupportedFeatureError(f"unsupported Cartan type {letter}")
    return c


def _parse_type(spec) -> tuple[list[tuple[str, int]], int]:
    """Accepts "A2", "G2", or [["A",2],["torus",1],...]."""
    if isinstance(spec, str):
        letter, rank = spec[0].upper(), spec[1:]
        if not rank.isdigit():
            raise InvalidArgumentError(f"malformed type label {spec!r}")
        return [(letter, int(rank))], 0
    factors: list[tuple[str, int]] = []
    torus = 0
    for entry in spec:
        name, rank = entry[0], int(entry[1])
        if name.lower() == "torus":
            torus += rank
        else:
            factors.append((name.upper(), rank))
    return factors, torus


class RootDatum:
    """A split root datum with full root/coroot enumeration."""

    def __init__(self, type_spec):
        factors, torus_rank = _parse_type(type_spec)
        for letter, n in factors:
            if letter not in _SIMPLE_RANKS:
                raise UnsupportedFeatureError(f"unsupported Cartan type {letter}{n}")
            if n < _SIMPLE_RANKS[letter]:
                raise UnsupportedFeatureError(f"{letter}{n} below minimal rank")
        self.factors = tuple(factors)
        self.torus_rank = torus_rank
        self.ss_rank = sum(n for _, n in factors)
        self.dim = self.ss_rank + torus_rank
        if self.dim == 0:
            raise InvalidArgumentError("empty root datum")

        # Block-diagonal Cartan matrix, entries <alpha_i^vee, alpha_j>.
        r = self.ss_rank
        cartan = [[0] * r for _ in range(r)]
        offset = 0
        for letter, n in factors:
            block = _cartan_matrix(letter, n)
            for i in range(n):
                for j in range(n):
                    cartan[offset + i][offset + j] = block[i][j]
            offset += n
        self.cartan = tuple(tuple(row) for row in cartan)

        self.simple_roots = tuple(
            tuple(cartan[k][j] for k in range(r)) + (0,) * torus_rank for j in range(r)
        )
        self.simple_coroots = tuple(
            tuple(1 if k == i else 0 for k in range(self.dim)) for i in range(r)
        )
        self._close_roots()
        self._weyl_cache: list[WeylElement] | None = None
        self._reflection_cache: dict[IntVec, int] | None = None
        self._identity: WeylElement | None = None
        self._q_closed: dict[frozenset[int], bool] = {}

    # -- construction ----------------------------------------------------

    def _close_roots(self) -> None:
        pairs = {(self.simple_roots[i], self.simple_coroots[i]) for i in range(self.ss_rank)}
        frontier = list(pairs)
        while frontier:
            root, coroot = frontier.pop()
            for i in range(self.ss_rank):
                n_root = self._reflect_root(i, root)
                n_coroot = self._reflect_coroot(i, coroot)
                if (n_root, n_coroot) not in pairs:
                    pairs.add((n_root, n_coroot))
                    frontier.append((n_root, n_coroot))
        simple = list(zip(self.simple_roots, self.simple_coroots))
        rest = sorted(p for p in pairs if p not in set(simple))
        ordered = simple + rest
        self.roots = tuple(p[0] for p in ordered)
        self.coroots = tuple(p[1] for p in ordered)
        self.root_index = {root: k for k, root in enumerate(self.roots)}
        for root, coroot in ordered:
            if self.pairing(coroot, root) != 2:
                raise InternalInvariantViolation(
                    f"coroot normalization broken: <{coroot}, {root}> != 2")

    def _reflect_root(self, i: int, x: IntVec) -> IntVec:
        # s_i on the character side: x - <alpha_i^vee, x> alpha_i.
        c = x[i]
        alpha = self.simple_roots[i]
        return tuple(xv - c * av for xv, av in zip(x, alpha))

    def _reflect_coroot(self, i: int, y: IntVec) -> IntVec:
        c = self.pairing(y, self.simple_roots[i])
        cov = self.simple_coroots[i]
        return tuple(yv - c * cv for yv, cv in zip(y, cov))

    # -- basic queries -----------------------------------------------------

    @staticmethod
    def pairing(coweight, weight) -> int:
        return sum(a * b for a, b in zip(coweight, weight))

    def negative_of(self, root_idx: int) -> int:
        return self.root_index[tuple(-v for v in self.roots[root_idx])]

    def type_label(self) -> str:
        parts = [f"{letter}{n}" for letter, n in self.factors]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "T0"

    def coxeter_number(self) -> int:
        if len(self.factors) != 1 or self.torus_rank:
            raise InvalidArgumentError("Coxeter number defined for a single simple factor")
        return len(self.roots) // self.ss_rank

    def rho_coweight(self) -> tuple[Fraction, ...]:
        """The rational coweight pairing to 1 with every simple root."""
        r = self.ss_rank
        aug = [[Fraction(self.cartan[k][j]) for k in range(r)] + [Fraction(1)]
               for j in range(r)]
        reduced, _ = rref(aug)  # the Cartan matrix is invertible
        return tuple(row[r] for row in reduced) + (Fraction(0),) * self.torus_rank

    # -- Weyl group --------------------------------------------------------

    def degrees(self) -> list[int]:
        """Degrees of the basic invariants of W on the cocharacter space,
        factor by factor; each central-torus coordinate adds a degree 1."""
        out = []
        for letter, n in self.factors:
            if letter == "A":
                out += range(2, n + 2)
            elif letter in ("B", "C"):
                out += range(2, 2 * n + 1, 2)
            elif letter == "D":
                out += [*range(2, 2 * n - 1, 2), n]
            else:  # G2
                out += [2, 6]
        return out + [1] * self.torus_rank

    def weyl_order(self) -> int:
        """|W| as the product of the degrees."""
        return prod(self.degrees())

    def weyl_elements(self) -> list["WeylElement"]:
        """The full Weyl group, breadth first by left multiplication with the
        simple reflections: the identity first, then s_1, ..., s_r, so the
        order is fixed by the order of the simple roots.

        Every later element is born as s·M from its BFS parent M and the
        simple reflection s, and reads its inverse and root permutation from
        them on first use (see WeylElement).
        """
        if self._weyl_cache is not None:
            return self._weyl_cache
        if self.weyl_order() > WEYL_ORDER_BOUND:
            raise ResourceLimitError(f"Weyl group larger than bound {WEYL_ORDER_BOUND}")
        gens = []
        for root, coroot in zip(self.simple_roots, self.simple_coroots):
            s = reflection_matrix(root, coroot)
            gens.append(WeylElement(self, s, s))  # a reflection is its own inverse
        order = [self.identity_element(), *gens]
        seen = {w.matrix for w in order}
        frontier = deque(gens)
        while frontier:
            parent = frontier.popleft()
            for s in gens:
                mat = _mat_mul(s.matrix, parent.matrix)
                if mat not in seen:
                    seen.add(mat)
                    child = WeylElement(self, mat, factors=(s, parent))
                    order.append(child)
                    frontier.append(child)
        self._weyl_cache = order
        return order

    def identity_element(self) -> "WeylElement":
        if self._identity is None:
            identity = identity_matrix(self.dim)
            self._identity = WeylElement(self, identity, identity)
        return self._identity

    def reflection_matrices(self) -> dict[tuple[IntVec, ...], int]:
        """Map from reflection matrix to the index of a root it reflects."""
        if self._reflection_cache is None:
            out = {}
            for idx, (root, coroot) in enumerate(zip(self.roots, self.coroots)):
                out.setdefault(reflection_matrix(root, coroot), idx)
            self._reflection_cache = out
        return self._reflection_cache

    def __repr__(self):
        return f"RootDatum({self.type_label()}, {len(self.roots)} roots)"


def identity_matrix(n: int) -> tuple[IntVec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def reflection_matrix(root: IntVec, coroot: IntVec) -> tuple[IntVec, ...]:
    """s_alpha on the cocharacter side, y -> y - <y, alpha> alpha^vee."""
    n = len(root)
    return tuple(tuple((1 if k == j else 0) - root[j] * coroot[k] for j in range(n))
                 for k in range(n))


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_inv_int(a):
    """Inverse of an integer matrix with determinant +-1, by elimination; only
    a matrix from outside the program is inverted this way."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise InvalidArgumentError("matrix is not invertible")
    inv = [row[n:] for row in reduced]
    if any(v.denominator != 1 for row in inv for v in row):
        raise InvalidArgumentError("matrix inverse is not integral")
    return tuple(tuple(int(v) for v in row) for row in inv)


class WeylElement:
    """A Weyl group element as an integer matrix on the cocharacter lattice.

    An element is born either with its inverse matrix or as the product a·b
    of two elements. A product derives its inverse b^-1·a^-1 and its root
    permutation perm(a)∘perm(b) from its factors on first use, so no element
    of W, and no product of elements, is inverted by elimination.
    """

    __slots__ = ("rd", "matrix", "_inv", "_factors", "_cov", "_perm", "_order")

    def __init__(self, rd: RootDatum, matrix, inverse=None, factors=None):
        if inverse is None and factors is None:
            raise TypeError("a WeylElement needs its inverse matrix or its two factors")
        self.rd = rd
        self.matrix = tuple(tuple(row) for row in matrix)
        self._inv = inverse
        self._factors = factors
        self._cov = None
        self._perm = None
        self._order = None

    def inverse_matrix(self):
        if self._inv is None:
            a, b = self._factors
            self._inv = _mat_mul(b.inverse_matrix(), a.inverse_matrix())
        return self._inv

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rd, self.inverse_matrix(), self.matrix)

    def covector_matrix(self):
        """Action on the character side: transpose of the inverse."""
        if self._cov is None:
            inv = self.inverse_matrix()
            n = len(inv)
            self._cov = tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))
        return self._cov

    def apply_coweight(self, y):
        return tuple(sum(r * v for r, v in zip(row, y)) for row in self.matrix)

    def apply_weight(self, x):
        return tuple(sum(r * v for r, v in zip(row, x)) for row in self.covector_matrix())

    def root_permutation(self) -> tuple[int, ...]:
        """perm[i] is the index of the root w·alpha_i."""
        if self._perm is None:
            if self._factors is not None:
                pa, pb = (f.root_permutation() for f in self._factors)
                self._perm = tuple(pa[i] for i in pb)
            else:
                perm = []
                for root in self.rd.roots:
                    image = self.apply_weight(root)
                    if image not in self.rd.root_index:
                        raise InvalidArgumentError("matrix does not permute the roots")
                    perm.append(self.rd.root_index[image])
                self._perm = tuple(perm)
        return self._perm

    def order(self) -> int:
        if self._order is None:
            identity = identity_matrix(len(self.matrix))
            power, k = self.matrix, 1
            while power != identity:
                power = _mat_mul(self.matrix, power)
                k += 1
            self._order = k
        return self._order

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rd, _mat_mul(self.matrix, other.matrix), factors=(self, other))

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(len(self.matrix))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"WeylElement{self.matrix}"


def build(type_spec) -> RootDatum:
    """Construct the split root datum for a type label."""
    return RootDatum(type_spec)


def q_closure(rd: RootDatum, subset) -> frozenset[int]:
    """Roots lying in the rational span of the given root subset."""
    indices = sorted(set(subset))
    if not indices:
        return frozenset()
    reduced, pivots = rref([[Fraction(v) for v in rd.roots[idx]] for idx in indices])
    # A vector lies in the row space of a reduced echelon basis exactly when
    # it equals the combination of basis rows weighted by its pivot entries.
    return frozenset(
        k for k, root in enumerate(rd.roots)
        if all(v == sum(root[p] * row[c] for p, row in zip(pivots, reduced))
               for c, v in enumerate(root))
    )


def is_q_closed(rd: RootDatum, subset) -> bool:
    """Whether the subset equals its rational closure; memoised on the datum."""
    key = frozenset(subset)
    closed = rd._q_closed.get(key)
    if closed is None:
        closed = rd._q_closed[key] = q_closure(rd, key) == key
    return closed


def stable_under(rd: RootDatum, w: WeylElement, subset) -> bool:
    perm = w.root_permutation()
    s = set(subset)
    return all(perm[i] in s for i in s)


# -- JSON ---------------------------------------------------------------

def rootdatum_to_json(rd: RootDatum) -> dict:
    spec = [[letter, n] for letter, n in rd.factors]
    if rd.torus_rank:
        spec.append(["torus", rd.torus_rank])
    if len(spec) == 1 and spec[0][0] != "torus":
        return {"type": f"{spec[0][0]}{spec[0][1]}"}
    return {"type": spec}
