"""Split root data and Weyl groups: the combinatorial substrate.

Coordinates: the character lattice carries the fundamental-weight basis of
each simple factor (so a simple root is the corresponding Cartan column) and
the cocharacter lattice carries the dual simple-coroot basis, followed by
central-torus coordinates on which everything acts trivially. With these
bases the canonical pairing is the plain integer dot product.

The simple coroot alpha_i^vee is then the unit vector e_i, so the simple
reflection s_i is 1 - e_i·alpha_i^T on the cocharacter side: s_i·M changes
row i of M alone, and M·s_i reflects each row of M on the character side.
W, its inverses and its root permutations are all built from these two
updates. A matrix supplied from outside is first walked down to the identity
one simple reflection at a time, which proves it lies in W, and is then
rebuilt from the identity by the same updates over that word. The
enumeration also keeps, for each simple reflection s_i, the index of
s_i·w for every element w, and `RootDatum.weyl_table` adds the index of
each element's inverse: conjugating by s_i is then four index lookups,
s_i·x·s_i = inv[L_i[inv[L_i[x]]]], with no matrix touched.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul

from .errors import (InternalInvariantViolation, InvalidArgumentError, ResourceLimitError,
                     UnsupportedFeatureError)

IntVec = tuple[int, ...]

WEYL_ORDER_BOUND = 100_000
DIMENSION_BOUND = 16

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
        if self.dim > DIMENSION_BOUND:
            raise ResourceLimitError(
                f"root datum of dimension {self.dim} larger than bound {DIMENSION_BOUND}")

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
        self._weyl_left: list[list[int]] | None = None
        self._weyl_index: dict | None = None
        self._weyl_table: tuple | None = None
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
        if not c:
            return x
        return tuple(xv - c * av for xv, av in zip(x, self.simple_roots[i]))

    def _reflect_coroot(self, i: int, y: IntVec) -> IntVec:
        c = self.pairing(y, self.simple_roots[i])
        cov = self.simple_coroots[i]
        return tuple(yv - c * cv for yv, cv in zip(y, cov))

    # -- basic queries -----------------------------------------------------

    @staticmethod
    def pairing(coweight, weight) -> int:
        return sum(map(mul, coweight, weight))

    def negative_of(self, root_idx: int) -> int:
        return self.root_index[tuple(-v for v in self.roots[root_idx])]

    def type_label(self) -> str:
        parts = [f"{letter}{n}" for letter, n in self.factors]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "T0"

    def rho_coweight(self) -> tuple[Fraction, ...]:
        """Half the sum of the positive coroots: the coweight pairing to 1
        with every simple root, zero on the central torus."""
        total = [0] * self.dim
        for coroot in self.coroots:
            if min(coroot) >= 0:
                total = [a + b for a, b in zip(total, coroot)]
        return tuple(Fraction(v, 2) for v in total)

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

        Every later element s_i·M is born from its BFS parent M complete
        (`_born_left`). The index of s_i·M is kept for every parent M and
        every i, found or new.
        """
        if self._weyl_cache is not None:
            return self._weyl_cache
        if self.weyl_order() > WEYL_ORDER_BOUND:
            raise ResourceLimitError(f"Weyl group larger than bound {WEYL_ORDER_BOUND}")
        order = [self.identity_element()]
        index = {order[0].matrix: 0}
        left: list[list[int]] = [[] for _ in range(self.ss_rank)]
        for parent in order:  # the list grows while it is read
            for i in range(self.ss_rank):
                mat = _reflect_left(self, i, parent.matrix)
                k = index.get(mat)
                if k is None:
                    k = index[mat] = len(order)
                    order.append(self._born_left(i, parent, mat))
                left[i].append(k)
        self._weyl_cache, self._weyl_left, self._weyl_index = order, left, index
        return order

    @cached_property
    def _simple_perms(self) -> list[tuple[int, ...]]:
        """perm(s_i) for each simple reflection, read off the roots once."""
        return [tuple(self.root_index[self._reflect_root(i, root)] for root in self.roots)
                for i in range(self.ss_rank)]

    def _born_left(self, i: int, parent: "WeylElement", matrix) -> "WeylElement":
        """s_i·M from M and its matrix s_i·M (`_reflect_left`): the inverse
        M^-1·s_i is M^-1 with each row reflected by s_i on the character
        side, and the root permutation is perm(s_i)∘perm(M)."""
        perm = self._simple_perms[i]
        return WeylElement(self, matrix,
                           tuple(self._reflect_root(i, row) for row in parent.inverse_matrix),
                           tuple(perm[p] for p in parent.root_permutation))

    def weyl_table(self) -> tuple[list[list[int]], list[int]]:
        """Index tables over `weyl_elements()`: left[i][k] is the index of
        s_i·W[k], inverse[k] the index of W[k]^-1, read off the enumeration's
        own matrix index."""
        if self._weyl_table is None:
            elements = self._weyl_cache if self._weyl_cache is not None else self.weyl_elements()
            self._weyl_table = (self._weyl_left,
                                [self._weyl_index[w.inverse_matrix] for w in elements])
        return self._weyl_table

    def identity_element(self) -> "WeylElement":
        if self._identity is None:
            identity = identity_matrix(self.dim)
            self._identity = WeylElement(self, identity, identity, tuple(range(len(self.roots))))
        return self._identity

    def __repr__(self):
        return f"RootDatum({self.type_label()}, {len(self.roots)} roots)"


def identity_matrix(n: int) -> tuple[IntVec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _reflect_left(rd: RootDatum, i: int, mat):
    """s_i·M on the cocharacter side. The simple coroot is the unit vector
    e_i, so s_i = 1 - e_i·alpha_i^T changes row i of M alone, to
    M[i] - alpha_i^T·M. W is enumerated through this function."""
    alpha = rd.simple_roots[i]
    row = tuple(v - sum(map(mul, alpha, col)) for v, col in zip(mat[i], zip(*mat)))
    return (*mat[:i], row, *mat[i + 1:])


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


class WeylElement:
    """A Weyl group element as an integer matrix on the cocharacter lattice,
    born with its inverse matrix and its root permutation.

    Every element is born from the identity by simple-reflection updates,
    in `RootDatum.weyl_elements` or, for a matrix from outside the program,
    in `from_matrix`; a product or an inverse carries all three over from
    its factors. No matrix is inverted by elimination, and only the simple
    reflections have their permutations read off the roots.
    """

    __slots__ = ("rd", "matrix", "inverse_matrix", "root_permutation", "_cov")

    def __init__(self, rd: RootDatum, matrix, inverse_matrix, root_permutation):
        self.rd = rd
        self.matrix = matrix
        self.inverse_matrix = inverse_matrix
        self.root_permutation = root_permutation  # [i] is the index of the root w·alpha_i
        self._cov = None

    @staticmethod
    def from_matrix(rd: RootDatum, matrix) -> "WeylElement":
        """An integer matrix from outside the program, refused unless it is
        in W, proved by descent (Humphreys, *Reflection Groups and Coxeter
        Groups*, §1.6–1.7).

        Row alpha·M is w^-1(alpha), so images[k] indexes w^-1(alpha_k) and
        must exist for every root. While some simple root has w^-1(alpha_i)
        negative, s_i·w is one reflection shorter: M becomes s_i·M, whose
        images are those of M at perm(s_i), and i is recorded. After at
        most |positive roots| steps no simple root is sent negative, and w
        is in W exactly when M is then the identity. The element is born
        from the identity over the recorded word in reverse, as the
        enumeration of W would build it.
        """
        matrix = tuple(map(tuple, matrix))
        cols = tuple(zip(*matrix))
        images = [rd.root_index.get(tuple(rd.pairing(root, col) for col in cols))
                  for root in rd.roots]
        if None in images:
            raise InvalidArgumentError("matrix does not permute the roots")
        negative = [min(coroot) < 0 for coroot in rd.coroots]
        word = []
        while True:
            i = next((i for i in range(rd.ss_rank) if negative[images[i]]), None)
            if i is None:
                break
            images = [images[k] for k in rd._simple_perms[i]]
            matrix = _reflect_left(rd, i, matrix)
            word.append(i)
        if matrix != identity_matrix(rd.dim):
            raise InvalidArgumentError("matrix is not in the Weyl group")
        w = rd.identity_element()
        for i in reversed(word):
            w = rd._born_left(i, w, _reflect_left(rd, i, w.matrix))
        return w

    def inverse(self) -> "WeylElement":
        perm = self.root_permutation
        # sorting the indices by their images lists the preimage of each index
        return WeylElement(self.rd, self.inverse_matrix, self.matrix,
                           tuple(sorted(range(len(perm)), key=perm.__getitem__)))

    def covector_matrix(self):
        """Action on the character side: transpose of the inverse."""
        if self._cov is None:
            self._cov = tuple(zip(*self.inverse_matrix))
        return self._cov

    def order(self) -> int:
        identity = identity_matrix(len(self.matrix))
        power, k = self.matrix, 1
        while power != identity:
            power = _mat_mul(self.matrix, power)
            k += 1
        return k

    def compose(self, other: "WeylElement") -> "WeylElement":
        perm = self.root_permutation
        return WeylElement(self.rd, _mat_mul(self.matrix, other.matrix),
                           _mat_mul(other.inverse_matrix, self.inverse_matrix),
                           tuple(perm[i] for i in other.root_permutation))

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
    """Roots lying in the rational span of the given root subset.

    The span is cut out by an integer basis of its annihilator in the
    cocharacter lattice, narrowed by one fraction-free step per root of the
    subset that leaves the current span; a root lies in the span exactly
    when it pairs to 0 with every coweight of that basis.
    """
    annihilator = identity_matrix(rd.dim)
    for idx in sorted(set(subset)):
        if not annihilator:
            break  # the span is already everything
        root = rd.roots[idx]
        values = [rd.pairing(y, root) for y in annihilator]
        pivot = next((k for k, v in enumerate(values) if v), None)
        if pivot is None:
            continue
        y0, v0 = annihilator[pivot], values[pivot]
        annihilator = tuple(_primitive([v0 * a - v * b for a, b in zip(y, y0)])
                            for k, (y, v) in enumerate(zip(annihilator, values)) if k != pivot)
    return frozenset(k for k, root in enumerate(rd.roots)
                     if not any(rd.pairing(y, root) for y in annihilator))


def _primitive(v: list[int]) -> IntVec:
    g = gcd(*v)
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def is_q_closed(rd: RootDatum, subset) -> bool:
    """Whether the subset equals its rational closure; memoised on the datum."""
    key = frozenset(subset)
    closed = rd._q_closed.get(key)
    if closed is None:
        closed = rd._q_closed[key] = q_closure(rd, key) == key
    return closed


def stable_under(rd: RootDatum, w: WeylElement, subset) -> bool:
    perm = w.root_permutation
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
