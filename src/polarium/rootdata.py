"""Split root data and Weyl groups: the combinatorial substrate.

Coordinates: the character lattice carries the fundamental-weight basis of
each simple factor (so a simple root is the corresponding Cartan column) and
the cocharacter lattice carries the dual simple-coroot basis, followed by
central-torus coordinates on which everything acts trivially. With these
bases the canonical pairing is the plain integer dot product.

The simple coroot alpha_i^vee is then the unit vector e_i, which w sends to
the coroot of w·alpha_i. A Weyl element is stored as its permutation of the
roots alone, as W acts faithfully on them: column k of its matrix is the
coroot of w·alpha_k, row k of its action on characters is the coroot of
w^-1·alpha_k, and each central coordinate is fixed. W is enumerated by
composing simple reflections' permutations from the identity; a matrix from
outside is walked down by simple reflections on its root images and rebuilt
by the same steps. The enumeration keeps the index of s_i·w for every w, and
`RootDatum.weyl_table` the index of each inverse, so conjugating by s_i is
four index lookups: s_i·x·s_i = inv[L_i[inv[L_i[x]]]].

The roots themselves are built on plain ints: the positive roots are closed
from the simple ones under the simple reflections, where s_i moves only the
positive roots beta != alpha_i with beta[i] = <alpha_i^vee, beta> != 0 and
changes only coordinate i of a coroot; the negative roots are their
negations. The datum keeps the index set of the positive roots as
`RootDatum.positive`; nothing works positivity out again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import lcm, prod
from operator import add, mul
from threading import Lock

from .errors import (InternalInvariantViolation, InvalidArgumentError, ResourceLimitError,
                     UnsupportedFeatureError)
from .linalg import primitive

IntVec = tuple[int, ...]
TypeKey = tuple[tuple[tuple[str, int], ...], int]  # (factors, torus rank)

WEYL_ORDER_BOUND = 100_000
DIMENSION_BOUND = 16

_SIMPLE_RANKS = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


def _cartan_matrix(letter: str, n: int) -> list[list[int]]:
    if letter == "G":
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
    else:  # D
        for i in range(n - 2):
            c[i][i + 1] = -1
            c[i + 1][i] = -1
        c[n - 3][n - 1] = -1
        c[n - 1][n - 3] = -1
    return c


def _parse_type(spec) -> TypeKey:
    """The canonical type (factors, torus rank) of "A2", "g2" or
    [["A",2],["torus",1],...], the torus ranks summed wherever they stand;
    refused, before anything is built, when a factor is unsupported (G
    other than G2 included) or the dimension is 0 or past DIMENSION_BOUND."""
    if isinstance(spec, str):
        letter, rank = spec[0].upper(), spec[1:]
        if not rank.isdigit():
            raise InvalidArgumentError(f"malformed type label {spec!r}")
        factors, torus = [(letter, int(rank))], 0
    else:
        factors = []
        torus = 0
        for entry in spec:
            name, rank = entry[0], int(entry[1])
            if name.lower() == "torus":
                torus += rank
            else:
                factors.append((name.upper(), rank))
    for letter, n in factors:
        if letter not in _SIMPLE_RANKS:
            raise UnsupportedFeatureError(f"unsupported Cartan type {letter}{n}")
        if n < _SIMPLE_RANKS[letter]:
            raise UnsupportedFeatureError(f"{letter}{n} below minimal rank")
    dim = sum(n for _, n in factors) + torus
    if dim == 0:
        raise InvalidArgumentError("empty root datum")
    if dim > DIMENSION_BOUND:
        raise ResourceLimitError(
            f"root datum of dimension {dim} larger than bound {DIMENSION_BOUND}")
    if any(letter == "G" and n != 2 for letter, n in factors):
        raise UnsupportedFeatureError("G admits only rank 2")
    return tuple(factors), torus


def _degrees(key: TypeKey) -> list[int]:
    """Degrees of the basic invariants of W on the cocharacter space,
    factor by factor; each central-torus coordinate adds a degree 1."""
    factors, torus_rank = key
    out = []
    for letter, n in factors:
        if letter == "A":
            out += range(2, n + 2)
        elif letter in ("B", "C"):
            out += range(2, 2 * n + 1, 2)
        elif letter == "D":
            out += [*range(2, 2 * n - 1, 2), n]
        else:  # G2
            out += [2, 6]
    return out + [1] * torus_rank


class RootDatum:
    """A split root datum with full root/coroot enumeration; `build` makes
    and shares them, one per canonical type."""

    def __init__(self, factors: tuple[tuple[str, int], ...], torus_rank: int):
        self.factors = factors
        self.torus_rank = torus_rank
        self.ss_rank = sum(n for _, n in factors)
        self.dim = self.ss_rank + torus_rank

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
        self._identity: WeylElement | None = None
        self._q_closed: dict[frozenset[int], bool] = {}

    # -- construction ----------------------------------------------------

    def _close_roots(self) -> None:
        """The positive roots, closed from the simple ones under the simple
        reflections, each with its coroot; the negative roots by negation.

        s_i permutes the positive roots other than alpha_i (Humphreys,
        *Introduction to Lie Algebras and Representation Theory*, §10.2
        Lemma B), so s_i is skipped at beta = alpha_i and wherever
        <alpha_i^vee, beta> = beta[i] is 0, where it fixes beta and its
        coroot. The coroot of s_i·beta is beta^vee - <beta^vee, alpha_i> e_i,
        which differs from beta^vee in coordinate i alone. The order is the
        simple roots, then every other root sorted; `positive` holds the
        indices of the positive roots.
        """
        simple = self.simple_roots
        positive = dict(zip(simple, self.simple_coroots))
        frontier = list(positive.items())
        while frontier:
            root, coroot = frontier.pop()
            for i, alpha in enumerate(simple):
                c = root[i]
                if not c or root == alpha:
                    continue
                n_root = tuple([x - c * a for x, a in zip(root, alpha)])
                if n_root not in positive:
                    n_coroot = list(coroot)
                    n_coroot[i] -= sum(map(mul, coroot, alpha))
                    positive[n_root] = n_coroot = tuple(n_coroot)
                    frontier.append((n_root, n_coroot))
        pairs = list(positive.items())
        rest = pairs[self.ss_rank:] + [(tuple([-v for v in root]), tuple([-v for v in coroot]))
                                       for root, coroot in pairs]
        ordered = pairs[:self.ss_rank] + sorted(rest)
        self.roots = tuple(p[0] for p in ordered)
        self.coroots = tuple(p[1] for p in ordered)
        self.root_index = {root: k for k, root in enumerate(self.roots)}
        self.positive = frozenset(map(self.root_index.__getitem__, positive))
        self._negative = tuple(self.root_index[tuple([-v for v in root])] for root in self.roots)
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

    # -- basic queries -----------------------------------------------------

    @staticmethod
    def pairing(coweight, weight) -> int:
        return sum(map(mul, coweight, weight))

    def negative_of(self, root_idx: int) -> int:
        return self._negative[root_idx]

    def root_sum(self, a: int, b: int) -> int | None:
        """Index of the root alpha_a + alpha_b, None when the sum is not a root."""
        return self.root_index.get(tuple(map(add, self.roots[a], self.roots[b])))

    def type_label(self) -> str:
        parts = [f"{letter}{n}" for letter, n in self.factors]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "T0"

    def rho_coweight(self) -> tuple[Fraction, ...]:
        """Half the sum of the positive coroots: the coweight pairing to 1
        with every simple root, zero on the central torus."""
        total = [0] * self.dim
        for k in self.positive:
            total = [a + b for a, b in zip(total, self.coroots[k])]
        return tuple(Fraction(v, 2) for v in total)

    # -- Weyl group --------------------------------------------------------

    def degrees(self) -> list[int]:
        """The degrees of W, factor by factor (`_degrees`)."""
        return _degrees((self.factors, self.torus_rank))

    def weyl_order(self) -> int:
        """|W| as the product of the degrees."""
        return prod(self.degrees())

    def weyl_elements(self) -> list["WeylElement"]:
        """The full Weyl group, breadth first by left multiplication with the
        simple reflections: the identity first, then s_1, ..., s_r, so the
        order is fixed by the order of the simple roots.

        An element is indexed by its images of the simple roots, which
        determine it: the candidate s_i·w is looked up by the images
        perm(s_i)[perm(w)[k]], k < rank, and only a new element is born from
        its BFS parent w (`_born_left`) with its full permutation. The index
        of s_i·w is kept for every parent w and every i, found or new.
        """
        if self.weyl_order() > WEYL_ORDER_BOUND:
            raise ResourceLimitError(f"Weyl group larger than bound {WEYL_ORDER_BOUND}")
        if self._weyl_cache is not None:
            return self._weyl_cache
        r = self.ss_rank
        order = [self.identity_element()]
        index = {order[0].root_permutation[:r]: 0}
        left: list[list[int]] = [[] for _ in range(r)]
        for parent in order:  # the list grows while it is read
            simple_images = parent.root_permutation[:r]
            for s, row in zip(self._simple_perms, left):
                key = tuple(map(s.__getitem__, simple_images))
                k = index.get(key)
                if k is None:
                    k = index[key] = len(order)
                    order.append(WeylElement(self, _born_left(s, parent.root_permutation)))
                row.append(k)
        self._weyl_cache, self._weyl_left, self._weyl_index = order, left, index
        return order

    @cached_property
    def _simple_perms(self) -> list[IntVec]:
        """perm(s_i) for each simple reflection, read off the roots once."""
        return [tuple(self.root_index[self._reflect_root(i, root)] for root in self.roots)
                for i in range(self.ss_rank)]

    def weyl_table(self) -> tuple[list[list[int]], list[int]]:
        """Index tables over `weyl_elements()`: left[i][k] is the index of
        s_i·W[k], inverse[k] the index of W[k]^-1, read off the enumeration's
        own index of simple-root images."""
        elements = self.weyl_elements()
        r = self.ss_rank
        # the simple-root images of W[k]^-1 are the preimages of the simple roots
        inverse = [self._weyl_index[tuple(map(w.root_permutation.index, range(r)))]
                   for w in elements]
        return self._weyl_left, inverse

    def identity_element(self) -> "WeylElement":
        if self._identity is None:
            self._identity = WeylElement(self, tuple(range(len(self.roots))))
        return self._identity

    def __repr__(self):
        return f"RootDatum({self.type_label()}, {len(self.roots)} roots)"


@cache
def identity_matrix(n: int) -> tuple[IntVec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _born_left(s: IntVec, perm: IntVec) -> IntVec:
    """perm(s_i·w) = perm(s_i)∘perm(w); every Weyl element after the
    identity is born here."""
    return tuple(map(s.__getitem__, perm))


def _inverse(perm: IntVec) -> IntVec:
    # sorting the indices by their images lists the preimage of each index
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _coroot_rows(rd: RootDatum, perm: IntVec) -> tuple[IntVec, ...]:
    """Row k < ss_rank is the coroot at perm[k]; a central row is its unit row."""
    r = rd.ss_rank
    return tuple(map(rd.coroots.__getitem__, perm[:r])) + identity_matrix(rd.dim)[r:]


class WeylElement:
    """A Weyl group element stored as its root permutation alone, which
    determines it (Humphreys, *Reflection Groups and Coxeter Groups*,
    §1.6–1.8); its matrices are read off the coroots on demand. Every element
    is born from the identity by `_born_left`, in `RootDatum.weyl_elements`
    or, for a matrix from outside the program, in `from_matrix`.
    """

    __slots__ = ("rd", "root_permutation", "_cov")

    def __init__(self, rd: RootDatum, root_permutation: IntVec):
        self.rd = rd
        self.root_permutation = root_permutation  # [i] is the index of the root w·alpha_i
        self._cov = None

    @staticmethod
    def from_matrix(rd: RootDatum, matrix) -> "WeylElement":
        """An integer matrix from outside the program, refused unless it is
        in W, proved by descent (Humphreys, *Reflection Groups and Coxeter
        Groups*, §1.6–1.7).

        Row alpha·M is w^-1(alpha), so images[k] indexes w^-1(alpha_k) and
        must exist for every root. While some simple root has w^-1(alpha_i)
        negative, s_i·w sends one positive root fewer to a negative one: its
        images are those of M at perm(s_i), and i is recorded. After at most
        |positive roots| steps no simple root is sent negative. The element
        over the recorded word is born from the identity, as the enumeration
        of W would build it, and M is in W exactly when it is that element's
        matrix (a diagram automorphism or a central sign flip is not).
        """
        matrix = tuple(map(tuple, matrix))
        cols = tuple(zip(*matrix))
        images = [rd.root_index.get(tuple(rd.pairing(root, col) for col in cols))
                  for root in rd.roots]
        if None in images:
            raise InvalidArgumentError("matrix does not permute the roots")
        word = []
        while True:
            i = next((i for i in range(rd.ss_rank) if images[i] not in rd.positive), None)
            if i is None:
                break
            images = [images[k] for k in rd._simple_perms[i]]
            word.append(i)
        perm = rd.identity_element().root_permutation
        for i in reversed(word):
            perm = _born_left(rd._simple_perms[i], perm)
        w = WeylElement(rd, perm)
        if w.matrix != matrix:
            raise InvalidArgumentError("matrix is not in the Weyl group")
        return w

    @property
    def matrix(self) -> tuple[IntVec, ...]:
        """Action on the cocharacter side, built on each call."""
        return tuple(zip(*_coroot_rows(self.rd, self.root_permutation)))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rd, _inverse(self.root_permutation))

    def covector_matrix(self) -> tuple[IntVec, ...]:
        """Action on the character side: transpose of the inverse."""
        if self._cov is None:
            self._cov = _coroot_rows(self.rd, _inverse(self.root_permutation))
        return self._cov

    def order(self) -> int:
        """The lcm of the cycle lengths of the root permutation."""
        perm, k = self.root_permutation, 1
        unseen = set(perm)
        while unseen:
            start = j = unseen.pop()
            length = 1
            while (j := perm[j]) != start:
                unseen.remove(j)
                length += 1
            k = lcm(k, length)
        return k

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rd, tuple(map(self.root_permutation.__getitem__,
                                              other.root_permutation)))

    def is_identity(self) -> bool:
        return self.root_permutation == self.rd.identity_element().root_permutation

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.root_permutation == other.root_permutation

    def __hash__(self):
        return hash(self.root_permutation)

    def __repr__(self):
        return f"WeylElement{self.matrix}"


# The data this process keeps, by canonical type, least recently requested
# first, each with its closed-form weight; `build` alone reads and edits it,
# under the lock, as a library caller may build from several threads.
_INTERNED: dict[TypeKey, tuple[RootDatum, int]] = {}
_INTERNED_LOCK = Lock()


def _closed_form_weight(key: TypeKey) -> int:
    """What a datum of the type may hold besides its q-closure memo, read off
    the degrees: its roots, twice the sum of the degrees less one, and |W|,
    the product of the degrees, when W may be enumerated."""
    degrees = _degrees(key)
    order = prod(degrees)
    return 2 * sum(d - 1 for d in degrees) + (order if order <= WEYL_ORDER_BOUND else 0)


def build(type_spec) -> RootDatum:
    """The split root datum of a type label, one per canonical type while
    the process retains it: its roots, Weyl enumeration and tables, covector
    matrices and q-closure memo serve every later request of the type.

    A datum weighs its closed-form weight plus its `is_q_closed` memo
    entries. On each call the least recently requested data are dropped
    whole while the retained total passes WEYL_ORDER_BOUND; a dropped type
    is built afresh on its next request, and a datum heavier than the bound
    by itself is handed out unretained. A type is refused, on every call,
    before anything is built or retained."""
    key = _parse_type(type_spec)
    with _INTERNED_LOCK:
        rd, fixed = _INTERNED.pop(key, None) or (RootDatum(*key), _closed_form_weight(key))
        total = fixed + len(rd._q_closed)
        if total <= WEYL_ORDER_BOUND:
            total += sum(w + len(d._q_closed) for d, w in _INTERNED.values())
            while total > WEYL_ORDER_BOUND:
                d, w = _INTERNED.pop(next(iter(_INTERNED)))
                total -= w + len(d._q_closed)
            _INTERNED[key] = rd, fixed
    return rd


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
        annihilator = tuple(primitive([v0 * a - v * b for a, b in zip(y, y0)])
                            for k, (y, v) in enumerate(zip(annihilator, values)) if k != pivot)
    return frozenset(k for k, root in enumerate(rd.roots)
                     if not any(rd.pairing(y, root) for y in annihilator))


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
