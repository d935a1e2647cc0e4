"""Tame maximal tori presented by finite-order Weyl elements.

A torus class is a pair (w, m) with w^m = 1. Its eigenspace decomposition of
the dual Cartan over Q(zeta_m) drives every regularity computation. Rational
points of the torus are never materialized.

The eigenspace dimensions are integers read off the traces of w^0, ...,
w^(k-1), k the order of w, which the w^m = 1 check computes anyway: k divides
m and the traces repeat with period k; each is read off the coroots at the
simple roots' images under w^j. A period above PERIOD_BOUND is refused
before any trace is taken. The traces are counted once per class built from
an element: traces are class functions, so a conjugate u·w·u^-1
(`polar.conjugate_torus`) inherits the order and the dimensions of its
source and counts nothing. A basis of the zeta_m^i eigenspace is solved by a
cyclotomic nullspace only when a caller asks for it, once per class, and its
length is checked against that trace count.

Conjugacy classes are orbits under x -> s_i·x·s_i, searched on element
indices: the enumeration of W keeps the index of s_i·w for every element w
and simple reflection s_i, and with the index of each inverse
(`RootDatum.weyl_table`) a conjugation is four list lookups. No matrix is
multiplied or reflected during the search.

Regular numbers come from the degrees of W alone (Lehrer-Springer, Canad. J.
Math. 51, 1999; Lehrer-Taylor, Unitary Reflection Groups, ch. 11), without
enumerating W, and so does the regularity of a class (Springer, Invent.
Math. 25, 1974): a count of its trace-read eigenspace dimension against the
degrees, with no eigenspace solved and no coroot paired.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .cyclo import CycloNumber, as_cyclo, euler_phi, zeta
from .errors import InternalInvariantViolation, InvalidArgumentError, ResourceLimitError
from .linalg import nullspace
from .rootdata import RootDatum, WeylElement
from .tails import Covector

PERIOD_BOUND = 1_000_000


def _eigendims(traces: list[int], m: int) -> list[int]:
    """Dimension of the zeta_m^i eigenspace for each i, from tr(w^j), 0 <= j < k,
    k the order of w, which divides m.

    dim ker(w^e - 1) is the mean trace over the cyclic group generated by w^e.
    Moebius inversion over the divisors e of k, run as the recursion
    N(e) = dim ker(w^e - 1) - sum of N(d) over the proper divisors d of e,
    turns these counts into the number N(e) of eigenvalues of exact order e,
    which the phi(e) primitive e-th roots of unity share equally because w is
    rational. zeta_m^i has exact order m/gcd(i, m), and an order that does not
    divide k has no eigenvalue.
    """
    k = len(traces)
    divisors = [e for e in range(1, k + 1) if k % e == 0]
    exact: dict[int, int] = {}
    per_root: dict[int, int] = {}
    for e in divisors:
        phi = euler_phi(e)
        scaled = e * sum(traces[::e]) - k * sum(exact[d] for d in divisors if d < e and e % d == 0)
        share, rem = divmod(scaled, k * phi)  # scaled is k * N(e)
        if rem or share < 0:
            raise InternalInvariantViolation(
                f"trace count gives {Fraction(scaled, k)} eigenvalues of exact order {e}, "
                f"not a nonnegative multiple of phi({e}) = {phi}")
        exact[e] = share * phi
        per_root[e] = share
    # the multiples of m/e are the i whose order divides e; a proper divisor
    # of e comes later and rewrites its own indices
    out = [0] * m
    for e in reversed(divisors):
        out[::m // e] = [per_root[e]] * e
    return out


class TorusClass:
    """A tame maximal torus given by its twisting Weyl element and period."""

    __slots__ = ("rd", "m", "w", "eigendims", "eigenspaces")

    def __init__(self, rd: RootDatum, w: WeylElement, m: int):
        if m < 1:
            raise InvalidArgumentError(f"period must be >= 1, got {m}")
        if m > PERIOD_BOUND:
            raise ResourceLimitError(f"torus period {m} larger than bound {PERIOD_BOUND}")
        # tr(w^j) = torus_rank + sum of coroots[p^j[k]][k], p^j[k] the index of w^j·alpha_k
        perm, coroots, simple = w.root_permutation, rd.coroots, tuple(range(rd.ss_rank))
        traces = [rd.dim]
        images = perm[:rd.ss_rank]
        while images != simple and len(traces) < m:
            traces.append(rd.torus_rank + sum(coroots[p][k] for k, p in enumerate(images)))
            images = tuple(map(perm.__getitem__, images))
        if images != simple or m % len(traces):
            raise InvalidArgumentError("w^m is not the identity")
        self.rd = rd
        self.m = m
        self.w = w
        self.eigendims = _eigendims(traces, m)
        self.eigenspaces: dict[int, list[Covector]] = {}

    @classmethod
    def _derived(cls, source: "TorusClass", w: WeylElement) -> "TorusClass":
        """The class of a conjugate w = u·source.w·u^-1, built from valid data:
        traces are class functions, so w has the source's order and
        eigenspace dimensions, and nothing is counted again. Its eigenspaces
        are solved afresh on first use."""
        tc = cls.__new__(cls)
        tc.rd, tc.m, tc.w, tc.eigendims = source.rd, source.m, w, source.eigendims
        tc.eigenspaces = {}
        return tc

    def eigenspace(self, i: int) -> list[Covector]:
        """Basis of the zeta_m^i eigenspace on the dual Cartan, solved on first use."""
        i %= self.m
        basis = self.eigenspaces.get(i)
        if basis is None:
            basis = self.eigenspaces[i] = self._solve_eigenspace(i)
        return basis

    def _solve_eigenspace(self, i: int) -> list[Covector]:
        rd, m = self.rd, self.m
        action = self.w.covector_matrix()
        z = zeta(m, i)
        rows = [[CycloNumber.from_rational(x) for x in row] for row in action]
        for r in range(rd.dim):
            rows[r][r] = rows[r][r] - z
        basis = [tuple(map(as_cyclo, v)) for v in nullspace(rows, rd.dim)]
        if len(basis) != self.eigendims[i]:
            raise InternalInvariantViolation(
                f"eigenspace dimension check: the zeta_{m}^{i} eigenspace has "
                f"{len(basis)} basis vectors, the trace count gives {self.eigendims[i]}")
        return basis

    def __repr__(self):
        return f"TorusClass(m={self.m}, eigendims={tuple(self.eigendims)})"


def split_torus_class(rd: RootDatum) -> TorusClass:
    return TorusClass(rd, rd.identity_element(), 1)


def is_springer_regular(tc: TorusClass) -> bool:
    """Whether some vector of the zeta_m-eigenspace avoids every coroot kernel.

    Springer (Invent. Math. 25, 1974, 3.4 and 4.2): for m a regular number,
    the zeta_m eigenspaces of the largest dimension, a(m) = #{degrees
    divisible by m}, are the regular ones, and they are conjugate under W;
    for any other m no eigenspace holds a regular vector.
    """
    m = tc.m
    return m in regular_numbers(tc.rd)["regular"] and \
        tc.eigendims[1 % m] == sum(k % m == 0 for k in tc.rd.degrees())


def conjugacy_classes(rd: RootDatum) -> list[list[WeylElement]]:
    """Conjugacy classes of the Weyl group, deterministically ordered.

    Each class is the orbit of its least matrix under x -> s_i·x·s_i, taken
    on element indices from `RootDatum.weyl_table` as
    inv[L_i[inv[L_i[x]]]]; classes and their members are ordered by matrix.
    """
    elements = rd.weyl_elements()
    left, inv = rd.weyl_table()
    # row-major entries as one flat tuple per element, held only while sorting
    by_matrix = sorted(range(len(elements)), key=lambda k: tuple(chain(*elements[k].matrix)))
    rank = [0] * len(elements)
    for r, k in enumerate(by_matrix):
        rank[k] = r
    unseen = [True] * len(elements)
    classes = []
    for start in by_matrix:
        if not unseen[start]:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for li in left:
                y = inv[li[inv[li[x]]]]
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        for k in orbit:
            unseen[k] = False
        classes.append([elements[k] for k in sorted(orbit, key=rank.__getitem__)])
    return classes


def list_torus_classes(rd: RootDatum) -> list[TorusClass]:
    """One torus class per Weyl conjugacy class, with m the exact order."""
    out = []
    for cls in conjugacy_classes(rd):
        rep = cls[0]
        out.append(TorusClass(rd, rep, rep.order()))
    return out


def regular_numbers(rd: RootDatum) -> dict:
    """Orders of Springer-regular classes, with the elliptic sublist.

    Lehrer-Springer: d is regular iff as many degrees d_i as codegrees
    d_i - 2 are divisible by d, and d divides some degree. A regular element
    of order d has eigenvalues zeta_d^(1 - d_i), so it is elliptic iff no
    d_i = 1 mod d; a central torus brings a degree 1 and is never elliptic.
    """
    degrees = rd.degrees()
    candidates = sorted({d for k in degrees for d in range(1, k + 1) if k % d == 0})
    regular = [d for d in candidates
               if sum(k % d == 0 for k in degrees) == sum((k - 2) % d == 0 for k in degrees)]
    elliptic = [d for d in regular if all((k - 1) % d for k in degrees)]
    return {"regular": regular, "elliptic": elliptic}


def regular_class_of_order(rd: RootDatum, m: int) -> TorusClass | None:
    """The Springer-regular conjugacy class of exact order m; None, read off
    the degrees before W is enumerated, when m is not a regular number.
    Springer (1974, 4.2) guarantees the class for a regular m."""
    if m not in regular_numbers(rd)["regular"]:
        return None
    for tc in list_torus_classes(rd):
        if tc.m == m and is_springer_regular(tc):
            return tc
    raise InternalInvariantViolation(
        f"no Springer-regular class of regular order {m} for {rd.type_label()}")
