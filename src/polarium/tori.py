"""Tame maximal tori presented by finite-order Weyl elements.

A torus class is a pair (w, m) with w^m = 1; its eigenspace decomposition of
the dual Cartan over Q(zeta_m) drives every regularity computation. Rational
points of the torus are never materialized.
"""

from __future__ import annotations

from .cyclo import CycloNumber, root_of_unity
from .errors import InvalidArgumentError
from .linalg import dot_int, nullspace
from .rootdata import RootDatum, WeylElement, _mat_mul, identity_matrix, reflection_matrix
from .tails import Covector


class TorusClass:
    """A tame maximal torus given by its twisting Weyl element and period."""

    __slots__ = ("rd", "m", "w", "eigenspaces")

    def __init__(self, rd: RootDatum, w: WeylElement, m: int):
        if m < 1:
            raise InvalidArgumentError(f"period must be >= 1, got {m}")
        identity = identity_matrix(rd.dim)
        power = identity
        for _ in range(m):
            power = _mat_mul(w.matrix, power)
        if power != identity:
            raise InvalidArgumentError("w^m is not the identity")
        self.rd = rd
        self.m = m
        self.w = w
        self.eigenspaces = self._compute_eigenspaces()

    def _compute_eigenspaces(self) -> dict[int, list[Covector]]:
        rd, m = self.rd, self.m
        action = self.w.covector_matrix()
        spaces: dict[int, list[Covector]] = {}
        total = 0
        for i in range(m):
            z = root_of_unity(m, i, m)
            rows = []
            for r in range(rd.dim):
                row = []
                for c in range(rd.dim):
                    entry = CycloNumber.from_rational(action[r][c])
                    if r == c:
                        entry = entry - z
                    row.append(entry)
                rows.append(row)
            basis = nullspace(rows, rd.dim)
            spaces[i] = basis
            total += len(basis)
        assert total == rd.dim, "eigenspace dimensions do not fill the Cartan"
        return spaces

    def eigenspace(self, i: int) -> list[Covector]:
        return self.eigenspaces[i % self.m]

    def is_elliptic(self) -> bool:
        """No nonzero fixed covector: the presented torus is anisotropic."""
        return not self.eigenspaces[0]

    def __repr__(self):
        dims = tuple(len(self.eigenspaces[i]) for i in range(self.m))
        return f"TorusClass(m={self.m}, eigendims={dims})"


def split_torus_class(rd: RootDatum) -> TorusClass:
    return TorusClass(rd, rd.identity_element(), 1)


def is_springer_regular(tc: TorusClass) -> bool:
    """Whether some vector of the zeta_m-eigenspace avoids every coroot kernel.

    Since the field is infinite this is equivalent to: no coroot functional
    vanishes identically on the eigenspace at i = 1 mod m.
    """
    basis = tc.eigenspace(1 % tc.m)
    for coroot in tc.rd.coroots:
        if all(dot_int(coroot, v).is_zero() for v in basis):
            return False
    return True


def conjugacy_classes(rd: RootDatum) -> list[list[WeylElement]]:
    """Conjugacy classes of the Weyl group, deterministically ordered."""
    elements = rd.weyl_elements()
    gens = [WeylElement(rd, reflection_matrix(rd.simple_roots[i], rd.simple_coroots[i]))
            for i in range(rd.ss_rank)]
    index = {w.matrix: w for w in elements}
    unseen = {w.matrix for w in elements}
    classes = []
    for w in sorted(elements, key=lambda e: e.matrix):
        if w.matrix not in unseen:
            continue
        orbit = {w.matrix}
        queue = [w.matrix]
        while queue:
            x = queue.pop()
            for g in gens:
                y = _mat_mul(g.matrix, _mat_mul(x, g.matrix))
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        unseen -= orbit
        classes.append(sorted((index[mat] for mat in orbit), key=lambda e: e.matrix))
    return classes


def list_torus_classes(rd: RootDatum) -> list[TorusClass]:
    """One torus class per Weyl conjugacy class, with m the exact order."""
    out = []
    for cls in conjugacy_classes(rd):
        rep = cls[0]
        out.append(TorusClass(rd, rep, rep.order()))
    return out


def regular_numbers(rd: RootDatum) -> dict:
    """Orders of Springer-regular classes, with the elliptic sublist."""
    regular: set[int] = set()
    elliptic: set[int] = set()
    for tc in list_torus_classes(rd):
        if is_springer_regular(tc):
            regular.add(tc.m)
            if tc.is_elliptic():
                elliptic.add(tc.m)
    return {"regular": sorted(regular), "elliptic": sorted(elliptic)}


def regular_class_of_order(rd: RootDatum, m: int) -> TorusClass | None:
    """The Springer-regular conjugacy class of exact order m, if one exists."""
    for tc in list_torus_classes(rd):
        if tc.m == m and is_springer_regular(tc):
            return tc
    return None
