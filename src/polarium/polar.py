"""Polar data: G-regular tails central in a twisted Levi, and the
classification map sending an arbitrary equivariant tail to its stratum.

A stratum label is (torus class, levi subset, tail); the levi subset is the
set of roots whose coroot differentials annihilate the tail. Classification
asserts (never repairs) that this set is rationally closed and stable under
the twisting element: in characteristic zero a failure is an implementation
bug, not data.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .cyclo import CycloNumber
from .errors import InternalInvariantViolation, InvalidArgumentError
from .linalg import dot_int
from .rootdata import (RootDatum, WeylElement, generated_matrices, is_q_closed,
                       stable_under)
from .tails import Tail, is_equivariant, pair_coroot
from .tori import TorusClass, list_torus_classes, regular_class_of_order


class PolarDatum:
    """(torus class, levi root subset, tail) with machine-checked invariants."""

    __slots__ = ("torus", "levi", "lam")

    def __init__(self, torus: TorusClass, levi, lam: Tail, validate: bool = True):
        self.torus = torus
        self.levi = frozenset(levi)
        self.lam = lam
        if validate:
            self._validate()

    def _validate(self) -> None:
        rd = self.torus.rd
        if not is_q_closed(rd, self.levi):
            raise InvalidArgumentError("levi subset is not rationally closed")
        if not stable_under(rd, self.torus.w, self.levi):
            raise InvalidArgumentError("levi subset not stable under the twisting element")
        if not is_equivariant(self.lam, self.torus.w, self.torus.m):
            raise InvalidArgumentError("tail violates the torus equivariance condition")
        for idx, coroot in enumerate(rd.coroots):
            empty = pair_coroot(self.lam, coroot).is_zero()
            if idx in self.levi and not empty:
                raise InvalidArgumentError(f"tail not central: coroot {idx} pairs nonzero")
            if idx not in self.levi and empty:
                raise InvalidArgumentError(f"tail not G-regular: coroot {idx} pairing vanishes")

    @property
    def rd(self) -> RootDatum:
        return self.torus.rd

    def is_full(self) -> bool:
        return len(self.levi) == len(self.rd.roots)

    def depth_multiset(self) -> tuple:
        """Sorted coroot pairing depths; None entries mark levi coroots."""
        depths = []
        for idx, coroot in enumerate(self.rd.coroots):
            d = pair_coroot(self.lam, coroot).depth()
            depths.append(Fraction(-1) if d is None else d)
        return tuple(sorted(depths))

    def __repr__(self):
        return f"PolarDatum(m={self.torus.m}, levi={sorted(self.levi)}, lam={self.lam!r})"


def is_g_regular(tc: TorusClass, lam: Tail, relative_to=frozenset()) -> bool:
    """True when every coroot outside the given subset pairs to a nonzero tail."""
    rd = tc.rd
    rel = frozenset(relative_to)
    return all(
        not pair_coroot(lam, coroot).is_zero()
        for idx, coroot in enumerate(rd.coroots)
        if idx not in rel
    )


def classify(tc: TorusClass, lam: Tail) -> PolarDatum:
    """Send an equivariant tail to its stratum label.

    The levi subset is read off from vanishing coroot pairings; rational
    closedness and stability are asserted as hard errors.
    """
    if not is_equivariant(lam, tc.w, tc.m):
        raise InvalidArgumentError("tail is not equivariant for the torus class")
    rd = tc.rd
    levi = frozenset(
        idx for idx, coroot in enumerate(rd.coroots) if pair_coroot(lam, coroot).is_zero()
    )
    if not is_q_closed(rd, levi):
        raise InternalInvariantViolation(
            f"vanishing set {sorted(levi)} fails rational closure"
        )
    if not stable_under(rd, tc.w, levi):
        raise InternalInvariantViolation(
            f"vanishing set {sorted(levi)} not stable under the twisting element"
        )
    # Every check of PolarDatum validation has just been made above.
    return PolarDatum(tc, levi, lam, validate=False)


def stabilizer(rd: RootDatum, lam: Tail) -> dict:
    """Pointwise stabilizer of the tail in W, with its contained reflections."""
    elements = [u for u in rd.weyl_elements() if lam.weyl_act(u) == lam]
    reflections = rd.reflection_matrices()
    contained = [u for u in elements if u.matrix in reflections]
    return {"elements": elements, "reflections": contained}


def subgroup_generated(rd: RootDatum, gens) -> set:
    """Matrices of the subgroup generated by the given Weyl elements."""
    return set(generated_matrices(rd.dim, [g.matrix for g in gens]))


def conjugate_torus(tc: TorusClass, u: WeylElement) -> TorusClass:
    w2 = u.compose(tc.w).compose(WeylElement(tc.rd, u.inverse_matrix()))
    return TorusClass(tc.rd, w2, tc.m)


def conjugate_datum(d: PolarDatum, u: WeylElement) -> PolarDatum:
    tc2 = conjugate_torus(d.torus, u)
    lam2 = d.lam.weyl_act(u)
    perm = u.root_permutation()
    return PolarDatum(tc2, frozenset(perm[i] for i in d.levi), lam2)


def conjugate_oracle(d1: PolarDatum, d2: PolarDatum) -> bool:
    """Brute-force Weyl search for u with u w1 u^-1 = w2 and u(lam1) = lam2."""
    rd = d1.rd
    if rd.roots != d2.rd.roots:
        raise InvalidArgumentError("data live in different ambient root data")
    for u in rd.weyl_elements():
        if u.compose(d1.torus.w).compose(WeylElement(rd, u.inverse_matrix())).matrix \
                != d2.torus.w.matrix:
            continue
        if d1.lam.weyl_act(u) == d2.lam:
            return True
    return False


def _regular_vector(rd: RootDatum, basis) -> tuple | None:
    """Deterministic vector in the span avoiding every coroot kernel.

    Uses the Vandermonde family v(t) = sum t^k b_k; each nonvanishing coroot
    functional kills at most dim-1 parameter values, so the scan terminates.
    """
    if not basis:
        return None if rd.coroots else tuple()
    bound = len(rd.coroots) * len(basis) + 2
    for t in range(1, bound):
        vec = [CycloNumber.zero() for _ in range(rd.dim)]
        for k, b in enumerate(basis):
            scale = t**k
            for i in range(rd.dim):
                vec[i] = vec[i] + scale * b[i]
        if all(not dot_int(coroot, vec).is_zero() for coroot in rd.coroots):
            return tuple(vec)
    return None


def epipelagic_datum(rd: RootDatum, m: int) -> PolarDatum:
    """The toral datum with a regular eigenvector at exponent 1/m."""
    return homogeneous_datum(rd, m, 1)


def homogeneous_datum(rd: RootDatum, m: int, i: int) -> PolarDatum:
    """Toral datum with a regular vector of eigenvalue index i at exponent i/m."""
    if i < 1:
        raise InvalidArgumentError(f"exponent index must be >= 1, got {i}")
    if gcd(i, m) != 1:
        raise InvalidArgumentError(f"index {i} not coprime to order {m}")
    tc = regular_class_of_order(rd, m)
    if tc is None:
        raise InvalidArgumentError(f"{m} is not a regular number for {rd.type_label()}")
    v = _regular_vector(rd, tc.eigenspace(i % m))
    if v is None:
        raise InvalidArgumentError(
            f"eigenspace {i} mod {m} contains no regular vector for {rd.type_label()}"
        )
    lam = Tail(rd, m, {Fraction(i, m): v})
    return PolarDatum(tc, frozenset(), lam)


# -- partition sampling --------------------------------------------------


def sample_equivariant_tail(tc: TorusClass, rng: random.Random,
                            max_terms: int = 3, max_level: int | None = None) -> Tail:
    """A random tail satisfying the torus equivariance constraint."""
    rd, m = tc.rd, tc.m
    max_level = 3 * m if max_level is None else max_level
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = rng.randint(0, max_level)
        basis = tc.eigenspace(a % m)
        if not basis:
            continue
        vec = [CycloNumber.zero() for _ in range(rd.dim)]
        nonzero = False
        for b in basis:
            c = rng.randint(-3, 3)
            if c:
                nonzero = True
                for k in range(rd.dim):
                    vec[k] = vec[k] + c * b[k]
        if nonzero:
            terms[Fraction(a, m)] = tuple(vec)
    return Tail(rd, m, terms)


def _one_sample(rd: RootDatum, classes, seed: int, zero_only: bool) -> dict:
    rng = random.Random(seed)
    tc = classes[rng.randrange(len(classes))]
    lam = Tail.zero(rd, tc.m) if zero_only else sample_equivariant_tail(tc, rng)
    record: dict = {"violations": [], "m": tc.m}
    try:
        d = classify(tc, lam)
    except Exception as exc:  # totality is the property under test
        record["violations"].append({"kind": "classify-failed", "error": str(exc)})
        return record
    record["levi_size"] = len(d.levi)
    record["depths"] = d.depth_multiset()

    d_again = classify(tc, d.lam)
    if d_again.levi != d.levi or d_again.lam != d.lam:
        record["violations"].append({"kind": "classify-not-idempotent"})

    u = rd.weyl_elements()[rng.randrange(len(rd.weyl_elements()))]
    translated = conjugate_datum(d, u)
    reclassified = classify(translated.torus, translated.lam)
    if reclassified.levi != translated.levi:
        record["violations"].append({"kind": "translate-levi-mismatch"})
    if not conjugate_oracle(d, reclassified):
        record["violations"].append({"kind": "translate-not-conjugate"})
    record["datum"] = d
    return record


def partition_check(rd: RootDatum, samples: int = 200, seed: int = 0,
                    zero_only: bool = False, disjoint_pairs: int = 50) -> dict:
    """Sampled verification of the partition properties; report-valued."""
    classes = list_torus_classes(rd)
    records = [_one_sample(rd, classes, seed * 1_000_003 + k, zero_only)
               for k in range(samples)]

    violations = []
    full_levi = 0
    data = []
    torus_orders: dict[int, int] = {}
    for k, rec in enumerate(records):
        for v in rec["violations"]:
            violations.append({"sample": k, **v})
        if "m" in rec:
            torus_orders[rec["m"]] = torus_orders.get(rec["m"], 0) + 1
        if "datum" in rec:
            data.append((k, rec["datum"]))
            if rec["datum"].is_full():
                full_levi += 1

    # Distinct depth multisets must never be conjugate.
    rng = random.Random(seed ^ 0x5EED)
    checked = 0
    attempts = 0
    while checked < disjoint_pairs and attempts < 20 * disjoint_pairs and len(data) >= 2:
        attempts += 1
        (i1, d1), (i2, d2) = rng.sample(data, 2)
        if d1.depth_multiset() == d2.depth_multiset():
            continue
        checked += 1
        if conjugate_oracle(d1, d2):
            violations.append({"kind": "distinct-depths-conjugate", "samples": [i1, i2]})

    return {
        "type": rd.type_label(),
        "samples": samples,
        "seed": seed,
        "classified": len(data),
        "full_levi_count": full_levi,
        "torus_orders": {str(m): c for m, c in sorted(torus_orders.items())},
        "disjoint_pairs_checked": checked,
        "violations": violations,
    }
