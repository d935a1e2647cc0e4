"""Polar data: G-regular tails central in a twisted Levi, and the
classification map sending an arbitrary equivariant tail to its stratum.

A stratum label is (torus class, levi subset, tail); the levi subset is the
set of roots whose coroot differentials annihilate the tail. Classification
asserts (never repairs) that this set is rationally closed and stable under
the twisting element: in characteristic zero a failure is an implementation
bug, not data.

Equivariance and conjugacy both ask whether a Weyl element sends one tail
to another, and take the answer of `tails.sends` on `cyclo`'s integer grid.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .cyclo import dot_int
from .errors import InternalInvariantViolation, InvalidArgumentError, ResourceLimitError
from .rootdata import RootDatum, WeylElement, is_q_closed, stable_under
from .tails import Tail, is_equivariant, paired_grids, sends
from .tori import TorusClass, list_torus_classes, regular_class_of_order

# partition-check work grows linearly in both counts; each bound is 20 times
# the largest count the documentation and the acceptance suite use.
SAMPLES_BOUND = 10_000
DISJOINT_PAIRS_BOUND = 10_000


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
        if not is_equivariant(self.lam, self.torus.w):
            raise InvalidArgumentError("tail violates the torus equivariance condition")
        for idx, depth in enumerate(self.lam.coroot_depths()):
            empty = depth is None
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
        """Sorted coroot pairing depths; levi coroots enter as -1."""
        return tuple(sorted(Fraction(-1) if d is None else d for d in self.lam.coroot_depths()))

    def __repr__(self):
        return f"PolarDatum(m={self.torus.m}, levi={sorted(self.levi)}, lam={self.lam!r})"


def classify(tc: TorusClass, lam: Tail) -> PolarDatum:
    """Send an equivariant tail to its stratum label.

    The levi subset is read off from vanishing coroot pairings; rational
    closedness and stability are asserted as hard errors.
    """
    if not is_equivariant(lam, tc.w):
        raise InvalidArgumentError("tail is not equivariant for the torus class")
    rd = tc.rd
    levi = frozenset(idx for idx, d in enumerate(lam.coroot_depths()) if d is None)
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


def conjugate_torus(tc: TorusClass, u: WeylElement) -> TorusClass:
    """The class of u w u^-1, a product born with its inverse u w^-1 u^-1."""
    return TorusClass(tc.rd, u.compose(tc.w).compose(u.inverse()), tc.m)


def conjugate_datum(d: PolarDatum, u: WeylElement) -> PolarDatum:
    """u.d, unvalidated: classifying its torus and tail again is the check."""
    tc2 = conjugate_torus(d.torus, u)
    lam2 = d.lam.weyl_act(u)
    perm = u.root_permutation
    return PolarDatum(tc2, frozenset(perm[i] for i in d.levi), lam2, validate=False)


def conjugate_oracle(d1: PolarDatum, d2: PolarDatum) -> bool:
    """Brute-force Weyl search for u with u w1 u^-1 = w2 and u(lam1) = lam2.

    A Weyl element sends a nonzero covector to a nonzero one, so tails with
    different exponent sets are never conjugate. Otherwise each u is
    filtered on the simple roots: u w1 and w2 u lie in W, and an element of
    W is fixed by its action on the simple roots because it acts as the
    identity on the central coordinates, so u w1 = w2 u exactly when
    p_u p_1 = p_2 p_u on the simple roots.

    Before the search, the two tails' terms are put on one integer grid per
    exponent (`tails.paired_grids`), once; each u that passes the filter is
    then tested on ints alone (`tails.sends`).
    """
    rd = d1.rd
    if rd.roots != d2.rd.roots:
        raise InvalidArgumentError("data live in different ambient root data")
    lam1, lam2 = d1.lam, d2.lam
    if lam1.terms.keys() != lam2.terms.keys():
        return False
    pairs = paired_grids(lam1, lam2)
    p1, p2 = d1.torus.w.root_permutation, d2.torus.w.root_permutation
    for u in rd.weyl_elements():
        pu = u.root_permutation
        if all(pu[p1[s]] == p2[pu[s]] for s in range(rd.ss_rank)) and sends(u, pairs):
            return True
    return False


def _regular_tail(rd: RootDatum, m: int, i: int, basis) -> Tail:
    """The first tail v(t) t^(-i/m), v(t) = sum t^k b_k over the basis, that
    pairs nonzero with every coroot.

    The basis spans a regular eigenspace, so no coroot functional vanishes
    on it identically and each kills at most dim - 1 parameter values: the
    scan ends with a regular tail, which keeps its coroot depths for the
    datum's validation.
    """
    columns = tuple(zip(*basis))
    for t in range(1, len(rd.coroots) * len(basis) + 2):
        scales = [t**k for k in range(len(basis))]
        lam = Tail(rd, m, {Fraction(i, m): tuple(dot_int(scales, column) for column in columns)})
        if None not in lam.coroot_depths():
            return lam
    raise InternalInvariantViolation(
        f"no tail of the scan over eigenspace {i} mod {m} is regular for {rd.type_label()}")


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
    # gcd(i, m) = 1: the eigenspace is the Galois conjugate of the regular
    # zeta_m eigenspace, so it is regular too
    lam = _regular_tail(rd, m, i, tc.eigenspace(i % m))
    return PolarDatum(tc, frozenset(), lam)


# -- partition sampling --------------------------------------------------


def sample_equivariant_tail(tc: TorusClass, rng: random.Random) -> Tail:
    """A random tail satisfying the torus equivariance constraint: up to three
    terms, at exponents a/m with 0 <= a <= 3m.

    Each covector is a combination with coefficients not all zero of an
    independent eigenspace basis, so it is nonzero, and the tail is built
    without a second check."""
    rd, m = tc.rd, tc.m
    terms = {}
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(0, 3 * m)
        basis = tc.eigenspace(a % m)
        if not basis:
            continue
        coeffs = [rng.randint(-3, 3) for _ in basis]
        if any(coeffs):
            terms[Fraction(a, m)] = tuple(dot_int(coeffs, column) for column in zip(*basis))
    return Tail._derived(rd, m, terms)


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
    record["depths"] = d.depth_multiset()

    d_again = classify(tc, d.lam)
    if d_again.levi != d.levi or d_again.lam != d.lam:
        record["violations"].append({"kind": "classify-not-idempotent"})

    u = rd.weyl_elements()[rng.randrange(len(rd.weyl_elements()))]
    translated = conjugate_datum(d, u)
    try:
        reclassified = classify(translated.torus, translated.lam)
    except Exception as exc:
        record["violations"].append({"kind": "translate-classify-failed", "error": str(exc)})
    else:
        if reclassified.levi != translated.levi:
            record["violations"].append({"kind": "translate-levi-mismatch"})
        if not conjugate_oracle(d, reclassified):
            record["violations"].append({"kind": "translate-not-conjugate"})
    record["datum"] = d
    return record


def partition_check(rd: RootDatum, samples: int = 200, seed: int = 0,
                    zero_only: bool = False, disjoint_pairs: int = 50) -> dict:
    """Sampled verification of the partition properties; report-valued."""
    for name, value, bound in (("samples", samples, SAMPLES_BOUND),
                               ("disjoint_pairs", disjoint_pairs, DISJOINT_PAIRS_BOUND)):
        if value > bound:
            raise ResourceLimitError(f"{name} larger than bound {bound}")
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
        torus_orders[rec["m"]] = torus_orders.get(rec["m"], 0) + 1
        if "datum" in rec:
            data.append((k, rec["datum"], rec["depths"]))
            if rec["datum"].is_full():
                full_levi += 1

    # Distinct depth multisets must never be conjugate.
    rng = random.Random(seed ^ 0x5EED)
    checked = 0
    attempts = 0
    while checked < disjoint_pairs and attempts < 20 * disjoint_pairs and len(data) >= 2:
        attempts += 1
        (i1, d1, depths1), (i2, d2, depths2) = rng.sample(data, 2)
        if depths1 == depths2:
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
