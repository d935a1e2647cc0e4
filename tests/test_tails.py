import random
from fractions import Fraction as F

import pytest

from polarium.cyclo import CycloNumber, root_of_unity, zeta
from polarium.errors import InvalidArgumentError, ResourceLimitError
from polarium.linalg import dot_int
from polarium.rootdata import build
from polarium.tails import (LaurentWindow, Tail, is_equivariant, pair_coroot,
                            tail_from_json, tail_to_json, window_from_json)
from polarium.tori import list_torus_classes

from .oracles import dot_int_oracle, window_product, window_sum


def test_pair_coroot_fundamental_weight(a1):
    lam = Tail(a1, 1, {F(1): [1]})
    assert pair_coroot(lam, a1.coroots[0]) == F(1)


def test_pair_coroot_zero_tail(a1):
    assert pair_coroot(Tail.zero(a1), a1.coroots[0]) is None


def test_pair_coroot_cartan_oracle(a2):
    # oracle: pairing of pi_1 against each simple coroot is the Cartan row entry
    lam = Tail(a2, 1, {F(1): [1, 0]})
    assert dot_int(a2.coroots[0], lam.terms[F(1)]) == 1
    assert pair_coroot(lam, a2.coroots[0]) == F(1)
    assert pair_coroot(lam, a2.coroots[1]) is None


def test_depth(a2):
    # the depth is the top exponent that pairs nonzero, not the tail's own depth
    lam = Tail(a2, 2, {F(0): [1, 0], F(3, 2): [0, 2]})
    assert lam.depth() == F(3, 2)
    assert pair_coroot(lam, a2.coroots[0]) == F(0)
    assert pair_coroot(lam, a2.coroots[1]) == F(3, 2)
    assert pair_coroot(Tail(a2, 1, {F(2): [0, 1]}), a2.coroots[0]) is None
    assert Tail.zero(a2).depth() is None


def test_tail_arith(a1):
    lam, neg = Tail(a1, 1, {F(1): [1]}), Tail(a1, 1, {F(1): [-1]})
    assert lam.add(neg).is_zero()
    w = a1.weyl_elements()[1]
    assert lam.weyl_act(w) == neg
    mixed = Tail(a1, 2, {F(1, 2): [1]}).add(Tail(a1, 3, {F(1, 3): [1]}))
    assert mixed.m == 6


def test_exponent_constraints(a1):
    with pytest.raises(InvalidArgumentError):
        Tail(a1, 1, {F(-1): [1]})
    with pytest.raises(InvalidArgumentError):
        Tail(a1, 2, {F(1, 3): [1]})


def test_equivariance_rescaling(a2):
    # the twisted fixed-point condition: acting by w rescales term q by zeta_m^(qm)
    rng = random.Random(5)
    for tc in list_torus_classes(a2):
        for _ in range(5):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                a = rng.randint(0, 2 * tc.m)
                basis = tc.eigenspace(a % tc.m)
                if not basis:
                    continue
                vec = [CycloNumber.zero()] * a2.dim
                for b in basis:
                    c = rng.randint(-2, 2)
                    for k in range(a2.dim):
                        vec[k] = vec[k] + c * b[k]
                terms[F(a, tc.m)] = tuple(vec)
            lam = Tail(a2, tc.m, terms)
            assert is_equivariant(lam, tc.w, tc.m)
            acted = lam.weyl_act(tc.w)
            for q, cov in lam.terms.items():
                z = root_of_unity(tc.m, int(q * tc.m) % tc.m, tc.m)
                assert all(a == z * b for a, b in zip(acted.terms[q], cov))


def test_expected_twist_values_and_bound(a1, a2):
    # term q is scaled by zeta_m^(qm) taken at conductor m, whatever
    # conductor the twist is computed at
    rng = random.Random(17)
    for m in (1, 2, 3, 4, 6, 12):
        for _ in range(4):
            terms = {F(rng.randint(0, 2 * m), m):
                     [zeta(rng.choice((1, 3, 4)), rng.randint(0, 3)) * rng.randint(-2, 2)
                      for _ in range(a2.dim)] for _ in range(rng.randint(1, 3))}
            lam = Tail(a2, m, terms)
            twist = lam.expected_twist()
            for q, cov in lam.terms.items():
                z = root_of_unity(m, int(q * m) % m, m)
                assert all(a == z * b for a, b in zip(twist.terms[q], cov))
    # the bound reads phi of the lcm of the root's order and the entries'
    # conductors: phi(1010) = 400 is inside, phi(1111) = 1000 is not
    Tail(a1, 101, {F(1, 101): [zeta(10, 1)]}).expected_twist()
    with pytest.raises(ResourceLimitError):
        Tail(a1, 101, {F(1, 101): [zeta(11, 1)]}).expected_twist()


def test_pairing_linearity_and_depth_bound(a2):
    rng = random.Random(9)
    zero = (CycloNumber.zero(),) * a2.dim
    for _ in range(10):
        terms = {F(rng.randint(0, 3)): [rng.randint(-3, 3), rng.randint(-3, 3)]
                 for _ in range(rng.randint(1, 3))}
        lam = Tail(a2, 1, terms)
        mu = Tail(a2, 1, {F(1): [1, 1]})
        total = lam.add(mu)
        for coroot in a2.coroots:
            # linear at each exponent
            for q in set(lam.terms) | set(mu.terms):
                assert dot_int(coroot, total.terms.get(q, zero)) == (
                    dot_int(coroot, lam.terms.get(q, zero))
                    + dot_int(coroot, mu.terms.get(q, zero)))
            d = pair_coroot(lam, coroot)
            nonzero = [q for q, c in lam.terms.items() if not dot_int(coroot, c).is_zero()]
            assert d == (max(nonzero) if nonzero else None)
            if d is not None:
                assert d <= lam.depth()


def test_coroot_depths_match_brute_force(a2, b2, g2):
    rng = random.Random(21)
    for rd in (a2, b2, g2, build([["A", 2], ["torus", 1]])):
        for m in (1, 3, 4):
            for _ in range(6):
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    terms[F(rng.randint(0, 3 * m), m)] = [
                        sum((rng.randint(-1, 1) * root_of_unity(m, k, m) for k in range(m)),
                            CycloNumber.zero())
                        for _ in range(rd.dim)]
                lam = Tail(rd, m, terms)
                table = lam.coroot_depths()
                assert table is lam.coroot_depths()
                assert len(table) == len(rd.roots)
                for idx, coroot in enumerate(rd.coroots):
                    paired = [q for q, c in lam.terms.items()
                              if not dot_int_oracle(coroot, c).is_zero()]
                    assert table[idx] == (max(paired) if paired else None)


def test_restrict_bands(a2):
    lam = Tail(a2, 1, {F(0): [1, 0], F(1): [0, 1], F(2): [1, 1]})
    low = lam.restrict(None, F(1))
    high = lam.restrict(F(1), None)
    assert sorted(low.terms) == [0, 1]
    assert sorted(high.terms) == [2]
    assert low.add(high) == lam


def test_tail_json_round_trip(a2):
    lam = Tail(a2, 2, {F(3, 2): [1, -2], F(0): [F(1, 3), 0]})
    assert tail_from_json(a2, tail_to_json(lam)) == lam


# -- Laurent windows -----------------------------------------------------


def test_window_mul_precision():
    a = LaurentWindow(-4, 4, {F(-4): 1, F(-3): 1})
    b = window_product(a, a)
    assert b.lo == -8 and b.hi == 0
    assert b.coeff(-8) == 1 and b.coeff(-7) == 2 and b.coeff(-6) == 1


def test_window_add_overlap():
    a = LaurentWindow(0, 4, {F(1): 2})
    b = LaurentWindow(-2, 2, {F(1): -2})
    c = window_sum(a, b)
    assert c.lo == -2 and c.hi == 2 and c.valuation() is None
    # support is bounded below by lo, so disjoint windows still add soundly
    d = window_sum(a, LaurentWindow(6, 8, {F(6): 1}))
    assert d.hi == 4 and d.coeff(1) == 2


def test_window_exponent_scaling():
    a = LaurentWindow(-3, 3, {F(-3): 1, F(2): 5})
    tau = a.scale_exponents(2)
    assert tau.valuation() == -6 and tau.coeff(4) == 5
    back = tau.scale_exponents(F(1, 2))
    assert back == a


def test_window_json_round_trip():
    # a grid window as verify-sl2 reads it, with both wire forms of a coefficient
    w = LaurentWindow(F(-3, 2), 2, {F(-3, 2): 1, F(1, 2): -2}, den=2)
    doc = {"lo": "-3/2", "hi": "2", "den": 2,
           "terms": [{"q": "-3/2", "coeff": {"conductor": 1, "coeffs": ["1"]}},
                     {"q": "1/2", "coeff": "-2"}]}
    assert window_from_json(doc) == w
