import random
from fractions import Fraction as F

import pytest

import polarium.polar as polar
from polarium.chevmap import sl2_crosscheck, sqrt_series, verify_sl2
from polarium.cyclo import CycloNumber, dot_int, euler_phi, zeta
from polarium.errors import InvalidArgumentError, ResourceLimitError
from polarium.polar import partition_check
from polarium.rootdata import build
from polarium.tails import (LaurentWindow, Tail, is_equivariant, pair_coroot,
                            tail_from_json, tail_to_json, window_from_json)
from polarium.tori import list_torus_classes

from .oracles import (add_tails, dot_int_oracle, equivariant_by_image, ref_dot_int,
                      scale_window, weyl_image_oracle, window_product, window_sum)


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
    w = a1.weyl_elements()[1]
    assert lam.weyl_act(w) == neg


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
            assert is_equivariant(lam, tc.w)
            acted = lam.weyl_act(tc.w)
            for q, cov in lam.terms.items():
                z = zeta(tc.m, int(q * tc.m))
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
                z = zeta(m, int(q * m))
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
        total = add_tails(lam, mu)
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
                        sum((rng.randint(-1, 1) * zeta(m, k) for k in range(m)),
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


PAIRING_CONDUCTORS = (1, 3, 4, 5, 8, 12)


def random_entry(rng, conductors=PAIRING_CONDUCTORS) -> CycloNumber:
    L = rng.choice(conductors)
    if rng.random() < 0.2:
        return CycloNumber.zero(L)
    return CycloNumber(L, [F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 7)))
                           for _ in range(euler_phi(L))])


def vanishing_covector(rng, rd, coroot) -> list:
    """Mixed-conductor entries, one of them solved so that the covector
    pairs to zero with the coroot; the sum cancels only once the entries
    are read at a common conductor. The entries come from conductors whose
    lcm is in the pool, and the solved one is lifted to a multiple of its
    conductor there."""
    family = rng.choice(((1, 3, 4, 12), (1, 4, 8), (1, 5)))
    entries = [random_entry(rng, family) for _ in range(rd.dim)]
    i = next(k for k, v in enumerate(coroot) if v)
    rest = sum((v * x for k, (v, x) in enumerate(zip(coroot, entries)) if k != i),
               CycloNumber.zero())
    solved = rest * F(-1, coroot[i])
    larger = [L for L in family if L % solved.conductor == 0]
    entries[i] = solved.lift(rng.choice(larger))
    return entries


def reference_depth(tail, coroot):
    paired = [q for q, c in tail.terms.items() if not ref_dot_int(coroot, c).is_zero()]
    return max(paired) if paired else None


def test_pairing_zero_tests_match_reference_field():
    # every coroot of A2/B2/G2/C3/D4 against seeded tails with entries at
    # conductors 1/3/4/5/8/12, some terms vanishing on a coroot only after
    # lifting, and against the tails weyl_act, restrict and expected_twist
    # derive from them
    rng = random.Random(24)
    vanishing = 0
    for label in ("A2", "B2", "G2", "C3", "D4"):
        rd = build(label)
        weyl = rd.weyl_elements()
        for m in (1, 3, 4, 12):
            for _ in range(3):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    q = F(rng.randint(0, 3 * m), m)
                    if rng.random() < 0.5:
                        terms[q] = vanishing_covector(rng, rd, rng.choice(rd.coroots))
                    else:
                        terms[q] = [random_entry(rng) for _ in range(rd.dim)]
                lam = Tail(rd, m, terms)
                derived = [lam.restrict(F(1, 2), F(2)), lam.expected_twist(),
                           lam.weyl_act(rng.choice(weyl))]
                for tail in [lam] + derived:
                    expected = [reference_depth(tail, coroot) for coroot in rd.coroots]
                    assert [pair_coroot(tail, coroot) for coroot in rd.coroots] == expected
                    assert list(tail.coroot_depths()) == expected
                    vanishing += sum(ref_dot_int(coroot, c).is_zero()
                                     and len({x.conductor for x in c}) > 1
                                     for coroot in rd.coroots for c in tail.terms.values())
    assert vanishing > 100


def test_pairing_vanishes_only_after_lifting(a2):
    # 1 + zeta_3 + zeta_3^2 with the last summand at conductor 12, and
    # zeta_4 - zeta_4 with the second at conductor 12: the numerators of
    # the entries as stored do not cancel, their lifts to 12 do
    alpha = next(k for k, coroot in enumerate(a2.coroots) if coroot == (1, 1))
    assert zeta(12, 8).conductor == zeta(12, 3).conductor == 12
    for covector in ([1 + zeta(3, 1), zeta(12, 8)], [zeta(4, 1), -zeta(12, 3)]):
        lam = Tail(a2, 1, {F(2): covector, F(1): [1, 0]})
        assert ref_dot_int(a2.coroots[alpha], covector).is_zero()
        assert pair_coroot(lam, a2.coroots[alpha]) == F(1)
        assert lam.coroot_depths()[alpha] == F(1)
        assert pair_coroot(lam, a2.coroots[1]) == F(2)


GRID_CONDUCTORS = (1, 3, 4, 5, 6, 8)


def fractional_covector(rng, dim) -> list:
    """Entries at conductors 1/3/4/5/6/8 with fractional coefficients of
    several denominators, so one term's entries sit on no common grid until
    they are lifted and scaled."""
    return [CycloNumber(L, [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in range(euler_phi(L))])
            for L in (rng.choice(GRID_CONDUCTORS) for _ in range(dim))]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "A4"])
def test_weyl_act_matches_the_oracle_entry_by_entry(label):
    # every W element on the rank-2 data, a seeded sample of W on A3, B3 and
    # A4; each image entry against the pairing of the inverse transpose's
    # row with the covector by CycloNumber arithmetic
    rd = build(label)
    rng = random.Random(30)
    weyl = rd.weyl_elements()
    elements = weyl if len(weyl) <= 12 else rng.sample(weyl, 12)
    for m in (1, 4, 6):
        terms = {F(rng.randint(0, 3 * m), m): fractional_covector(rng, rd.dim) for _ in range(3)}
        terms[F(1)] = [CycloNumber.from_rational(F(k + 1, 2)) for k in range(rd.dim)]
        lam = Tail(rd, m, terms)
        for w in elements:
            image = lam.weyl_act(w)
            assert image.terms.keys() == lam.terms.keys()
            for q, c in lam.terms.items():
                expected = weyl_image_oracle(w, c)
                assert len(image.terms[q]) == len(expected)
                for got, want in zip(image.terms[q], expected):
                    assert got == want


def test_derived_tails_pass_the_public_checks(a2, b2, g2, monkeypatch):
    # every tail built unchecked (by weyl_act, restrict, expected_twist, the
    # partition sampler and the series lift of verify-sl2) must be accepted
    # by the public constructor unchanged: the same exponents in the same
    # order, the same CycloNumbers at the same conductors, and the same grid
    made = []
    original = Tail._derived

    def recorded(rd, m, terms):
        tail = original(rd, m, terms)
        made.append(tail)
        return tail

    monkeypatch.setattr(Tail, "_derived", staticmethod(recorded))
    # the sampler's tails are also acted on as the equivariance reference
    # does, which builds each image and twist as a tail
    checked_equivariant = polar.is_equivariant

    def equivariant(tail, w):
        verdict = checked_equivariant(tail, w)
        assert verdict == equivariant_by_image(tail, w)
        return verdict

    monkeypatch.setattr(polar, "is_equivariant", equivariant)
    rng = random.Random(23)
    for rd in (a2, b2, g2):
        for m in (1, 2, 3, 4):
            terms = {F(rng.randint(0, 3 * m), m):
                     [rng.randint(-2, 2) * zeta(rng.choice((1, 3, 4)), rng.randint(0, 3))
                      for _ in range(rd.dim)] for _ in range(3)}
            lam = Tail(rd, m, terms)
            lam.restrict(F(1, 2), F(2))
            lam.expected_twist()
            for w in rd.weyl_elements():
                lam.weyl_act(w)
    for label in ("A2", "B2", "G2", "A3"):
        for seed in range(8):
            partition_check(build(label), samples=12, seed=seed, disjoint_pairs=4)
    verify_sl2()
    assert {len(out.rd.roots) for out in made} == {2, 6, 8, 12}
    for out in made:
        checked = Tail(out.rd, out.m, out.terms)
        assert list(checked.terms) == list(out.terms)
        for q, cov in out.terms.items():
            assert type(q) is F and len(cov) == out.rd.dim
            assert all(type(x) is CycloNumber for x in cov)
            assert [(x, x.conductor) for x in cov] == \
                [(x, x.conductor) for x in checked.terms[q]]
        assert checked.grids() == out.grids()
    assert len(made) > 3000


def test_derived_windows_pass_the_public_checks(monkeypatch):
    # sqrt_series and the principal cut of sl2_crosscheck build windows
    # unchecked; over the default grid, and on windows with den 1, 2 and 3,
    # cyclotomic coefficients and odd v * den (a root on the doubled
    # lattice), the public constructor must accept each one unchanged
    made = []
    original = LaurentWindow._derived

    def recorded(lo, hi, terms, den):
        window = original(lo, hi, terms, den)
        made.append(window)
        return window

    monkeypatch.setattr(LaurentWindow, "_derived", staticmethod(recorded))
    grid = [LaurentWindow(F(-4), F(3, 2), {F(-4): 1, F(-7, 2): zeta(3, 1), F(-1): F(1, 2)}, 2),
            LaurentWindow(F(-4), F(2), {F(-4): -1, F(-11, 3): F(2, 3), F(0): zeta(5, 2)}, 3),
            LaurentWindow(F(-6), F(0), {F(-6): zeta(4, 1), F(-5): zeta(8, 3)}),
            LaurentWindow(F(-5), F(1), {F(-5): -1, F(-4): zeta(4, 1), F(-3): F(1, 2)}),
            LaurentWindow(F(-3), F(1), {F(-3): 4, F(-8, 3): zeta(3, 2), F(-2): 1}, 3)]
    for a in grid:
        for e in (1, 2, F(1, 3)):
            sqrt_series(scale_window(a, e))
        try:
            sl2_crosscheck(a)
        except InvalidArgumentError:  # a lifted term off the torus
            pass
    verify_sl2()
    assert len(made) > 550, len(made)
    assert {out.den for out in made} == {1, 2, 3, 6, 9, 18}
    for out in made:
        checked = LaurentWindow(out.lo, out.hi, out.terms, out.den)
        assert (checked.lo, checked.hi, checked.den) == (out.lo, out.hi, out.den)
        assert list(checked.terms) == list(out.terms)
        assert all(checked.terms[q] is c for q, c in out.terms.items())


def test_restrict_bands(a2):
    lam = Tail(a2, 1, {F(0): [1, 0], F(1): [0, 1], F(2): [1, 1]})
    low = lam.restrict(None, F(1))
    high = lam.restrict(F(1), None)
    assert sorted(low.terms) == [0, 1]
    assert sorted(high.terms) == [2]
    assert add_tails(low, high) == lam


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


def test_window_json_round_trip():
    # a grid window as verify-sl2 reads it, with both wire forms of a coefficient
    w = LaurentWindow(F(-3, 2), 2, {F(-3, 2): 1, F(1, 2): -2}, den=2)
    doc = {"lo": "-3/2", "hi": "2", "den": 2,
           "terms": [{"q": "-3/2", "coeff": {"conductor": 1, "coeffs": ["1"]}},
                     {"q": "1/2", "coeff": "-2"}]}
    assert window_from_json(doc) == w
