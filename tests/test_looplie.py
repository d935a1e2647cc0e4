import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from polarium import jsonio
from polarium.cyclo import CycloNumber
from polarium.errors import InternalInvariantViolation
from polarium.looplie import (Realization, bracket_closure_violations,
                              build_j_lattice, lagrangian, moveability_check,
                              psi_lambda_check, root_positions, symplectic_form_on_piece,
                              v_piece_at_degree)
from polarium.polar import PolarDatum, classify, epipelagic_datum
from polarium.rootdata import build
from polarium.tails import Tail
from polarium.tori import regular_numbers, split_torus_class
from polarium.yuseq import YuLadder, extract

from .oracles import (LaurentMatrix, bracket_closure_on_window, cyclo_rank, cyclo_value,
                      eigen_regular_check, matrix_positions, psi_on_window, span_contains,
                      window_basis)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

ONE = CycloNumber.one()


def rho_over(rd, k):
    return tuple(v / k for v in rd.rho_coweight())


def sl2_depth_one(a1):
    d = classify(split_torus_class(a1), Tail(a1, 1, {F(1): [1]}))
    return d, extract(d)


def sl3_two_break(a2):
    d = classify(split_torus_class(a2), Tail(a2, 1, {F(2): [3, 0], F(1): [-1, 2]}))
    return d, extract(d)


def as_laurent(real, coords):
    """The Laurent matrix sum of c * G t^n over a monomial map, where G is
    E_ij for a root at position (i, j) and E_kk - E_(k+1)(k+1) for h_k."""
    n = real.n
    position = matrix_positions(real.rd)
    terms = {}
    for ((kind, idx), p), c in coords.items():
        mat = terms.setdefault(p, [[F(0)] * n for _ in range(n)])
        if kind == "r":
            i, j = position[idx]
            mat[i][j] += c
        else:
            mat[idx][idx] += c
            mat[idx + 1][idx + 1] -= c
    return LaurentMatrix(n, terms)


def nonzero_terms(lm):
    return {p: m for p, m in lm.terms.items() if any(x for row in m for x in row)}


# -- gradings ------------------------------------------------------------


def test_mp_graded_piece_sl2(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, rho_over(a1, 2))
    assert real.monomials_at_degree(F(1, 2)) == [(("r", 0), 0), (("r", 1), 1)]
    assert real.monomials_at_degree(F(0)) == [(("h", 0), 0)]
    assert Realization(d, ladder, (F(0),)).monomials_at_degree(F(1, 2)) == []


def test_graded_additivity(a1, a2):
    rng = random.Random(13)
    for rd, datum_fn in ((a1, sl2_depth_one), (a2, sl3_two_break)):
        d, ladder = datum_fn(rd)
        real = Realization(d, ladder, rho_over(rd, 2))
        gens = real.generators()
        for _ in range(40):
            u = (gens[rng.randrange(len(gens))], rng.randint(-2, 2))
            v = (gens[rng.randrange(len(gens))], rng.randint(-2, 2))
            result = real.bracket_monomials(u, v)
            for mono, c in result.items():
                assert not cyclo_value(c).is_zero()
                assert real.degree(mono) == real.degree(u) + real.degree(v)


def test_structure_table_matches_matrix_commutator():
    # every generator pair, split and twisted (cyclic-shift) presentations
    reals = []
    for label in ("A1", "A2", "A3", "A4"):
        rd = build(label)
        d = classify(split_torus_class(rd), Tail.zero(rd))
        reals.append(Realization(d, extract(d)))
    for label, m in (("A2", 3), ("A3", 4), ("A4", 5)):
        d = epipelagic_datum(build(label), m)
        reals.append(Realization(d, extract(d)))
    for real in reals:
        gens = real.generators()
        for a, gu in enumerate(gens):
            for b, gv in enumerate(gens):
                u, v = (gu, a % 3 - 1), (gv, b % 2)
                result = {mono: cyclo_value(c) for mono, c in real.bracket_monomials(u, v).items()}
                assert all(c.is_rational() and c.as_rational().denominator == 1
                           and not c.is_zero() for c in result.values())
                got = {mono: c.as_rational() for mono, c in result.items()}
                expected = as_laurent(real, {u: 1}).commutator(as_laurent(real, {v: 1}))
                assert nonzero_terms(as_laurent(real, got)) == nonzero_terms(expected), \
                    (real.rd.type_label(), real.twisted, gu, gv)


def test_root_positions_match_fundamental_weight_reference():
    # the positions read off the coroots agree with the roots e_i - e_j
    # written out in fundamental-weight coordinates
    for n in range(1, 8):
        rd = build(f"A{n}")
        assert root_positions(rd) == matrix_positions(rd), rd.type_label()


def test_vj_split_examples(a1, a2):
    # the roots entering at each ladder level are the differences of the
    # levels; the torus directions sit at level 0
    def split(ladder):
        levels = ladder.levels
        return [sorted(levels[0])] + [sorted(levels[j] - levels[j - 1])
                                      for j in range(1, len(levels))]

    d, ladder = sl3_two_break(a2)
    assert split(ladder) == [[], [1, 4], [0, 2, 3, 5]]
    real = Realization(d, ladder, rho_over(a2, 2))
    assert [g for g in real.generators() if real.level_of_gen[g] == 0] == [("h", 0), ("h", 1)]
    g0 = classify(split_torus_class(a2), Tail.zero(a2))
    assert split(extract(g0)) == [sorted(range(6))]
    d1, lad1 = sl2_depth_one(a1)
    assert split(lad1)[1] == [0, 1]


# -- symplectic forms ----------------------------------------------------


def test_symplectic_sl2_matches_residue_oracle(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, rho_over(a1, 2))
    piece = v_piece_at_degree(real, 1, ladder.half_depths[0])
    form = symplectic_form_on_piece(real, 1, piece)
    assert piece["monomials"] == [(("r", 0), 0), (("r", 1), 1)]
    # independent residue-trace oracle
    dual = LaurentMatrix(2, {-1: [[F(1, 2), 0], [0, F(-1, 2)]]})
    e = LaurentMatrix.monomial(2, 0, 1, 0)
    f = LaurentMatrix.monomial(2, 1, 0, 1)
    expected = e.commutator(f).residue_pair(dual)
    assert expected == 1
    assert form[0][1] == expected
    assert form[1][0] == -expected
    assert cyclo_value(form[0][0]).is_zero() and cyclo_value(form[1][1]).is_zero()


def test_symplectic_no_break_precondition(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, (F(0),))  # integral grading: piece is zero
    assert v_piece_at_degree(real, 1, ladder.half_depths[0])["vectors"] == []


def test_symplectic_sl3_both_breaks(a2):
    d, ladder = sl3_two_break(a2)
    real = Realization(d, ladder, rho_over(a2, 2))
    for j in (1, 2):
        piece = v_piece_at_degree(real, j, ladder.half_depths[j - 1])
        form = symplectic_form_on_piece(real, j, piece)
        k = len(form)
        assert k == 2
        for a in range(k):
            assert cyclo_value(form[a][a]).is_zero()
            for b in range(k):
                assert cyclo_value(form[a][b] + form[b][a]).is_zero()
        assert cyclo_rank([[cyclo_value(c) for c in r] for r in form]) == k


def test_twisted_complement_is_trace_orthogonal_to_cartan(a2, a3):
    # the complement in a twisted slot pairs to zero with every power X^s t^p
    # of the cyclic shift, and has codimension one wherever the slot meets
    # the Cartan
    for rd, n in ((a2, 3), (a3, 4), (build("A4"), 5)):
        d = epipelagic_datum(rd, n)
        real = Realization(d, extract(d))
        shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        corner = [[int((i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
        x = LaurentMatrix(n, {0: shift, 1: corner})
        cartan, power = [], x
        for _ in range(n - 1):
            for p in range(-3, 3):
                cartan.append(LaurentMatrix(n, {e + p: m for e, m in power.terms.items()}))
            power = power.mul(x)
        for k in range(1, n):
            for e in (-1, 0, 1):
                deg = F(k, n) + e
                piece = v_piece_at_degree(real, 1, deg)
                monos = real.monomials_at_degree(deg)
                assert piece["monomials"] == monos
                assert len(piece["vectors"]) == len(monos) - 1
                for vec in piece["vectors"]:
                    lm = as_laurent(real, {m: cyclo_value(c).as_rational()
                                           for m, c in vec.items()})
                    assert all(lm.residue_pair(dual) == 0 for dual in cartan), (n, deg)


def test_lagrangian_outputs(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, rho_over(a1, 2))
    form = symplectic_form_on_piece(real, 1, v_piece_at_degree(real, 1, ladder.half_depths[0]))
    lag = lagrangian(form)
    assert len(lag) == 1
    assert [repr(cyclo_value(c)) for c in lag[0]] == ["1*z1^0", "0"]
    assert lagrangian([]) == []
    # block form of two hyperbolic planes: 2-dimensional isotropic output
    z, one, two = CycloNumber.zero(), ONE, CycloNumber.from_rational(2)
    block = [
        [z, one, z, z],
        [-one, z, z, z],
        [z, z, z, two],
        [z, z, -two, z],
    ]
    lag4 = lagrangian(block)
    assert len(lag4) == 2

    def pairing(u, v):
        total = CycloNumber.zero()
        for i in range(4):
            for j in range(4):
                total = total + u[i] * v[j] * block[i][j]
        return total

    for u in lag4:
        for v in lag4:
            assert pairing(u, v).is_zero()


def test_lagrangian_rejects_degenerate():
    z = CycloNumber.zero()
    with pytest.raises(InternalInvariantViolation):
        lagrangian([[z, z], [z, z]])


# -- the lattice ---------------------------------------------------------


def test_build_sl2_depth_one_table(a1):
    d, ladder = sl2_depth_one(a1)
    J = build_j_lattice(d, ladder, rho_over(a1, 2))
    # J = t.O + e.O + f.t^2 O
    assert J.contains_line({(("h", 0), 0): ONE})
    assert J.contains_line({(("r", 0), 0): ONE})
    assert not J.contains_line({(("r", 1), 1): ONE})
    assert J.contains_line({(("r", 1), 2): ONE})
    assert not J.contains_line({(("h", 0), -1): ONE})
    assert psi_lambda_check(J)


def test_build_epipelagic_equals_positive_part(a1, a2):
    for rd, m in ((a1, 2), (a2, 3)):
        d = epipelagic_datum(rd, m)
        ladder = extract(d)
        J = build_j_lattice(d, ladder)
        real = J.real
        step = F(1, real.n)
        deg = -2
        while deg <= 2:
            monos = real.monomials_at_degree(F(deg))
            _, vectors = J.piece_at_degree(F(deg))
            expected = len(monos) if deg > 0 else 0
            assert len(vectors) == expected, (rd.type_label(), deg)
            deg += step
        assert psi_lambda_check(J)


def test_build_full_datum_nonneg_part(a2):
    g0 = classify(split_torus_class(a2), Tail.zero(a2))
    J = build_j_lattice(g0, extract(g0), tuple(F(0) for _ in range(2)))
    assert J.contains_line({(("r", 0), 0): ONE})
    assert not J.contains_line({(("r", 0), -1): ONE})
    assert psi_lambda_check(J)


def test_sl3_two_break_lattice(a2):
    d, ladder = sl3_two_break(a2)
    J = build_j_lattice(d, ladder, rho_over(a2, 2))
    assert len(J.break_pieces) == 2
    assert psi_lambda_check(J)


def test_psi_oracle_sl3_epipelagic(a2, a3):
    # independent check that the realized dual is X^(n-1) t^-1 in the
    # epipelagic case, diag(lambda) t^-q in the split case, and pairs as claimed
    d = epipelagic_datum(a2, 3)
    cases = [(Realization(d, extract(d)), LaurentMatrix(3, {
        -1: [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        0: [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    }))]
    for rd, n in ((a3, 4), (build("A4"), 5)):
        d = epipelagic_datum(rd, n)
        shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        corner = [[int((i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
        x = LaurentMatrix(n, {0: shift, 1: corner})
        power = x
        for _ in range(n - 2):
            power = power.mul(x)
        dual = LaurentMatrix(n, {p - 1: m for p, m in power.terms.items()})
        cases.append((Realization(d, extract(d)), dual))
    d, ladder = sl3_two_break(a2)
    cases.append((Realization(d, ladder, rho_over(a2, 2)), LaurentMatrix(3, {
        -2: [[2, 0, 0], [0, -1, 0], [0, 0, -1]],
        -1: [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
    })))
    for real, dual in cases:
        for gen in real.generators():
            for n in (-1, 0, 1, 2):
                mono = as_laurent(real, {(gen, n): 1})
                assert cyclo_value(real.pair_dual_monomial((gen, n))).as_rational() \
                    == mono.residue_pair(dual), (real.rd.type_label(), gen, n)


def golden_lattices(a1, a2) -> list:
    d1, lad1 = sl2_depth_one(a1)
    e1 = epipelagic_datum(a1, 2)
    e2 = epipelagic_datum(a2, 3)
    d3, lad3 = sl3_two_break(a2)
    goldens = [(d1, lad1, rho_over(a1, 2)), (e1, extract(e1), None),
               (e2, extract(e2), None), (d3, lad3, rho_over(a2, 2))]
    return [build_j_lattice(d, ladder, x) for d, ladder, x in goldens]


def answered_universe_lattices() -> dict:
    """The lattice of every benchmark jlattice request recorded with exit 0."""
    entries = harness.load_oracle("lattice")["entries"]
    out = {}
    for rid, req in workloads.lattice_universe().items():
        if req.command != "jlattice" or entries[rid].get("known_failure") \
                or entries[rid]["exit"] != 0:
            continue
        doc = json.loads(req.text)
        d = jsonio.datum_from_json(doc["datum"])
        out[rid] = build_j_lattice(d, extract(d), jsonio.parse_coweight(d.rd, doc.get("x")))
    return out


def adjusted_copies(J) -> list:
    return [J.with_adjust(gen, steps) for gen in J.real.generators()
            for steps in (-3, -2, -1, 1, 2, 3)]


def test_negative_controls_each_golden(a1, a2):
    for J in golden_lattices(a1, a2):
        assert psi_lambda_check(J)
        assert not bracket_closure_violations(J)
        base_size = len(window_basis(J, -3, 4))
        for gen in [("r", 0), ("r", 1), ("h", 0)]:
            # smallest enlarging perturbation of this direction's threshold
            lowered = None
            for steps in (1, 2, 3):
                candidate = J.with_adjust(gen, steps)
                if len(window_basis(candidate, -3, 4)) > base_size:
                    lowered = candidate
                    break
            assert lowered is not None, (J.real.datum, gen)
            broke = bool(bracket_closure_violations(lowered)) \
                or not psi_lambda_check(lowered)
            assert broke, (J.real.datum, gen)


def test_proof_matches_window_reference(a1, a2):
    # the proof on O-module generators and the window sweep give the same
    # verdict on every golden, its corrupted copies and the answered
    # benchmark lattices; 92 of the 132 corrupted copies are broken
    def broken(J):
        return bool(bracket_closure_violations(J)) or not psi_lambda_check(J)

    def broken_on_window(J):
        return bool(bracket_closure_on_window(J, -3, 4)) or not psi_on_window(J, -3, 4)

    intact = golden_lattices(a1, a2) + list(answered_universe_lattices().values())
    assert len(intact) >= 4 + 15
    for J in intact:
        assert not broken(J) and not broken_on_window(J), J.real.datum
    verdicts = [(broken(C), broken_on_window(C))
                for J in golden_lattices(a1, a2) for C in adjusted_copies(J)]
    assert all(p == w for p, w in verdicts)
    assert sum(p for p, _w in verdicts) == 92 and len(verdicts) == 132


def test_generator_pairs_bracketed_once(monkeypatch):
    # the closure proof and the tail character read one list of pair
    # brackets: on epipelagic A4 that is 906 bracket_monomials calls in all,
    # and a corrupted copy brackets its own generators, again once
    doc = workloads.load_lattice_data()["epi-A4-5"]
    d = jsonio.datum_from_json(doc)
    calls = []
    bracket = Realization.bracket_monomials

    def counted(real, u, v):
        calls.append((u, v))
        return bracket(real, u, v)

    monkeypatch.setattr(Realization, "bracket_monomials", counted)
    J = build_j_lattice(d, extract(d))
    assert psi_lambda_check(J)
    assert len(calls) == 906
    calls.clear()
    C = J.with_adjust(("h", 0), 1)
    bracket_closure_violations(C)
    psi_lambda_check(C)
    assert len(calls) == 906


def test_thresholds_match_scan_from_below(a1, a2):
    # the closed form agrees with the pure rule scanned up from far below
    # the threshold, also on lattices lowered by many steps
    def scanned(J, gen):
        real, n = J.real, -100
        j = real.level_of_gen[gen]
        while True:
            deg = real.degree((gen, n + J.adjust.get(gen, 0)))
            if (deg >= 0) if j == 0 else (deg > J.half_depths[j - 1]):
                return n
            n += 1

    for J in golden_lattices(a1, a2):
        for gen in J.real.generators():
            for steps in range(-3, 10):
                adjusted = J.with_adjust(gen, steps)
                n0 = scanned(adjusted, gen)
                assert adjusted.threshold(gen) == n0, (J.real.datum, gen, steps)
                entry = adjusted.to_json()["thresholds"][J.real.generators().index(gen)]
                assert entry["q"] == str(J.real.degree((gen, n0)))


def test_module_generators_span_each_piece(a1, a2):
    # at each degree the t-multiples of the O-module generators span the
    # piece; they stay inside it exactly when every t-multiple of a
    # generator does, which a raised threshold may break
    def span_at(J, deg, monos):
        index = {m: i for i, m in enumerate(monos)}
        out = []
        for g in J.module_generators():
            k = deg - J.real.degree(next(iter(g)))
            if k >= 0 and k.denominator == 1:
                vec = [F(0)] * len(monos)
                for (gen, n), c in g.items():
                    vec[index[(gen, n + int(k))]] = c
                out.append(vec)
        return out

    def contains(J, line):
        deg = J.real.degree(next(iter(line)))
        monos, vectors = J.piece_at_degree(deg)
        return span_contains(vectors, [line.get(m, F(0)) for m in monos])

    for golden in golden_lattices(a1, a2):
        real = golden.real
        degrees = sorted({real.degree((gen, n))
                          for gen in real.generators() for n in range(-3, 5)})
        for J in [golden] + adjusted_copies(golden):
            o_stable = all(contains(J, {(gen, n + 1): c for (gen, n), c in g.items()})
                           for g in J.module_generators())
            assert o_stable or J is not golden
            for deg in degrees:
                monos, vectors = J.piece_at_degree(deg)
                generated = span_at(J, deg, monos)
                assert all(span_contains(generated, v) for v in vectors), (real.datum, deg)
                if o_stable:
                    assert all(span_contains(vectors, v) for v in generated), (real.datum, deg)


def test_piece_memo_isolated_from_adjusted_copies(a1):
    d, ladder = sl2_depth_one(a1)
    J = build_j_lattice(d, ladder, rho_over(a1, 2))
    degrees = [F(k, 2) for k in range(-4, 6)]
    before = [J.piece_at_degree(deg) for deg in degrees]
    lowered = J.with_adjust(("r", 1), 1)  # f t enters at degree 1/2
    after_copy = [lowered.piece_at_degree(deg) for deg in degrees]
    changed = [deg for deg, p, q in zip(degrees, before, after_copy) if p != q]
    assert changed == [F(1, 2)]
    assert [J.piece_at_degree(deg) for deg in degrees] == before
    fresh = build_j_lattice(d, ladder, rho_over(a1, 2))
    assert [fresh.piece_at_degree(deg) for deg in degrees] == before


def test_raised_threshold_breaks_closure(a1):
    # pushing the torus part above the bracket targets must break closure
    d, ladder = sl2_depth_one(a1)
    J = build_j_lattice(d, ladder, rho_over(a1, 2))
    raised = J.with_adjust(("h", 0), -3)
    assert bracket_closure_violations(raised)


# -- moveability ----------------------------------------------------------


def test_moveability_full_rank_goldens(a1, a2):
    d1, lad1 = sl2_depth_one(a1)
    e1 = epipelagic_datum(a1, 2)
    e2 = epipelagic_datum(a2, 3)
    d3, lad3 = sl3_two_break(a2)
    cases = [
        (d1, lad1, rho_over(a1, 2)),
        (e1, extract(e1), None),
        (e2, extract(e2), None),
        (d3, lad3, rho_over(a2, 2)),
    ]
    for d, ladder, x in cases:
        for variant in ("J", "K"):
            report = moveability_check(d, ladder, x, variant=variant)
            assert report["full_rank"], (d, variant, report)
            assert report["blocks"], "window must produce at least one block"


def test_moveability_negative_control(a2):
    lam = Tail(a2, 1, {F(1): [1, 0]})  # kills alpha_2: not G-regular
    bad = PolarDatum(split_torus_class(a2), frozenset(), lam, validate=False)
    ladder = YuLadder(bad, [F(1)], [frozenset(), frozenset(range(6))],
                      [lam, Tail.zero(a2)], validate=False)
    report = moveability_check(bad, ladder, variant="K")
    assert not report["full_rank"]
    assert report["rank_defects"] >= 1


# -- graded regularity search ---------------------------------------------


def eigen_regular_agrees(rd, m):
    return eigen_regular_check(rd, m) == (m in regular_numbers(rd)["regular"])


def test_eigen_regular_examples(a1, a2):
    assert eigen_regular_check(a1, 2)
    assert eigen_regular_check(a2, 3)
    assert not eigen_regular_check(a2, 5)
    for rd, ms in ((a1, (2,)), (a2, (2, 3, 5))):
        for m in ms:
            assert eigen_regular_agrees(rd, m)
