import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from polarium import cli, jsonio, looplie
from polarium.cyclo import CycloNumber
from polarium.errors import InternalInvariantViolation
from polarium.linalg import rank
from polarium.looplie import (JLattice, Realization, bracket_closure_violations,
                              build_j_lattice, lagrangian, moveability_check,
                              psi_lambda_check, root_positions, symplectic_form_on_piece,
                              v_piece_at_degree)
from polarium.polar import PolarDatum, classify, epipelagic_datum
from polarium.rootdata import build
from polarium.tails import Tail
from polarium.tori import regular_numbers, split_torus_class
from polarium.yuseq import YuLadder, extract

from .oracles import (AdjustedLattice, LaurentMatrix, as_field, bracket_closure_on_window,
                      cyclo_rank, cyclo_terms, cyclo_value, dense, eigen_regular_check,
                      extra_lines, in_span_by_rref, matrix_positions, monomials_by_scan,
                      pair_lines, piece_by_definition, piece_vectors, psi_on_window,
                      ref_base_threshold, ref_m_lines_at_degree, ref_monomials_at_degree, ref_rref,
                      span_contains, window_basis, with_adjust)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

ONE = CycloNumber.from_rational(1)


def rho_over(rd, k):
    return tuple(v / k for v in rd.rho_coweight())


def sl2_depth_one(a1):
    d = classify(split_torus_class(a1), Tail(a1, 1, cyclo_terms({F(1): [1]})))
    return d, extract(d)


def sl3_two_break(a2):
    d = classify(split_torus_class(a2), Tail(a2, 1, cyclo_terms({F(2): [3, 0], F(1): [-1, 2]})))
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


def shift_dual(n):
    """X^(n-1) t^-1 as a Laurent matrix, X = N + t E(n,1) the cyclic shift:
    the trace dual of the epipelagic tail."""
    shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    corner = [[int((i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
    x = LaurentMatrix(n, {0: shift, 1: corner})
    power = x
    for _ in range(n - 2):
        power = power.mul(x)
    return LaurentMatrix(n, {p - 1: m for p, m in power.terms.items()})


def sl3_two_break_dual():
    """diag(2, -1, -1) t^-2 + diag(0, 1, -1) t^-1, the dual of `sl3_two_break`."""
    return LaurentMatrix(3, {
        -2: [[2, 0, 0], [0, -1, 0], [0, 0, -1]],
        -1: [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
    })


def nonzero_terms(lm):
    return {p: m for p, m in lm.terms.items() if any(x for row in m for x in row)}


# -- gradings ------------------------------------------------------------


def test_mp_graded_piece_sl2(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, rho_over(a1, 2))
    assert real.monomials_at_degree(real.grid(F(1, 2))) == [(("r", 0), 0), (("r", 1), 1)]
    assert real.monomials_at_degree(real.grid(F(0))) == [(("h", 0), 0)]
    integral = Realization(d, ladder, (F(0),))
    assert integral.monomials_at_degree(integral.grid(F(1, 2))) == []


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
        d = classify(split_torus_class(rd), Tail(rd, 1, {}))
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
    g0 = classify(split_torus_class(a2), Tail(a2, 1, {}))
    assert split(extract(g0)) == [sorted(range(6))]
    d1, lad1 = sl2_depth_one(a1)
    assert split(lad1)[1] == [0, 1]


# -- symplectic forms ----------------------------------------------------


def test_symplectic_sl2_matches_residue_oracle(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, rho_over(a1, 2))
    piece = v_piece_at_degree(real, 1, real.grid(ladder.half_depths[0]))
    form = symplectic_form_on_piece(real, 1, piece)
    assert piece == [{(("r", 0), 0): 1}, {(("r", 1), 1): 1}]
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
    assert v_piece_at_degree(real, 1, real.grid(ladder.half_depths[0])) == []


def test_symplectic_sl3_both_breaks(a2):
    d, ladder = sl3_two_break(a2)
    real = Realization(d, ladder, rho_over(a2, 2))
    for j in (1, 2):
        piece = v_piece_at_degree(real, j, real.grid(ladder.half_depths[j - 1]))
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
                deg = real.grid(F(k, n) + e)
                piece = v_piece_at_degree(real, 1, deg)
                monos = real.monomials_at_degree(deg)
                assert all(set(vec) <= set(monos) for vec in piece)
                assert len(piece) == len(monos) - 1
                for vec in piece:
                    lm = as_laurent(real, {m: cyclo_value(c).as_rational()
                                           for m, c in vec.items()})
                    assert all(lm.residue_pair(dual) == 0 for dual in cartan), (n, deg)


def test_lagrangian_outputs(a1):
    d, ladder = sl2_depth_one(a1)
    real = Realization(d, ladder, rho_over(a1, 2))
    form = symplectic_form_on_piece(
        real, 1, v_piece_at_degree(real, 1, real.grid(ladder.half_depths[0])))
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
    # the Darboux pass is the only nondegeneracy proof of a break form: a
    # pivot with no partner, in a zero form, in a rank-2 form on four
    # vectors and in any form on three, ends it with the break-piece fault
    z = CycloNumber.zero()
    zero, one, two, three = F(0), F(1), F(2), F(3)
    rank_two = [[zero, one, zero, zero], [-one, zero, zero, zero],
                [zero] * 4, [zero] * 4]
    odd = [[zero, one, two], [-one, zero, three], [-two, -three, zero]]
    for form in ([[z, z], [z, z]], rank_two, odd):
        with pytest.raises(InternalInvariantViolation,
                           match="^symplectic form is degenerate on the break piece$"):
            lagrangian(form)


def test_lagrangian_on_integer_forms():
    # seeded random nondegenerate alternating integer forms, k = 2..8: the
    # output is exact (ints and Fractions, never a float), isotropic and
    # half-dimensional, and equals entry by entry the output for the same
    # form written in Fractions; where every scale is a unit it is all ints,
    # past k = 2 too
    rng = random.Random(31)
    kinds, seen, wide_ints = set(), set(), 0
    for k in (2, 4, 6, 8) * 6:
        form = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                form[a][b] = rng.randint(-3, 3)
                form[b][a] = -form[a][b]
        if rank(form) < k:
            continue
        seen.add(k)
        lag = lagrangian(form)
        assert all(type(c) in (int, F) for u in lag for c in u), form
        kinds |= {type(c) for u in lag for c in u}
        wide_ints += k > 2 and all(type(c) is int for u in lag for c in u)
        assert len(lag) == k // 2 and rank(lag) == k // 2
        for u in lag:
            for v in lag:
                assert sum(u[a] * form[a][b] * v[b] for a in range(k) for b in range(k)) == 0
        assert lagrangian([[F(c) for c in row] for row in form]) == lag, form
    assert seen == {2, 4, 6, 8} and kinds == {int, F} and wide_ints


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
            monos = real.monomials_at_degree(real.grid(F(deg)))
            _, vectors = piece_vectors(J, real.grid(F(deg)))
            expected = len(monos) if deg > 0 else 0
            assert len(vectors) == expected, (rd.type_label(), deg)
            deg += step
        assert psi_lambda_check(J)


def test_build_full_datum_nonneg_part(a2):
    g0 = classify(split_torus_class(a2), Tail(a2, 1, {}))
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
        cases.append((Realization(d, extract(d)), shift_dual(n)))
    d, ladder = sl3_two_break(a2)
    cases.append((Realization(d, ladder, rho_over(a2, 2)), sl3_two_break_dual()))
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
    return [with_adjust(J, gen, steps) for gen in J.real.generators()
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
                candidate = with_adjust(J, gen, steps)
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
    C = with_adjust(J, ("h", 0), 1)
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
                adjusted = with_adjust(J, gen, steps)
                n0 = scanned(adjusted, gen)
                assert adjusted.threshold(gen) == n0, (J.real.datum, gen, steps)
                entry = jsonio.jlattice_to_json(adjusted)["thresholds"][J.real.generators().index(gen)]
                assert entry["q"] == str(J.real.fraction(J.real.degree((gen, n0))))


def test_module_generators_span_each_piece(a1, a2):
    # at each degree the t-multiples of the O-module generators span the
    # piece; they stay inside it exactly when every t-multiple of a
    # generator does, which a raised threshold may break
    def span_at(J, deg, monos):
        index = {m: i for i, m in enumerate(monos)}
        out = []
        for g in J.module_generators():
            k = deg - J.real.degree(next(iter(g)))
            if k >= 0 and k % J.real.N == 0:
                vec = [F(0)] * len(monos)
                for (gen, n), c in g.items():
                    vec[index[(gen, n + k // J.real.N)]] = c
                out.append(vec)
        return out

    def contains(J, line):
        deg = J.real.degree(next(iter(line)))
        monos, vectors = piece_vectors(J, deg)
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
                monos, vectors = piece_vectors(J, deg)
                generated = span_at(J, deg, monos)
                assert all(span_contains(generated, v) for v in vectors), (real.datum, deg)
                if o_stable:
                    assert all(span_contains(vectors, v) for v in generated), (real.datum, deg)


def test_piece_memo_isolated_from_adjusted_copies(a1):
    d, ladder = sl2_depth_one(a1)
    J = build_j_lattice(d, ladder, rho_over(a1, 2))
    degrees = [J.real.grid(F(k, 2)) for k in range(-4, 6)]
    before = [J.piece_at_degree(deg) for deg in degrees]
    lowered = with_adjust(J, ("r", 1), 1)  # f t enters at degree 1/2
    after_copy = [lowered.piece_at_degree(deg) for deg in degrees]
    changed = [deg for deg, p, q in zip(degrees, before, after_copy) if p != q]
    assert changed == [J.real.grid(F(1, 2))]
    assert [J.piece_at_degree(deg) for deg in degrees] == before
    fresh = build_j_lattice(d, ladder, rho_over(a1, 2))
    assert [fresh.piece_at_degree(deg) for deg in degrees] == before


def test_threshold_table_shared_with_adjusted_copies(a1, a2):
    # a corrupted copy reads the lattice's base thresholds and subtracts its
    # adjustment; building and using copies leaves the original's
    # thresholds and pieces as they were
    rng = random.Random(11)
    for J in golden_lattices(a1, a2):
        gens = J.real.generators()
        base = {gen: J.threshold(gen) for gen in gens}
        degrees = sorted({J.real.degree((gen, base[gen] + k)) for gen in gens for k in (-1, 0, 1)})
        pieces = [J.piece_at_degree(deg) for deg in degrees]
        memo = dict(J._pieces)
        for _ in range(4):
            adjust = {gen: rng.choice((-2, -1, 1, 2)) for gen in rng.sample(gens, 3)}
            C = AdjustedLattice(J, adjust)
            assert {gen: C.threshold(gen) for gen in gens} == \
                {gen: base[gen] - adjust.get(gen, 0) for gen in gens}
            assert [C.piece_at_degree(deg) for deg in degrees] != pieces
        assert {gen: J.threshold(gen) for gen in gens} == base
        assert J._pieces == memo
        assert [J.piece_at_degree(deg) for deg in degrees] == pieces


GOLDENS = Path(__file__).parent / "goldens"


def lattice_from_request(path: Path):
    doc = json.loads(path.read_text())
    d = jsonio.datum_from_json(doc["datum"])
    return build_j_lattice(d, extract(d), jsonio.parse_coweight(d.rd, doc.get("x")))


def test_slot_matches_generator_scan(a1, a2):
    # the closed-form slot equals the scan over every generator at each
    # degree k/N in [-3, 4], split and twisted
    reals = [J.real for J in golden_lattices(a1, a2)]
    reals += [J.real for J in answered_universe_lattices().values()]
    assert any(real.twisted for real in reals)
    for real in reals:
        for deg in range(-3 * real.N, 4 * real.N + 1):
            assert real.monomials_at_degree(deg) == monomials_by_scan(real, deg), \
                (real.datum, deg)


def lattice_realizations(a1, a2) -> list:
    """A Realization for every lattice datum: the goldens, the golden
    requests and each request of the lattice universe, the known failures
    and the forced ladder included."""
    docs = [json.loads(req.text) for req in workloads.lattice_universe().values()]
    docs += [json.loads(path.read_text()) for path in sorted(GOLDENS.glob("*_request.json"))]
    seen, reals = set(), [J.real for J in golden_lattices(a1, a2)]
    for doc in docs:
        key = json.dumps([doc.get("datum"), doc.get("x"), doc.get("ladder")], sort_keys=True)
        if "datum" not in doc or key in seen:
            continue
        seen.add(key)
        d = jsonio.datum_from_json(doc["datum"])
        ladder = jsonio.ladder_from_json(d, doc.get("ladder"))
        reals.append(Realization(d, ladder, jsonio.parse_coweight(d.rd, doc.get("x"))))
    return reals


def test_levi_lines_lie_in_their_slot(a1, a2):
    # the lattice layer reads the Levi lines of a degree unfiltered: each
    # lies in the slot wherever the slot is nonempty, a twisted line is the
    # slot's root monomials on the 1/n grid, and off that grid a twisted slot
    # is empty; checked at each degree k/N in [-4, 4]
    reals = lattice_realizations(a1, a2)
    assert {real.twisted for real in reals} == {False, True}
    assert len(reals) > 20
    for real in reals:
        for deg in range(-4 * real.N, 4 * real.N + 1):
            slot = set(real.monomials_at_degree(deg))
            lines = real.m_lines_at_degree(deg)
            if not real.twisted:
                assert all(slot.issuperset(line) for line in lines), (real.datum, deg)
                continue
            assert bool(slot) == (deg * real.n % real.N == 0), (real.datum, deg)
            roots = {m for m in slot if m[0][0] == "r"}
            if slot:
                assert [set(line) for line in lines] == ([roots] if roots else []), \
                    (real.datum, deg)


def test_degree_grid_matches_fraction_references(a1, a2):
    # the slot, the Levi lines and the thresholds on the grid 1/N equal
    # their Fraction-degree references at every k/N in [-4, 4], and each
    # break and half-depth lies on the grid, on every lattice datum (the
    # known failures and the goldens included); the twisted half-depths 3/8
    # and 3/10 lie off the 1/n grid, where a negative twisted degree reads
    # j by truncation toward zero
    reals = lattice_realizations(a1, a2)
    off_grid = {s for real in reals if real.twisted for s in real.ladder.half_depths
                if (s * real.n).denominator != 1}
    assert {F(3, 8), F(3, 10)} <= off_grid
    assert any(real.rd.type_label() == "A2" and len(real.ladder.breaks) == 2 for real in reals)
    for real in reals:
        for q in real.ladder.breaks + real.ladder.half_depths:
            assert real.fraction(real.grid(q)) == q, (real.datum, q)
        for deg in range(-4 * real.N, 4 * real.N + 1):
            q = F(deg, real.N)
            assert real.fraction(deg) == q
            assert real.monomials_at_degree(deg) == ref_monomials_at_degree(real, q), \
                (real.datum, q)
            assert real.m_lines_at_degree(deg) == ref_m_lines_at_degree(real, q), (real.datum, q)
        # a K lattice assembles no break piece, so the known failures build
        # one too; its J thresholds are read with its kind switched
        lattice = JLattice(real, "K")
        for kind in ("K", "J"):
            lattice.kind = kind
            for gen in real.generators():
                assert lattice._base_threshold(gen) == ref_base_threshold(lattice, gen), \
                    (real.datum, kind, gen)


def test_membership_matches_dense_reference(a1, a2):
    # contains_line against one elimination, in the dense coordinates of the
    # slot, of the piece built from its definition and the target: every
    # monomial of each slot the proof visits, each O-module generator, its
    # t-multiple and each generator bracket, on the goldens, the answered
    # benchmark lattices and their corrupted copies; some of the lines that
    # lie in a piece need its extra lines
    verdicts = {}

    def expected(piece, line):
        monos, vectors, piece_key = piece
        target = [line.get(m, F(0)) for m in monos]
        key = (piece_key, repr(target))
        if key not in verdicts:
            verdicts[key] = in_span_by_rref(vectors, target)
        return verdicts[key]

    intact = golden_lattices(a1, a2) + list(answered_universe_lattices().values())
    intact += [lattice_from_request(GOLDENS / name)
               for name in ("jlattice_request.json", "jlattice_mixed_conductor_request.json")]
    needs_extra = 0
    for J in intact:
        for C in [J] + adjusted_copies(J):
            lines = C.module_generators()
            lines += [{(gen, n + 1): c for (gen, n), c in g.items()} for g in lines]
            lines += [line for _u, _v, line in C.generator_brackets() if line]
            degrees = {C.real.degree(next(iter(line))) for line in lines}
            lines += [{mono: F(1)} for deg in sorted(degrees)
                      for mono in monomials_by_scan(C.real, deg)]
            pieces = {deg: piece_by_definition(C, deg) for deg in degrees}
            pieces = {deg: (*piece, repr(piece)) for deg, piece in pieces.items()}
            for line in lines:
                got = C.contains_line(line)
                piece = pieces[C.real.degree(next(iter(line)))]
                assert got == expected(piece, line), (J.real.datum, line)
                needs_extra += got and any(n < C.threshold(gen) for gen, n in line)
    assert needs_extra


def test_piece_rows_are_the_reduced_extra_lines(a1, a2):
    # each piece's reduced rows and pivots are the reference rref of the
    # extra lines of its definition cut to the monomials below their
    # thresholds, and `piece_at_degree` hands out those rows as lines on
    # them; on the goldens, the answered benchmark lattices and their
    # corrupted copies, at each slot degree of t^n, -3 <= n <= 4, and at each
    # break degree. Some piece has two rows, and some twisted piece a row
    # from its Cartan line
    intact = golden_lattices(a1, a2) + list(answered_universe_lattices().values())
    intact += [lattice_from_request(GOLDENS / name)
               for name in ("jlattice_request.json", "jlattice_mixed_conductor_request.json")]
    most_rows, cartan_rows = 0, 0
    for J in intact:
        real = J.real
        degrees = {real.degree((gen, n)) for gen in real.generators() for n in range(-3, 5)}
        degrees |= {rec["degree"] for rec in J.break_pieces}
        for C in [J] + adjusted_copies(J):
            for deg in sorted(degrees):
                rest = [(gen, n) for gen, n in monomials_by_scan(real, deg)
                        if n < C.threshold(gen)]
                lines = extra_lines(C, deg)
                reduced, pivots = ref_rref([[as_field(line.get(m, 0)) for m in rest]
                                            for line in lines])
                *_, got_rest, rows, got_pivots = C._piece(deg)
                assert (list(got_rest), rows, got_pivots) == \
                    (rest, reduced[:len(pivots)], pivots), (real.datum, deg)
                assert [dense(line, rest) for line in C.piece_at_degree(deg)[2]] == rows
                most_rows = max(most_rows, len(rows))
                cartan_rows += real.twisted and bool(rows)
    assert most_rows >= 2 and cartan_rows


def recorded_blocks(monkeypatch):
    """Each pairing block built while recording, break forms included, with
    its rows, columns and the exponents the dual is cut to (None for a
    moveability block)."""
    blocks = []
    block = looplie._pairing_block

    def recording(real, rows, cols, exponents=None):
        matrix = block(real, rows, cols, exponents)
        blocks.append((real, rows, cols, exponents, matrix))
        return matrix

    monkeypatch.setattr(looplie, "_pairing_block", recording)
    return blocks


def test_pairing_block_matches_pair_lines(a1, a2, monkeypatch):
    # every block of every benchmark and golden moveability request, J and K,
    # split, twisted and cyclotomic, and every break form those requests
    # build, equals <lambda, [x, phi]> entry by entry, with the dual cut to
    # the band's exponents for a break form
    blocks = recorded_blocks(monkeypatch)
    cli = harness.import_cli()
    requests = [(req.command, req.text) for req in workloads.lattice_universe().values()
                if req.command == "moveability"]
    golden = json.loads((GOLDENS / "moveability_mixed_conductor_request.json").read_text())
    requests += [("moveability", json.dumps({**golden, "variant": v})) for v in ("J", "K")]
    for command, text in requests:
        assert harness.send(cli.main, command, text).error is None
    for d, ladder, x in [(*sl2_depth_one(a1), rho_over(a1, 2)),
                         (*sl3_two_break(a2), rho_over(a2, 2))]:
        for variant in ("J", "K"):
            moveability_check(d, ladder, x, variant=variant)
    assert any(real.twisted for real, *_ in blocks)
    assert any(isinstance(v, CycloNumber) for *_, m in blocks for row in m for v in row)
    assert any(exponents is not None and not real.twisted and any(map(any, matrix))
               for real, _rows, _cols, exponents, matrix in blocks)
    for real, rows, cols, exponents, matrix in blocks:
        reference = [[pair_lines(real, x, phi, exponents) for phi in cols] for x in rows]
        assert all(not (a - b) for got, ref in zip(matrix, reference)
                   for a, b in zip(got, ref)), real.datum
        assert [len(row) for row in matrix] == [len(cols)] * len(rows)


def test_dual_partners_match_a_scan_of_every_generator(a2, a3):
    # the partners of a generator g, read off the weights and the bracket,
    # are the nonzero <dual, [g, G t^e]> over every generator G and dual key
    # e, in that order, on split, twisted and cyclotomic data; on rational
    # data each value is also the matrix commutator paired with the dual
    d, ladder = sl3_two_break(a2)
    epi = epipelagic_datum(a3, 4)
    mixed = json.loads((GOLDENS / "moveability_mixed_conductor_request.json").read_text())
    cyclotomic = jsonio.datum_from_json(mixed["datum"])
    cases = [(Realization(d, ladder, rho_over(a2, 2)), sl3_two_break_dual()),
             (Realization(epi, extract(epi)), shift_dual(4)),
             (Realization(cyclotomic, extract(cyclotomic),
                          jsonio.parse_coweight(cyclotomic.rd, mixed["x"])), None)]
    kinds = set()
    for real, dual in cases:
        gens = real.generators()
        for g in gens:
            got = list(real._dual_partners(g))
            scan = [(e, G, val) for e in real.dual for G in gens
                    if (val := pair_lines(real, {(g, 0): 1}, {(G, e): 1}))]
            assert got == scan, (real.datum, g)
            kinds |= {(real.twisted, g[0], G[0]) for _e, G, _val in got}
            if dual is None:
                continue
            lg = as_laurent(real, {(g, 0): 1})
            matrices = [(e, G, lg.commutator(as_laurent(real, {(G, e): 1})).residue_pair(dual))
                        for e in real.dual for G in gens]
            assert got == [(e, G, val) for e, G, val in matrices if val], (real.datum, g)
    assert any(isinstance(val, CycloNumber)
               for vals in cases[-1][0].dual.values() for val in vals.values())
    # split roots meet the h_k of the dual; twisted roots meet roots and, at
    # zero weight difference, the h_k
    assert {(False, "r", "r"), (True, "r", "r"), (True, "r", "h"), (True, "h", "r")} <= kinds


def test_lattice_values_are_ints_where_integral(a1, a2, monkeypatch):
    # every value of the module generators, generator brackets, break forms,
    # Lagrangian coordinates, moveability blocks and the dual is an int, a
    # Fraction or a CycloNumber, never a float or a bool; on twisted data
    # and on split data with integral tail coefficients every one is an int.
    # The dual's exponent keys are ints on split, twisted and mixed-conductor
    # data alike
    blocks = recorded_blocks(monkeypatch)
    e1, e2 = epipelagic_datum(a1, 2), epipelagic_datum(a2, 3)
    halves = classify(split_torus_class(a2), Tail(a2, 1, cyclo_terms({F(2): [F(3, 2), 0],
                                                                       F(1): [F(-1, 3), 2]})))
    mixed = json.loads((GOLDENS / "moveability_mixed_conductor_request.json").read_text())
    cyclotomic = jsonio.datum_from_json(mixed["datum"])
    cases = [(*sl2_depth_one(a1), rho_over(a1, 2), True), (e1, extract(e1), None, True),
             (e2, extract(e2), None, True), (*sl3_two_break(a2), rho_over(a2, 2), True),
             (halves, extract(halves), rho_over(a2, 2), False),
             (cyclotomic, extract(cyclotomic),
              jsonio.parse_coweight(cyclotomic.rd, mixed["x"]), False)]
    kinds = set()
    for d, ladder, x, integral in cases:
        J = build_j_lattice(d, ladder, x)
        real = J.real
        assert {type(e) for e in real.dual} == {int}, d
        values = [c for g in J.module_generators() for c in g.values()]
        values += [c for *_, line in J.generator_brackets() for c in line.values()]
        values += [c for vals in real.dual.values() for c in vals.values()]
        for rec in J.break_pieces:
            form = symplectic_form_on_piece(
                real, rec["j"], v_piece_at_degree(real, rec["j"], rec["degree"]))
            values += [c for row in form for c in row]
            values += [c for u in lagrangian(form) for c in u]
        del blocks[:]
        for variant in ("J", "K"):
            moveability_check(d, ladder, x, variant=variant)
        assert blocks
        values += [c for *_, matrix in blocks for row in matrix for c in row]
        types = {type(c) for c in values}
        assert types <= {int, F, CycloNumber}, (d, types)
        assert (types == {int}) if integral else (len(types) > 1), (d, types)
        kinds |= types
    assert kinds == {int, F, CycloNumber}
    for other in (1.0, True):
        with pytest.raises(AssertionError):
            cyclo_value(other)


def test_k_scan_visits_positive_codegrees_only(a1, a2, monkeypatch):
    # K couples strictly positive codegrees: on the goldens and the answered
    # benchmark lattices every K column set is asked for at gamma > 0, so
    # its coset functionals live at degrees eta = -gamma < 0
    gammas = []
    cols = looplie._coset_complement_cols

    def recording(real, lattice, variant, gamma):
        gammas.append(gamma)
        return cols(real, lattice, variant, gamma)

    monkeypatch.setattr(looplie, "_coset_complement_cols", recording)
    lattices = golden_lattices(a1, a2) + list(answered_universe_lattices().values())
    assert any(J.real.twisted for J in lattices)
    for J in lattices:
        real = J.real
        del gammas[:]
        report = moveability_check(real.datum, real.ladder, real.x, variant="K")
        assert gammas and min(gammas) > 0, real.datum
        assert report["blocks"] and all(F(b["gamma"]) > 0 for b in report["blocks"])


def test_raised_threshold_breaks_closure(a1):
    # pushing the torus part above the bracket targets must break closure
    d, ladder = sl2_depth_one(a1)
    J = build_j_lattice(d, ladder, rho_over(a1, 2))
    raised = with_adjust(J, ("h", 0), -3)
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
    lam = Tail(a2, 1, cyclo_terms({F(1): [1, 0]}))  # kills alpha_2: not G-regular
    bad = PolarDatum(split_torus_class(a2), frozenset(), lam, validate=False)
    ladder = YuLadder(bad, [F(1)], [frozenset(), frozenset(range(6))],
                      [lam, Tail(a2, 1, {})], validate=False)
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
