"""Acceptance suite: every criterion as a dedicated test at its stated
tolerance (exact arithmetic throughout), printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; timings are wall-clock and asserted against the stated budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from polarium.chevmap import default_grid, sl2_crosscheck, sl2_stratum
from polarium.cyclo import CycloNumber
from polarium.looplie import (Realization, bracket_closure_violations,
                              build_j_lattice, lagrangian, moveability_check,
                              psi_lambda_check, symplectic_form_on_piece,
                              v_piece_at_degree)
from polarium.polar import (PolarDatum, classify, epipelagic_datum,
                            partition_check, sample_equivariant_tail)
from polarium.rootdata import build
from polarium.tails import Tail
from polarium.tori import (is_springer_regular, list_torus_classes,
                           regular_numbers, split_torus_class)
from polarium.yuseq import YuLadder, extract

from .oracles import (add_tails, cyclo_rank, cyclo_terms, cyclo_value, eigen_regular_check,
                      springer_regular_sampled, stabilizer, subgroup_generated, window_basis,
                      with_adjust)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number:2d}] PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} over budget: {elapsed:.2f}s"


def rho_over(rd, k):
    return tuple(v / k for v in rd.rho_coweight())


def golden_set():
    a1, a2 = build("A1"), build("A2")
    d1 = classify(split_torus_class(a1), Tail(a1, 1, cyclo_terms({F(1): [1]})))
    e1 = epipelagic_datum(a1, 2)
    e2 = epipelagic_datum(a2, 3)
    d3 = classify(split_torus_class(a2),
                  Tail(a2, 1, cyclo_terms({F(2): [3, 0], F(1): [-1, 2]})))
    return [
        ("sl2-depth-1-toral", d1, extract(d1), rho_over(a1, 2)),
        ("sl2-epipelagic-m2", e1, extract(e1), None),
        ("sl3-epipelagic-m3", e2, extract(e2), None),
        ("sl3-two-break", d3, extract(d3), rho_over(a2, 2)),
    ]


def test_criterion_1_sl2_partition_table():
    with criterion(1, "SL2 partition table exact on the default grid", 5.0):
        kinds = {"split-toral", "nonsplit-toral", "G-zero"}
        for point in default_grid():
            stratum = sl2_stratum(point)
            assert stratum.kind in kinds
            v = point.valuation()
            if v is None:
                assert point.hi > -1 and stratum.kind == "G-zero"
                continue
            v = int(v)
            if v >= -1:
                assert stratum == type(stratum)("G-zero")
            elif v % 2 == 0:
                assert v <= -2
                assert (stratum.kind, stratum.n) == ("split-toral", -v // 2)
            else:
                assert v <= -3
                assert (stratum.kind, stratum.n) == ("nonsplit-toral", (-v - 1) // 2)


def test_criterion_2_sl2_crosscheck():
    with criterion(2, "lift-and-classify route agrees with the closed form on the grid", 30.0):
        grid = default_grid()
        agreed = sum(1 for point in grid if sl2_crosscheck(point)[1])
        assert agreed == len(grid)


def test_criterion_3_partition_properties():
    with criterion(3, "partition properties for A1, A2 over seeded samples", 120.0):
        for label, samples in (("A1", 500), ("A2", 500)):
            rd = build(label)
            report = partition_check(rd, samples=samples, seed=2024)
            assert report["violations"] == [], report["violations"]
            assert report["classified"] == samples
            orders = {int(m) for m in report["torus_orders"]}
            expected = {tc.m for tc in list_torus_classes(rd)}
            assert orders == expected  # split and twisted classes all sampled


def test_criterion_4_parabolic_stabilizers():
    with criterion(4, "stabilizers generated by their reflections (A1, A2, B2)", 120.0):
        for label in ("A1", "A2", "B2"):
            rd = build(label)
            tc = split_torus_class(rd)
            rng = random.Random(99)
            for _ in range(200):
                lam = sample_equivariant_tail(tc, rng)
                st = stabilizer(rd, lam)
                generated = subgroup_generated(rd, st["reflections"])
                assert generated == {u.matrix for u in st["elements"]}


def test_criterion_5_regular_numbers():
    with criterion(5, "Springer regularity vs sampling oracle; Coxeter number", 60.0):
        for label in ("A1", "A2", "A3", "B2", "G2"):
            rd = build(label)
            for tc in list_torus_classes(rd):
                assert is_springer_regular(tc) == springer_regular_sampled(tc)
            coxeter_number = len(rd.roots) // rd.ss_rank
            assert coxeter_number in regular_numbers(rd)["regular"]


def test_criterion_6_yu_ladders():
    with criterion(6, "depth-break ladder worked example and centralizer identities", 60.0):
        a2 = build("A2")
        d = classify(split_torus_class(a2),
                     Tail(a2, 1, cyclo_terms({F(2): [3, 0], F(1): [-1, 2]})))
        ladder = extract(d)
        assert ladder.breaks == [1, 2]
        assert ladder.levels == [frozenset(), frozenset({1, 4}), frozenset(range(6))]
        total = ladder.components[0]
        for part in ladder.components[1:]:
            total = add_tails(total, part)
        assert total == d.lam
        # ladder construction machine-checks the centralizer identity on
        # every sample; extract() raising would fail the criterion
        for label in ("A1", "A2"):
            rd = build(label)
            rng = random.Random(42)
            for tc in list_torus_classes(rd):
                for _ in range(30):
                    extract(classify(tc, sample_equivariant_tail(tc, rng)))


def test_criterion_7_j_lattice_suite():
    with criterion(7, "bracket closure and the tail character on the golden set", 60.0):
        for name, d, ladder, x in golden_set():
            lattice = build_j_lattice(d, ladder, x)  # raises on closure failure
            assert psi_lambda_check(lattice), name
            base = len(window_basis(lattice, -3, 4))
            controls = 0
            for gen in [("r", 0), ("r", 1), ("h", 0)]:
                for steps in (1, 2, 3):
                    corrupted = with_adjust(lattice, gen, steps)
                    if len(window_basis(corrupted, -3, 4)) > base:
                        broke = bool(bracket_closure_violations(corrupted)) \
                            or not psi_lambda_check(corrupted)
                        assert broke, (name, gen)
                        controls += 1
                        break
            assert controls == 3, name


def test_criterion_8_symplectic_forms():
    with criterion(8, "alternating nondegenerate break forms with Lagrangians", 60.0):
        found_any = False
        for name, d, ladder, x in golden_set():
            real = Realization(d, ladder, x)
            for j in range(1, len(ladder.levels)):
                piece = v_piece_at_degree(real, j, real.grid(ladder.half_depths[j - 1]))
                if not piece:
                    continue
                found_any = True
                form = symplectic_form_on_piece(real, j, piece)
                k = len(form)
                for a in range(k):
                    assert cyclo_value(form[a][a]).is_zero()
                    for b in range(k):
                        assert cyclo_value(form[a][b] + form[b][a]).is_zero()
                assert cyclo_rank([[cyclo_value(c) for c in r] for r in form]) == k
                half = lagrangian(form)
                assert len(half) == k // 2
                for u in half:
                    for v in half:
                        total = CycloNumber.zero()
                        for p in range(k):
                            for q in range(k):
                                total = total + u[p] * v[q] * form[p][q]
                        assert total.is_zero()
        assert found_any


def test_criterion_9_moveability():
    with criterion(9, "full per-degree rank for both lattice variants", 120.0):
        for name, d, ladder, x in golden_set():
            for variant in ("J", "K"):
                report = moveability_check(d, ladder, x, variant=variant)
                assert report["full_rank"], (name, variant, report["blocks"])
        a2 = build("A2")
        lam = Tail(a2, 1, cyclo_terms({F(1): [1, 0]}))
        bad = PolarDatum(split_torus_class(a2), frozenset(), lam, validate=False)
        forced = YuLadder(bad, [F(1)], [frozenset(), frozenset(range(6))],
                          [lam, Tail(a2, 1, {})], validate=False)
        report = moveability_check(bad, forced, variant="K")
        assert report["rank_defects"] >= 1
        assert not report["full_rank"]


def test_criterion_10_epipelagic_grading():
    with criterion(10, "epipelagic graded dimensions and graded regularity", 60.0):
        a1, a2 = build("A1"), build("A2")
        _name, d, ladder, x = golden_set()[0]  # sl2 depth 1 at rho/2
        real = Realization(d, ladder, x)
        assert len(real.monomials_at_degree(real.grid(F(0)))) == 1
        assert len(real.monomials_at_degree(real.grid(F(1, 2)))) == 2
        for rd, ms in ((a1, (2,)), (a2, (2, 3, 5))):
            table = regular_numbers(rd)["regular"]
            for m in ms:
                assert eigen_regular_check(rd, m) == (m in table)
