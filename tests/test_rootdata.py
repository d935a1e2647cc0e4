import json
import random
import time
from fractions import Fraction

import pytest

from polarium.errors import InvalidArgumentError, ResourceLimitError, UnsupportedFeatureError
from polarium.rootdata import WeylElement, build, is_q_closed, q_closure, stable_under

from .oracles import (apply_coweight, apply_weight, closure_roots_from_cartan, inverse_by_rref,
                      mat_mul_oracle, reflection_matrices, reflection_matrix,
                      roots_by_pair_closure, span_contains, weyl_bfs_order)

KERNEL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2")
WEYL_TYPES = KERNEL_TYPES + ([["A", 2], ["torus", 1]],)


def test_build_a1(a1):
    assert len(a1.roots) == 2
    assert len(a1.weyl_elements()) == 2


@pytest.mark.parametrize("label,expected_roots,expected_order", [
    ("A2", 6, 6),
    ("A3", 12, 24),
    ("B2", 8, 8),
    ("C3", 18, 48),
    ("D4", 24, 192),
    ("G2", 12, 12),
])
def test_closure_counts_match_oracle(label, expected_roots, expected_order):
    rd = build(label)
    oracle = closure_roots_from_cartan(rd.cartan)
    assert len(rd.roots) == len(oracle) == expected_roots
    assert len(rd.weyl_elements()) == rd.weyl_order() == expected_order


@pytest.mark.parametrize("label", KERNEL_TYPES + ("A16", "B16", "C16", "D16",
                                                  [["B", 2], ["G", 2], ["torus", 1]]))
def test_positive_closure_matches_pair_closure(label):
    # the positive-root closure with negation gives the same roots, coroots,
    # order and negation index as closing every (root, coroot) pair under
    # every simple reflection
    rd = build(label)
    roots, coroots, index, negation = roots_by_pair_closure(rd)
    assert rd.roots == roots
    assert rd.coroots == coroots
    assert rd.root_index == index
    assert tuple(map(rd.negative_of, range(len(rd.roots)))) == negation
    # the positive roots the closure keeps are the roots with a nonnegative
    # coroot, half of them, and negation sends them onto the rest
    assert rd.positive == {k for k, coroot in enumerate(coroots) if min(coroot) >= 0}
    assert len(rd.positive) == len(roots) // 2
    assert set(map(rd.negative_of, rd.positive)) == set(range(len(roots))) - rd.positive


def test_reflections_and_shared_identity():
    for label in KERNEL_TYPES:
        rd = build(label)
        assert rd.identity_element() is rd.identity_element()
        assert rd.weyl_elements()[0] == rd.identity_element()
        for root, coroot in zip(rd.roots, rd.coroots):
            mat = reflection_matrix(root, coroot)
            s = WeylElement.from_matrix(rd, mat)
            assert apply_weight(s, root) == tuple(-v for v in root)
            assert s.compose(s).is_identity()
        assert len(reflection_matrices(rd)) == len(rd.roots) // 2


def test_negative_root_has_negated_coroot():
    for label in KERNEL_TYPES:
        rd = build(label)
        for i, coroot in enumerate(rd.coroots):
            assert rd.coroots[rd.negative_of(i)] == tuple(-v for v in coroot)


def test_coroot_normalization(g2):
    for root, coroot in zip(g2.roots, g2.coroots):
        assert g2.pairing(coroot, root) == 2


def test_unsupported_types():
    with pytest.raises(UnsupportedFeatureError):
        build("E8")
    with pytest.raises(UnsupportedFeatureError):
        build("F4")


def test_weyl_order_bound(monkeypatch):
    import polarium.rootdata as rootdata

    a8 = build("A8")
    assert a8.weyl_order() == 362_880

    def no_enumeration(*args):
        raise AssertionError("Weyl group enumerated before the bound was checked")

    monkeypatch.setattr(rootdata, "_born_left", no_enumeration)
    assert a8.identity_element().is_identity()
    with pytest.raises(ResourceLimitError):
        a8.weyl_elements()
    monkeypatch.undo()

    monkeypatch.setattr(rootdata, "WEYL_ORDER_BOUND", 100)
    with pytest.raises(ResourceLimitError):
        build("A4").weyl_elements()


def test_trivial_classify_needs_no_weyl_enumeration(monkeypatch, capsys):
    # a torus-less request uses only the identity element, even past the bound
    import polarium.rootdata as rootdata
    from polarium.cli import main

    def no_enumeration(*args):
        raise AssertionError("Weyl group enumerated for a torus-less request")

    monkeypatch.setattr(rootdata, "_born_left", no_enumeration)
    for label, dim in (("A7", 7), ("A8", 8)):
        doc = {"type": label, "lambda": {"m": 1, "terms": []}}
        assert main(["classify", "--input", json.dumps(doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["torus"]["w"] == [[int(i == j) for j in range(dim)] for i in range(dim)]
        assert len(out["levi"]) == dim * (dim + 1)


def test_composite_with_torus():
    rd = build([["A", 1], ["torus", 2]])
    assert rd.dim == 3
    assert len(rd.roots) == 2
    w = rd.weyl_elements()[1]
    # central coordinates are untouched
    assert apply_coweight(w, (0, 5, 7)) == (0, 5, 7)


def test_weyl_identity_first_and_closed(a2):
    elements = a2.weyl_elements()
    assert elements[0].is_identity()
    mats = {w.matrix for w in elements}
    for u in elements:
        for v in elements:
            assert u.compose(v).matrix in mats


def test_root_permutation_consistent(b2):
    for w in b2.weyl_elements():
        perm = w.root_permutation
        for idx, root in enumerate(b2.roots):
            assert b2.roots[perm[idx]] == apply_weight(w, root)


def test_q_closure_examples(a2, b2):
    # a rank-1 span meets only +-alpha
    pair = {0, a2.negative_of(0)}
    assert q_closure(a2, pair) == frozenset(pair)
    assert is_q_closed(a2, pair)
    # long roots of B2 span the plane, so their closure is everything;
    # a root is long exactly when some other coroot pairs with it to +-2
    long_roots = [
        idx for idx, root in enumerate(b2.roots)
        if any(abs(b2.pairing(b2.coroots[j], root)) == 2
               for j in range(len(b2.roots)) if j not in (idx, b2.negative_of(idx)))
    ]
    assert len(long_roots) == 4
    assert q_closure(b2, long_roots) == frozenset(range(8))
    assert not is_q_closed(b2, long_roots)
    assert q_closure(a2, set()) == frozenset()
    assert is_q_closed(a2, set(range(len(a2.roots))))


def test_q_closure_against_span_oracle(a2, b2, g2):
    rng = random.Random(11)
    for rd in (a2, b2, g2):
        for _ in range(25):
            size = rng.randint(0, 3)
            subset = set(rng.sample(range(len(rd.roots)), size)) if size else set()
            closed = q_closure(rd, subset)
            base = [rd.roots[i] for i in subset]
            for idx, root in enumerate(rd.roots):
                expected = bool(subset) and span_contains(base, root)
                assert (idx in closed) == expected


def test_q_closure_is_closure_operator(a2, b2, g2):
    rng = random.Random(23)
    for rd in (a2, b2, g2):
        for _ in range(20):
            subset = set(rng.sample(range(len(rd.roots)), rng.randint(0, 4)))
            closed = q_closure(rd, subset)
            assert subset <= closed                      # extensive
            assert q_closure(rd, closed) == closed       # idempotent
            bigger = subset | set(rng.sample(range(len(rd.roots)), 1))
            assert closed <= q_closure(rd, bigger)       # monotone
            negated = {rd.negative_of(i) for i in closed}
            assert negated == closed                     # stable under negation


def test_q_closure_preserves_w_stability(a2, b2):
    rng = random.Random(37)
    for rd in (a2, b2):
        for w in rd.weyl_elements():
            perm = w.root_permutation
            seed_set = set(rng.sample(range(len(rd.roots)), 2))
            stable = set(seed_set)
            while True:
                nxt = stable | {perm[i] for i in stable}
                if nxt == stable:
                    break
                stable = nxt
            closed = q_closure(rd, stable)
            assert stable_under(rd, w, closed)


def test_inverse_matrix():
    # inverses derived from BFS parents, products and the identity alike
    for label in WEYL_TYPES:
        rd = build(label)
        identity = tuple(tuple(int(i == j) for j in range(rd.dim)) for i in range(rd.dim))
        elements = rd.weyl_elements()
        for w in elements + [u.compose(v) for u, v in zip(elements, reversed(elements))]:
            assert mat_mul_oracle(w.matrix, w.inverse().matrix) == identity, label
            assert w.compose(w.inverse()).is_identity(), label


def test_root_permutation_without_inverse():
    # w alpha_i = alpha_perm[i] on the character side is w^T alpha_perm[i] = alpha_i,
    # for W and for the inverses and products that carry their permutation over
    for label in WEYL_TYPES:
        rd = build(label)
        elements = rd.weyl_elements()
        inverses = [w.inverse() for w in elements]
        products = [u.compose(v) for u, v in zip(elements, reversed(elements))]
        for w in elements + inverses + products:
            perm = w.root_permutation
            for i, root in enumerate(rd.roots):
                image = rd.roots[perm[i]]
                assert tuple(sum(w.matrix[k][j] * image[k] for k in range(rd.dim))
                             for j in range(rd.dim)) == root, label


def test_from_matrix_rebuilds_every_weyl_element():
    # descent to the identity and rebirth over the recorded word give back
    # each element of W with its matrix, inverse and root permutation
    for label in WEYL_TYPES:
        rd = build(label)
        for w in rd.weyl_elements():
            v = WeylElement.from_matrix(rd, [list(row) for row in w.matrix])
            assert (v.matrix, v.inverse().matrix, v.root_permutation) \
                == (w.matrix, w.inverse().matrix, w.root_permutation), label


def test_from_matrix_refuses_root_permutations_outside_weyl_group():
    # each matrix sends every root to a root, yet none is in W: diagram
    # automorphisms of A3 and D4, -1 on A2 (the longest element times the
    # swap) and a singular matrix that folds the roots of A1xA1 onto one
    # factor; test_cli refuses the A2 swap and two matrices on central tori
    refused = [
        ("A2", [[-1, 0], [0, -1]]),
        ("A3", [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        ("D4", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        ([["A", 1], ["A", 1]], [[1, 0], [1, 0]]),
    ]
    for label, mat in refused:
        with pytest.raises(InvalidArgumentError, match="matrix is not in the Weyl group"):
            WeylElement.from_matrix(build(label), mat)
    # -1 is the longest element of B2, and is accepted as one
    b2 = build("B2")
    w = WeylElement.from_matrix(b2, [[-1, 0], [0, -1]])
    assert w.root_permutation == tuple(b2.negative_of(k) for k in range(len(b2.roots)))


def test_from_matrix_takes_the_longest_element_of_a16_quickly():
    # 136 descent steps, one per positive root
    rd = build("A16")
    n = rd.dim
    w0 = tuple(tuple(-int(i + j == n - 1) for j in range(n)) for i in range(n))
    start = time.perf_counter()
    w = WeylElement.from_matrix(rd, w0)
    assert time.perf_counter() - start < 0.5
    assert w.matrix == w.inverse().matrix == w0
    assert all(min(rd.coroots[w.root_permutation[k]]) < 0
               for k, coroot in enumerate(rd.coroots) if min(coroot) >= 0)


def test_weyl_order_matches_plain_bfs():
    # the enumeration, indexed by the images of the simple roots, against the
    # plain BFS on matrices: its order, s_i times each element and each inverse
    for label in WEYL_TYPES + ([["B", 2], ["G", 2]],):
        rd = build(label)
        elements = rd.weyl_elements()
        mats = weyl_bfs_order(rd)
        assert [w.matrix for w in elements] == mats, label
        assert elements[0] is rd.identity_element()
        where = {mat: k for k, mat in enumerate(mats)}
        left, inverse = rd.weyl_table()
        for i, (root, coroot) in enumerate(zip(rd.simple_roots, rd.simple_coroots)):
            s = reflection_matrix(root, coroot)
            assert left[i] == [where[mat_mul_oracle(s, mat)] for mat in mats], (label, i)
        assert inverse == [where[inverse_by_rref(mat)] for mat in mats], label


def test_negation_index_and_root_sums_match_root_lookup():
    for label in WEYL_TYPES + ("A7", "B4", "C4", "D5", [["B", 2], ["G", 2]]):
        rd = build(label)
        for i, root in enumerate(rd.roots):
            assert rd.negative_of(i) == rd.root_index[tuple(-v for v in root)], label
            for j, other in enumerate(rd.roots):
                total = tuple(a + b for a, b in zip(root, other))
                assert rd.root_sum(i, j) == rd.root_index.get(total), label


@pytest.mark.parametrize("label", WEYL_TYPES + ([["B", 2], ["G", 2]],),
                         ids=lambda spec: build(spec).type_label())
def test_matrices_read_off_the_coroots_match_matrix_oracles(label, monkeypatch):
    # each element of W, its inverse and a product, against integer matrices
    # from the plain BFS: matrix, inverse and covector action, the order and
    # every trace tr(w^j) that TorusClass reads, all by matrix powers
    import polarium.tori as tori

    traces = []

    def record(found, m):
        traces.append(found)
        return eigendims(found, m)

    eigendims = tori._eigendims
    monkeypatch.setattr(tori, "_eigendims", record)
    rd = build(label)
    identity = tuple(tuple(int(i == j) for j in range(rd.dim)) for i in range(rd.dim))
    elements, mats = rd.weyl_elements(), weyl_bfs_order(rd)
    assert [w.matrix for w in elements] == mats, label
    pairs = list(zip(elements, mats))
    cases = pairs + [(w.inverse(), inverse_by_rref(mat)) for w, mat in pairs]
    cases += [(u.compose(v), mat_mul_oracle(a, b))
              for (u, a), (v, b) in zip(pairs, reversed(pairs))]
    for w, mat in cases:
        inverse = inverse_by_rref(mat)
        assert w.matrix == mat, label
        assert w.inverse().matrix == inverse, label
        assert w.covector_matrix() == tuple(zip(*inverse)), label
        powers = [identity]
        while (power := mat_mul_oracle(mat, powers[-1])) != identity:
            powers.append(power)
        assert w.order() == len(powers), label
        tori.TorusClass(rd, w, len(powers))
        assert traces.pop() == [sum(p[k][k] for k in range(rd.dim)) for p in powers], label


def test_rho_coweight_pairs_to_one():
    for label in WEYL_TYPES:
        rd = build(label)
        rho = rd.rho_coweight()
        assert len(rho) == rd.dim, label
        assert [rd.pairing(rho, alpha) for alpha in rd.simple_roots] == [1] * rd.ss_rank, label


def test_rho_coweight_on_products_and_central_tori():
    # half the sum of the positive coroots, one coordinate per dimension:
    # a central torus coordinate is 0, and a pure torus is all zeros, not ()
    F = Fraction
    assert build([["torus", 2]]).rho_coweight() == (F(0), F(0))
    assert build([["A", 2], ["torus", 1]]).rho_coweight() == (F(1), F(1), F(0))
    assert build([["B", 2], ["G", 2]]).rho_coweight() == (F(2), F(3, 2), F(5), F(3))
