"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the package: reflection closure in the simple-root basis, plain fraction
Gaussian elimination, sympy characteristic polynomials, and a standalone
Laurent-matrix pairing. Nothing imports package internals beyond public
arithmetic types, except that `springer_regular_by_eigenspace` takes its
eigenspace basis from the package's `TorusClass` and pairs every coroot with
it through `ref_dot_int`, where the package counts the eigenspace's dimension
against the degrees; the enumeration of regular numbers decides each
conjugacy class with that oracle. `ref_rref` is the package's elimination as it was
before rational matrices were eliminated on integers: one field path for
every entry type, zero tests by truthiness and a reciprocal per pivot. The
oracles here that eliminate use it, and span membership eliminates the
whole basis and the target for every query, as membership was computed
before the reduced rows were kept. The Weyl references (reflection
matrices, the action on weights and coweights, stabilizers) read a
`WeylElement`'s matrix with plain integer products and invert it by
eliminating [M | I], never through the element's own inverse. The graded
regularity search (a Sylvester-matrix test on sampled characteristic
polynomials, placing each root at the matrix position whose e_i - e_j
matches it in fundamental-weight coordinates) and the
series-level characteristic map of trace-free diagonals, with the sum and
product of Laurent windows that it expands, and the sum of two tails, are
reference computations with no counterpart in the package: a Yu ladder
proves that its band components reassemble the tail as a partition of the
tail's exponents, and the tests sum the components with `add_tails`. The lattice window
sweep is the closure and psi check as it was before the proof on O-module
generators: it reads a lattice's pieces, brackets and pairing and checks
every pair of basis vectors inside an exponent window; its negative
controls are `AdjustedLattice` copies, a `JLattice` with lowered or raised
thresholds. A lattice piece is also rebuilt from its definition in the
dense coordinates of its slot, the slot found by scanning every generator,
as membership and slots were computed before a piece kept its pure
monomials apart from its extra lines. The lattice layer's degrees are ints
on the realization's grid 1/N; `ref_monomials_at_degree`,
`ref_m_lines_at_degree` and `ref_base_threshold` are the slot, the Levi
lines and the thresholds as they were read in `Fraction` degrees, from
heights summed in `Fraction`s, before the grid. `pair_lines` pairs the
dual with the bracket of two lines as break forms were paired before they
were read off each row's functional: bracket by bracket, each bracket
monomial looked up in the dual, optionally cut to a band's exponents.
`full_window_crosscheck`
is the SL2 lift as it was before the square root was cut to the window's
principal part: it negates the whole window, reads it at t = tau^e and
scales the root back, then builds and classifies the tail with the
package's own `_tail_from_series` and `classify`, so the two routes differ
in the window the root is taken on alone. `equivariant_by_image` is the
equivariance condition as it was decided before one integer test served it
and conjugacy: the tail's Weyl image built as a tail and compared with its
twist as CycloNumbers across conductors. `sqrt_by_trial` is the square
root as it was before its root-of-unity factor was read off the
numerators: one trial product per power of zeta_M. Responses are checked
against the shipped schemas by `jsonschema` itself.

`RefCyclo` is the cyclotomic field as it was computed before the package
stored integer numerators over one denominator: a tuple of `Fraction`s per
element, cyclotomic polynomials from sympy, polynomial division for every
reduction and an `rref` for every retraction. The package's `CycloNumber`
must agree with it on value, conductor and printed bytes.
"""

import random
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from math import ceil, floor, gcd, lcm

import jsonschema
import sympy

from polarium.chevmap import Sl2Stratum, _a1_classes, _tail_from_series, sl2_stratum, sqrt_series
from polarium.cyclo import CycloNumber, as_cyclo, reduce_conductor, zeta
from polarium.errors import (ArithmeticDomainError, FieldExtensionRequired, InvalidArgumentError,
                             PrecisionError)
from polarium.jsonio import schemas
from polarium.looplie import JLattice
from polarium.polar import classify
from polarium.tails import LaurentWindow, Tail
from polarium.tori import TorusClass


def closure_roots_from_cartan(cartan) -> set:
    """Reflection closure of the simple roots, coordinates in the root basis."""
    r = len(cartan)
    simples = [tuple(1 if k == j else 0 for k in range(r)) for j in range(r)]

    def reflect(i, beta):
        pairing = sum(cartan[i][j] * beta[j] for j in range(r))
        return tuple(c - pairing * (1 if k == i else 0) for k, c in enumerate(beta))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(r):
            image = reflect(i, beta)
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return roots


def roots_by_pair_closure(rd) -> tuple:
    """(roots, coroots, root_index, negation index) of the datum, closed
    from the simple (root, coroot) pairs under every simple reflection on
    both sides, positive and negative roots alike, and ordered as the
    simple roots followed by every other pair sorted."""
    r = rd.ss_rank

    def pairing(y, x):
        return sum(a * b for a, b in zip(y, x))

    def reflect(i, root, coroot):
        alpha, alpha_vee = rd.simple_roots[i], rd.simple_coroots[i]
        c, d = pairing(alpha_vee, root), pairing(coroot, alpha)
        return (tuple(x - c * a for x, a in zip(root, alpha)),
                tuple(y - d * a for y, a in zip(coroot, alpha_vee)))

    simple = [(rd.simple_roots[i], rd.simple_coroots[i]) for i in range(r)]
    pairs = set(simple)
    frontier = list(pairs)
    while frontier:
        root, coroot = frontier.pop()
        for i in range(r):
            image = reflect(i, root, coroot)
            if image not in pairs:
                pairs.add(image)
                frontier.append(image)
    ordered = simple + sorted(pairs - set(simple))
    roots = tuple(root for root, _ in ordered)
    index = {root: k for k, root in enumerate(roots)}
    negation = tuple(index[tuple(-v for v in root)] for root in roots)
    return roots, tuple(coroot for _, coroot in ordered), index, negation


def span_contains(vectors, target) -> bool:
    """Rational span membership by Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    vec = [Fraction(x) for x in target]
    for row in rows:
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is None:
            continue
        if vec[lead]:
            f = vec[lead] / row[lead]
            vec = [a - f * b for a, b in zip(vec, row)]
        for other in rows:
            if other is not row and other[lead]:
                f = other[lead] / row[lead]
                for i in range(len(other)):
                    other[i] -= f * row[i]
    return not any(vec)


def ref_rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over the entries' field; returns (rows,
    pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def in_span_by_rref(basis, target) -> bool:
    """Whether target lies in the span of the basis vectors: one rref of the
    matrix with the basis vectors and then the target as columns, an int
    entry read as its Fraction so that no reciprocal is a float."""
    if not any(target):
        return True
    if not basis:
        return False
    aug = [[as_field(b[i]) for b in basis] + [as_field(t)] for i, t in enumerate(target)]
    return len(basis) not in ref_rref(aug)[1]


def as_field(x):
    """x, with a plain int read as its Fraction."""
    return Fraction(x) if type(x) is int else x


def greedy_independent(vectors) -> list[int]:
    """Indices of the vectors kept one at a time, in order, when nonzero and
    outside the span of those kept so far."""
    kept, out = [], []
    for k, vec in enumerate(vectors):
        if not in_span_by_rref(kept, vec):
            kept.append(vec)
            out.append(k)
    return out


def subgroup_generated(rd, gens) -> set:
    """Matrices of the subgroup generated by Weyl elements, closed under
    products by a plain integer matrix product."""
    def mul(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                     for row in a)

    group = {tuple(tuple(int(i == j) for j in range(rd.dim)) for i in range(rd.dim))}
    frontier = list(group)
    while frontier:
        mat = frontier.pop()
        for g in gens:
            prod = mul(g.matrix, mat)
            if prod not in group:
                group.add(prod)
                frontier.append(prod)
    return group


def springer_regular_sampled(tc, samples: int = 20, seed: int = 0) -> bool:
    """Random vectors of the zeta_m-eigenspace against the coroot kernels."""
    basis = tc.eigenspace(1 % tc.m)
    if not basis:
        return not tc.rd.coroots
    rng = random.Random(seed)
    for _ in range(samples):
        coeffs = [rng.randint(1, 10**6) for _ in basis]
        vec = [CycloNumber.zero() for _ in range(tc.rd.dim)]
        for c, b in zip(coeffs, basis):
            for k in range(tc.rd.dim):
                vec[k] = vec[k] + c * b[k]
        pairings = [sum((a * v for a, v in zip(coroot, vec)), CycloNumber.zero())
                    for coroot in tc.rd.coroots]
        if all(not p.is_zero() for p in pairings):
            return True
    return False


def springer_regular_by_eigenspace(tc) -> bool:
    """Whether some vector of the zeta_m-eigenspace avoids every coroot
    kernel: over an infinite field, whether no coroot functional vanishes
    identically on the solved basis."""
    basis = tc.eigenspace(1 % tc.m)
    return not any(all(ref_dot_int(coroot, v).is_zero() for v in basis)
                   for coroot in tc.rd.coroots)


def regular_vector_by_scan(rd, basis):
    """The first Vandermonde combination sum t^k b_k, t = 1, 2, ..., that
    pairs nonzero through `ref_dot_int` with every coroot, negatives
    included; None when the scan's bound is reached first."""
    for t in range(1, len(rd.coroots) * len(basis) + 2):
        vec = [CycloNumber.zero()] * rd.dim
        for k, b in enumerate(basis):
            vec = [v + t**k * x for v, x in zip(vec, b)]
        if not any(ref_dot_int(coroot, vec).is_zero() for coroot in rd.coroots):
            return tuple(vec)
    return None


def eigen_dims_by_charpoly(matrix, m: int) -> list[int]:
    """Eigenvalue multiplicities of zeta_m^i via cyclotomic factor counts."""
    x = sympy.symbols("x")
    p = sympy.Matrix(matrix).charpoly(x).as_expr()
    mults = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        phi_d = sympy.cyclotomic_poly(d, x)
        count = 0
        q = sympy.Poly(p, x)
        while True:
            quo, rem = sympy.div(q, sympy.Poly(phi_d, x))
            if rem.is_zero:
                count += 1
                q = quo
            else:
                break
        mults[d] = count
    import math

    return [mults.get(m // math.gcd(i, m), 0) for i in range(m)]


class LaurentMatrix:
    """Minimal dict-of-exponent matrix algebra over Fractions, test-local."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        for p, mat in (terms or {}).items():
            self.terms[Fraction(p)] = [[Fraction(x) for x in row] for row in mat]

    @staticmethod
    def monomial(n, i, j, p, c=1):
        mat = [[Fraction(0)] * n for _ in range(n)]
        mat[i][j] = Fraction(c)
        return LaurentMatrix(n, {p: mat})

    def mul(self, other):
        out = {}
        for p1, m1 in self.terms.items():
            for p2, m2 in other.terms.items():
                prod = [[sum(m1[i][k] * m2[k][j] for k in range(self.n))
                         for j in range(self.n)] for i in range(self.n)]
                key = p1 + p2
                if key in out:
                    out[key] = [[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(out[key], prod)]
                else:
                    out[key] = prod
        return LaurentMatrix(self.n, out)

    def commutator(self, other):
        ab, ba = self.mul(other), other.mul(self)
        out = {}
        for p in set(ab.terms) | set(ba.terms):
            m1 = ab.terms.get(p, [[Fraction(0)] * self.n for _ in range(self.n)])
            m2 = ba.terms.get(p, [[Fraction(0)] * self.n for _ in range(self.n)])
            out[p] = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
        return LaurentMatrix(self.n, out)

    def residue_pair(self, dual) -> Fraction:
        """<dual, self> with dual = (sum M_p t^p) dt/t: trace at opposite powers."""
        total = Fraction(0)
        for p, mat in self.terms.items():
            other = dual.terms.get(-p)
            if other is None:
                continue
            for i in range(self.n):
                for j in range(self.n):
                    total += other[i][j] * mat[j][i]
        return total


def cyclo_value(x) -> CycloNumber:
    """A lattice value read as a CycloNumber. The lattice keeps conductor-1
    values as ints and Fractions, so either reads at conductor 1; any other
    value must already be a CycloNumber and keeps its conductor (a float or a
    bool fails)."""
    if type(x) is int or type(x) is Fraction:
        return CycloNumber.from_rational(x)
    assert isinstance(x, CycloNumber), type(x)
    return x


def cyclo_rank(rows) -> int:
    """Row-reduction rank over CycloNumber entries, written independently."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * v for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dot_int_oracle(ints, u) -> CycloNumber:
    """Integer vector paired with a covector by CycloNumber arithmetic, one
    weighted entry at a time."""
    total = CycloNumber.zero()
    for k, a in zip(ints, u):
        if k:
            total = total + k * a
    return total


def mat_mul_oracle(a, b) -> tuple:
    """Product of integer matrices by the textbook triple loop."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(row) for row in out)


def reflection_matrix(root, coroot) -> tuple:
    """s_alpha on the cocharacter side, y -> y - <y, alpha> alpha^vee."""
    n = len(root)
    return tuple(tuple(int(k == j) - coroot[k] * root[j] for j in range(n)) for k in range(n))


def reflection_matrices(rd) -> dict:
    """Map from reflection matrix to the index of the first root it reflects."""
    out = {}
    for idx, (root, coroot) in enumerate(zip(rd.roots, rd.coroots)):
        out.setdefault(reflection_matrix(root, coroot), idx)
    return out


@lru_cache(maxsize=None)
def inverse_by_rref(mat: tuple) -> tuple:
    """Inverse of an invertible integer matrix, the right half of the
    reduced form of [M | I] over Q; every entry must come out an integer."""
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = ref_rref(aug)
    assert pivots == list(range(n)), "singular matrix"
    assert all(v.denominator == 1 for row in rows for v in row[n:]), "not unimodular"
    return tuple(tuple(int(v) for v in row[n:]) for row in rows)


def apply_coweight(w, y) -> tuple:
    """w·y on the cocharacter side: the matrix times y."""
    return tuple(sum(a * b for a, b in zip(row, y)) for row in w.matrix)


def apply_weight(w, x) -> tuple:
    """w·x on the character side: x as a row times the inverse matrix."""
    n = len(x)
    inv = inverse_by_rref(w.matrix)
    return tuple(sum(x[k] * inv[k][j] for k in range(n)) for j in range(n))


def stabilizer(rd, lam) -> dict:
    """Pointwise stabilizer of the tail in W, with the reflections it contains."""
    elements = [u for u in rd.weyl_elements() if lam.weyl_act(u) == lam]
    reflections = reflection_matrices(rd)
    return {"elements": elements, "reflections": [u for u in elements if u.matrix in reflections]}


def weyl_bfs_order(rd) -> list[tuple]:
    """Matrices of W breadth first from the identity: each element M met in
    turn adds s M for every simple reflection s, y -> y - <y, alpha> alpha^vee,
    not seen before, the reflections taken in the order of the simple roots."""
    n = rd.dim
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [reflection_matrix(root, coroot)
            for root, coroot in zip(rd.simple_roots, rd.simple_coroots)]
    order, seen = [identity], {identity}
    for mat in order:  # the list grows while it is read
        for g in gens:
            y = mat_mul_oracle(g, mat)
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def conjugacy_classes_by_products(rd) -> list[list]:
    """Weyl conjugacy classes by an orbit search that conjugates with full
    simple reflection matrices, two matrix products per (element, generator);
    classes and their members ordered by matrix."""
    gens = [reflection_matrix(root, coroot)
            for root, coroot in zip(rd.simple_roots, rd.simple_coroots)]
    index = {w.matrix: w for w in rd.weyl_elements()}
    seen = set()
    classes = []
    for mat in sorted(index):
        if mat in seen:
            continue
        orbit, frontier = {mat}, [mat]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mat_mul_oracle(g, mat_mul_oracle(x, g))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        classes.append([index[y] for y in sorted(orbit)])
    return classes


def regular_numbers_by_enumeration(rd) -> dict:
    """Springer-regular orders by enumerating the conjugacy classes: the
    representative of exact order m is regular when its zeta_m-eigenspace
    avoids every coroot kernel, elliptic when it fixes no covector."""
    regular, elliptic = set(), set()
    for cls in conjugacy_classes_by_products(rd):
        tc = TorusClass(rd, cls[0], cls[0].order())
        if springer_regular_by_eigenspace(tc):
            regular.add(tc.m)
            if not tc.eigenspace(0):
                elliptic.add(tc.m)
    return {"regular": sorted(regular), "elliptic": sorted(elliptic)}


def weyl_image_oracle(w, c) -> tuple:
    """The covector c acted on by w: the transpose of the inverse of w's
    cocharacter matrix, entry r the pairing of its row r (column r of the
    inverse) with c by `dot_int_oracle`."""
    return tuple(dot_int_oracle(col, c) for col in zip(*inverse_by_rref(w.matrix)))


def conjugate_by_products(d1, d2) -> bool:
    """Weyl search for u with u w1 u^-1 = w2, both sides compared as integer
    matrices for every u, and then u(lam1) = lam2 term by term, each image
    by `weyl_image_oracle`."""
    w1, w2 = d1.torus.w.matrix, d2.torus.w.matrix
    terms1, terms2 = d1.lam.terms, d2.lam.terms
    for u in d1.rd.weyl_elements():
        if mat_mul_oracle(mat_mul_oracle(u.matrix, w1), inverse_by_rref(u.matrix)) != w2:
            continue
        if terms1.keys() == terms2.keys() and all(
                weyl_image_oracle(u, c) == terms2[q] for q, c in terms1.items()):
            return True
    return False


def equivariant_by_image(tail: Tail, w) -> bool:
    """Whether w sends the tail to its expected twist, by building the image."""
    return tail.weyl_act(w) == tail.expected_twist()


def validate_response(command: str, doc) -> None:
    """Raise `jsonschema.ValidationError` unless doc fits the command's response schema."""
    store = schemas()
    schema = {**store["responses"][command.replace("-", "_")], "$defs": store["$defs"]}
    jsonschema.validate(doc, schema)


# -- graded regularity search and the characteristic map -------------------


def _char_poly(mat: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = len(mat)
    coeffs = [Fraction(1)]  # leading term x^n
    m_cur = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m_cur[i][i] += coeffs[-1]
        m_next = [[sum(mat[i][l] * m_cur[l][j] for l in range(n)) for j in range(n)]
                  for i in range(n)]
        c = -Fraction(sum(m_next[i][i] for i in range(n)), k)
        coeffs.append(c)
        m_cur = m_next
    return coeffs[::-1]  # ascending order


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _sylvester(p: list[Fraction], q: list[Fraction]) -> list[list[Fraction]]:
    """Sylvester matrix of two ascending coefficient lists of degree >= 1;
    it is singular exactly when p and q share a root."""
    dp, dq = len(p) - 1, len(q) - 1
    size = dp + dq
    return ([[Fraction(0)] * i + p[::-1] + [Fraction(0)] * (size - dp - 1 - i) for i in range(dq)]
            + [[Fraction(0)] * i + q[::-1] + [Fraction(0)] * (size - dq - 1 - i)
               for i in range(dp)])


def matrix_positions(rd) -> dict:
    """Off-diagonal matrix position (i, j) of each root of a type-A datum,
    by writing every e_i - e_j in fundamental-weight coordinates (its
    pairings with the simple coroots) and finding it among the roots."""
    n = rd.ss_rank + 1
    coords = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                vec = tuple(
                    (1 if k == i else 0) - (1 if k + 1 == i else 0)
                    - (1 if k == j else 0) + (1 if k + 1 == j else 0)
                    for k in range(n - 1)
                )
                coords[vec] = (i, j)
    return {idx: coords[root] for idx, root in enumerate(rd.roots)}


def graded_piece_directions(rd, m: int) -> list:
    """Directions of the residual graded piece at class -1 mod m of a type-A
    datum, as ("r", root index) and ("h", k). The root at matrix position
    (i, j) has height j - i under rho_vee."""
    target = (-1) % m
    dirs = [("r", idx) for idx, (i, j) in matrix_positions(rd).items()
            if (j - i) % m == target]
    if target == 0:
        dirs.extend(("h", k) for k in range(rd.ss_rank))
    return dirs


def eigen_regular_check(rd, m: int, max_samples: int = 3000) -> bool:
    """Brute-force search for a regular semisimple element in the -1 graded
    class of a type-A datum: a sample matrix whose characteristic polynomial
    is coprime to its derivative."""
    n = rd.ss_rank + 1
    position = matrix_positions(rd)
    dirs = graded_piece_directions(rd, m)
    if not dirs:
        return False

    def assemble(sample) -> list[list[Fraction]]:
        mat = [[Fraction(0)] * n for _ in range(n)]
        for c, (kind, idx) in zip(sample, dirs):
            if kind == "r":
                i, j = position[idx]
                mat[i][j] += Fraction(c)
            else:
                mat[idx][idx] += Fraction(c)
                mat[idx + 1][idx + 1] -= Fraction(c)
        return mat

    tried = 0
    for sample in product((1, 2, 3, 5), repeat=len(dirs)):
        tried += 1
        if tried > max_samples:
            break
        p = _char_poly(assemble(sample))
        deriv = _poly_deriv(p)
        if len(deriv) < 2:  # degree < 2: no repeated eigenvalue possible
            return True
        sylvester = _sylvester(p, deriv)
        if len(ref_rref(sylvester)[1]) == len(sylvester):
            return True
    return False


def cyclo_terms(terms: dict) -> dict:
    """Test terms as `Tail` and `LaurentWindow` take them: each exponent a
    Fraction, each int or Fraction a CycloNumber, each covector a tuple, and
    zero terms dropped. No wire bound applies."""
    out = {}
    for q, c in terms.items():
        if isinstance(c, (list, tuple)):
            c = tuple(map(as_cyclo, c))
            if any(not x.is_zero() for x in c):
                out[Fraction(q)] = c
        elif not (c := as_cyclo(c)).is_zero():
            out[Fraction(q)] = c
    return out


def tail_is_valid(tail: Tail) -> bool:
    """What the wire checks of a tail, restated: m >= 1 (the request
    schema), and each term a nonzero tuple of rd.dim CycloNumbers at a
    Fraction exponent q >= 0 whose denominator divides m
    (`jsonio.tail_from_json`)."""
    return tail.m >= 1 and all(
        type(q) is Fraction and q >= 0 and (q * tail.m).denominator == 1
        and type(c) is tuple and len(c) == tail.rd.dim
        and all(type(x) is CycloNumber for x in c) and not all(x.is_zero() for x in c)
        for q, c in tail.terms.items())


def window_is_valid(window: LaurentWindow) -> bool:
    """What `jsonio.grid_from_json` checks of a wire window, restated:
    Fraction bounds lo < hi on the grid of 1/den, and each term a nonzero
    CycloNumber at a Fraction exponent in [lo, hi) on that grid."""
    lo, hi, den = window.lo, window.hi, window.den
    return type(lo) is type(hi) is Fraction and lo < hi and den >= 1 \
        and (lo * den).denominator == (hi * den).denominator == 1 and all(
            type(q) is Fraction and lo <= q < hi and (q * den).denominator == 1
            and type(c) is CycloNumber and not c.is_zero()
            for q, c in window.terms.items())


def add_tails(a: Tail, b: Tail) -> Tail:
    """a + b, exponent by exponent, at the lcm of the two conductors; a
    coefficient that sums to zero drops out."""
    terms: dict = {}
    for src in (a, b):
        for q, c in src.terms.items():
            old = terms.get(q)
            terms[q] = list(c) if old is None else [x + y for x, y in zip(old, c)]
    return Tail(a.rd, lcm(a.m, b.m), cyclo_terms(terms))


def window_sum(a: LaurentWindow, b: LaurentWindow) -> LaurentWindow:
    """a + b on the overlap of the two windows' precision: from the lower
    lo, since each support is bounded below by its own lo, to the lower hi."""
    lo, hi = min(a.lo, b.lo), min(a.hi, b.hi)
    if hi <= lo:
        raise PrecisionError("windows do not overlap")
    terms: dict = {}
    for src in (a, b):
        for q, c in src.terms.items():
            if lo <= q < hi:
                terms[q] = terms.get(q, CycloNumber.zero()) + c
    return LaurentWindow(lo, hi, cyclo_terms(terms), lcm(a.den, b.den))


def window_product(a: LaurentWindow, b: LaurentWindow) -> LaurentWindow:
    """a * b on the window its factors determine: the product is known up to
    the lesser of each factor's hi plus the other's valuation."""
    va = a.hi if a.valuation() is None else a.valuation()
    vb = b.hi if b.valuation() is None else b.valuation()
    lo, hi = a.lo + b.lo, min(a.hi + vb, b.hi + va)
    if hi <= lo:
        raise PrecisionError("product window collapsed")
    terms: dict = {}
    for qa, ca in a.terms.items():
        for qb, cb in b.terms.items():
            q = qa + qb
            if lo <= q < hi:
                terms[q] = terms.get(q, CycloNumber.zero()) + ca * cb
    return LaurentWindow(lo, hi, cyclo_terms(terms), lcm(a.den, b.den))


def neg_window(a: LaurentWindow) -> LaurentWindow:
    """-a on the window of a."""
    return LaurentWindow(a.lo, a.hi, {q: -c for q, c in a.terms.items()}, a.den)


def scale_window(a: LaurentWindow, r) -> LaurentWindow:
    """a read at t = tau^r on exponents: q maps to q * r, a multiple of
    1/(den * r.denominator) when q is one of 1/den."""
    r = Fraction(r)
    return LaurentWindow(a.lo * r, a.hi * r, {q * r: c for q, c in a.terms.items()},
                         a.den * r.denominator)


def full_window_crosscheck(a: LaurentWindow) -> tuple:
    """`chevmap.sl2_crosscheck` with the square root taken over the whole
    window, as it was before the lift kept the principal part alone: -a is
    read at t = tau^e (e = 1 at an even valuation, 2 at an odd one), so its
    valuation is even on the window lattice, and the root is read back at
    tau = t^(1/e) before its tail is classified."""
    table = sl2_stratum(a)
    neg = neg_window(a)
    v = neg.valuation()
    lifted = Sl2Stratum("G-zero")
    if v is not None:
        e = 1 if v % 2 == 0 else 2
        b = scale_window(sqrt_series(scale_window(neg, e)), Fraction(1, e))
        datum = classify(_a1_classes()[e - 1], _tail_from_series(b, e))
        if not datum.lam.is_zero():
            lifted = Sl2Stratum("split-toral" if e == 1 else "nonsplit-toral",
                                int(datum.lam.depth() + Fraction(1, e)))
    return table, table == lifted


def charpoly_map(diag: list) -> list:
    """Elementary symmetric functions e_2..e_n of trace-free diagonal
    `LaurentWindow` entries, by the product expansion."""
    if len(diag) < 2:
        raise InvalidArgumentError("need at least two diagonal entries")
    total = diag[0]
    for entry in diag[1:]:
        total = window_sum(total, entry)
    if total.valuation() is not None:
        raise InvalidArgumentError("diagonal entries do not sum to zero")
    lo = min(d.lo for d in diag)
    window_hi = min(d.hi for d in diag)
    one = LaurentWindow(0, window_hi - min(lo, Fraction(0)) + 1, cyclo_terms({0: 1}),
                        den=diag[0].den)
    elems = [one]
    for entry in diag:
        nxt = [elems[0]]
        for k in range(1, len(elems) + 1):
            term = window_product(elems[k - 1], entry)
            if k < len(elems):
                term = window_sum(elems[k], term)
            nxt.append(term)
        elems = nxt
    return elems[2:]


# -- the lattice window sweep ----------------------------------------------


@cache
def ref_heights(real) -> tuple:
    """<x, root> for each root of a realization, summed in Fractions."""
    return tuple(sum((v * a for v, a in zip(real.x, root)), Fraction(0))
                 for root in real.rd.roots)


def _ref_height(real, gen) -> Fraction:
    return ref_heights(real)[gen[1]] if gen[0] == "r" else Fraction(0)


def monomials_by_scan(real, deg: int) -> list:
    """G t^n of grid degree deg, scanning every generator in order: the
    shift deg/N - height(G) must be an integer."""
    out = []
    for gen in real.generators():
        shift = Fraction(deg, real.N) - _ref_height(real, gen)
        if shift.denominator == 1:
            out.append((gen, int(shift)))
    return out


def ref_monomials_at_degree(real, deg: Fraction) -> list:
    """G t^n of degree deg, in generator order: the generators whose height
    has the fractional part of deg, at n = floor(deg) - floor(height)."""
    base = floor(deg)
    out = []
    for gen in real.generators():
        height = _ref_height(real, gen)
        if height - floor(height) == deg - base:
            out.append((gen, base - floor(height)))
    return out


def ref_m_lines_at_degree(real, deg: Fraction) -> list:
    """The Levi lines at degree deg: on split data the h_k and Levi root
    monomials of the slot; on twisted data X^k t^j for k = int(deg n mod n)
    and j = int(deg - k/n), where X^k has a one at (a, (a + k) mod n) times
    t^((a + k) div n), the root at each position found in fundamental-weight
    coordinates."""
    if not real.twisted:
        return [{mono: 1} for mono in ref_monomials_at_degree(real, deg)
                if mono[0][0] == "h" or mono[0][1] in real.datum.levi]
    n = real.n
    k = int((deg * n) % n)
    if k == 0:
        return []
    j = int(deg - Fraction(k, n))
    root_at = {pos: idx for idx, pos in matrix_positions(real.rd).items()}
    return [{(("r", root_at[(a, (a + k) % n)]), (a + k) // n + j): 1 for a in range(n)}]


def ref_base_threshold(lattice, gen) -> int:
    """Least n with G t^n pure, in Fraction degrees: deg >= 0 at level 0,
    deg past the level's half depth (J) or break (K) above it."""
    real = lattice.real
    height = _ref_height(real, gen)
    j = real.level_of_gen[gen]
    if j == 0:
        return ceil(-height)
    ladder = real.ladder
    bound = ladder.half_depths[j - 1] if lattice.kind == "J" else ladder.breaks[j - 1]
    return floor(bound - height) + 1


def dense(line: dict, monos) -> list:
    """A monomial -> coefficient map in the coordinates of the slot monos."""
    return [line.get(m, Fraction(0)) for m in monos]


def piece_vectors(lattice, deg) -> tuple[tuple, list]:
    """The slot and the piece's independent vectors in slot coordinates, read
    off `piece_at_degree`: a unit vector per pure monomial, in slot order,
    then each reduced row."""
    monos, pure, lines = lattice.piece_at_degree(deg)
    units = [dense({m: Fraction(1)}, monos) for m in monos if m in pure]
    return monos, units + [dense(line, monos) for line in lines]


def extra_lines(lattice, deg) -> list:
    """The piece's lines besides its pure monomials, by definition: the
    Cartan line at a twisted degree >= 0 and the Lagrangian lines at a break
    degree."""
    real = lattice.real
    lines = real.m_lines_at_degree(deg) if real.twisted and deg >= 0 else []
    return lines + [line for rec in lattice.break_pieces if rec["degree"] == deg
                    for line in rec["lagrangian"]]


def piece_by_definition(lattice, deg) -> tuple[list, list]:
    """The slot by the generator scan and a spanning set of the piece built
    from its definition, in slot coordinates: a unit vector per monomial at
    or above its threshold, then the extra lines."""
    monos = monomials_by_scan(lattice.real, deg)
    vectors = [dense({(gen, n): Fraction(1)}, monos) for gen, n in monos
               if n >= lattice.threshold(gen)]
    vectors += [dense(line, monos) for line in extra_lines(lattice, deg)
                if all(m in monos for m in line)]
    return monos, vectors


def window_basis(lattice, lo: int, hi: int) -> list[dict]:
    """Independent lattice vectors with all exponents inside [lo, hi], read
    degree by degree off `piece_at_degree`, as monomial -> coefficient maps."""
    real = lattice.real
    degrees = sorted({real.degree((gen, n))
                      for gen in real.generators() for n in range(lo, hi + 1)})
    out = []
    for deg in degrees:
        monos, vectors = piece_vectors(lattice, deg)
        for vec in vectors:
            line = {monos[i]: c for i, c in enumerate(vec) if c}
            if all(lo <= m[1] <= hi for m in line):
                out.append(line)
    return out


def bracket_closure_on_window(lattice, lo: int, hi: int) -> list[tuple]:
    """Pairs of window basis vectors whose bracket, all of it inside the
    window, leaves the lattice; a bracket reaching past the window is skipped."""
    real = lattice.real
    basis = window_basis(lattice, lo, hi)
    out = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            coords = {}
            for mu, cu in basis[a].items():
                for mv, cv in basis[b].items():
                    for mono, c in real.bracket_monomials(mu, mv).items():
                        coords[mono] = coords.get(mono, Fraction(0)) + cu * cv * c
            coords = {m: c for m, c in coords.items() if c}
            if not coords or any(not (lo <= m[1] <= hi) for m in coords):
                continue
            if not lattice.contains_line(coords):
                out.append((basis[a], basis[b]))
    return out


def pair_lines(real, u: dict, v: dict, exponents=None):
    """<dual, [u, v]> for two lines given as monomial -> coefficient maps,
    bracket by bracket: each pair of monomials is bracketed, and each
    monomial of the bracket is paired with the dual's entry at its exponent,
    when `exponents` is None or holds that exponent."""
    total = 0
    for mu, cu in u.items():
        for mv, cv in v.items():
            for (gen, n), c in real.bracket_monomials(mu, mv).items():
                val = real.dual.get(n, {}).get(gen, 0) \
                    if exponents is None or n in exponents else 0
                if val:
                    total = total + cu * cv * c * val
    return total


def psi_on_window(lattice, lo: int, hi: int) -> bool:
    """Whether the datum's dual kills the bracket of every two window basis vectors."""
    real = lattice.real
    basis = window_basis(lattice, lo, hi)
    return not any(pair_lines(real, basis[a], basis[b])
                   for a in range(len(basis)) for b in range(a, len(basis)))


class AdjustedLattice(JLattice):
    """A corrupted copy of a lattice, the negative control of the lattice
    proofs: the threshold of each generator in `adjust` is lowered by that
    many exponent steps, which changes its pure monomials and with them the
    O-module generators, so the copy keeps no piece or bracket memo. It
    shares the lattice's table of base thresholds, which both only read."""

    def __init__(self, lattice: JLattice, adjust: dict):
        vars(self).update(vars(lattice))
        self.adjust = adjust
        self._pieces = {}
        self._brackets = None

    def threshold(self, gen) -> int:
        return super().threshold(gen) - self.adjust.get(gen, 0)


def with_adjust(lattice: JLattice, gen, steps: int) -> AdjustedLattice:
    """The lattice with the threshold of `gen` lowered by `steps` more."""
    adjust = getattr(lattice, "adjust", {})
    return AdjustedLattice(lattice, {**adjust, gen: adjust.get(gen, 0) + steps})


# -- the reference cyclotomic field ---------------------------------------

@lru_cache(maxsize=None)
def ref_phi(L: int) -> int:
    return int(sympy.totient(L))


@lru_cache(maxsize=None)
def ref_modulus(L: int) -> list[Fraction]:
    """Phi_L, low degree first, from sympy."""
    x = sympy.symbols("x")
    return [Fraction(int(c)) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs())]


def _ref_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_divmod(a: list, b: list) -> tuple[list, list]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coeff = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coeff
        for i, bi in enumerate(b):
            a[shift + i] -= coeff * bi
        _ref_trim(a)
        if not a:
            break
    return _ref_trim(q), a


def _ref_reduce(L: int, poly: list) -> tuple:
    poly = _ref_divmod(poly, ref_modulus(L))[1] if len(poly) > ref_phi(L) else list(poly)
    return tuple(poly) + (Fraction(0),) * (ref_phi(L) - len(poly))


@lru_cache(maxsize=None)
def _ref_powers(L: int) -> tuple:
    """The integer coefficients of zeta_L^j for 0 <= j < L: each is x times
    the one before, with x^phi replaced through the monic Phi_L."""
    low = [int(c) for c in ref_modulus(L)[:-1]]
    row, rows = [1] + [0] * (len(low) - 1), []
    for _ in range(L):
        rows.append(tuple(row))
        top, row = row[-1], [0] + row[:-1]
        if top:
            row = [x - top * c for x, c in zip(row, low)]
    return tuple(rows)


class RefCyclo:
    """An element of Q(zeta_L) as a tuple of Fraction coefficients."""

    def __init__(self, conductor: int, coeffs):
        assert len(coeffs) == ref_phi(conductor)
        self.conductor = conductor
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @staticmethod
    def rational(value, conductor: int = 1) -> "RefCyclo":
        return RefCyclo(conductor, (Fraction(value),) + (0,) * (ref_phi(conductor) - 1))

    @staticmethod
    def of(value) -> "RefCyclo":
        """A package element, an int or a Fraction (at conductor 1)."""
        if isinstance(value, CycloNumber):
            return RefCyclo(value.conductor, value.coeffs)
        return value if isinstance(value, RefCyclo) else RefCyclo.rational(value)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lift(self, L2: int) -> "RefCyclo":
        assert L2 % self.conductor == 0
        k = L2 // self.conductor
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        poly[::k] = self.coeffs
        return RefCyclo(L2, _ref_reduce(L2, poly))

    def conjugate(self, k: int) -> "RefCyclo":
        """The Galois conjugate zeta_L -> zeta_L^k, for k prime to L."""
        L = self.conductor
        powers = _ref_powers(L)
        out = [Fraction(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, x in enumerate(powers[i * k % L]):
                    if x:
                        out[j] += c * x
        return RefCyclo(L, out)

    def try_retract(self, L1: int) -> "RefCyclo | None":
        """Coordinates in the lifted power basis of Q(zeta_L1), by one rref.

        A unit k = 1 mod L1, k != 1, fixes Q(zeta_L1), so an element its
        conjugation moves is not there and the rref is skipped; no such k
        exists when L is L1, or 2 L1 with L1 odd."""
        L, phi1 = self.conductor, ref_phi(L1)
        k = next((k for k in range(1 + L1, L, L1) if gcd(k, L) == 1), None)
        if k is not None and self.conjugate(k) != self:
            return None
        basis = [RefCyclo(L1, [int(j == i) for j in range(phi1)]).lift(L) for i in range(phi1)]
        aug = [[b.coeffs[j] for b in basis] + [c] for j, c in enumerate(self.coeffs)]
        reduced, pivots = ref_rref(aug)
        if phi1 in pivots:
            return None
        sol = [Fraction(0)] * phi1
        for i, col in enumerate(pivots):
            sol[col] = reduced[i][phi1]
        candidate = RefCyclo(L1, sol)
        return candidate if candidate.lift(L) == self else None

    def _common(self, other) -> tuple["RefCyclo", "RefCyclo", int]:
        other = RefCyclo.of(other)
        L = lcm(self.conductor, other.conductor)
        return self.lift(L), other.lift(L), L

    def __add__(self, other):
        a, b, L = self._common(other)
        return RefCyclo(L, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return RefCyclo(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-RefCyclo.of(other))

    def __rsub__(self, other):
        return RefCyclo.of(other) - self

    def __mul__(self, other):
        a, b, L = self._common(other)
        out = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
        return RefCyclo(L, _ref_reduce(L, out))

    __rmul__ = __mul__

    def inverse(self) -> "RefCyclo":
        """Extended Euclid against Phi_L."""
        if self.is_zero():
            raise ArithmeticDomainError("division by zero")
        L = self.conductor
        r0, r1 = ref_modulus(L), _ref_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _ref_divmod(r0, r1)
            r0, r1 = r1, r
            prod = [Fraction(0)] * (len(q) + len(s1))
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    prod[i + j] += x * y
            diff = [Fraction(0)] * max(len(s0), len(prod))
            for i, x in enumerate(s0):
                diff[i] += x
            for i, x in enumerate(prod):
                diff[i] -= x
            s0, s1 = s1, _ref_trim(diff)
        return RefCyclo(L, _ref_reduce(L, [c / r1[0] for c in s1]))

    def __truediv__(self, other):
        return self * RefCyclo.of(other).inverse()

    def __rtruediv__(self, other):
        return RefCyclo.of(other) * self.inverse()

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}


def ref_zeta(L: int, e: int = 1) -> RefCyclo:
    e %= L
    return RefCyclo(L, _ref_reduce(L, [Fraction(0)] * e + [Fraction(1)]))


def ref_reduce_conductor(c: RefCyclo) -> RefCyclo:
    L = c.conductor
    for d in range(1, L):
        if L % d == 0:
            retracted = c.try_retract(d)
            if retracted is not None:
                return retracted
    return c


def ref_dot_int(ints, u) -> RefCyclo:
    """The pairing read at the lcm of the conductors of the weighted entries."""
    terms = [(k, RefCyclo.of(a)) for k, a in zip(ints, u) if k]
    L = lcm(*(a.conductor for _, a in terms))
    acc = [Fraction(0)] * ref_phi(L)
    for k, a in terms:
        for i, c in enumerate(a.lift(L).coeffs):
            acc[i] += k * c
    return RefCyclo(L, acc)


def sqrt_by_trial(c: CycloNumber) -> CycloNumber:
    """`cyclo.sqrt_cyclo` as it was before the unit was read off the
    numerators: one trial product c * zeta_M^(-e) per e in 0..M-1 until one
    is a positive rational q, then the root sqrt(q) zeta_2M^e with its first
    nonzero coefficient positive, at its least conductor."""
    if c.is_zero():
        return CycloNumber.zero(c.conductor)
    M = lcm(c.conductor, 8)
    lifted = c.lift(M)
    for e in range(M):
        u = lifted * zeta(M, -e % M)
        if not u.is_rational() or u.as_rational() <= 0:
            continue
        q = u.as_rational()
        num = sympy.factorint(q.numerator * q.denominator)
        v = sympy.prod([p for p, k in num.items() if k % 2])
        if v not in (1, 2):
            raise FieldExtensionRequired(f"square root of {q}")
        base = sympy.sqrt(sympy.Rational(q.numerator, q.denominator) / v)
        root = CycloNumber.from_rational(Fraction(int(base.p), int(base.q)))
        if v == 2:
            root = root * (zeta(8, 1) + zeta(8, -1))
        s = root * zeta(2 * M, e)
        first = next(x for x in s.nums if x)
        return reduce_conductor(s if first > 0 else -s)
    raise FieldExtensionRequired(f"{c!r} is not a supported square times a root of unity")


def ref_sqrt(c: RefCyclo) -> RefCyclo:
    """The canonical square root of (rational)^2 * 2^eps * root of unity: the
    first root-of-unity twist that makes c a positive rational decides it,
    and the root's first nonzero coefficient is positive."""
    if c.is_zero():
        return RefCyclo.rational(0, c.conductor)
    M = lcm(c.conductor, 8)
    lifted = c.lift(M)
    for e in range(M):
        u = lifted * ref_zeta(M, -e)
        if any(u.coeffs[1:]) or u.coeffs[0] <= 0:
            continue
        q = u.coeffs[0]
        num = sympy.factorint(q.numerator * q.denominator)
        v = sympy.prod([p for p, k in num.items() if k % 2])
        if v not in (1, 2):
            raise FieldExtensionRequired(f"square root of {q}")
        base = sympy.sqrt(sympy.Rational(q.numerator, q.denominator) / v)
        root = RefCyclo.rational(Fraction(int(base.p), int(base.q)))
        if v == 2:
            root = root * (ref_zeta(8, 1) + ref_zeta(8, -1))
        s = root * ref_zeta(2 * M, e)
        first = next(x for x in s.coeffs if x)
        return ref_reduce_conductor(s if first > 0 else -s)
    raise FieldExtensionRequired(f"{c.coeffs} at conductor {c.conductor}")
