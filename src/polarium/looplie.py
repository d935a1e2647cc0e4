"""Type-A loop algebras sl_n((t)) on the graded monomial basis: Moy-Prasad
gradings at rational apartment points, symplectic break forms, the graded
lattice with its linear character, and the tangent-level moveability checks.

A monomial is a generator G t^n, with G = E_ij for a root and
E_kk - E_(k+1)(k+1) for the torus direction h_k. The dual element
(sum M_p t^p) dt/t enters only through the residue-trace pairing, so it is
kept as the functional it induces: exponent n -> generator -> tr(M_(-n) G),
nonzero values only. Brackets of generators are read off the root datum
(Chevalley basis: [h_k, e_a] = <a, alpha_k^vee> e_a, [e_a, e_-a] = a^vee);
only the sign of [e_a, e_b] comes from the matrix positions.

Twisted tori enter through the cyclic-shift presentation X = N + t*E(n,1)
(the principal order-n class). X^s has a one at (a, (a+s) mod n) times
t^((a+s) div n); its powers span the twisted Cartan, and its dual has
rational entries.

The field is generic. Structure constants are integers (Carter, Simple
Groups of Lie Type, 4.2), and so are the unit, Levi and Cartan lines and
the twisted dual: each is a plain `int`, and so is every value computed from
ints alone. A `Fraction` enters only where a split tail coefficient, a
kernel vector coordinate or a Lagrangian scale is not an integer: the
rational path of `linalg` returns a kernel coordinate as an `int` where
integral, and an integral coefficient or scale is read as its int. A
`CycloNumber` enters only through a split dual whose covector has an entry
of conductor > 1, and then every entry of that covector is lifted to their
lcm conductor. The invariant: a value is an `int` or a `Fraction` exactly
where a conductor-1 value stands, and every other value has the conductor
of the operands it came from, since mixed arithmetic reads an `int` or a
`Fraction` at conductor 1. Zero tests use truthiness, and the one inverse,
a Lagrangian scale, is `Fraction(1) / x`, so that no int divides to a
float. Coefficients are printed as `CycloNumber`s, an `int` or a
`Fraction` at conductor 1.

Degrees live on one integer grid per realization. Every root height
<x, alpha>, break and half-depth of a datum, and on twisted data every
multiple of 1/n, lies in (1/N)Z for the N that `Realization` fixes at
construction, the lcm of their denominators, and a degree is the int k that
stands for k/N: heights, slots, thresholds, the keys of a lattice's pieces,
break-piece degrees and moveability codegrees alike. A `Fraction` enters
only through `Realization.grid(q)`, for a break, a half-depth or a tail
exponent, and leaves only through `Realization.fraction(k)`, where a degree
is printed or named in a message.

The lattice core is one for both presentations. It asks a `Realization` for
four things: generator levels (`level_of_gen`), the Levi lines at a degree
(`m_lines_at_degree`), brackets and the dual. On split data a root has its
ladder level and each h_k level 0; on twisted toral data every generator has
level 1.

The lattice J is a module over O = C[[t]] (the Moy-Prasad filtration
property [g_(x,r), g_(x,s)] in g_(x,r+s)), generated by G t^n0(G) for each
generator G at its threshold n0, the Lagrangian lines of the break pieces
and, on twisted data, the Cartan lines at degrees k/n for 0 < k < n. Bracket
closure and the tail character are proved on these generators in three
finite parts: t g lies in J for each generator g, so tJ is in J; [g_a, g_b]
lies in J for each pair, which with [t^a u, t^b v] = t^(a+b) [u, v] gives
[J, J] in J; and <lambda, t^k [g_a, g_b]> = 0 for each pair and each k >= 0
up to the dual's largest exponent key, past which the pairing is zero. The
pair brackets are computed once per lattice and serve both of the last two
parts.

The lattice layer works on the structure a piece already has. A slot, the
monomials of one degree, is read in closed form: the generators are bucketed
once by their height mod N. A piece is its pure monomials
(G t^n with n at or above the threshold of G) plus its reduced rows, one
`rref` of the twisted Cartan line at a degree >= 0 and the break
Lagrangians on the other coordinates; a line lies in the piece exactly
when what is left of it there lies in the span of those rows. A
break form and a moveability block are one computation: row x meets the
columns through its functional <lambda, [x, .]>, with lambda cut to the
band's exponents for a break form. The functional sums the partners of each
generator g: [g, G] meets a dual generator D only when weight(g) + weight(G)
= weight(D), so G is read off a weight difference and the value off the
bracket, and the structure constants live in one place.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import sub

from .cyclo import CycloNumber, as_cyclo
from .errors import (InternalInvariantViolation, InvalidArgumentError, ResourceLimitError,
                     UnsupportedFeatureError)
from .linalg import in_span, independent, nullspace, rank, rref
from .polar import PolarDatum
from .rootdata import RootDatum
from .yuseq import YuLadder, extract

Gen = tuple[str, int]  # ("r", root index) or ("h", torus index)
Monomial = tuple[Gen, int]
Functional = dict  # int exponent n -> {generator: pairing with G t^n}
Scalar = int | Fraction | CycloNumber  # an int or a Fraction stands at conductor 1

_ZERO = 0
_ONE = 1

# Most codegrees a moveability scan visits: the multiples of the grading
# step between its ends, so a coweight with large denominators is refused
# before the lattice is assembled. The lattice benchmark and the goldens
# visit at most 12.
CODEGREE_BOUND = 1000


def _require_type_a(rd: RootDatum) -> int:
    if len(rd.factors) != 1 or rd.factors[0][0] != "A" or rd.torus_rank:
        raise UnsupportedFeatureError(
            f"matrix realization covers split type A only, got {rd.type_label()}"
        )
    return rd.factors[0][1] + 1


def root_positions(rd: RootDatum) -> dict[int, tuple[int, int]]:
    """Off-diagonal matrix position (i, j) of each root of a type-A datum.

    E_ij carries the root e_i - e_j, whose coroot is the sum of the simple
    coroots alpha_k^vee over i <= k < j, negated when i > j: the support of
    the coroot gives {i, j} and its sign their order.
    """
    _require_type_a(rd)
    positions = {}
    for idx, coroot in enumerate(rd.coroots):
        support = [k for k, c in enumerate(coroot) if c]
        lo, hi = support[0], support[-1] + 1
        positions[idx] = (lo, hi) if coroot[lo] > 0 else (hi, lo)
    return positions


def _shift_power(n: int, s: int):
    """Entries (row, col, t-exponent) of X^s, each with coefficient one."""
    return [(a, (a + s) % n, (a + s) // n) for a in range(n)]


class Realization:
    """A polar datum realized inside sl_n((t)) at an apartment point."""

    def __init__(self, datum: PolarDatum, ladder: YuLadder, x=None):
        rd = datum.rd
        self.n = _require_type_a(rd)
        self.rd = rd
        self.datum = datum
        self.ladder = ladder
        self.twisted = not datum.torus.w.is_identity()
        self.position = root_positions(rd)
        self._root_at = {pos: idx for idx, pos in self.position.items()}
        if self.twisted:
            self._init_twisted(x)
        else:
            self._init_split(x)
        # one integer sum per root over the common denominator of x, reduced
        # by their gcd to the heights' own denominator
        den = lcm(*(v.denominator for v in self.x))
        nums = [v.numerator * (den // v.denominator) for v in self.x]
        sums = [sum(a * b for a, b in zip(nums, root)) for root in rd.roots]
        common = gcd(den, *sums)
        height_den = den // common
        # the grid 1/N holds every height, break and half-depth and, on
        # twisted data, the 1/n grid of the Cartan lines
        self.N = lcm(height_den, *(q.denominator for q in chain(ladder.breaks, ladder.half_depths)),
                     self.n if self.twisted else 1)
        self._heights = tuple(s // common * (self.N // height_den) for s in sums)
        # the generators by their height mod N, in generator order, each with
        # the integer part of its height: a slot is one bucket
        self._buckets: dict[int, list[tuple[Gen, int]]] = {}
        for gen in self.generators():
            base, rest = divmod(self._heights[gen[1]] if gen[0] == "r" else 0, self.N)
            self._buckets.setdefault(rest, []).append((gen, base))
        self.dual = self._realize_dual_twisted() if self.twisted else self._realize_dual_split()
        self._partners: dict[Gen, tuple] = {}

    # -- setup ---------------------------------------------------------

    def _init_split(self, x) -> None:
        rd = self.rd
        self.x = tuple(Fraction(v) for v in x) if x is not None \
            else tuple(Fraction(0) for _ in range(rd.dim))
        # a root sits at its ladder level, the torus directions in the Levi
        self.level_of_gen = {gen: self.ladder.level_of_root(gen[1]) if gen[0] == "r" else 0
                             for gen in self.generators()}

    def _init_twisted(self, x) -> None:
        datum, rd = self.datum, self.rd
        if datum.levi:
            raise UnsupportedFeatureError("twisted realization covers toral data only")
        m = datum.torus.m
        if m != self.n:
            raise UnsupportedFeatureError(
                "twisted realization covers the principal (Coxeter) class only"
            )
        if len(datum.lam.terms) != 1:
            raise UnsupportedFeatureError(
                "twisted realization covers single-term homogeneous tails only"
            )
        rho = rd.rho_coweight()
        expected = tuple(v / m for v in rho)
        if x is not None and tuple(Fraction(v) for v in x) != expected:
            raise InvalidArgumentError(
                "twisted realization requires the barycentric point rho_vee/m"
            )
        self.x = expected
        # the twisted Cartan is not spanned by the h_k: every direction is level 1
        self.level_of_gen = {gen: 1 for gen in self.generators()}

    def _realize_dual_split(self) -> Functional:
        # lambda_q is diagonal with consecutive differences cov; the matrix
        # entries lived at the lcm of the covector's conductors, an int or a
        # Fraction when that is 1. Exponents are keyed as ints, as in the
        # twisted dual.
        dual: Functional = {}
        for q, cov in self.datum.lam.terms.items():
            if q.denominator != 1:
                raise UnsupportedFeatureError("split realization needs integral exponents")
            conductor = lcm(*(c.conductor for c in cov))
            dual[q.numerator] = {
                ("h", k): c.lift(conductor) if conductor > 1 else _integral(c.as_rational())
                for k, c in enumerate(cov) if not c.is_zero()}
        return dual

    def _realize_dual_twisted(self) -> Functional:
        # the trace dual of the Levi line at -q, X^(n-i) t^(-1-j) for
        # q = j + i/n, which is regular semisimple exactly when gcd(i,n)=1;
        # tr(E_ab G) reads G at (b, a), so E_ab t^e pairs with E_ba t^-e.
        (q, _cov), = self.datum.lam.terms.items()
        lines = self.m_lines_at_degree(-self.grid(q))
        if not lines:  # only an unvalidated datum gets here: w fixes no nonzero covector
            raise InvalidArgumentError("twisted tail exponent must not be an integer")
        dual: Functional = {}
        for ((_kind, idx), e), c in lines[0].items():
            dual.setdefault(-e, {})[("r", self.rd.negative_of(idx))] = c
        return dual

    # -- graded combinatorics -------------------------------------------

    def grid(self, q: Fraction) -> int:
        """The degree q as the int k with q = k/N; q is a break, a half-depth
        or a twisted tail exponent, whose denominator divides N."""
        return q.numerator * (self.N // q.denominator)

    def fraction(self, deg: int) -> Fraction:
        """The degree deg/N, where a degree is printed or named."""
        return Fraction(deg, self.N)

    def degree(self, mono: Monomial) -> int:
        """The degree height(G) + n of G t^n, on the grid."""
        (kind, idx), n = mono
        if kind == "r":
            return self._heights[idx] + n * self.N
        return n * self.N

    def generators(self) -> list[Gen]:
        gens: list[Gen] = [("r", idx) for idx in range(len(self.rd.roots))]
        gens += [("h", k) for k in range(self.rd.ss_rank)]
        return gens

    def monomials_at_degree(self, deg: int) -> list[Monomial]:
        """G t^n of degree deg, in generator order: the generators whose height
        is congruent to deg mod N, at n = deg div N - height div N."""
        base, rest = divmod(deg, self.N)
        return [(gen, base - n) for gen, n in self._buckets.get(rest, ())]

    def _structure_constants(self, gu: Gen, gv: Gen) -> tuple:
        """[gu, gv] in generator coordinates, read off the root datum:
        [h_k, e_a] = <a, alpha_k^vee> e_a, [e_a, e_-a] = a^vee, and
        [e_a, e_b] = +-e_(a+b) when a + b is a root, with the sign of
        [E_ij, E_jl] = E_il."""
        rd = self.rd
        (ku, u), (kv, v) = gu, gv
        if ku == "h":
            c = 0 if kv == "h" else rd.roots[v][u]
            return ((gv, c),) if c else ()
        if kv == "h":
            c = -rd.roots[u][v]
            return ((gu, c),) if c else ()
        if v == rd.negative_of(u):
            return tuple((("h", k), c) for k, c in enumerate(rd.coroots[u]) if c)
        total = rd.root_sum(u, v)
        if total is None:
            return ()
        return ((("r", total), self._sign(u, v)),)

    def _sign(self, a: int, b: int) -> int:
        """Sign of [e_a, e_b] = +-e_(a+b), from [E_ij, E_jl] = E_il."""
        return _ONE if self.position[a][1] == self.position[b][0] else -_ONE

    def bracket_monomials(self, u: Monomial, v: Monomial) -> dict[Monomial, int]:
        (gu, nu), (gv, nv) = u, v
        n = nu + nv
        return {(gen, n): c for gen, c in self._structure_constants(gu, gv)}

    def pair_dual_monomial(self, mono: Monomial) -> Scalar:
        """Residue pairing tr(M_(-n) Y) of the dual with a monomial Y t^n."""
        gen, n = mono
        return self.dual.get(n, {}).get(gen, _ZERO)

    def pair_dual_bracket(self, u: Monomial, v: Monomial) -> Scalar:
        """<dual, [u, v]> for two monomials, read off the structure constants."""
        (gu, nu), (gv, nv) = u, v
        vals = self.dual.get(nu + nv, {})
        total = _ZERO
        for gen, c in self._structure_constants(gu, gv):
            if gen in vals:
                total = total + c * vals[gen]
        return total

    def bracket_functional(self, line: dict, exponents=None) -> dict[Monomial, Scalar]:
        """phi = <dual, [line, .]> as monomial -> value, nonzero values only,
        with the dual cut to the exponent keys in `exponents` when given."""
        out: dict[Monomial, Scalar] = {}
        for (gen, n), c in line.items():
            partners = self._partners.get(gen)
            if partners is None:
                partners = self._partners[gen] = self._dual_partners(gen)
            if exponents is not None:
                partners = [p for p in partners if p[0] in exponents]
            for e, partner, val in partners:
                mono = (partner, e - n)
                out[mono] = out.get(mono, _ZERO) + c * val
        return {m: v for m, v in out.items() if v}

    def _dual_partners(self, gu: Gen) -> tuple:
        """(e, G, <dual, [gu, G t^e]>) for each dual key e and generator G, in
        generator order, nonzero values only. [gu, G] meets a dual generator D
        only when weight(gu) + weight(G) = weight(D): G is the root of weight
        weight(D) - weight(gu), or each h_k when that difference is zero."""
        rd = self.rd
        zero = (0,) * rd.dim
        wu = rd.roots[gu[1]] if gu[0] == "r" else zero
        out = []
        for e, vals in self.dual.items():
            diffs = {tuple(map(sub, rd.roots[d] if kind == "r" else zero, wu))
                     for kind, d in vals}
            gens = [("r", idx) for idx in sorted([rd.root_index[diff] for diff in diffs
                                                  if diff in rd.root_index])]
            if zero in diffs:
                gens += [("h", k) for k in range(rd.ss_rank)]
            for gen in gens:
                val = self.pair_dual_bracket((gu, 0), (gen, e))
                if val:
                    out.append((e, gen, val))
        return tuple(out)

    # -- M-part ----------------------------------------------------------

    def m_lines_at_degree(self, deg: int) -> list[dict[Monomial, int]]:
        """Graded lines of the levi Cartan/Levi part at the given degree,
        inside its slot wherever the slot is nonempty. A twisted degree
        deg/N = j + k/n + f, 0 <= k < n and 0 <= f < 1/n, gives the line
        X^k t^j, with j read by truncation toward zero: off the 1/n grid
        (f > 0) a negative degree takes the j above its floor."""
        if not self.twisted:
            out = []
            for mono in self.monomials_at_degree(deg):
                (kind, idx), _n = mono
                if kind == "h" or idx in self.datum.levi:
                    out.append({mono: _ONE})
            return out
        n, N = self.n, self.N
        k = deg * n % (n * N) // N
        if k == 0:
            return []
        rest = deg * n - k * N
        j = rest // (n * N) if rest >= 0 else -(-rest // (n * N))
        return [{(("r", self._root_at[(a, b)]), p + j): _ONE
                 for a, b, p in _shift_power(n, k)}]


# -- the graded lattice -------------------------------------------------


class JLattice:
    """The graded subalgebra assembled from half-depth thresholds.

    Pure monomial directions follow per-level degree bounds; at break degrees
    the lattice contains only the chosen Lagrangian (plus the Levi line).
    """

    def __init__(self, real: Realization, kind: str = "J"):
        self.real = real
        self.kind = kind
        self.breaks = [real.grid(r) for r in real.ladder.breaks]
        self.half_depths = [real.grid(s) for s in real.ladder.half_depths]
        self._thresholds = {gen: self._base_threshold(gen) for gen in real.generators()}
        self.break_pieces: list[dict] = []
        # degree -> (monomials, pure monomials, the monomials outside the
        # pure ones, the extra lines reduced on them, their pivots)
        self._pieces: dict[int, tuple] = {}
        self._brackets: list[tuple[dict, dict, dict]] | None = None
        if kind == "J":
            self._assemble_breaks()

    def threshold(self, gen: Gen) -> int:
        """Least exponent n with G t^n pure, read off the table built with
        the lattice."""
        return self._thresholds[gen]

    def _base_threshold(self, gen: Gen) -> int:
        """Least exponent n with G t^n pure: deg >= 0 at level 0, deg past
        the level's half depth (J) or break (K) above it."""
        height = self.real.degree((gen, 0))
        j = self.real.level_of_gen[gen]
        if j == 0:
            return -(height // self.real.N)
        bound = self.half_depths[j - 1] if self.kind == "J" else self.breaks[j - 1]
        return (bound - height) // self.real.N + 1

    def _assemble_breaks(self) -> None:
        real = self.real
        for j in range(1, len(real.ladder.levels)):
            s = self.half_depths[j - 1]
            piece = v_piece_at_degree(real, j, s)
            if not piece:
                continue
            form = symplectic_form_on_piece(real, j, piece)
            vectors = [_coords_to_map(piece, coords) for coords in lagrangian(form)]
            self.break_pieces.append({"j": j, "degree": s, "lagrangian": vectors})

    def piece_at_degree(self, deg: int) -> tuple[tuple[Monomial, ...], frozenset, tuple]:
        """The monomials of the ambient graded slot, the pure ones among them
        and the piece's reduced rows as lines on the other monomials, which
        together span the piece. The rows reduce the twisted Cartan line at
        a degree >= 0 and the break Lagrangian lines on those monomials,
        once per lattice and degree."""
        monos, pure, rest, rows, _pivots = self._piece(deg)
        return monos, pure, tuple(_coords_to_line(rest, row) for row in rows)

    def _piece(self, deg: int) -> tuple:
        piece = self._pieces.get(deg)
        if piece is None:
            piece = self._pieces[deg] = self._compute_piece(deg)
        return piece

    def _compute_piece(self, deg: int) -> tuple:
        real = self.real
        monos = tuple(real.monomials_at_degree(deg))
        pure = frozenset(m for m in monos if m[1] >= self.threshold(m[0]))
        rest = tuple(m for m in monos if m not in pure)
        # the Cartan line lies in (LM)_{>=0}
        lines = real.m_lines_at_degree(deg) if real.twisted and deg >= 0 else []
        lines += [line for rec in self.break_pieces if rec["degree"] == deg
                  for line in rec["lagrangian"]]
        # a pure monomial is a unit row, so only the other coordinates count
        rows, pivots = rref([[line.get(m, _ZERO) for m in rest] for line in lines])
        return monos, pure, rest, rows[:len(pivots)], pivots

    def contains_line(self, line: dict) -> bool:
        """Whether a nonzero homogeneous line lies in the lattice: what is
        left of it outside the pure monomials lies in the span of the
        reduced extra lines."""
        _monos, _pure, rest, rows, pivots = self._piece(
            self.real.degree(next(iter(line))))
        return in_span(rows, tuple(line.get(m, _ZERO) for m in rest), pivots)

    def module_generators(self) -> list[dict[Monomial, Scalar]]:
        """Generators of the lattice as a module over O = C[[t]].

        G t^n0(G) for each generator G, the Lagrangian lines and, on twisted
        data, the Cartan lines at degrees k/n in (0, 1); each pure monomial
        and each Cartan line at a degree >= 0 is a t-power times one of them.
        """
        real = self.real
        out = [{(gen, self.threshold(gen)): _ONE} for gen in real.generators()]
        out += [line for rec in self.break_pieces for line in rec["lagrangian"]]
        if real.twisted:
            out += [line for k in range(1, real.n)
                    for line in real.m_lines_at_degree(k * real.N // real.n)]
        return out

    def generator_brackets(self) -> list[tuple[dict, dict, dict]]:
        """(u, v, [u, v]) for each pair of O-module generators, computed once
        per lattice; the closure proof and the tail character both read it."""
        if self._brackets is None:
            real = self.real
            self._brackets = [(u, v, _bracket_lines(real, u, v))
                              for u, v in combinations(self.module_generators(), 2)]
        return self._brackets


def _integral(c):
    """c, with an integral Fraction read as its int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _coords_to_line(monos, vec) -> dict:
    return {monos[i]: c for i, c in enumerate(vec) if c}


def _coords_to_map(vectors: list[dict], coords) -> dict:
    out = {}
    for basis_line, c in zip(vectors, coords):
        if not c:
            continue
        for mono, val in basis_line.items():
            cur = out.get(mono, _ZERO)
            out[mono] = cur + c * val
    return {m: c for m, c in out.items() if c}


# -- complements and symplectic forms ------------------------------------


def v_piece_at_degree(real: Realization, j: int, deg: int) -> list[dict]:
    """Basis of the level-j complement directions at a fixed degree.

    The level-j monomials of the slot, cut to the kernel of the residue-trace
    pairing with the Levi lines at -deg; E_ab t^e pairs only with E_ba t^-e.
    Split Levi lines never pair with a level-j root, so the basis is the
    level-j monomials themselves. In a twisted slot every monomial is level 1
    and the kernel is the trace-orthogonal complement of the Cartan line.
    """
    if real.twisted and j != 1:
        raise InvalidArgumentError("twisted toral ladders have a single complement level")
    monos = [m for m in real.monomials_at_degree(deg) if real.level_of_gen[m[0]] == j]
    # the h_k of a level-j slot meet no Levi line at -deg
    partners = [(("r", real.rd.negative_of(idx)), -e) if kind == "r" else None
                for (kind, idx), e in monos]
    rows = [[line.get(p, _ZERO) for p in partners] for line in real.m_lines_at_degree(-deg)]
    vectors = [_coords_to_line(monos, vec) for vec in nullspace(rows, len(monos))]
    levi = [line for line in real.m_lines_at_degree(deg)
            if all(real.level_of_gen[gen] == j for gen, _e in line)]
    expected = len(monos) - len(levi)
    if len(vectors) != expected:
        raise InternalInvariantViolation(
            f"complement dimension {len(vectors)} != expected {expected} "
            f"at degree {real.fraction(deg)}"
        )
    return vectors


def symplectic_form_on_piece(real: Realization, j: int, piece: list[dict]) -> list[list[Scalar]]:
    """The break form <lambda_j, [u, v]> on the piece, with lambda_j the dual
    cut to the band's exponents: row u is u's functional, as in a moveability
    block. On twisted data the band's exponents are fractions and the dual's
    keys integers, so the cut keeps no key and the form is zero."""
    exponents = set(real.ladder.components[j - 1].support())
    form = _pairing_block(real, piece, piece, exponents)
    k = len(piece)
    for a in range(k):
        if form[a][a]:
            raise InternalInvariantViolation("symplectic form has nonzero diagonal")
        for b in range(k):
            if form[a][b] + form[b][a]:
                raise InternalInvariantViolation("symplectic form is not alternating")
    return form


def lagrangian(form: list[list[Scalar]]) -> list[list[Scalar]]:
    """Greedy symplectic basis; returns coordinates of the first-half span.
    A pivot that pairs with no remaining vector lies in the radical, so the
    pass proves the form nondegenerate."""
    k = len(form)
    basis = [[(_ONE if i == j else _ZERO) for j in range(k)] for i in range(k)]

    def pairing(u, v):
        total = _ZERO
        for a in range(k):
            if not u[a]:
                continue
            for b in range(k):
                if v[b] and form[a][b]:
                    total = total + u[a] * v[b] * form[a][b]
        return total

    remaining = list(basis)
    first_half = []
    while remaining:
        u = remaining.pop(0)
        pick = next((idx for idx, v in enumerate(remaining) if pairing(u, v)), None)
        if pick is None:
            raise InternalInvariantViolation("symplectic form is degenerate on the break piece")
        v = remaining.pop(pick)
        scale = _integral(Fraction(1) / pairing(u, v))
        v = [scale * c for c in v]
        reduced = []
        for w in remaining:
            cu, cv = pairing(u, w), pairing(v, w)
            w2 = [wc - cu * vc for wc, vc in zip(w, v)]
            w2 = [wc + cv * uc for wc, uc in zip(w2, u)]
            reduced.append(w2)
        remaining = reduced
        first_half.append(u)
    for u in first_half:
        for v in first_half:
            if pairing(u, v):
                raise InternalInvariantViolation("Lagrangian output is not isotropic")
    return first_half


def build_j_lattice(datum: PolarDatum, ladder: YuLadder | None = None, x=None) -> JLattice:
    """Assemble the graded lattice and prove it closed under the bracket."""
    ladder = ladder or extract(datum)
    lattice = JLattice(Realization(datum, ladder, x))
    bad = bracket_closure_violations(lattice)
    if bad:
        raise InternalInvariantViolation(f"lattice not closed under bracket: {bad[0]}")
    return lattice


def bracket_closure_violations(lattice: JLattice) -> list[dict]:
    """Faults of the proof that the lattice is an O-stable subalgebra: each
    generator whose t-multiple, and each pair of generators whose bracket,
    leaves the lattice, with the degree it sits at."""
    real = lattice.real
    claims = chain(
        (({"t_multiple": g}, {(gen, n + 1): c for (gen, n), c in g.items()})
         for g in lattice.module_generators()),
        (({"left": u, "right": v}, line) for u, v, line in lattice.generator_brackets()))
    out = []
    for fault, line in claims:
        if line and not lattice.contains_line(line):
            out.append({**{k: _mono_json(g) for k, g in fault.items()},
                        "degree": str(real.fraction(real.degree(next(iter(line)))))})
    return out


def psi_lambda_check(lattice: JLattice) -> bool:
    """Whether residue pairing with the datum's tail kills all brackets of the lattice.

    [J, J] is spanned over O by the brackets of generator pairs, and the dual
    pairs only with its finitely many exponent keys, so each bracket is paired
    at the shifts t^k, k >= 0, that bring one of its exponents onto a key.
    """
    real = lattice.real
    for _u, _v, coords in lattice.generator_brackets():
        shifts = {e - n for e in real.dual for _gen, n in coords if e >= n}
        if any(sum(c * real.pair_dual_monomial((gen, n + k)) for (gen, n), c in coords.items())
               for k in shifts):
            return False
    return True


def _bracket_lines(real: Realization, u: dict, v: dict) -> dict[Monomial, Scalar]:
    """[u, v] for two lines given as monomial -> coefficient maps."""
    coords: dict[Monomial, Scalar] = {}
    for mu, cu in u.items():
        for mv, cv in v.items():
            for mono, c in real.bracket_monomials(mu, mv).items():
                cur = coords.get(mono, _ZERO)
                coords[mono] = cur + cu * cv * c
    return {m: c for m, c in coords.items() if c}


def _mono_json(line: dict) -> list:
    return [[list(m[0]), m[1], repr(as_cyclo(c))] for m, c in sorted(line.items())]


# -- moveability ---------------------------------------------------------


def moveability_check(datum: PolarDatum, ladder: YuLadder | None = None,
                      x=None, variant: str = "J") -> dict:
    """Tangent-level coset-matching check.

    Degree by degree, the pairing <lam, [X, u]> between the non-Levi part of
    the group lattice and the non-Levi part of the coset lattice must be a
    perfect square block; per-degree ranks are reported. Full rank everywhere
    is the linearized form of the statement that conjugation by the lattice
    group sweeps the coset onto its Levi part.
    """
    if variant not in ("J", "K"):
        raise InvalidArgumentError(f"variant must be J or K, got {variant}")
    ladder = ladder or extract(datum)
    real = Realization(datum, ladder, x)
    # on the grid: the step of the grading is the gcd of N and the heights
    N = real.N
    step = gcd(N, *real._heights)
    gamma_max = max([N] + [real.grid(r) for r in ladder.breaks]) + N

    # K couples strictly positive codegrees only; J reaches down to the break
    # blocks, where Lagrangian rows pair with the residual half of the slot.
    if variant == "K":
        gamma_min = step
    else:
        gamma_min = -max([0] + [real.grid(s) for s in ladder.half_depths])
    first, last = -(-gamma_min // step), gamma_max // step
    if last - first + 1 > CODEGREE_BOUND:
        raise ResourceLimitError(
            f"codegree scan over [{real.fraction(gamma_min)}, {real.fraction(gamma_max)}] "
            f"at step {real.fraction(step)} visits "
            f"{last - first + 1} codegrees, more than bound {CODEGREE_BOUND}")
    lattice = JLattice(real, variant)
    candidates = {k * step for k in range(first, last + 1)}
    if variant == "J":
        for rec in lattice.break_pieces:
            candidates.add(rec["degree"] - lattice.breaks[rec["j"] - 1])
    gammas = sorted(candidates)

    blocks = []
    defects = 0
    for gamma in gammas:
        rows = _group_complement_rows(real, lattice, gamma)
        cols = _coset_complement_cols(real, lattice, variant, gamma)
        if not rows and not cols:
            continue
        r = rank(_pairing_block(real, rows, cols)) if rows and cols else 0
        ok = len(rows) == len(cols) == r
        if not ok:
            defects += 1
        blocks.append({"gamma": str(real.fraction(gamma)), "rows": len(rows), "cols": len(cols),
                       "rank": r, "full": ok})
    return {
        "variant": variant,
        "blocks": blocks,
        "rank_defects": defects,
        "full_rank": defects == 0,
    }


def _pairing_block(real: Realization, rows: list[dict], cols: list[dict],
                   exponents=None) -> list[list[Scalar]]:
    """The matrix of <lambda, [x, phi]>, row x against column phi, the dual
    cut to `exponents` when given. Each row's functional is built once, and
    only the entries where it meets a column's monomial are filled."""
    where: dict[Monomial, list[tuple[int, Scalar]]] = {}
    for k, phi in enumerate(cols):
        for mono, c in phi.items():
            where.setdefault(mono, []).append((k, c))
    matrix = []
    for x in rows:
        out = [_ZERO] * len(cols)
        for mono, val in real.bracket_functional(x, exponents).items():
            for k, c in where.get(mono, ()):
                out[k] = out[k] + val * c
        matrix.append(out)
    return matrix


def _group_complement_rows(real: Realization, lattice: JLattice, gamma: int) -> list[dict]:
    """Lattice vectors outside the Levi whose principal target is codegree gamma.

    Level j contributes at delta = gamma + r_j: its Lagrangian rows, then each
    pure level-j monomial outside the span of the Levi lines, kept greedily.
    Only the monomials that the Levi lines touch are eliminated; any other
    pure monomial is kept.
    """
    rows = []
    for j in range(1, len(real.ladder.levels)):
        delta = gamma + lattice.breaks[j - 1]
        for rec in lattice.break_pieces:
            if rec["j"] == j and rec["degree"] == delta:
                rows.extend(rec["lagrangian"])
        monos = real.monomials_at_degree(delta)
        pure = [m for m in monos if real.level_of_gen[m[0]] == j
                and m[1] >= lattice.threshold(m[0])]
        if not pure:
            continue
        levi = real.m_lines_at_degree(delta)
        touched = set().union(*levi)
        candidates = [m for m in pure if m in touched]
        dropped = set()
        if candidates:
            coords = [m for m in monos if m in touched]
            span = [tuple(line.get(m, _ZERO) for m in coords) for line in levi]
            units = [tuple(_ONE if mono == m else _ZERO for mono in coords) for m in candidates]
            kept = set(independent(span + units))
            dropped = {m for k, m in enumerate(candidates, len(span)) if k not in kept}
        rows += [{m: _ONE} for m in pure if m not in dropped]
    return rows


def _coset_complement_cols(real: Realization, lattice: JLattice, variant: str,
                           gamma: int) -> list[dict]:
    """Functional basis of the coset lattice's non-Levi part at codegree gamma.

    In variant J a functional vanishes on every pure monomial of the piece,
    so the kernel is solved on the other monomials only.
    """
    eta = -gamma
    monos = real.monomials_at_degree(eta)
    if not monos:
        return []
    free, constraints = monos, []
    if variant == "J":
        _monos, pure, lines = lattice.piece_at_degree(eta)
        free = [m for m in monos if m not in pure]
        constraints = list(lines)
    constraints += real.m_lines_at_degree(eta)
    rows = [[line.get(m, _ZERO) for m in free] for line in constraints]
    return [_coords_to_line(free, vec) for vec in nullspace(rows, len(free))]
