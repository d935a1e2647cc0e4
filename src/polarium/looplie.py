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

The field is generic. Structure constants, the twisted dual, unit vectors
and every value computed from them are `Fraction`s; a `CycloNumber` enters
only through a split dual whose covector has an entry of conductor > 1, and
then every entry of that covector is lifted to their lcm conductor. The
invariant: a value is a `Fraction` exactly where a conductor-1 value stands,
and every other value has the conductor of the operands it came from, since
mixed arithmetic reads a `Fraction` at conductor 1. Zero tests use
truthiness and inverses `1 / x`. Coefficients are printed as
`CycloNumber`s, a `Fraction` at conductor 1.

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
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import chain, combinations
from math import ceil, floor, lcm

from .cyclo import CycloNumber, as_cyclo, cyclo_to_json
from .errors import (InternalInvariantViolation, InvalidArgumentError, ResourceLimitError,
                     UnsupportedFeatureError)
from .linalg import in_span, independent, nullspace, rank, rref
from .polar import PolarDatum
from .rootdata import RootDatum
from .yuseq import YuLadder, extract

Gen = tuple[str, int]  # ("r", root index) or ("h", torus index)
Monomial = tuple[Gen, int]
Functional = dict  # exponent n -> {generator: pairing with G t^n}
Scalar = Fraction | CycloNumber  # a Fraction stands for its conductor-1 value

_ZERO = Fraction(0)
_ONE = Fraction(1)

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
        self._structure: dict[tuple[Gen, Gen], tuple] = {}
        if self.twisted:
            self._init_twisted(x)
            self.dual = self._realize_dual_twisted()
        else:
            self._init_split(x)
            self.dual = self._realize_dual_split()
        self._heights = tuple(Fraction(sum(a * b for a, b in zip(self.x, root)))
                              for root in rd.roots)

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
        # entries lived at the lcm of the covector's conductors, a Fraction
        # when that is 1.
        dual: Functional = {}
        for q, cov in self.datum.lam.terms.items():
            if q.denominator != 1:
                raise UnsupportedFeatureError("split realization needs integral exponents")
            conductor = lcm(*(c.conductor for c in cov))
            dual[q] = {("h", k): c.lift(conductor) if conductor > 1 else c.coeffs[0]
                       for k, c in enumerate(cov) if not c.is_zero()}
        return dual

    def _realize_dual_twisted(self) -> Functional:
        # the trace dual of the Levi line at -q, X^(n-i) t^(-1-j) for
        # q = j + i/n, which is regular semisimple exactly when gcd(i,n)=1;
        # tr(E_ab G) reads G at (b, a), so E_ab t^e pairs with E_ba t^-e.
        (q, _cov), = self.datum.lam.terms.items()
        lines = self.m_lines_at_degree(-q)
        if not lines:  # only an unvalidated datum gets here: w fixes no nonzero covector
            raise InvalidArgumentError("twisted tail exponent must not be an integer")
        dual: Functional = {}
        for ((_kind, idx), e), c in lines[0].items():
            dual.setdefault(-e, {})[("r", self.rd.negative_of(idx))] = c
        return dual

    # -- graded combinatorics -------------------------------------------

    def root_height(self, idx: int) -> Fraction:
        return self._heights[idx]

    def degree(self, mono: Monomial) -> Fraction:
        (kind, idx), n = mono
        if kind == "r":
            return self.root_height(idx) + n
        return Fraction(n)

    def generators(self) -> list[Gen]:
        gens: list[Gen] = [("r", idx) for idx in range(len(self.rd.roots))]
        gens += [("h", k) for k in range(self.rd.ss_rank)]
        return gens

    def monomials_at_degree(self, deg: Fraction) -> list[Monomial]:
        out = []
        for gen in self.generators():
            if gen[0] == "r":
                shift = deg - self.root_height(gen[1])
            else:
                shift = Fraction(deg)
            if shift.denominator == 1:
                out.append((gen, int(shift)))
        return out

    def degree_step(self) -> Fraction:
        """Spacing of the grading: 1/lcm of the root-height denominators."""
        return Fraction(1, lcm(*(self.root_height(idx).denominator
                                 for idx in range(len(self.rd.roots)))))

    def _structure_constants(self, gu: Gen, gv: Gen) -> tuple:
        """[gu, gv] in generator coordinates, read off the root datum:
        [h_k, e_a] = <a, alpha_k^vee> e_a, [e_a, e_-a] = a^vee, and
        [e_a, e_b] = +-e_(a+b) when a + b is a root, with the sign of
        [E_ij, E_jl] = E_il."""
        rd = self.rd
        (ku, u), (kv, v) = gu, gv
        if ku == "h":
            c = 0 if kv == "h" else rd.roots[v][u]
            return ((gv, Fraction(c)),) if c else ()
        if kv == "h":
            c = -rd.roots[u][v]
            return ((gu, Fraction(c)),) if c else ()
        if v == rd.negative_of(u):
            return tuple((("h", k), Fraction(c)) for k, c in enumerate(rd.coroots[u]) if c)
        total = rd.root_index.get(tuple(a + b for a, b in zip(rd.roots[u], rd.roots[v])))
        if total is None:
            return ()
        sign = _ONE if self.position[u][1] == self.position[v][0] else -_ONE
        return ((("r", total), sign),)

    def bracket_monomials(self, u: Monomial, v: Monomial) -> dict[Monomial, Fraction]:
        (gu, nu), (gv, nv) = u, v
        coords = self._structure.get((gu, gv))
        if coords is None:
            coords = self._structure[(gu, gv)] = self._structure_constants(gu, gv)
        n = nu + nv
        return {(gen, n): c for gen, c in coords}

    def pair_dual_monomial(self, mono: Monomial, dual: Functional | None = None) -> Scalar:
        """Residue pairing tr(M_(-n) Y) of the dual with a monomial Y t^n."""
        if dual is None:  # a restricted functional may be empty
            dual = self.dual
        gen, n = mono
        return dual.get(n, {}).get(gen, _ZERO)

    def pair_dual_bracket(self, u: Monomial, v: Monomial,
                          dual: Functional | None = None) -> Scalar:
        total = _ZERO
        for mono, c in self.bracket_monomials(u, v).items():
            val = self.pair_dual_monomial(mono, dual)
            if val:
                total = total + c * val
        return total

    def pair_lines(self, u: dict, v: dict, dual: Functional | None = None) -> Scalar:
        """<dual, [u, v]> for two lines given as monomial -> coefficient maps."""
        total = _ZERO
        for mu, cu in u.items():
            for mv, cv in v.items():
                val = self.pair_dual_bracket(mu, mv, dual)
                if val:
                    total = total + cu * cv * val
        return total

    # -- M-part ----------------------------------------------------------

    def m_lines_at_degree(self, deg: Fraction) -> list[dict[Monomial, Fraction]]:
        """Graded lines of the levi Cartan/Levi part at the given degree."""
        if not self.twisted:
            out = []
            for mono in self.monomials_at_degree(deg):
                (kind, idx), _n = mono
                if kind == "h" or idx in self.datum.levi:
                    out.append({mono: _ONE})
            return out
        n = self.n
        k = int((deg * n) % n)
        if k == 0:
            return []
        j = int(deg - Fraction(k, n))
        return [{(("r", self._root_at[(a, b)]), p + j): _ONE
                 for a, b, p in _shift_power(n, k)}]


# -- the graded lattice -------------------------------------------------


class JLattice:
    """The graded subalgebra assembled from half-depth thresholds.

    Pure monomial directions follow per-level degree bounds; at break degrees
    the lattice contains only the chosen Lagrangian (plus the Levi line).
    Exponent adjustments support corrupted variants for negative controls.
    """

    def __init__(self, real: Realization, kind: str = "J"):
        if kind not in ("J", "K"):
            raise InvalidArgumentError(f"lattice kind must be J or K, got {kind}")
        self.real = real
        self.kind = kind
        self.adjust: dict[Gen, int] = {}
        self.breaks = list(real.ladder.breaks)
        self.half_depths = list(real.ladder.half_depths)
        self.break_pieces: list[dict] = []
        self._pieces: dict[Fraction, tuple] = {}  # degree -> (monomials, vectors, reduced rows)
        self._brackets: list[tuple[dict, dict, dict]] | None = None
        if kind == "J":
            self._assemble_breaks()

    # level bound: monomials of level j enter strictly above this degree
    def _level_bound(self, j: int) -> Fraction:
        if j == 0:
            return Fraction(0)
        return self.half_depths[j - 1] if self.kind == "J" else self.breaks[j - 1]

    def threshold(self, gen: Gen) -> int:
        """Least exponent n with G t^n pure: deg >= 0 at level 0, deg past
        the level bound above it."""
        height = self.real.degree((gen, 0))
        j = self.real.level_of_gen[gen]
        if j == 0:
            n = ceil(-height)
        else:
            n = floor(self._level_bound(j) - height) + 1
        return n - self.adjust.get(gen, 0)

    def _assemble_breaks(self) -> None:
        real = self.real
        for j in range(1, len(real.ladder.levels)):
            s = self.half_depths[j - 1]
            piece = v_piece_at_degree(real, j, s)
            if not piece["vectors"]:
                continue
            form = symplectic_form_on_piece(real, j, piece)
            vectors = [_coords_to_map(piece, coords) for coords in lagrangian(form)]
            self.break_pieces.append({
                "j": j, "degree": s, "piece": piece, "form": form, "lagrangian": vectors,
            })

    def piece_at_degree(self, deg: Fraction) -> tuple[tuple[Monomial, ...], tuple[tuple, ...]]:
        """Monomial basis of the ambient graded slot plus lattice vectors.

        The returned vectors are independent: contributions already inside the
        span of those before them (a Lagrangian line next to its own pure
        monomial, say) are dropped. Each degree is computed once per lattice,
        together with the reduced rows that membership tests read.
        """
        return self._piece(deg)[:2]

    def _piece(self, deg: Fraction) -> tuple:
        piece = self._pieces.get(deg)
        if piece is None:
            piece = self._pieces[deg] = self._compute_piece(deg)
        return piece

    def _compute_piece(self, deg: Fraction) -> tuple:
        real = self.real
        monos = real.monomials_at_degree(deg)
        index = {m: i for i, m in enumerate(monos)}
        candidates = []
        for m in monos:
            if m[1] >= self.threshold(m[0]):
                vec = [_ZERO] * len(monos)
                vec[index[m]] = _ONE
                candidates.append(tuple(vec))
        # the Cartan line lies in (LM)_{>=0}
        lines = real.m_lines_at_degree(deg) if real.twisted and deg >= 0 else []
        lines += [line for rec in self.break_pieces if rec["degree"] == deg
                  for line in rec["lagrangian"]]
        candidates += [vec for vec in (_map_to_coords(line, index) for line in lines)
                       if vec is not None]
        vectors = tuple(candidates[k] for k in independent(candidates))
        return tuple(monos), vectors, rref(vectors)[0]

    def contains_line(self, line: dict) -> bool:
        """Whether a nonzero homogeneous line lies in the lattice."""
        monos, _vectors, rows = self._piece(self.real.degree(next(iter(line))))
        return in_span(rows, _map_to_coords(line, {m: i for i, m in enumerate(monos)}))

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
                    for line in real.m_lines_at_degree(Fraction(k, real.n))]
        return out

    def generator_brackets(self) -> list[tuple[dict, dict, dict]]:
        """(u, v, [u, v]) for each pair of O-module generators, computed once
        per lattice; the closure proof and the tail character both read it."""
        if self._brackets is None:
            real = self.real
            self._brackets = [(u, v, _bracket_lines(real, u, v))
                              for u, v in combinations(self.module_generators(), 2)]
        return self._brackets

    def with_adjust(self, gen: Gen, steps: int) -> "JLattice":
        """Corrupted copy: direction bound moved by the given exponent steps."""
        out = copy.copy(self)
        out.adjust = {**self.adjust, gen: self.adjust.get(gen, 0) + steps}
        # the pure-monomial rule, and with it the generators, changed
        out._pieces = {}
        out._brackets = None
        return out

    def to_json(self) -> dict:
        real = self.real
        thresholds = []
        for gen in real.generators():
            entry = {"q": str(real.degree((gen, self.threshold(gen))))}
            if gen[0] == "r":
                entry["root"] = gen[1]
            else:
                entry["torus"] = gen[1]
            thresholds.append(entry)
        lagrangians = []
        for rec in self.break_pieces:
            lagrangians.append({
                "j": rec["j"],
                "degree": str(rec["degree"]),
                "basis": [
                    [{"root": m[0][1] if m[0][0] == "r" else None,
                      "torus": m[0][1] if m[0][0] == "h" else None,
                      "n": m[1], "coeff": cyclo_to_json(as_cyclo(c))} for m, c in line.items()]
                    for line in rec["lagrangian"]
                ],
            })
        return {"kind": self.kind, "thresholds": thresholds, "lagrangians": lagrangians,
                "breaks": [str(b) for b in self.breaks]}


def _map_to_coords(line: dict, index: dict) -> tuple | None:
    vec = [_ZERO] * len(index)
    for mono, c in line.items():
        if mono not in index:
            return None
        vec[index[mono]] = c
    return tuple(vec)


def _coords_to_line(monos, vec) -> dict:
    return {monos[i]: c for i, c in enumerate(vec) if c}


def _coords_to_map(piece: dict, coords) -> dict:
    out = {}
    for basis_line, c in zip(piece["vectors"], coords):
        if not c:
            continue
        for mono, val in basis_line.items():
            cur = out.get(mono, _ZERO)
            out[mono] = cur + c * val
    return {m: c for m, c in out.items() if c}


# -- complements and symplectic forms ------------------------------------


def v_piece_at_degree(real: Realization, j: int, deg: Fraction) -> dict:
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
            f"complement dimension {len(vectors)} != expected {expected} at degree {deg}"
        )
    return {"monomials": monos, "vectors": vectors, "degree": deg}


def symplectic_form_on_piece(real: Realization, j: int, piece: dict) -> list[list[Scalar]]:
    vectors = piece["vectors"]
    band = real.ladder.components[j - 1]
    exponents = set(band.support())
    dual = {q: vals for q, vals in real.dual.items() if q in exponents}
    form = [[real.pair_lines(u, v, dual) for v in vectors] for u in vectors]
    k = len(vectors)
    for a in range(k):
        if form[a][a]:
            raise InternalInvariantViolation("symplectic form has nonzero diagonal")
        for b in range(k):
            if form[a][b] + form[b][a]:
                raise InternalInvariantViolation("symplectic form is not alternating")
    if rank([list(row) for row in form]) != k:
        raise InternalInvariantViolation("symplectic form is degenerate on the break piece")
    return form


def lagrangian(form: list[list[Scalar]]) -> list[list[Scalar]]:
    """Greedy symplectic basis; returns coordinates of the first-half span."""
    k = len(form)
    if k % 2:
        raise InternalInvariantViolation("break piece has odd dimension")
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
            raise InternalInvariantViolation("degenerate form in Lagrangian construction")
        v = remaining.pop(pick)
        scale = 1 / pairing(u, v)
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
                        "degree": str(real.degree(next(iter(line))))})
    return out


def psi_lambda_check(lattice: JLattice) -> bool:
    """Whether residue pairing with the datum's tail kills all brackets of the lattice.

    [J, J] is spanned over O by the brackets of generator pairs, and the dual
    pairs only with its finitely many exponent keys, so each bracket is paired
    at the shifts t^k that bring its least exponent up to the largest key.
    """
    real = lattice.real
    top = int(max(real.dual, default=0))
    for _u, _v, coords in lattice.generator_brackets():
        low = min((n for _gen, n in coords), default=top)
        if any(sum(c * real.pair_dual_monomial((gen, n + k)) for (gen, n), c in coords.items())
               for k in range(top - low + 1)):
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
    top = max([Fraction(1)] + list(ladder.breaks))
    gamma_max = top + 1
    step = real.degree_step()

    # K couples strictly positive codegrees only; J reaches down to the break
    # blocks, where Lagrangian rows pair with the residual half of the slot.
    if variant == "K":
        gamma_min = step
    else:
        gamma_min = -max([Fraction(0)] + list(ladder.half_depths))
    first, last = ceil(gamma_min / step), floor(gamma_max / step)
    if last - first + 1 > CODEGREE_BOUND:
        raise ResourceLimitError(
            f"codegree scan over [{gamma_min}, {gamma_max}] at step {step} visits "
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
        matrix = [[real.pair_lines(xline, phi) for phi in cols] for xline in rows]
        r = rank(matrix) if rows and cols else 0
        ok = len(rows) == len(cols) == r
        if not ok:
            defects += 1
        blocks.append({"gamma": str(gamma), "rows": len(rows), "cols": len(cols),
                       "rank": r, "full": ok})
    return {
        "variant": variant,
        "type": real.rd.type_label(),
        "blocks": blocks,
        "rank_defects": defects,
        "full_rank": defects == 0,
    }


def _group_complement_rows(real: Realization, lattice: JLattice, gamma: Fraction) -> list[dict]:
    """Lattice vectors outside the Levi whose principal target is codegree gamma.

    Level j contributes at delta = gamma + r_j: its Lagrangian rows, then each
    pure level-j monomial outside the span of the Levi lines, kept greedily.
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
        index = {m: i for i, m in enumerate(monos)}
        span = [vec for vec in (_map_to_coords(line, index)
                                for line in real.m_lines_at_degree(delta)) if vec is not None]
        units = [tuple(_ONE if mono == m else _ZERO for mono in monos) for m in pure]
        kept = set(independent(span + units))
        rows += [{m: _ONE} for k, m in enumerate(pure, len(span)) if k in kept]
    return rows


def _coset_complement_cols(real: Realization, lattice: JLattice, variant: str,
                           gamma: Fraction) -> list[dict]:
    """Functional basis of the coset lattice's non-Levi part at codegree gamma."""
    eta = -gamma
    monos = real.monomials_at_degree(eta)
    if not monos:
        return []
    index = {m: i for i, m in enumerate(monos)}
    constraints = []
    if variant == "J":
        _, vectors = lattice.piece_at_degree(eta)
        constraints.extend(list(v) for v in vectors)
    else:
        if eta >= 0:
            return []
    for line in real.m_lines_at_degree(eta):
        vec = _map_to_coords(line, index)
        if vec is not None:
            constraints.append(list(vec))
    return [_coords_to_line(monos, vec) for vec in nullspace(constraints, len(monos))]
