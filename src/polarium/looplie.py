"""Type-A loop algebras sl_n((t)) on the graded monomial basis: Moy-Prasad
gradings at rational apartment points, symplectic break forms, the graded
lattice with its linear character, and the tangent-level moveability checks.

A monomial is a generator G t^n, with G = E_ij for a root and
E_kk - E_(k+1)(k+1) for the torus direction h_k. The dual element
(sum M_p t^p) dt/t enters only through the residue-trace pairing, so it is
kept as the functional it induces: exponent n -> generator -> tr(M_(-n) G),
nonzero values only.

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
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm

from .cyclo import CycloNumber, as_cyclo, cyclo_to_json
from .errors import (InternalInvariantViolation, InvalidArgumentError, ResourceLimitError,
                     UnsupportedFeatureError)
from .linalg import in_span, independent, nullspace, rank, rref
from .polar import PolarDatum
from .rootdata import RootDatum
from .tails import Tail
from .yuseq import YuLadder, extract

Gen = tuple[str, int]  # ("r", root index) or ("h", torus index)
Monomial = tuple[Gen, int]
Functional = dict  # exponent n -> {generator: pairing with G t^n}
Scalar = Fraction | CycloNumber  # a Fraction stands for its conductor-1 value

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Closure checks pair every two window basis vectors, so their time grows
# with the square of the basis: the sl3 two-break datum at window 60 (8
# generators × 121 exponents, 968 vectors) takes about 3 s on a 2-vCPU VM.
WINDOW_BASIS_BOUND = 1_000


def _require_type_a(rd: RootDatum) -> int:
    if len(rd.factors) != 1 or rd.factors[0][0] != "A" or rd.torus_rank:
        raise UnsupportedFeatureError(
            f"matrix realization covers split type A only, got {rd.type_label()}"
        )
    return rd.factors[0][1] + 1


def root_positions(rd: RootDatum) -> dict[int, tuple[int, int]]:
    """Off-diagonal matrix position (i, j) of each root of a type-A datum.

    E_ij carries the root e_i - e_j, written in the simple-root basis.
    """
    n = _require_type_a(rd)
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
        # X^(n-i) t^(-1-j) has pure grading degree -q and is regular
        # semisimple exactly when gcd(i,n)=1; tr(E_ab G) reads G at (b, a).
        n = self.n
        (q, _cov), = self.datum.lam.terms.items()
        i = int(q * n) % n
        if i == 0:  # only an unvalidated datum gets here: w fixes no nonzero covector
            raise InvalidArgumentError("twisted tail exponent must not be an integer")
        j = int(q - Fraction(i, n))
        dual: Functional = {}
        for a, b, p in _shift_power(n, n - i):
            dual.setdefault(1 + j - p, {})[("r", self._root_at[(b, a)])] = _ONE
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
        gens += [("h", k) for k in range(self.n - 1)]
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

    def _entries_to_coords(self, entries: dict) -> dict:
        """Generator coordinates of a trace-zero matrix given by its nonzero
        entries in row-major order; h_k takes the diagonal partial sum to k."""
        out = {}
        for (i, j), c in entries.items():
            if i != j:
                out[("r", self._root_at[(i, j)])] = c
        acc = 0
        for k in range(self.n - 1):
            acc = acc + entries.get((k, k), 0)
            if acc:
                out[("h", k)] = acc
        return out

    def _gen_entries(self, gen: Gen) -> tuple[tuple[int, int, int], ...]:
        """Nonzero entries (i, j, c) of the generator's matrix."""
        if gen[0] == "r":
            return (self.position[gen[1]] + (1,),)
        k = gen[1]
        return ((k, k, 1), (k + 1, k + 1, -1))

    def _structure_constants(self, gu: Gen, gv: Gen) -> tuple:
        """[gu, gv] in generator coordinates from [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
        comm: dict[tuple[int, int], int] = {}
        for i, j, a in self._gen_entries(gu):
            for k, l, b in self._gen_entries(gv):
                if j == k:
                    comm[(i, l)] = comm.get((i, l), 0) + a * b
                if l == i:
                    comm[(k, j)] = comm.get((k, j), 0) - a * b
        entries = {pos: comm[pos] for pos in sorted(comm) if comm[pos]}
        return tuple((gen, Fraction(c)) for gen, c in self._entries_to_coords(entries).items())

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


def mp_graded_piece(rd: RootDatum, x, degree) -> list[dict]:
    """Generators of the graded piece at the given degree for point x."""
    _require_type_a(rd)
    deg = Fraction(degree)
    x = tuple(Fraction(v) for v in x)
    out = []
    for idx, root in enumerate(rd.roots):
        shift = deg - Fraction(sum(a * b for a, b in zip(x, root)))
        if shift.denominator == 1:
            out.append({"root": idx, "n": int(shift)})
    if deg.denominator == 1:
        for k in range(rd.ss_rank):
            out.append({"torus": k, "n": int(deg)})
    return out


def vj_split(ladder: YuLadder) -> list[dict]:
    """Assignment of root/torus directions to the ladder complements."""
    d = ladder.datum
    if not d.torus.w.is_identity():
        raise UnsupportedFeatureError("direction split is defined for split presentations")
    out = [{"roots": sorted(ladder.levels[0]), "torus": True}]
    for j in range(1, len(ladder.levels)):
        out.append({"roots": sorted(ladder.levels[j] - ladder.levels[j - 1]), "torus": False})
    return out


# -- the graded lattice -------------------------------------------------


class JLattice:
    """The graded subalgebra assembled from half-depth thresholds.

    Pure monomial directions follow per-level degree bounds; at break degrees
    the lattice contains only the chosen Lagrangian (plus the Levi line).
    Exponent adjustments support corrupted variants for negative controls.
    """

    def __init__(self, real: Realization, kind: str = "J",
                 lagrangians: dict | None = None, adjust: dict | None = None):
        if kind not in ("J", "K"):
            raise InvalidArgumentError(f"lattice kind must be J or K, got {kind}")
        self.real = real
        self.kind = kind
        self.adjust = dict(adjust or {})
        self.breaks = list(real.ladder.breaks)
        self.half_depths = list(real.ladder.half_depths)
        self.break_pieces: list[dict] = []
        self._pieces: dict[Fraction, tuple] = {}  # degree -> (monomials, vectors, reduced rows)
        if kind == "J":
            self._assemble_breaks(lagrangians or {})

    # level bound: monomials of level j enter strictly above this degree
    def _level_bound(self, j: int) -> Fraction:
        if j == 0:
            return Fraction(0)
        return self.half_depths[j - 1] if self.kind == "J" else self.breaks[j - 1]

    def _pure_rule(self, mono: Monomial) -> bool:
        gen, n = mono
        deg = self.real.degree((gen, n + self.adjust.get(gen, 0)))
        j = self.real.level_of_gen[gen]
        return deg >= 0 if j == 0 else deg > self._level_bound(j)

    def _assemble_breaks(self, chosen: dict) -> None:
        real = self.real
        for j in range(1, len(real.ladder.levels)):
            s = self.half_depths[j - 1]
            piece = v_piece_at_degree(real, j, s)
            if not piece["vectors"]:
                continue
            form = symplectic_form_on_piece(real, j, piece)
            lag = chosen.get(j)
            if lag is None:
                lag = lagrangian(form)
            vectors = [_coords_to_map(piece, coords) for coords in lag]
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
            if self._pure_rule(m):
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

    def contains_coords(self, deg: Fraction, coords: dict) -> bool:
        monos, _vectors, rows = self._piece(deg)
        index = {m: i for i, m in enumerate(monos)}
        target = _map_to_coords(coords, index)
        if target is None:
            return False
        return in_span(rows, target)

    def window_basis(self, lo: int, hi: int) -> list[dict[Monomial, Scalar]]:
        """Independent lattice basis vectors with all exponents inside [lo, hi]."""
        real = self.real
        degrees = sorted({real.degree((gen, n))
                          for gen in real.generators() for n in range(lo, hi + 1)})
        out = []
        for deg in degrees:
            monos, vectors = self.piece_at_degree(deg)
            for vec in vectors:
                line = _coords_to_line(monos, vec)
                if all(lo <= m[1] <= hi for m in line):
                    out.append(line)
        return out

    def with_adjust(self, gen: Gen, steps: int) -> "JLattice":
        """Corrupted copy: direction bound moved by the given exponent steps."""
        out = copy.copy(self)
        out.adjust = {**self.adjust, gen: self.adjust.get(gen, 0) + steps}
        out._pieces = {}  # the pure-monomial rule changed with the adjustment
        return out

    def to_json(self) -> dict:
        real = self.real
        thresholds = []
        for gen in real.generators():
            n = -4 * max([1] + [int(b) + 1 for b in self.breaks])
            while not self._pure_rule((gen, n)):
                n += 1
            entry = {"q": str(real.degree((gen, n)))}
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


def symplectic_form(datum: PolarDatum, ladder: YuLadder | None, j: int, x=None):
    """Alternating nondegenerate matrix on the level-j break piece."""
    ladder = ladder or extract(datum)
    real = Realization(datum, ladder, x)
    s = ladder.half_depths[j - 1]
    piece = v_piece_at_degree(real, j, s)
    if not piece["vectors"]:
        raise InvalidArgumentError(f"break piece at level {j} is zero")
    return symplectic_form_on_piece(real, j, piece), piece, real


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


def build_j_lattice(datum: PolarDatum, ladder: YuLadder | None = None, x=None,
                    lagrangians: dict | None = None, window: int | None = None) -> JLattice:
    """Assemble the graded lattice and verify bracket closure at truncation."""
    ladder = ladder or extract(datum)
    real = Realization(datum, ladder, x)
    lattice = JLattice(real, "J", lagrangians)
    lo, hi = _window(real, window)
    bad = bracket_closure_violations(lattice, lo, hi, stop_early=True)
    if bad:
        raise InternalInvariantViolation(f"lattice not closed under bracket: {bad[0]}")
    return lattice


def _window(real: Realization, window: int | None) -> tuple[int, int]:
    """Exponent window [lo, hi] of the closure checks, within the basis bound.

    The window basis has at most one vector per generator and exponent, so
    generators × width bounds its size before any piece or bracket is built.
    """
    if window is not None:
        lo, hi = -window, window
    else:
        top = max([Fraction(1)] + list(real.ladder.breaks))
        lo, hi = -(int(top) + 1), int(top) + 2
    size = len(real.generators()) * (hi - lo + 1)
    if size > WINDOW_BASIS_BOUND:
        raise ResourceLimitError(f"window [{lo}, {hi}] allows {size} basis vectors: "
                                 f"larger than bound {WINDOW_BASIS_BOUND}")
    return lo, hi


def bracket_closure_violations(lattice: JLattice, lo: int, hi: int,
                               stop_early: bool = False) -> list[dict]:
    """Pairs of window basis vectors whose bracket leaves the lattice."""
    real = lattice.real
    basis = lattice.window_basis(lo, hi)
    out = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            coords: dict[Monomial, Scalar] = {}
            for mu, cu in basis[a].items():
                for mv, cv in basis[b].items():
                    for mono, c in real.bracket_monomials(mu, mv).items():
                        cur = coords.get(mono, _ZERO)
                        coords[mono] = cur + cu * cv * c
            coords = {m: c for m, c in coords.items() if c}
            if not coords:
                continue
            if any(not (lo <= m[1] <= hi) for m in coords):
                continue  # outside the verifiable truncation
            deg = real.degree(next(iter(coords)))
            if not lattice.contains_coords(deg, coords):
                out.append({"left": _mono_json(basis[a]), "right": _mono_json(basis[b]),
                            "degree": str(deg)})
                if stop_early:
                    return out
    return out


def psi_lambda_check(lattice: JLattice, lam: Tail | None = None,
                     window: int | None = None) -> bool:
    """Whether residue pairing with the tail kills all brackets of the lattice."""
    real = lattice.real
    if lam is not None and lam != real.datum.lam:
        raise InvalidArgumentError("tail does not belong to the lattice's datum")
    lo, hi = _window(real, window)
    basis = lattice.window_basis(lo, hi)
    return not any(real.pair_lines(basis[a], basis[b])
                   for a in range(len(basis)) for b in range(a, len(basis)))


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
    lattice = JLattice(real, variant)
    top = max([Fraction(1)] + list(ladder.breaks))
    gamma_max = top + 1
    step = real.degree_step()

    # K couples strictly positive codegrees only; J reaches down to the break
    # blocks, where Lagrangian rows pair with the residual half of the slot.
    if variant == "K":
        gamma_min = step
    else:
        gamma_min = -max([Fraction(0)] + list(ladder.half_depths))
    candidates = {k * step for k in range(ceil(gamma_min / step), floor(gamma_max / step) + 1)}
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
        pure = [m for m in monos if real.level_of_gen[m[0]] == j and lattice._pure_rule(m)]
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


# -- graded regularity search --------------------------------------------


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


def graded_piece_directions(rd: RootDatum, m: int) -> list:
    """Directions of the residual graded piece at class -1 mod m."""
    n = _require_type_a(rd)
    rho = rd.rho_coweight()
    target = (-1) % m
    dirs = []
    for idx, root in enumerate(rd.roots):
        height = sum(a * b for a, b in zip(rho, root))
        if int(height) % m == target:
            dirs.append(("r", idx))
    if target == 0:
        dirs.extend(("h", k) for k in range(n - 1))
    return dirs


def eigen_regular_check(rd: RootDatum, m: int, max_samples: int = 3000) -> bool:
    """Brute-force search for a regular semisimple element in the -1 graded class."""
    n = _require_type_a(rd)
    position = root_positions(rd)
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
        if rank(sylvester) == len(sylvester):
            return True
    return False
