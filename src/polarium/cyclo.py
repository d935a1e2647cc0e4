"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored as rational coefficient vectors in the power basis
1, z, ..., z^(phi(L)-1) modulo the L-th cyclotomic polynomial, and the
conductor L grows lazily (lcm) as mixed-conductor operations demand.
Compatibility of generators across conductors is fixed once and for all by
zeta_L := zeta_M^(M/L) whenever L | M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod

from .errors import (ArithmeticDomainError, FieldExtensionRequired,
                     InvalidArgumentError)

Coeffs = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _primes_dividing(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient by trial factorization (conductors stay small here)."""
    if n < 1:
        raise InvalidArgumentError(f"phi undefined for {n}")
    result = n
    for p in _primes_dividing(n):
        result = result // p * (p - 1)
    return result


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        coeff = a[-1] * inv_lead
        shift = len(a) - len(b)
        q[shift] = coeff
        for i, bi in enumerate(b):
            a[shift + i] -= coeff * bi
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[Fraction, ...]:
    """Monic L-th cyclotomic polynomial as a coefficient tuple.

    With r the product of the primes dividing L, Phi_L(x) = Phi_r(x^(L/r)).
    For r > 1, Phi_r is the product of (1 - x^d)^mu(r/d) over the divisors d
    of r, read as an integer power series to degree phi(r): one pass over
    phi(r) + 1 coefficients per squarefree divisor, so the work grows with
    phi(r) and the number of primes, not with L or its number of divisors.
    """
    if L < 1:
        raise InvalidArgumentError(f"conductor must be >= 1, got {L}")
    primes = _primes_dividing(L)
    r = prod(primes)
    if r == 1:
        return (-_ONE, _ONE)
    deg = euler_phi(r)
    c = [1] + [0] * deg
    for chosen in product((False, True), repeat=len(primes)):
        d = prod(q for q, take in zip(primes, chosen) if not take)  # mu(r/d) = (-1)^sum(chosen)
        if sum(chosen) % 2 == 0:  # times 1 - x^d
            for i in range(deg, d - 1, -1):
                c[i] -= c[i - d]
        else:  # divided by 1 - x^d
            for i in range(d, deg + 1):
                c[i] += c[i - d]
    out = [_ZERO] * (deg * (L // r) + 1)
    out[::L // r] = [Fraction(v) for v in c]
    return tuple(out)


@lru_cache(maxsize=None)
def _reduction_table(L: int) -> tuple[Coeffs, ...]:
    """Reduced forms of z^k for k in [phi(L), 2*phi(L)-1], used by products.

    z^phi is minus the lower part of the monic cyclotomic polynomial, and each
    later power is z times the one before, reduced the same way.
    """
    phi = euler_phi(L)
    top = [-c for c in cyclotomic_polynomial(L)[:phi]]
    table = [tuple(top)]
    for _ in range(phi - 1):
        prev = table[-1]
        lead = prev[-1]
        shifted = (_ZERO,) + prev[:-1]
        table.append(tuple(a + lead * b for a, b in zip(shifted, top)) if lead else shifted)
    return tuple(table)


def _reduce(L: int, poly: list[Fraction]) -> Coeffs:
    phi = euler_phi(L)
    if len(poly) > phi:
        _, poly = _poly_divmod(poly, list(cyclotomic_polynomial(L)))
    poly = list(poly) + [_ZERO] * (phi - len(poly))
    return tuple(poly)


class CycloNumber:
    """An element of Q(zeta_L) in reduced power-basis form. Immutable."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Coeffs):
        if conductor < 1:
            raise InvalidArgumentError(f"conductor must be >= 1, got {conductor}")
        if len(coeffs) != euler_phi(conductor):
            raise InvalidArgumentError(
                f"expected {euler_phi(conductor)} coefficients at conductor {conductor}, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("CycloNumber is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(value, conductor: int = 1) -> "CycloNumber":
        c = [_ZERO] * euler_phi(conductor)
        c[0] = Fraction(value)
        return CycloNumber(conductor, tuple(c))

    @staticmethod
    def zero(conductor: int = 1) -> "CycloNumber":
        return CycloNumber.from_rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "CycloNumber":
        return CycloNumber.from_rational(1, conductor)

    # -- representation -------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticDomainError(f"{self!r} is not rational")
        return self.coeffs[0]

    def lift(self, L2: int) -> "CycloNumber":
        """Express the same element in Q(zeta_L2); requires conductor | L2."""
        L = self.conductor
        if L2 == L:
            return self
        if L2 % L != 0:
            raise InvalidArgumentError(f"conductor {L} does not divide target {L2}")
        k = L2 // L
        poly: list[Fraction] = []
        for i, c in enumerate(self.coeffs):
            if c:
                if len(poly) < i * k + 1:
                    poly += [_ZERO] * (i * k + 1 - len(poly))
                poly[i * k] = c
        return CycloNumber(L2, _reduce(L2, poly))

    def try_retract(self, L1: int) -> "CycloNumber | None":
        """Canonical retraction to Q(zeta_L1) when the element lies there."""
        L = self.conductor
        if L % L1 != 0:
            raise InvalidArgumentError(f"target {L1} does not divide conductor {L}")
        if L1 == L:
            return self
        from .linalg import rref  # linalg imports this module

        phi1 = euler_phi(L1)
        basis = [CycloNumber(L1, tuple(_ONE if j == i else _ZERO for j in range(phi1))).lift(L)
                 for i in range(phi1)]
        # Rational coordinates of self in the lifted basis, if any.
        aug = [[b.coeffs[j] for b in basis] + [c] for j, c in enumerate(self.coeffs)]
        reduced, pivots = rref(aug)
        if phi1 in pivots:
            return None
        sol = [_ZERO] * phi1
        for i, col in enumerate(pivots):
            sol[col] = reduced[i][phi1]
        candidate = CycloNumber(L1, tuple(sol))
        return candidate if candidate.lift(L) == self else None

    # -- arithmetic -----------------------------------------------------

    def _common(self, other: "CycloNumber") -> tuple["CycloNumber", "CycloNumber", int]:
        L = lcm(self.conductor, other.conductor)
        return self.lift(L), other.lift(L), L

    def __add__(self, other):
        other = as_cyclo(other)
        a, b, L = self._common(other)
        return CycloNumber(L, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-as_cyclo(other))

    def __rsub__(self, other):
        return as_cyclo(other) - self

    def __mul__(self, other):
        other = as_cyclo(other)
        a, b, L = self._common(other)
        phi = euler_phi(L)
        out = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        low = out[:phi]
        if any(out[phi:]):  # the reduction table is built only when a product needs it
            table = _reduction_table(L)
            for k in range(phi, 2 * phi - 1):
                if out[k]:
                    red = table[k - phi]
                    for j in range(phi):
                        if red[j]:
                            low[j] += out[k] * red[j]
        return CycloNumber(L, tuple(low))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ArithmeticDomainError("division by zero")
        L = self.conductor
        mod = list(cyclotomic_polynomial(L))
        # Extended Euclid in Q[x]; the cyclotomic polynomial is irreducible,
        # so the gcd with any nonzero reduced element is a constant.
        r0, r1 = mod, _poly_trim(list(self.coeffs))
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ArithmeticDomainError("element shares a factor with the modulus")
        inv_const = 1 / r1[0]
        return CycloNumber(L, _reduce(L, [c * inv_const for c in s1]))

    def __truediv__(self, other):
        other = as_cyclo(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)) and other == 1:
            return self.inverse()  # same value and conductor, one multiply fewer
        return as_cyclo(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNumber.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses conductors; hashing would be a trap

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        terms = [f"{c}*z{self.conductor}^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def as_cyclo(x) -> CycloNumber:
    """x as a CycloNumber; an int or a Fraction is read at conductor 1."""
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycloNumber")


def zeta(conductor: int, exponent: int = 1) -> CycloNumber:
    """The root of unity zeta_L^e in reduced form."""
    if conductor < 1:
        raise InvalidArgumentError(f"conductor must be >= 1, got {conductor}")
    e = exponent % conductor
    poly = [_ZERO] * e + [_ONE]
    return CycloNumber(conductor, _reduce(conductor, poly))


def root_of_unity(order: int, power: int, conductor: int) -> CycloNumber:
    """zeta_order^power expressed at a conductor divisible by order."""
    if conductor % order != 0:
        raise InvalidArgumentError(f"order {order} does not divide conductor {conductor}")
    return zeta(conductor, (conductor // order) * power)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * v with v squarefree; returns (s, v). n >= 1."""
    s, v, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                v *= p
        p += 1
    return s, v * n


def sqrt_cyclo(c: CycloNumber) -> CycloNumber:
    """A square root of c, for c of the form (rational)^2 * 2^eps * root of unity.

    Covers squares of rationals, their negatives, doubles, and root-of-unity
    multiples; anything else raises FieldExtensionRequired. The returned root
    is canonical: its first nonzero coefficient is positive.
    """
    if c.is_zero():
        return CycloNumber.zero(c.conductor)
    M = lcm(c.conductor, 8)
    lifted = c.lift(M)
    for e in range(M):
        u = lifted * zeta(M, -e % M)
        if u.is_rational():
            q = u.as_rational()
            if q <= 0:
                continue
            sn, vn = _squarefree_split(q.numerator)
            sd, vd = _squarefree_split(q.denominator)
            v = vn * vd
            base = Fraction(sn, sd * vd)  # sqrt(q) = base * sqrt(v)
            if v == 1:
                root = CycloNumber.from_rational(base)
            elif v == 2:
                sqrt2 = zeta(8, 1) + zeta(8, -1)
                root = base * sqrt2
            else:
                raise FieldExtensionRequired(
                    f"square root of {q} not available in the working field"
                )
            s = root * zeta(2 * M, e)
            return reduce_conductor(_canonical_sign(s))
    raise FieldExtensionRequired(f"{c!r} is not a supported square times a root of unity")


def _canonical_sign(s: CycloNumber) -> CycloNumber:
    for coeff in s.coeffs:
        if coeff > 0:
            return s
        if coeff < 0:
            return -s
    return s


def reduce_conductor(c: CycloNumber) -> CycloNumber:
    """Rewrite at the smallest divisor conductor containing the element."""
    L = c.conductor
    divisors = sorted(d for d in range(1, L + 1) if L % d == 0)
    for d in divisors[:-1]:
        retracted = c.try_retract(d)
        if retracted is not None:
            return retracted
    return c


# -- JSON encoding -----------------------------------------------------

def cyclo_to_json(c: CycloNumber) -> dict:
    return {"conductor": c.conductor, "coeffs": [str(x) for x in c.coeffs]}


def parse_fraction(s) -> Fraction:
    """A rational from wire input; a malformed one or a zero denominator is
    an invalid argument."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"malformed rational {s!r}") from exc


def cyclo_from_json(doc: dict) -> CycloNumber:
    conductor = int(doc["conductor"])
    coeffs = tuple(parse_fraction(s) for s in doc["coeffs"])
    return CycloNumber(conductor, coeffs)
