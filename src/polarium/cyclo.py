"""Exact arithmetic in cyclotomic fields Q(zeta_L).

An element is stored as its conductor L, a tuple of integer numerators
(n_0, ..., n_(phi(L)-1)) and one positive integer denominator d: the value
is (n_0 + n_1 z + ... + n_(phi-1) z^(phi-1)) / d in the power basis modulo
the L-th cyclotomic polynomial, with gcd(d, n_0, ..., n_(phi-1)) = 1. Zero
is (0, ..., 0)/1. The form is canonical, so equality at one conductor is a
comparison of integers (Cohen, A Course in Computational Algebraic Number
Theory, section 4.2). The cyclotomic polynomial is monic with integer
coefficients, so reducing a product modulo it stays in the integers, and
every operation does its work on ints and divides by one gcd at the end.
The inverse too: for x = a/d with a in Z[zeta_L], the product c of the
other Galois conjugates sigma_k(a), z -> z^k for the units k mod L, has
a * c = N(a), positive as Q(zeta_L) is totally complex for L >= 3, so
1/x = d * c / N(a) (Washington, Introduction to Cyclotomic Fields, ch. 2).
An int or a Fraction operand scales the numerators and the denominator;
it never becomes an element of its own.

A family of values shares one integer grid (`common_grid`): numerators at
the lcm of their conductors over the lcm of their denominators. There,
equality, sums and integer pairings (`dot_int`) are integer work, and
`from_grid` reads a row back with one gcd.

The conductor L grows lazily (lcm) as mixed-conductor operations demand.
Compatibility of generators across conductors is fixed once and for all by
zeta_L := zeta_M^(M/L) whenever L | M; a lift keeps the denominator, since
Z[zeta_M] meets Q(zeta_L) in Z[zeta_L]. `coeffs` reads the value back as
`Fraction`s, for printing and for callers outside the field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .errors import (ArithmeticDomainError, FieldExtensionRequired,
                     InvalidArgumentError)
from .linalg import rref

Coeffs = tuple[Fraction, ...]


def _factor(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (p, e) pairs, p ascending, by
    trial division."""
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient by trial factorization (conductors stay small here)."""
    if n < 1:
        raise InvalidArgumentError(f"phi undefined for {n}")
    result = n
    for p, _ in _factor(n):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Monic L-th cyclotomic polynomial as an integer coefficient tuple.

    With r the product of the primes dividing L, Phi_L(x) = Phi_r(x^(L/r)).
    For r > 1, Phi_r is the product of (1 - x^d)^mu(r/d) over the divisors d
    of r, read as an integer power series to degree phi(r): one pass over
    phi(r) + 1 coefficients per squarefree divisor, so the work grows with
    phi(r) and the number of primes, not with L or its number of divisors.
    """
    if L < 1:
        raise InvalidArgumentError(f"conductor must be >= 1, got {L}")
    primes = [p for p, _ in _factor(L)]
    r = prod(primes)
    if r == 1:
        return (-1, 1)
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
    out = [0] * (deg * (L // r) + 1)
    out[::L // r] = c
    return tuple(out)


def reduce_poly(L: int, poly: list[int]) -> tuple[int, ...]:
    """An integer polynomial of any degree reduced modulo Phi_L, padded to
    phi(L) coefficients. Phi_L divides z^L - 1, so each power z^k with
    k >= L first folds onto z^(k-L), one addition per coefficient. Phi_L is
    monic, so the division that follows stays in the integers: each top
    coefficient c at degree k >= phi is cleared by subtracting
    c z^(k-phi) Phi_L, one step per nonzero term of Phi_L. Phi_L is fetched
    only when some coefficient at degree >= phi is nonzero."""
    phi = euler_phi(L)
    if len(poly) <= phi:
        poly.extend([0] * (phi - len(poly)))
        return tuple(poly)
    for k in range(len(poly) - 1, L - 1, -1):
        poly[k - L] += poly[k]
    del poly[L:]
    if any(poly[phi:]):
        modulus = cyclotomic_polynomial(L)
        low = [(j, c) for j, c in enumerate(modulus[:phi]) if c]
        for k in range(len(poly) - 1, phi - 1, -1):
            c = poly[k]
            if c:
                base = k - phi
                for j, m in low:
                    poly[base + j] -= c * m
    del poly[phi:]
    return tuple(poly)


def _lift_nums(nums: tuple[int, ...], L: int, L2: int) -> tuple[int, ...]:
    """The numerators of an element of Q(zeta_L) read in Q(zeta_L2), L | L2:
    z_L^i is z_L2^(i*L2/L), reduced when that passes phi(L2)."""
    k = L2 // L
    poly = [0] * ((len(nums) - 1) * k + 1)
    poly[::k] = nums
    return reduce_poly(L2, poly)


def _mul_nums(L: int, a, b) -> tuple[int, ...]:
    """The numerators of a * b at conductor L: the integer product of the
    two polynomials, reduced modulo Phi_L by `reduce_poly`."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return reduce_poly(L, out)


def _conjugate(L: int, nums, k: int) -> tuple[int, ...]:
    """The numerators of sigma_k(a), z -> z^k, for a unit k mod L: z^i goes
    to z^(i*k mod L), distinct for the distinct i < phi(L), then reduced."""
    poly = [0] * L
    for i, n in enumerate(nums):
        poly[i * k % L] = n
    return reduce_poly(L, poly)


class CycloNumber:
    """An element of Q(zeta_L): integer numerators over one positive
    denominator, in lowest terms. Immutable."""

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise InvalidArgumentError(f"conductor must be >= 1, got {conductor}")
        if len(coeffs) != euler_phi(conductor):
            raise InvalidArgumentError(
                f"expected {euler_phi(conductor)} coefficients at conductor {conductor}, "
                f"got {len(coeffs)}"
            )
        fracs = [Fraction(c) for c in coeffs]
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so no gcd is needed
        den = lcm(*(f.denominator for f in fracs))
        _set_conductor(self, conductor)
        _set_nums(self, tuple(f.numerator * (den // f.denominator) for f in fracs))
        _set_den(self, den)

    def __setattr__(self, *args):
        raise AttributeError("CycloNumber is immutable")

    @property
    def coeffs(self) -> Coeffs:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(value, conductor: int = 1) -> "CycloNumber":
        if type(value) is not int:
            value = Fraction(value)
        zeros = () if conductor == 1 else (0,) * (euler_phi(conductor) - 1)
        return _make(conductor, (value.numerator,) + zeros, value.denominator)

    @staticmethod
    def zero(conductor: int = 1) -> "CycloNumber":
        return CycloNumber.from_rational(0, conductor)

    # -- representation -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticDomainError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def lift(self, L2: int) -> "CycloNumber":
        """Express the same element in Q(zeta_L2); requires conductor | L2."""
        L = self.conductor
        if L2 == L:
            return self
        if L2 % L != 0:
            raise InvalidArgumentError(f"conductor {L} does not divide target {L2}")
        return _make(L2, _lift_nums(self.nums, L, L2), self.den)

    def try_retract(self, L1: int) -> "CycloNumber | None":
        """Canonical retraction to Q(zeta_L1) when the element lies there.

        With k = L/L1, the lift sends z_L1^i to z_L^(i*k). When
        (phi(L1)-1)*k < phi(L) no power reaches the modulus, so Q(zeta_L1)
        lifts onto the vectors supported on the multiples of k below
        phi(L1)*k, and the candidate is read off those coefficients.
        Otherwise the coordinates in the lifted basis are solved by `rref`.
        """
        L = self.conductor
        if L % L1 != 0:
            raise InvalidArgumentError(f"target {L1} does not divide conductor {L}")
        if L1 == L:
            return self
        phi1, k, nums = euler_phi(L1), L // L1, self.nums
        if (phi1 - 1) * k < len(nums):
            candidate = nums[:phi1 * k:k]
            sparse = [0] * len(nums)
            sparse[:phi1 * k:k] = candidate
            return _make(L1, candidate, self.den) if tuple(sparse) == nums else None
        basis = [_lift_nums(tuple(int(j == i) for j in range(phi1)), L1, L) for i in range(phi1)]
        # Rational coordinates of self in the lifted basis, if any.
        aug = [[Fraction(b[j]) for b in basis] + [c] for j, c in enumerate(self.coeffs)]
        reduced, pivots = rref(aug)
        if phi1 in pivots:
            return None
        sol = [0] * phi1
        for i, col in enumerate(pivots):
            sol[col] = reduced[i][phi1]
        candidate = CycloNumber(L1, sol)
        return candidate if candidate.lift(L) == self else None

    # -- arithmetic -----------------------------------------------------

    def _scaled(self, p: int, q: int) -> "CycloNumber":
        """self * p/q for integers p and q > 0, at the same conductor."""
        return from_grid(self.conductor, [n * p for n in self.nums], self.den * q)

    def _shifted(self, p: int, q: int) -> "CycloNumber":
        """self + p/q for integers p and q > 0, at the same conductor."""
        nums = [n * q for n in self.nums]
        nums[0] += p * self.den
        return from_grid(self.conductor, nums, self.den * q)

    def _combine(self, other: "CycloNumber", sign: int) -> "CycloNumber":
        """self + sign * other, a sum of rows on the common grid."""
        L, D, (a, b) = common_grid((self, other))
        return from_grid(L, [x + sign * y for x, y in zip(a, b)], D)

    def __add__(self, other):
        if type(other) is not CycloNumber:
            if isinstance(other, (int, Fraction)):
                return self._shifted(other.numerator, other.denominator)
            other = as_cyclo(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other):
        if type(other) is not CycloNumber:
            if isinstance(other, (int, Fraction)):
                return self._shifted(-other.numerator, other.denominator)
            other = as_cyclo(other)
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycloNumber:
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            other = as_cyclo(other)
        L, L2 = self.conductor, other.conductor
        a, b = self.nums, other.nums
        if L != L2:
            L = lcm(L, L2)
            a, b = _lift_nums(a, self.conductor, L), _lift_nums(b, L2, L)
        den = self.den * other.den
        if len(a) == 1:
            return from_grid(L, [a[0] * b[0]], den)
        return from_grid(L, _mul_nums(L, a, b), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        nums, den, L = self.nums, self.den, self.conductor
        if not any(nums):
            raise ArithmeticDomainError("division by zero")
        if not any(nums[1:]):
            n = nums[0]
            return _make(L, (den if n > 0 else -den,) + nums[1:], abs(n))
        # 1/self = den * c / N(a) for a = den * self, c the product of the
        # other conjugates of a (see the module docstring)
        conjugates = [_conjugate(L, nums, k) for k in range(2, L) if gcd(k, L) == 1]
        c = conjugates[0]
        for g in conjugates[1:]:
            c = _mul_nums(L, c, g)
        norm = _mul_nums(L, nums, c)[0]
        return from_grid(L, [x * den for x in c], norm)

    def __truediv__(self, other):
        if type(other) is not CycloNumber:
            if isinstance(other, (int, Fraction)):
                if not other:
                    raise ArithmeticDomainError("division by zero")
                p, q = other.numerator, other.denominator
                return self._scaled(q if p > 0 else -q, abs(p))
            other = as_cyclo(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inverse = self.inverse()
            return inverse if other == 1 else inverse * other
        return as_cyclo(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNumber.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is CycloNumber:
            if self.den != other.den:  # a lift keeps the denominator
                return False
            L, L2 = self.conductor, other.conductor
            if L == L2:
                return self.nums == other.nums
            M = lcm(L, L2)
            return _lift_nums(self.nums, L, M) == _lift_nums(other.nums, L2, M)
        if isinstance(other, (int, Fraction)):
            nums = self.nums
            return nums[0] == other.numerator and self.den == other.denominator \
                and not any(nums[1:])
        return NotImplemented

    __hash__ = None  # equality crosses conductors; hashing would be a trap

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        terms = [f"{c}*z{self.conductor}^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


# The slot setters write past the immutability guard of __setattr__.
_new = object.__new__
_set_conductor = CycloNumber.conductor.__set__
_set_nums = CycloNumber.nums.__set__
_set_den = CycloNumber.den.__set__


def _make(conductor: int, nums: tuple[int, ...], den: int) -> CycloNumber:
    """An element from numerators and a denominator already in lowest terms."""
    c = _new(CycloNumber)
    _set_conductor(c, conductor)
    _set_nums(c, nums)
    _set_den(c, den)
    return c


def from_grid(conductor: int, nums: list[int], den: int) -> CycloNumber:
    """An element from integer numerators over a positive denominator,
    divided by their one gcd (zero is 0/1): `common_grid`'s inverse."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return _make(conductor, tuple(nums), den)


def common_grid(values, L: int | None = None, D: int | None = None) -> tuple:
    """(L, D, rows): row i holds values[i]'s numerators at conductor L over
    denominator D, by default the lcms of the values' conductors and of
    their denominators (1 for none); a given L or D must be a multiple."""
    if L is None:
        L = lcm(*[x.conductor for x in values])
    if D is None:
        D = lcm(*[x.den for x in values])
    rows = []
    for x in values:
        nums = x.nums if x.conductor == L else _lift_nums(x.nums, x.conductor, L)
        f = D // x.den
        rows.append(nums if f == 1 else tuple([n * f for n in nums]))
    return L, D, tuple(rows)


def dot_int(ints, u) -> CycloNumber:
    """Pair an integer vector with a covector: its weighted entries' rows on
    their common grid, summed as ints. The result lives at their lcm
    conductor (1 when no weight is nonzero), whatever their values."""
    weighted = [(k, a) for k, a in zip(ints, u) if k]
    L, D, rows = common_grid([a for _, a in weighted])
    weights = [k for k, _ in weighted]
    return from_grid(L, [sum(map(mul, weights, col)) for col in zip(*rows)] or [0], D)


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
    return _make(conductor, reduce_poly(conductor, [0] * e + [1]), 1)


def _unit_part(c: CycloNumber, M: int) -> tuple[int, Fraction] | None:
    """The first e in 0..M-1 with c * zeta_M^(-e) a positive rational q, and
    q; None when there is none. c lives at a conductor dividing M.

    c = q zeta_M^e exactly when c's numerators at M are a positive multiple
    of those of zeta_M^e, as the numerators are canonical, so each e is one
    proportionality test on ints. zeta_M^(e+1) is read off zeta_M^e times z:
    a shift, and z^phi(M) rewritten through Phi_M when the top one is
    nonzero."""
    nums, den = c.lift(M).nums, c.den
    j, n = next((j, n) for j, n in enumerate(nums) if n)
    phi = len(nums)
    low = cyclotomic_polynomial(M)[:phi]
    power = [1] + [0] * (phi - 1)
    for e in range(M):
        p = power[j]
        if p * n > 0 and all(a * p == b * n for a, b in zip(nums, power)):
            return e, Fraction(n, p * den)
        top = power[-1]
        power = [0] + power[:-1]
        if top:
            power = [x - top * y for x, y in zip(power, low)]
    return None


def sqrt_cyclo(c: CycloNumber) -> CycloNumber:
    """A square root of c, for c of the form (rational)^2 * 2^eps * root of unity.

    Covers squares of rationals, their negatives, doubles, and root-of-unity
    multiples; anything else raises FieldExtensionRequired. With M the lcm
    of c's conductor and 8, c = q zeta_M^e for the first e in 0..M-1 that
    leaves a positive rational q (`_unit_part`), and the root is
    sqrt(q) zeta_2M^e. The returned root is canonical: its first nonzero
    coefficient is positive.
    """
    if c.is_zero():
        return CycloNumber.zero(c.conductor)
    M = lcm(c.conductor, 8)
    found = _unit_part(c, M)
    if found is None:
        raise FieldExtensionRequired(f"{c!r} is not a supported square times a root of unity")
    e, q = found
    # sqrt(q) = sqrt(num * den) / den = base * sqrt(v), v squarefree;
    # num and den are coprime, so their factorizations concatenate
    num, v = 1, 1
    for p, k in _factor(q.numerator) + _factor(q.denominator):
        num *= p ** (k // 2)
        v *= p ** (k % 2)
    base = Fraction(num, q.denominator)
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


def _canonical_sign(s: CycloNumber) -> CycloNumber:
    for n in s.nums:
        if n > 0:
            return s
        if n < 0:
            return -s
    return s


def reduce_conductor(c: CycloNumber) -> CycloNumber:
    """Rewrite at the least conductor whose field holds the element. As
    Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a, b)), that conductor divides
    L, and L/p holds c for some prime p of L until L reaches it."""
    for p, _ in _factor(c.conductor):
        retracted = c.try_retract(c.conductor // p)
        if retracted is not None:
            return reduce_conductor(retracted)
    return c
