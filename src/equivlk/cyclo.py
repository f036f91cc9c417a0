"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1)
with Fraction coefficients, reduced modulo the n-th cyclotomic polynomial.
After every operation the representation is normalized to the smallest
conductor d | n containing the element, so equality and rationality tests
are structural.  The normalization descends one prime at a time by the
closed-form relative trace of Q(zeta_n)/Q(zeta_(n/p)).  The inner loops
(conductor reduction, lifts, products, Galois action) run on integer
numerators over one common denominator and build each Fraction
coefficient once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import factorize

__all__ = ["CycloNumber", "cyclotomic_poly", "euler_phi", "zeta"]


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    divs = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
    return sorted(divs)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, exact polynomial division.
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in _divisors(n):
        if d == n:
            continue
        den = cyclotomic_poly(d)
        num = _polydiv_exact(num, list(den))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = c // den[deg_d]
        out[i - deg_d] = q
        for j, dj in enumerate(den):
            num[i - deg_d + j] -= q * dj
    assert all(c == 0 for c in num), "non-exact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^e on the power basis, e up to max(n, 2*phi(n)-1).  The
    entries are integers, since Phi_n is monic with integer coefficients."""
    phi = euler_phi(n)
    poly = cyclotomic_poly(n)
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(max(n, 2 * phi - 1)):
        rows.append(tuple(cur))
        # multiply by zeta: shift and reduce the overflow term by Phi_n
        top = cur[-1]
        nxt = [0] + cur[:-1]
        if top:
            for j in range(phi):
                nxt[j] -= top * poly[j]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_power_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of _power_table(m) as their nonzero (j, entry) pairs."""
    return tuple(tuple((j, r) for j, r in enumerate(row) if r)
                 for row in _power_table(m))


def _power_sum(m: int, vec, mult: int = 1) -> list[int]:
    """Integer coordinates on the conductor-m power basis of
    sum_k vec[k] zeta_m^(k * mult), for integers vec[k]."""
    table = _sparse_power_table(m)
    out = [0] * euler_phi(m)
    for k, x in enumerate(vec):
        if x:
            for j, rj in table[k * mult % m]:
                out[j] += x * rj
    return out


def _relative_trace(n: int, p: int, nums) -> list[int]:
    """The trace from Q(zeta_n) to Q(zeta_d), d = n/p with p prime to d, of
    sum_k nums[k] zeta_n^k, on the conductor-d power basis.

    zeta_n = zeta_d^(p') zeta_p^(d') for p p' = 1 mod d and d d' = 1 mod p,
    so Tr(zeta_n^k) = c zeta_d^(k p'), with c = p - 1 when p | k and
    c = -1 otherwise."""
    d = n // p
    return _power_sum(d, [(p - 1 if k % p == 0 else -1) * x
                          for k, x in enumerate(nums)], pow(p, -1, d))


def _numerators(coeffs) -> tuple[int, list[int]]:
    """(den, nums) with coeffs[k] = nums[k] / den, den the least common
    denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _over(nums, den: int) -> list[Fraction]:
    return [Fraction(x, den) for x in nums]


class CycloNumber:
    """An exact element of some Q(zeta_n), normalized to minimal conductor."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs, normalize: bool = True):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ValueError(f"need phi({n}) = {euler_phi(n)} coefficients, got {len(coeffs)}")
        if normalize and n > 1:
            den, nums = _numerators(coeffs)
            d, nums, scale = _reduce_conductor(n, nums)
            if d != n:
                n, coeffs = d, tuple(_over(nums, den * scale))
        self.n = n
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNumber":
        return CycloNumber(1, (Fraction(q),), normalize=False)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycloNumber":
        """zeta_n^k in closed normal form: it is the primitive root
        zeta_m^j, m = n/gcd(n, k), of conductor m, or for m = 2 mod 4 the
        root -zeta_{m/2}^((j + m/2)/2) of conductor m/2."""
        g = math.gcd(n, k)
        m, j = n // g, (k // g) % (n // g)
        sign = 1
        if m % 4 == 2:
            m, j, sign = m // 2, (j + m // 2) // 2 % (m // 2), -1
        row = _power_table(m)[j]
        return CycloNumber(m, row if sign == 1 else [-c for c in row],
                           normalize=False)

    @staticmethod
    def from_root_vector(n: int, v, den: int = 1) -> "CycloNumber":
        """sum_k (v[k] / den) zeta_n^k for integers v[k], k < n, as one
        normalized CycloNumber."""
        return CycloNumber(n, _over(_power_sum(n, v), den))

    @staticmethod
    def zero() -> "CycloNumber":
        return CycloNumber(1, (Fraction(0),), normalize=False)

    @staticmethod
    def one() -> "CycloNumber":
        return CycloNumber(1, (Fraction(1),), normalize=False)

    # -- representation helpers --------------------------------------

    def lift(self, m: int) -> tuple[Fraction, ...]:
        """Coordinates of self on the conductor-m power basis (n | m)."""
        if m == self.n:
            return self.coeffs
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        den, nums = _numerators(self.coeffs)
        return tuple(_over(_power_sum(m, nums, m // self.n), den))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def to_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"not rational (conductor {self.n})")
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------

    def _common(self, other: "CycloNumber"):
        m = self.n * other.n // math.gcd(self.n, other.n)
        return m, self.lift(m), other.lift(m)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return CycloNumber(1, (self.coeffs[0] + other.coeffs[0],), normalize=False)
        m, a, b = self._common(other)
        return CycloNumber(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.n, tuple(-c for c in self.coeffs), normalize=False)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1:
            q = self.coeffs[0]
            if q == 0:
                return CycloNumber.zero()
            return CycloNumber(other.n, tuple(q * c for c in other.coeffs), normalize=(q == 0))
        if other.n == 1:
            q = other.coeffs[0]
            if q == 0:
                return CycloNumber.zero()
            return CycloNumber(self.n, tuple(q * c for c in self.coeffs), normalize=False)
        m, a, b = self._common(other)
        phi = euler_phi(m)
        table = _power_table(m)
        den_a, a = _numerators(a)
        den_b, b = _numerators(b)
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:phi]
        for e in range(phi, 2 * phi - 1):
            c = conv[e]
            if c:
                row = table[e]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += c * rj
        return CycloNumber(m, _over(out, den_a * den_b))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.n == 1:
            return CycloNumber(1, (1 / self.coeffs[0],), normalize=False)
        # extended Euclid against Phi_n over Q; Phi_n irreducible so the gcd
        # is a nonzero constant
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.n)]
        a = list(self.coeffs)
        u = _poly_invmod(a, phi_poly)
        phi = euler_phi(self.n)
        u = (u + [Fraction(0)] * phi)[:phi]
        return CycloNumber(self.n, u)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNumber.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # minimal-conductor normal form makes equality structural
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    # -- Galois action -------------------------------------------------

    def galois(self, t: int) -> "CycloNumber":
        """Image under zeta_n -> zeta_n^t; t must be coprime to the conductor."""
        if math.gcd(t, self.n) != 1:
            raise ValueError(f"{t} not coprime to conductor {self.n}")
        if self.n == 1:
            return self
        den, nums = _numerators(self.coeffs)
        return CycloNumber(self.n, _over(_power_sum(self.n, nums, t), den))

    def conjugate(self) -> "CycloNumber":
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        if self.n == 1:
            return f"CycloNumber({self.coeffs[0]})"
        terms = [f"{c}*z{self.n}^{k}" for k, c in enumerate(self.coeffs) if c]
        return "CycloNumber(" + (" + ".join(terms) or "0") + ")"


def zeta(n: int, k: int = 1) -> CycloNumber:
    return CycloNumber.zeta(n, k)


def _coerce(x):
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber(1, (Fraction(x),), normalize=False)
    return NotImplemented


def _reduce_conductor(n: int, nums: list[int]):
    """Normalize sum_k nums[k] zeta_n^k, nums integers, to the smallest
    conductor d | n containing it: returns (d, nums', scale) with the
    element equal to sum_k (nums'[k] / scale) zeta_d^k.

    x lies in Q(zeta_d), d = n/p, iff Tr(x) = e x for the relative trace and
    the degree e = [Q(zeta_n):Q(zeta_d)]; its coordinates there are then
    those of Tr(x) / e.  If p | d, then e = p and Tr(zeta_n^k) is
    p zeta_d^(k/p) when p | k and 0 otherwise, so x descends iff its
    coordinates off the multiples of p vanish, and the others are its
    coordinates in Q(zeta_d).  If not, e = p - 1 and Tr is _relative_trace.
    Since Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), descending by
    any prime that allows it ends at the one minimal conductor."""
    scale = 1
    while n > 1:
        for p, _ in factorize(n):
            d = n // p
            if d % p == 0:
                if not any(x for k, x in enumerate(nums) if k % p):
                    n, nums = d, nums[::p]
                    break
                continue
            trace = _relative_trace(n, p, nums)
            if _power_sum(n, trace, p) == [(p - 1) * x for x in nums]:
                n, nums, scale = d, trace, scale * (p - 1)
                break
        else:
            break
    return n, nums, scale


def _poly_invmod(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo mod over Q (mod irreducible)."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def polymod(p, q):
        p = list(p)
        while len(p) >= len(q):
            f = p[-1] / q[-1]
            shift = len(p) - len(q)
            for i, qi in enumerate(q):
                p[shift + i] -= f * qi
            trim(p)
            if not p:
                break
        return p

    r0, r1 = list(mod), trim(list(a))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        # one Euclidean step: r0 = q*r1 + r2, s2 = s0 - q*s1
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        while len(rem) >= len(r1):
            f = rem[-1] / r1[-1]
            shift = len(rem) - len(r1)
            q[shift] = f
            for i, ri in enumerate(r1):
                rem[shift + i] -= f * ri
            trim(rem)
            if not rem:
                break
        qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs1[i + j] += qi * sj
        s2 = [x - y for x, y in
              zip(s0 + [Fraction(0)] * max(0, len(qs1) - len(s0)),
                  qs1 + [Fraction(0)] * max(0, len(s0) - len(qs1)))]
        r0, r1 = r1, (rem if rem else [Fraction(0)])
        s0, s1 = s1, trim(s2) or [Fraction(0)]
        if r1 == [Fraction(0)]:
            raise ZeroDivisionError("element shares a factor with the modulus")
    g = r1[0]
    return [c / g for c in s1]
