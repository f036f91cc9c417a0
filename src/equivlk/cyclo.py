"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1)
with Fraction coefficients, reduced modulo the n-th cyclotomic polynomial.
After every operation the representation is normalized to the smallest
conductor d | n containing the element, so equality and rationality tests
are structural.  The inner loops (conductor reduction, lifts, products,
Galois action) run on integer numerators over one common denominator and
build each Fraction coefficient once.
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
def _descent_solver(n: int, d: int):
    """Solver data for expressing conductor-n elements in Q(zeta_d), d | n.

    Returns (den, rows, pivots, rank): den * T = rows is an integer matrix,
    for T the row-operation matrix of a row reduction of the
    phi(n) x phi(d) embedding matrix M, and pivots maps each pivot row to
    its column.  An element v descends iff the non-pivot rows of T v vanish;
    its Q(zeta_d) coordinates are the pivot rows of T v.
    """
    phi_n = euler_phi(n)
    phi_d = euler_phi(d)
    table = _power_table(n)
    step = n // d
    # column j of M = coordinates of zeta_d^j = zeta_n^(j * step)
    M = [[Fraction(table[j * step][i]) for j in range(phi_d)] for i in range(phi_n)]
    T = [[Fraction(1 if i == j else 0) for j in range(phi_n)] for i in range(phi_n)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(phi_d):
        piv = next((r for r in range(row, phi_n) if M[r][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        T[row], T[piv] = T[piv], T[row]
        inv = 1 / M[row][col]
        M[row] = [x * inv for x in M[row]]
        T[row] = [x * inv for x in T[row]]
        for r in range(phi_n):
            if r != row and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[row])]
                T[r] = [a - f * b for a, b in zip(T[r], T[row])]
        pivots.append((row, col))
        row += 1
    den = math.lcm(*(x.denominator for r in T for x in r))
    rows = tuple(tuple(int(x * den) for x in r) for r in T)
    return den, rows, tuple(pivots), row


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
        coeffs = [0] * euler_phi(n)
        for x, row in zip(v, _power_table(n)):
            if x:
                for j, rj in enumerate(row):
                    if rj:
                        coeffs[j] += x * rj
        return CycloNumber(n, [Fraction(x, den) for x in coeffs])

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
        table = _power_table(m)
        step = m // self.n
        den, nums = _numerators(self.coeffs)
        out = [0] * euler_phi(m)
        for k, x in enumerate(nums):
            if x:
                row = table[(k * step) % m]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += x * rj
        return tuple(_over(out, den))

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
        table = _power_table(self.n)
        den, nums = _numerators(self.coeffs)
        out = [0] * euler_phi(self.n)
        for k, x in enumerate(nums):
            if x:
                row = table[(k * t) % self.n]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += x * rj
        return CycloNumber(self.n, _over(out, den))

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
    element equal to sum_k (nums'[k] / scale) zeta_d^k."""
    scale = 1
    changed = True
    while changed and n > 1:
        changed = False
        support = [(i, x) for i, x in enumerate(nums) if x]
        for p, _ in factorize(n):
            d = n // p
            den, T, pivots, rank = _descent_solver(n, d)

            def row_of_tv(r):
                row = T[r]
                return sum(row[i] * x for i, x in support)

            # the element descends iff the non-pivot rows of T v vanish
            if any(row_of_tv(r) for r in range(rank, len(nums))):
                continue
            new = [0] * euler_phi(d)
            for row, col in pivots:
                new[col] = row_of_tv(row)
            n, nums, scale = d, new, scale * den
            changed = True
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
