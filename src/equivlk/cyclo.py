"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1)
as integer numerators over one positive denominator, reduced modulo the
n-th cyclotomic polynomial and by their common gcd.  After every operation
the representation is normalized to the smallest conductor d | n
containing the element, so equality and rationality tests are structural.
The normalization descends one prime at a time by the closed-form relative
trace of Q(zeta_n)/Q(zeta_(n/p)).  Every inner loop (conductor reduction,
lifts, products, Galois action) runs on integers; rational coefficient
objects are built only to read a coefficient out or to take one in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import factorize

__all__ = ["CycloNumber", "cyclotomic_poly", "euler_phi"]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


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


class CycloNumber:
    """An exact element of some Q(zeta_n), normalized to minimal conductor:
    sum_k (nums[k] / den) zeta_n^k with integer nums, den > 0 and
    gcd(den, *nums) = 1, so the triple (n, den, nums) is canonical."""

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, nums, normalize: bool = True, *, den: int = 1):
        if len(nums) != euler_phi(n):
            raise ValueError(f"need phi({n}) = {euler_phi(n)} coefficients, got {len(nums)}")
        if normalize and n > 1:
            n, nums, scale = _reduce_conductor(n, nums)
            den *= scale
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        self.n = n
        self.den = den // g
        self.nums = tuple(x // g for x in nums) if g != 1 else tuple(nums)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNumber":
        q = Fraction(q)
        return CycloNumber(1, (q.numerator,), normalize=False, den=q.denominator)

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
        return CycloNumber(n, _power_sum(n, v), den=den)

    @staticmethod
    def zero() -> "CycloNumber":
        return CycloNumber(1, (0,), normalize=False)

    @staticmethod
    def one() -> "CycloNumber":
        return CycloNumber(1, (1,), normalize=False)

    # -- representation helpers --------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def lift(self, m: int):
        """Integer numerators over self.den of self on the conductor-m power
        basis (n | m)."""
        if m == self.n:
            return self.nums
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        return _power_sum(m, self.nums, m // self.n)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def to_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"not rational (conductor {self.n})")
        return Fraction(self.nums[0], self.den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        if self.n == 1 and other.n == 1:
            return CycloNumber(1, (self.nums[0] * sa + other.nums[0] * sb,),
                               normalize=False, den=den)
        m = math.lcm(self.n, other.n)
        return CycloNumber(m, [x * sa + y * sb for x, y in
                               zip(self.lift(m), other.lift(m))], den=den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.n, [-x for x in self.nums], normalize=False,
                           den=self.den)

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
        den = self.den * other.den
        if self.n == 1 or other.n == 1:
            q, x = (self, other) if self.n == 1 else (other, self)
            q = q.nums[0]
            if q == 0:
                return CycloNumber.zero()
            return CycloNumber(x.n, [q * c for c in x.nums], normalize=False, den=den)
        m = math.lcm(self.n, other.n)
        phi = euler_phi(m)
        table = _power_table(m)
        conv = [0] * (2 * phi - 1)
        b = self.lift(m)
        for i, ai in enumerate(other.lift(m)):
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
        return CycloNumber(m, out, den=den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # minimal-conductor normal form makes equality structural
        return (self.n, self.den, self.nums) == (other.n, other.den, other.nums)

    def __hash__(self):
        return hash((self.n, self.den, self.nums))

    # -- Galois action -------------------------------------------------

    def galois(self, t: int) -> "CycloNumber":
        """Image under zeta_n -> zeta_n^t; t must be coprime to the conductor."""
        if math.gcd(t, self.n) != 1:
            raise ValueError(f"{t} not coprime to conductor {self.n}")
        if self.n == 1:
            return self
        return CycloNumber(self.n, _power_sum(self.n, self.nums, t), den=self.den)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        if self.n == 1:
            return f"CycloNumber({self.to_fraction()})"
        terms = [f"{c}*z{self.n}^{k}" for k, c in enumerate(self.coeffs) if c]
        return "CycloNumber(" + (" + ".join(terms) or "0") + ")"


def _coerce(x):
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, int):
        return CycloNumber(1, (x,), normalize=False)
    if isinstance(x, Fraction):
        return CycloNumber(1, (x.numerator,), normalize=False, den=x.denominator)
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

