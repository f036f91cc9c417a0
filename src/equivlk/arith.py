"""Integer helpers: factorisation, primality, prime powers, primitive roots
and p-adic valuations.

Every number here is small (moduli up to 1000, finite fields a little past
twice a group order), so trial division is enough.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["factorize", "is_prime", "is_prime_power", "primitive_root", "pval"]


def factorize(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod p^e over ascending primes p; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def is_prime_power(n: int) -> bool:
    return len(factorize(n)) == 1


def primitive_root(n: int) -> int:
    """The least generator of (Z/n)^*, n >= 2; ValueError when that group is
    not cyclic."""
    phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))
    primes = [q for q, _ in factorize(phi)]
    for g in range(1, n):
        if math.gcd(g, n) == 1 and all(pow(g, phi // q, n) != 1 for q in primes):
            return g
    raise ValueError(f"(Z/{n})^* is not cyclic")


def pval(x, p: int) -> int:
    """The p-adic valuation of a nonzero int or Fraction x."""
    if x == 0 or p < 2:
        raise ValueError(f"no {p}-adic valuation of {x}")
    if isinstance(x, Fraction):
        return pval(x.numerator, p) - pval(x.denominator, p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
