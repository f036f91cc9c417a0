import importlib
import math
import pkgutil
from fractions import Fraction

import pytest

import equivlk
from equivlk.arith import factorize, is_prime, is_prime_power, primitive_root, pval

N = 2000


def brute_is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


PRIMES = [p for p in range(N + 2) if brute_is_prime(p)]


def brute_prime_divisors(n):
    return [p for p in PRIMES if n % p == 0]


def brute_pval(x, p):
    k = 0
    while x % p ** (k + 1) == 0:
        k += 1
    return k


def brute_order(g, n):
    k, x = 1, g % n
    while x != 1 % n:
        x = x * g % n
        k += 1
    return k


def test_factorize_is_prime_is_prime_power():
    for n in range(1, N + 1):
        fact = factorize(n)
        assert math.prod(p ** e for p, e in fact) == n
        assert [p for p, _ in fact] == brute_prime_divisors(n)
        assert all(e == brute_pval(n, p) for p, e in fact)
        assert is_prime(n) == brute_is_prime(n)
        assert is_prime_power(n) == (len(brute_prime_divisors(n)) == 1)


def test_primitive_root():
    for n in range(2, N + 1):
        phi = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
        # Gauss: (Z/n)^* is cyclic exactly for n = 2, 4, p^k and 2 p^k, p odd
        odd = n // 2 if n % 2 == 0 else n
        if n in (2, 4) or (odd % 2 == 1 and len(brute_prime_divisors(odd)) == 1):
            g = next(g for g in range(1, n)
                     if math.gcd(g, n) == 1 and brute_order(g, n) == phi)
            assert primitive_root(n) == g, n
        else:
            with pytest.raises(ValueError):
                primitive_root(n)
    # Gauss' criterion itself, checked by brute force on small n
    for n in range(2, 200):
        phi = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
        cyclic = any(brute_order(g, n) == phi
                     for g in range(1, n) if math.gcd(g, n) == 1)
        if cyclic:
            assert brute_order(primitive_root(n), n) == phi
        else:
            with pytest.raises(ValueError):
                primitive_root(n)


def test_pval():
    for n in range(1, N + 1):
        for p in PRIMES[:8]:
            v, w = brute_pval(n, p), brute_pval(n + 1, p)
            assert pval(n, p) == pval(-n, p) == v
            assert pval(Fraction(n), p) == v
            # p divides the numerator or the denominator, never both
            assert pval(Fraction(n, n + 1), p) == v - w
            assert pval(Fraction(-(n + 1), n), p) == w - v
            assert pval(Fraction(1, n * p), p) == -v - 1
    for bad in (0, Fraction(0)):
        with pytest.raises(ValueError):
            pval(bad, 3)


def test_every_export_resolves():
    for info in pkgutil.iter_modules(equivlk.__path__):
        module = importlib.import_module(f"equivlk.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"equivlk.{info.name}.{name}"
