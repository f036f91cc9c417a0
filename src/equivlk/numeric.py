"""Arbitrary-precision complex numerics on top of mpmath.

All functions take an explicit bit precision; callers add their own guard
bits.  Values are plain mpmath mpc/mpf objects at the requested precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .cyclo import CycloNumber, euler_phi

DEFAULT_BITS = 128

__all__ = ["DEFAULT_BITS", "embed_complex", "to_mpf", "detect_rational"]


def to_mpf(q, bits: int):
    q = Fraction(q)
    with mp.workprec(bits):
        return mp.mpf(q.numerator) / mp.mpf(q.denominator)


@lru_cache(maxsize=None)
def _roots(n: int, wp: int) -> tuple:
    """exp(2 pi i k / n) for k < phi(n) at working precision wp."""
    with mp.workprec(wp):
        if n == 1:
            return (mp.mpc(1),)
        return tuple(mp.expjpi(mp.mpf(2 * k) / n) for k in range(euler_phi(n)))


def embed_complex(x: CycloNumber, bits: int = DEFAULT_BITS):
    """Numeric image of x under the standard embedding zeta_n -> exp(2*pi*i/n)."""
    if bits < 53:
        raise ValueError("need at least 53 bits")
    with mp.workprec(bits + 16):
        total = mp.mpc(0)
        for c, term in zip(x.coeffs, _roots(x.n, bits + 16)):
            if c:
                total += to_mpf(c, bits + 16) * term
        with mp.workprec(bits):
            return +total


def detect_rational(value, max_den: int = 10 ** 4, bits: int = 96) -> Fraction | None:
    """Recognize a real rational with bounded denominator, or None.

    The imaginary part (if any) must be negligible at the stated precision.
    """
    with mp.workprec(bits):
        value = mp.mpc(value)
        tol = mp.mpf(2) ** (-(bits // 2))
        if abs(value.imag) > tol * (1 + abs(value.real)):
            return None
        x = value.real
        scaled = Fraction(int(mp.floor(x * mp.mpf(2) ** bits + mp.mpf("0.5"))), 2 ** bits)
        cand = scaled.limit_denominator(max_den)
        approx = to_mpf(cand, bits)
        if abs(x - approx) <= tol * (1 + abs(x)):
            return cand
    return None
