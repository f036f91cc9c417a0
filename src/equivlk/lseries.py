"""Dirichlet L-values numerically, and their functional equation.

The exact values L(1-r, chi) = -B_{r,chi}/r live in `dirichlet`, which never
loads mpmath; this module holds the numeric route and the exact Gauss sums
that the root numbers need.

Numeric route: Hurwitz zeta at a stated bit precision, the vector
(zeta(s, a/f))_{a=1..f} evaluated once per modulus, point and precision and
shared by every character mod f.  S-truncated values multiply in the Euler
factors of the primes in S away from the modulus.

Completed L-function convention: Lambda(s, chi) = L_R(s + delta) L(s, chi)
with L_R(s) = pi^(-s/2) Gamma(s/2) and delta = 0, 1 for even, odd chi.
For primitive chi of conductor f this satisfies

    Lambda(s, chi) = W(chi) f^(1/2 - s) Lambda(1 - s, chi-bar),

with root number W(chi) = tau(chi) / (i^delta sqrt(f)).  At integer points
where the Gamma factor has a pole the L-function has a matching trivial
zero, and Lambda means the finite limit (pole residue times L'), with L'
from mpmath's analytic Hurwitz-zeta derivative.  The Gauss sum tau(chi) is
exact, reduced to its minimal conductor once and built once per character.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

from .cyclo import CycloNumber
from .dirichlet import DirichletChar
from .numeric import DEFAULT_BITS, detect_rational, embed_complex

__all__ = [
    "l_value_numeric",
    "gauss_sum",
    "root_number",
    "archimedean_leading",
    "completed_lambda",
    "fe_residual",
    "l_value_via_fe",
    "real_place_leading",
    "complex_place_leading",
    "pi_power_prediction",
    "pi_power_ratio_check",
]


# typed: an mpf and an mpc of equal value stay separate keys, since mpmath
# may evaluate them by different routes
@lru_cache(maxsize=256, typed=True)
def _hurwitz_vector(f: int, s, wp: int, d: int) -> tuple:
    """(zeta^(d)(s, a/f))_{a=1..f} at working precision wp: one vector per
    modulus, shared by every character mod f."""
    with mp.workprec(wp):
        return tuple(mp.zeta(s, mp.mpf(a) / f, d) for a in range(1, f + 1))


def _character_sum(chi: DirichletChar, s, wp: int, d: int = 0):
    """sum_a chi(a) zeta^(d)(s, a/f) at working precision wp."""
    with mp.workprec(wp):
        total = mp.mpc(0)
        for a, z in enumerate(_hurwitz_vector(chi.modulus, s, wp, d), 1):
            c = chi.value(a)
            if not c.is_zero:
                total += embed_complex(c, wp) * z
        return total


def l_value_numeric(chi: DirichletChar, s, bits: int = DEFAULT_BITS, S=()):
    """L_S(s, chi) = f^(-s) sum_a chi(a) zeta(s, a/f), times S-factors."""
    f = chi.modulus
    wp = bits + 24
    with mp.workprec(wp):
        s = mp.mpmathify(s)
        if f == 1:
            total = mp.zeta(s)
        else:
            total = _character_sum(chi, s, wp) * mp.power(f, -s)
        for v in sorted(set(S)):
            if f % v == 0:
                continue
            total *= 1 - embed_complex(chi.value(v), wp) * mp.power(v, -s)
        with mp.workprec(bits):
            return +total


def _l_derivative(chi: DirichletChar, s0: int, bits: int):
    """L'(s0, chi) = -log f L(s0, chi) + f^(-s0) sum_a chi(a) zeta'(s0, a/f),
    at working precision bits + 24 and returned unrounded."""
    f = chi.modulus
    wp = bits + 24
    with mp.workprec(wp):
        s = mp.mpf(s0)
        scale = mp.power(f, -s)
        value = scale * _character_sum(chi, s, wp)
        return scale * _character_sum(chi, s, wp, 1) - mp.log(f) * value


def gauss_sum(chi: DirichletChar) -> CycloNumber:
    """tau(chi) = sum_a chi(a) zeta_f^a, exact in Q(zeta_{ef}).

    With chi(a) = zeta_L^k(a) every term is the root of unity
    zeta_M^(k(a) M/L + a M/f), M = lcm(L, f); the terms are counted per
    exponent and the sum is reduced to its minimal conductor once."""
    f = chi.modulus
    L, ks = chi.root_exponents()
    M = math.lcm(L, f)
    v = [0] * M
    for a in range(1, f + 1):
        k = ks[a % f]
        if k is not None:
            v[(k * (M // L) + a * (M // f)) % M] += 1
    return CycloNumber.from_root_vector(M, v)


# exact Gauss sums by (modulus, exponents), so each is built once per process
_GAUSS_SUMS: dict[tuple, CycloNumber] = {}


def root_number(chi: DirichletChar, bits: int = DEFAULT_BITS):
    """W(chi) = tau(chi) / (i^delta sqrt(f)); |W| = 1 for primitive chi."""
    f = chi.modulus
    key = (f, chi.exps)
    tau = _GAUSS_SUMS.get(key)
    if tau is None:
        tau = _GAUSS_SUMS[key] = gauss_sum(chi)
    with mp.workprec(bits + 16):
        w = embed_complex(tau, bits + 16) / mp.sqrt(f)
        if chi.is_odd:
            w /= mp.mpc(0, 1)
        with mp.workprec(bits):
            return +w


# ---------------------------------------------------------------------------
# archimedean factors as (order, leading coefficient) at integer points


def _lr_leading(s0: int, bits: int):
    """L_R(s) = pi^(-s/2) Gamma(s/2) at s0: (order, leading coeff)."""
    with mp.workprec(bits + 16):
        if s0 <= 0 and s0 % 2 == 0:
            k = -s0 // 2
            lead = 2 * mp.mpf(-1) ** k / mp.factorial(k) * mp.power(mp.pi, -mp.mpf(s0) / 2)
            order = -1
        else:
            lead = mp.power(mp.pi, -mp.mpf(s0) / 2) * mp.gamma(mp.mpf(s0) / 2)
            order = 0
        with mp.workprec(bits):
            return order, +lead


def _lc_leading(s0: int, bits: int):
    """L_C(s) = 2 (2 pi)^(-s) Gamma(s) at s0: (order, leading coeff)."""
    with mp.workprec(bits + 16):
        if s0 <= 0:
            k = -s0
            lead = 2 * mp.power(2 * mp.pi, -s0) * mp.mpf(-1) ** k / mp.factorial(k)
            order = -1
        else:
            lead = 2 * mp.power(2 * mp.pi, -s0) * mp.gamma(s0)
            order = 0
        with mp.workprec(bits):
            return order, +lead


def archimedean_leading(chi: DirichletChar, s0: int, bits: int = DEFAULT_BITS):
    """(order, leading) of the completing factor L_R(s + delta) at s0."""
    delta = 1 if chi.is_odd else 0
    return _lr_leading(s0 + delta, bits)


def completed_lambda(chi: DirichletChar, s0: int, bits: int = DEFAULT_BITS):
    """Finite value of Lambda(s, chi) at an integer s0 (primitive chi).

    Where the Gamma factor has a simple pole the L-function has a simple
    trivial zero; the value is then (pole leading coeff) * L'(s0), with L'
    from the analytic Hurwitz-zeta derivative.
    """
    order, lead = archimedean_leading(chi, s0, bits)
    with mp.workprec(bits + 16):
        if order == 0:
            val = lead * l_value_numeric(chi, s0, bits + 16)
        elif order == -1:
            if chi.modulus == 1 and s0 == 0:
                # zeta has no trivial zero at 0: Lambda really has a pole
                raise ValueError("Lambda(0) diverges for the trivial character")
            val = lead * _l_derivative(chi, s0, bits)
        else:
            raise RuntimeError("unexpected pole order")
        with mp.workprec(bits):
            return +val


def fe_residual(chi: DirichletChar, s0: int, bits: int = DEFAULT_BITS):
    """| Lambda(s0, chi) - W(chi) f^(1/2 - s0) Lambda(1 - s0, chi-bar) |."""
    if not chi.is_primitive:
        raise ValueError("functional equation needs a primitive character")
    f = chi.modulus
    with mp.workprec(bits + 16):
        lhs = completed_lambda(chi, s0, bits + 16)
        rhs = (root_number(chi, bits + 16) * mp.power(f, mp.mpf(1) / 2 - s0)
               * completed_lambda(chi.conjugate(), 1 - s0, bits + 16))
        res = abs(lhs - rhs)
        with mp.workprec(bits):
            return +res


def l_value_via_fe(chi: DirichletChar, s0: int, bits: int = DEFAULT_BITS):
    """Numeric L(s0, chi) at an integer s0 <= 0 transported through the
    functional equation from the convergent side (primitive chi).

    Lambda(s0, chi) = Lambda(1-s0, chi-bar) / (W(chi-bar) f^(1/2-(1-s0)));
    dividing out the archimedean factor gives L, which is exactly 0 when
    that factor has a pole (the trivial zeros)."""
    if not chi.is_primitive:
        raise ValueError("functional equation needs a primitive character")
    if s0 > 0:
        raise ValueError("transport targets s0 <= 0")
    f = chi.modulus
    chibar = chi.conjugate()
    order, lead = archimedean_leading(chi, s0, bits)
    if order == -1:
        return mp.mpc(0)
    with mp.workprec(bits + 16):
        lam = (completed_lambda(chibar, 1 - s0, bits + 16)
               / (root_number(chibar, bits + 16) * mp.power(f, mp.mpf(1) / 2 - (1 - s0))))
        val = lam / lead
        with mp.workprec(bits):
            return +val


# ---------------------------------------------------------------------------
# pi-power rationality of archimedean leading-term ratios


def real_place_leading(s0: int, nplus: int, nminus: int, bits: int):
    """(order, leading) of L_R(s)^(n+) L_R(s+1)^(n-) at s0."""
    o1, l1 = _lr_leading(s0, bits + 16)
    o2, l2 = _lr_leading(s0 + 1, bits + 16)
    with mp.workprec(bits):
        return o1 * nplus + o2 * nminus, +(l1 ** nplus * l2 ** nminus)


def complex_place_leading(s0: int, n: int, bits: int):
    o, l = _lc_leading(s0, bits + 16)
    with mp.workprec(bits):
        return o * n, +(l ** n)


def pi_power_prediction(place: str, r: int, nplus: int, nminus: int = 0) -> int:
    """Predicted exponent k with ratio = rational * pi^k."""
    if place == "complex":
        return (1 - 2 * r) * nplus
    if place == "real":
        if r % 2 == 1:
            return (1 - r) * nplus - r * nminus
        return (1 - r) * nminus - r * nplus
    raise ValueError("place must be 'real' or 'complex'")


def pi_power_ratio_check(place: str, r: int, nplus: int, nminus: int = 0,
                         bits: int = 96, max_den: int = 10 ** 4):
    """Leading-coefficient ratio eps_v(r) / eps_v(1-r), divided by the
    predicted pi power; returns (exponent, Fraction or None)."""
    if place == "complex":
        num = complex_place_leading(r, nplus, bits)
        den = complex_place_leading(1 - r, nplus, bits)
    else:
        num = real_place_leading(r, nplus, nminus, bits)
        den = real_place_leading(1 - r, nplus, nminus, bits)
    k = pi_power_prediction(place, r, nplus, nminus)
    with mp.workprec(bits + 16):
        ratio = num[1] / den[1] / mp.power(mp.pi, k)
        rat = detect_rational(ratio, max_den=max_den, bits=bits)
    return k, rat
