"""Higher Stickelberger elements over abelian fields Q(zeta_f), their
integrality after smoothing, and K-groups of finite fields as Galois
modules.

theta_S(1-r) = sum_chi L_S(1-r, chi-bar) e_chi lives in Q[G] for
G = (Z/f)^*; its coefficients are rational and come from the classical
closed form in Bernoulli polynomials (Washington, Introduction to
Cyclotomic Fields, ch. 6).  The smoothed elements
(c^r - sigma_c) theta_S(1-r) are integral for any c prime to 2 f w_r and
to the primes in S, where w_r is the higher root-of-unity order of
Q(zeta_f).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import factorize, is_prime, is_prime_power
from .dirichlet import MAX_MODULUS
from .lseries import bernoulli_numerators
from .snf import smith_normal_form

__all__ = [
    "stickelberger_element",
    "sigma_action",
    "smoothed_element",
    "higher_w",
    "valid_smoothing_c",
    "integrality_check",
    "kgroup_finite_field",
    "kgroup_annihilates",
    "easy_annihilators",
]


def _units(f: int):
    return [a for a in range(1, f + 1) if math.gcd(a, f) == 1] or [1]


def stickelberger_element(f: int, r: int, S=()):
    """theta_S(1-r) as {a: Fraction} over units a mod f.

    c_a = -(f^(r-1)/r) B_r(a'/f) with a' = a^-1 mod f in 1..f, and each
    v in S prime to f multiplies theta by (1 - v^(r-1) sigma_v^-1), that is
    c_a -> c_a - v^(r-1) c_{av}.

    Invariant: for every chi mod f the chi-component sum_a c_a chi(a)
    equals L_S(1-r, chi-bar).
    """
    den, nums = _theta_numerators(f, r, S)
    return {a: Fraction(x, den) for a, x in nums.items()}


def _theta_numerators(f: int, r: int, S=()):
    """(den, {a: num}) with theta_S(1-r) = {a: num / den}, on integers."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if not 1 <= f <= MAX_MODULUS:
        raise ValueError(f"modulus {f} outside 1..{MAX_MODULUS}")
    den, row = bernoulli_numerators(f, r)
    nums = {a: -row[(pow(a, -1, f) or f) - 1] for a in _units(f)}
    for v in sorted(set(S)):
        if f % v == 0 or math.gcd(v, f) != 1:
            continue  # Euler factor already missing, or sigma_v undefined
        c = v ** (r - 1)
        nums = {a: x - c * nums[a * v % f or f] for a, x in nums.items()}
    return den * r, nums


def sigma_action(theta, c: int, f: int):
    """sigma_c * theta: permutes coefficients by a -> c*a mod f."""
    out = {}
    for a, v in theta.items():
        out[c * a % f if f > 1 else 1] = v
    return out


def smoothed_element(theta, c: int, r: int, f: int):
    """(c^r - sigma_c) theta; the values of theta may be Fractions or
    integer numerators over a common denominator."""
    shifted = sigma_action(theta, c, f)
    return {a: c ** r * theta[a] - shifted[a] for a in theta}


def higher_w(f: int, r: int) -> int:
    """w_r(Q(zeta_f)): the largest N with Gal(Q(zeta_f, zeta_N)/Q(zeta_f))
    of exponent dividing r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    candidates = {2} | {q for q in range(2, r + 2) if is_prime(q)} \
        | {q for q, _ in factorize(f)}
    w = 1
    for q in sorted(candidates):
        a = 0
        while True:
            qa = q ** (a + 1)
            M = math.lcm(f, qa)
            ok = all(pow(t, r, qa) == 1
                     for t in range(1, M + 1, f)
                     if math.gcd(t, M) == 1)
            if not ok:
                break
            a += 1
        w *= q ** a
    return w


def valid_smoothing_c(f: int, r: int, S=(), count: int = 5, start: int = 2):
    """The first `count` integers c > 1 prime to 2 f w_r(Q(zeta_f)) and to
    every prime in S."""
    w = higher_w(f, r)
    bad = 2 * f * w * math.prod(set(S)) if S else 2 * f * w
    out = []
    c = max(2, start)
    while len(out) < count:
        if math.gcd(c, bad) == 1:
            out.append(c)
        c += 1
    return out


def integrality_check(f: int, r: int, S=(), cs=None, count: int = 5):
    """For each c, is (c^r - sigma_c) theta_S(1-r) in Z[G]?

    Returns (theta, [(c, ok, element)]) with elements as {a: Fraction}.
    The smoothing acts on the integer numerators of theta, so an element is
    integral iff the common denominator divides each of its numerators.
    """
    den, nums = _theta_numerators(f, r, S)
    if cs is None:
        cs = valid_smoothing_c(f, r, S, count=count)
    results = []
    for c in cs:
        el = smoothed_element(nums, c, r, f)
        ok = all(x % den == 0 for x in el.values())
        results.append((c, ok, {a: Fraction(x, den) for a, x in el.items()}))
    return {a: Fraction(x, den) for a, x in nums.items()}, results


# ---------------------------------------------------------------------------
# K-groups of finite fields as modules over the Galois group


def kgroup_finite_field(q: int, d: int, r: int):
    """K_{2r-1}(F_{q^d}) as a module over Z[Gal(F_{q^d}/F_q)] = Z[x]/(x^d-1)
    with Frobenius x acting by q^r.

    Presented as Z^d / A Z^d with A = C - q^r I for the cyclic shift C, on
    which x acts as C; returns the abelian invariant factors (the group is
    cyclic of order q^(rd) - 1) and, under "smith", (U, diagonal of D) for
    the Smith form U A V = D.
    """
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    C = [[1 if j == (i + 1) % d else 0 for j in range(d)] for i in range(d)]
    A = [[C[i][j] - (q ** r if i == j else 0) for j in range(d)] for i in range(d)]
    D, U, _ = smith_normal_form(A)
    inv = [D[i][i] for i in range(d) if D[i][i] not in (0, 1)]
    order = q ** (r * d) - 1
    if math.prod(inv) != order:
        raise RuntimeError("module order mismatch")
    return {"q": q, "d": d, "r": r, "order": order,
            "invariant_factors": inv,
            "smith": (U, [D[i][i] for i in range(d)])}


def kgroup_annihilates(coeffs, info) -> bool:
    """Does g = sum_i coeffs[i] x^i annihilate the module of `info`, as
    returned by kgroup_finite_field?

    U maps the relations A Z^d onto D Z^d, so g kills Z^d / A Z^d exactly
    when every column of U g(C) has entry i divisible by D_ii."""
    U, diag = info["smith"]
    d = len(diag)
    g = [0] * d
    for i, c in enumerate(coeffs):
        g[i % d] += c
    # g(C) has entry (t, j) = g[(j - t) % d], as C^k has its ones at (t, t + k)
    return all(sum(U[i][t] * g[(j - t) % d] for t in range(d)) % diag[i] == 0
               for i in range(d) for j in range(d))


def easy_annihilators(q: int, d: int, r: int):
    """Obvious annihilators of K_{2r-1}(F_{q^d}) in Z[x]/(x^d - 1):
    the Frobenius relation x - q^r and the order q^(rd) - 1."""
    frob = [0] * d
    frob[0] = -q ** r
    if d == 1:
        frob[0] += 1
    else:
        frob[1] = 1
    order = [q ** (r * d) - 1] + [0] * (d - 1)
    return [frob, order]
