import json
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from equivlk.cyclo import (CycloNumber, _power_table, _reduce_conductor,
                          cyclotomic_poly, euler_phi)
from oracles import FractionCyclo, from_fractions, reduce_conductor_by_solver

zeta = CycloNumber.zeta


def test_euler_phi():
    assert [euler_phi(n) for n in [1, 2, 3, 4, 6, 12, 30]] == [1, 1, 2, 2, 2, 4, 8]


def test_cyclotomic_polys():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(6)) == [1, -1, 1]
    # Phi_12 = x^4 - x^2 + 1
    assert list(cyclotomic_poly(12)) == [1, 0, -1, 0, 1]


def test_i_squared():
    i = zeta(4)
    assert (i * i).to_fraction() == Fraction(-1)


def test_zeta3_sum():
    z = zeta(3)
    assert (z + z * z).to_fraction() == Fraction(-1)


def test_cross_conductor_equality():
    assert zeta(6) * zeta(6) == zeta(3)
    assert zeta(8) * zeta(8) == zeta(4)
    z = zeta(5)
    assert z * z * z * z * z == CycloNumber.one()


def test_zeta_closed_form_matches_generic_normalization():
    for n in range(1, 121):
        for k in range(n):
            z = CycloNumber.zeta(n, k)
            generic = CycloNumber(n, _power_table(n)[k])
            assert (z.n, z.coeffs) == (generic.n, generic.coeffs), (n, k)


def test_galois_and_conjugate():
    z = zeta(7)
    assert z.galois(3) == zeta(7, 3)
    assert z.galois(6) == zeta(7, 6)  # complex conjugation is sigma_(n-1)
    x = zeta(7) + zeta(7, 6)
    assert x.galois(6) == x  # real


def test_cancelling_sums_keep_fraction_coefficients():
    for x in [zeta(3) - zeta(3), zeta(12) * 2 - zeta(12) - zeta(12),
              zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4) + 1]:
        assert x.is_zero and x.is_rational
        assert all(type(c) is Fraction for c in x.coeffs)


def fraction_table(n):
    return [[Fraction(x) for x in row] for row in _power_table(n)]


def lift_by_fractions(n, coeffs, m):
    """Oracle: coordinates on the conductor-m basis, summed over Fractions."""
    table = fraction_table(m)
    out = [Fraction(0)] * euler_phi(m)
    for k, c in enumerate(coeffs):
        for j, rj in enumerate(table[k * (m // n) % m]):
            out[j] += c * rj
    return out


def random_element(rng, n):
    """Coordinates on the conductor-n basis of a random element of a random
    subfield Q(zeta_d), d | n, so that normalisation has to descend."""
    d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              for _ in range(euler_phi(d))]
    return lift_by_fractions(d, coeffs, n)


def test_integer_normalization_matches_fraction_reduction():
    rng = random.Random(7)
    for n in range(2, 49):
        for _ in range(4):
            v = random_element(rng, n)
            x = from_fractions(n, v)
            assert (x.n, x.coeffs) == reduce_conductor_by_solver(n, v), (n, v)
            assert all(type(c) is Fraction for c in x.coeffs)


def test_trace_descent_matches_gauss_jordan_oracle():
    # every n <= 120: a random element of each subfield Q(zeta_m), m | n,
    # lifted to n, and a generic element of Q(zeta_n)
    rng = random.Random(8)
    for n in range(2, 121):
        cases = [lift_by_fractions(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                                       for _ in range(euler_phi(m))], n)
                 for m in range(1, n + 1) if n % m == 0]
        cases.append([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                      for _ in range(euler_phi(n))])
        for v in cases:
            den = math.lcm(*(c.denominator for c in v))
            d, nums, scale = _reduce_conductor(n, [int(c * den) for c in v])
            got = tuple(Fraction(x, den * scale) for x in nums)
            assert (d, got) == reduce_conductor_by_solver(n, v), (n, v)


def test_products_lifts_and_galois_match_fraction_loops():
    rng = random.Random(11)
    for n in [5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 30]:
        for _ in range(3):
            a = from_fractions(n, random_element(rng, n))
            b = from_fractions(n, random_element(rng, n))
            m = math.lcm(a.n, b.n)
            la = lift_by_fractions(a.n, a.coeffs, m)
            lb = lift_by_fractions(b.n, b.coeffs, m)
            assert tuple(Fraction(x, a.den) for x in a.lift(m)) == tuple(la)
            phi = euler_phi(m)
            prod = [Fraction(0)] * phi
            table = fraction_table(m)
            for i, x in enumerate(la):
                for j, y in enumerate(lb):
                    for k, t in enumerate(table[i + j]):
                        prod[k] += x * y * t
            ab = a * b
            assert (ab.n, ab.coeffs) == reduce_conductor_by_solver(m, prod)
            for t in [t for t in range(1, a.n + 1) if math.gcd(t, a.n) == 1]:
                image = [Fraction(0)] * euler_phi(a.n)
                for k, c in enumerate(a.coeffs):
                    for j, rj in enumerate(fraction_table(a.n)[k * t % a.n]):
                        image[j] += c * rj
                g = a.galois(t)
                assert (g.n, g.coeffs) == reduce_conductor_by_solver(a.n, image), (n, t)


def test_rational_normalization():
    # an expression that collapses to a rational must land at conductor 1
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.is_rational and x.to_fraction() == Fraction(-1)


def from_json(data):
    return from_fractions(data["n"], [Fraction(s) for s in data["coeffs"]])


def test_json_roundtrip():
    x = zeta(12) * Fraction(3, 7) - Fraction(2, 5)
    assert from_json(x.to_json()) == x


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyclos(draw, n=12):
    coeffs = draw(st.lists(small_rationals, min_size=euler_phi(n),
                           max_size=euler_phi(n)))
    return from_fractions(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a



def unit_subgroups(n):
    """Every subgroup of (Z/n)^*, each a frozenset of units: every subfield
    of Q(zeta_n) is the fixed field of one of them."""
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]

    def closure(gens):
        group = {1 % n}
        while True:
            grown = group | {g * h % n for g in group for h in gens}
            if grown == group:
                return frozenset(group)
            group = grown

    found = {frozenset({1 % n})}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for u in units:
            if u % n not in H:
                K = closure(H | {u % n})
                if K not in found:
                    found.add(K)
                    frontier.append(K)
    return sorted(found, key=sorted)


def fixed_field_element(rng, n, H):
    """Coordinates on the conductor-n basis of sum_{h in H} sigma_h(x) for a
    random sparse x: a random element of the fixed field of H."""
    table = _power_table(n)
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6
         else Fraction(0) for _ in range(euler_phi(n))]
    den = math.lcm(*(c.denominator for c in x))
    out = [0] * euler_phi(n)
    for h in H:
        for k, c in enumerate(x):
            if c:
                c = c.numerator * (den // c.denominator)
                for j, t in enumerate(table[k * h % n]):
                    out[j] += c * t
    return [Fraction(y, den) for y in out]


def canonical(old):
    """(n, den, nums) of a FractionCyclo: den the least common denominator
    of its coefficients, nums its numerators over den."""
    den = math.lcm(*(c.denominator for c in old.coeffs))
    return old.n, den, tuple(c.numerator * (den // c.denominator) for c in old.coeffs)


def assert_agrees(new, old, label):
    """new (CycloNumber) and old (FractionCyclo) hold the same number in the
    same canonical form, and serialize, lift and conjugate alike."""
    assert (new.n, new.den, new.nums) == canonical(old), label
    assert new.den > 0 and math.gcd(new.den, *new.nums) == 1, label
    assert new.coeffs == old.coeffs, label
    assert json.dumps(new.to_json()) == json.dumps(old.to_json()), label
    for m in (new.n, 2 * new.n, 3 * new.n):
        if euler_phi(m) <= 48:
            assert tuple(Fraction(x, new.den) for x in new.lift(m)) == old.lift(m), (label, m)
    for t in [t for t in range(2, new.n) if math.gcd(t, new.n) == 1][:3]:
        g = new.galois(t)
        assert (g.n, g.den, g.nums) == canonical(old.galois(t)), (label, t)


def test_integer_class_matches_fraction_oracle():
    # random elements of every subfield of Q(zeta_n), n <= 48, against the
    # Fraction-coefficient class on sums, differences, products, lifts,
    # Galois images, equality, hash and to_json
    rng = random.Random(16)
    for n in range(1, 49):
        subgroups = unit_subgroups(n)
        for H in subgroups:
            K = rng.choice(subgroups)
            va, vb = fixed_field_element(rng, n, H), fixed_field_element(rng, n, K)
            a, b = from_fractions(n, va), from_fractions(n, vb)
            oa, ob = FractionCyclo(n, va), FractionCyclo(n, vb)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            cases = [("a", a, oa), ("a+b", a + b, oa + ob), ("a-b", a - b, oa - ob),
                     ("a*b", a * b, oa * ob), ("q*a", q * a, q * oa),
                     ("a-q", a - q, oa - q), ("a-a", a - a, oa - oa)]
            for label, new, old in cases:
                assert_agrees(new, old, (n, sorted(H), label))
            assert (a == b) == (oa == ob)
            assert (a == q) == (oa == q)
            # one value reached two ways: equal, with equal hashes
            for x, y in [((a + b) - b, a), (a * b, b * a), (a - a, CycloNumber.zero()),
                         (a + q - q, a), (from_fractions(n, va), a)]:
                assert x == y and hash(x) == hash(y)
