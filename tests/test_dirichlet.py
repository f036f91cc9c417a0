import math

import pytest

from equivlk.cyclo import CycloNumber, zeta
from equivlk.dirichlet import (DirichletChar, enumerate_characters,
                               unit_group_structure)


def test_unit_group_sizes():
    for f in [1, 2, 3, 4, 8, 9, 12, 15, 16, 24, 45, 100]:
        gens, orders, dlog = unit_group_structure(f)
        phi = sum(1 for a in range(1, f + 1) if math.gcd(a, f) == 1) if f > 1 else 1
        assert (math.prod(orders) if orders else 1) == len(dlog)
        assert len(dlog) == phi


def test_character_count_and_orthogonality():
    for f in [3, 8, 12, 21]:
        chars = enumerate_characters(f)
        phi = sum(1 for a in range(1, f + 1) if math.gcd(a, f) == 1)
        assert len(chars) == phi
        for ch in chars:
            total = CycloNumber.zero()
            for a in range(f):
                total = total + ch.value(a)
            expect = CycloNumber.from_rational(phi if ch.is_trivial else 0)
            assert total == expect


def test_multiplicativity():
    for ch in enumerate_characters(15):
        for a in range(1, 15):
            for b in range(1, 15):
                assert ch.value(a * b) == ch.value(a) * ch.value(b)


def test_conductors_mod_12():
    assert sorted(c.conductor for c in enumerate_characters(12)) == [1, 3, 4, 12]


def test_conductors_mod_8():
    info = {c.exps: (c.conductor, c.is_odd) for c in enumerate_characters(8)}
    assert sorted(info.values()) == [(1, False), (4, True), (8, False), (8, True)]


def primitive(chi):
    """The character mod chi.conductor that agrees with chi on the units
    mod chi.modulus, matched on lifted generators."""
    c = chi.conductor
    gens, orders, _ = unit_group_structure(c)
    exps = []
    for g, d in zip(gens, orders):
        while math.gcd(g, chi.modulus) != 1:
            g += c
        exps.append(next(k for k in range(d)
                         if CycloNumber.zeta(d, k) == chi.value(g)))
    return DirichletChar(c, tuple(exps))


def test_primitive_round_trip():
    for f in [9, 12, 16, 18]:
        for c in enumerate_characters(f):
            pr = primitive(c)
            assert pr.modulus == c.conductor and pr.is_primitive
            for a in range(1, f):
                if math.gcd(a, f) == 1:
                    assert pr.value(a) == c.value(a)


def test_order_and_conjugate():
    chars5 = enumerate_characters(5)
    c4 = next(c for c in chars5 if c.order == 4)
    assert c4.value(2) in (zeta(4), zeta(4, 3))
    assert (c4 * c4.conjugate()).is_trivial
    assert c4.conjugate().value(2) == c4.value(2).conjugate()


def test_parity():
    # the quadratic character mod 4 is odd; mod 8 (chi_8) is even
    c = next(c for c in enumerate_characters(4) if not c.is_trivial)
    assert c.is_odd
    evens = [c for c in enumerate_characters(8) if not c.is_odd and c.conductor == 8]
    assert len(evens) == 1


def test_modulus_bound():
    with pytest.raises(ValueError):
        DirichletChar(1002, ())


def test_value_tables_match_zeta_products():
    # oracle: chi(a) = prod_i zeta_{d_i}^(k_i e_i), e = dlog(a), multiplied
    # out factor by factor; memoized on the residues, which repeat across
    # the characters of one modulus
    for f in range(1, 101):
        gens, orders, dlog = unit_group_structure(f)
        products = {}
        for chi in enumerate_characters(f):
            expect = [CycloNumber.zero()] * f
            for a, exps in dlog.items():
                key = tuple(k * e % d for k, e, d in zip(chi.exps, exps, orders))
                if key not in products:
                    acc = CycloNumber.one()
                    for m, d in zip(key, orders):
                        if m:
                            acc = acc * zeta(d, m)
                    products[key] = acc
                expect[a % f] = products[key]
            assert [chi.value(a) for a in range(f)] == expect, chi
