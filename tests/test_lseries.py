import math
from fractions import Fraction

import mpmath as mp
import pytest

from equivlk import lseries
from equivlk.cyclo import CycloNumber
from equivlk.dirichlet import (DirichletChar, bernoulli_number,
                               bernoulli_numerators, enumerate_characters,
                               gross_equivariance_check, l_value_exact)
from equivlk.lseries import (_character_sum, _hurwitz_vector,
                             _l_derivative, archimedean_leading,
                             completed_lambda, fe_residual, gauss_sum,
                             l_value_numeric, l_value_via_fe,
                             pi_power_prediction, pi_power_ratio_check,
                             root_number)
from equivlk.numeric import embed_complex


def bernoulli_polynomial(n, x):
    """Oracle: B_n(x) = sum_k C(n, k) B_k x^(n-k)."""
    x = Fraction(x)
    return sum((math.comb(n, k) * bernoulli_number(k) * x ** (n - k)
                for k in range(n + 1)), Fraction(0))


def chi4():
    return next(c for c in enumerate_characters(4) if c.is_odd)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(13) == 0


def test_bernoulli_polynomial():
    # B_3(x) = x^3 - 3x^2/2 + x/2
    assert bernoulli_polynomial(3, Fraction(1, 4)) == Fraction(3, 64)
    assert bernoulli_polynomial(3, Fraction(3, 4)) == Fraction(-3, 64)


def test_bernoulli_row_matches_polynomial():
    for f in range(1, 41):
        for r in range(1, 9):
            den, nums = bernoulli_numerators(f, r)
            assert tuple(Fraction(x, den) for x in nums) == tuple(
                f ** (r - 1) * bernoulli_polynomial(r, Fraction(a, f))
                for a in range(1, f + 1)), (f, r)


def test_gen_bernoulli_chi4():
    # B_{3,chi_4} = 3/2, read off L(-2, chi_4) = -B_{3,chi_4}/3
    assert (-3 * l_value_exact(chi4(), -2)).to_fraction() == Fraction(3, 2)


def test_exact_special_values():
    triv = DirichletChar.trivial(1)
    assert l_value_exact(triv, -1).to_fraction() == Fraction(-1, 12)
    assert l_value_exact(triv, 0).to_fraction() == Fraction(-1, 2)
    assert l_value_exact(triv, -3).to_fraction() == Fraction(1, 120)
    assert l_value_exact(chi4(), -2).to_fraction() == Fraction(-1, 2)
    with pytest.raises(ValueError):
        l_value_exact(triv, 1)


def test_s_truncation():
    triv = DirichletChar.trivial(1)
    # zeta_S(-1) = zeta(-1) * (1 - 2^1) = 1/12
    assert l_value_exact(triv, -1, S=(2,)).to_fraction() == Fraction(1, 12)


def test_exact_matches_numeric():
    # the primitive characters inducing the characters mod 1, 3, 5 and 8
    for f in [1, 3, 4, 5, 8]:
        for chi in enumerate_characters(f):
            if not chi.is_primitive:
                continue
            for s in [-1, -2, -3]:
                ex = embed_complex(l_value_exact(chi, s), 160)
                nu = l_value_numeric(chi, s, 160)
                assert abs(ex - nu) < mp.mpf(2) ** -120


def test_gauss_sum_chi4():
    # tau(chi_4) = i - i^3 = 2i
    tau = gauss_sum(chi4())
    val = embed_complex(tau, 96)
    assert abs(val - mp.mpc(0, 2)) < mp.mpf(2) ** -80


def test_root_number_builds_each_gauss_sum_once(monkeypatch):
    built = []
    embedded = []

    def counting(chi):
        built.append((chi.modulus, chi.exps))
        return gauss_sum(chi)

    def counting_embed(x, bits):
        embedded.append(bits)
        return embed_complex(x, bits)

    monkeypatch.setattr(lseries, "gauss_sum", counting)
    monkeypatch.setattr(lseries, "embed_complex", counting_embed)
    monkeypatch.setattr(lseries, "_GAUSS_SUMS", {})
    monkeypatch.setattr(lseries, "_ROOT_NUMBERS", {})
    chars = [chi for f in (5, 7, 8) for chi in enumerate_characters(f) if chi.is_primitive]
    first = [root_number(chi, 96) for chi in chars]
    # new objects for the same characters, other precisions
    again = [root_number(DirichletChar(chi.modulus, chi.exps), bits)
             for chi in chars for bits in (96, 128)]
    assert sorted(built) == sorted((chi.modulus, chi.exps) for chi in chars)
    # tau(chi) is embedded once per (character, precision)
    assert sorted(embedded) == sorted([112, 144] * len(chars))
    assert again[::2] == first
    for chi, w in zip(chars, again[1::2]):
        assert abs(w - first[chars.index(chi)]) < mp.mpf(2) ** -90


def test_root_numbers_unimodular():
    for f in [3, 5, 7, 8]:
        for chi in enumerate_characters(f):
            if chi.is_primitive and not chi.is_trivial:
                w = root_number(chi, 128)
                assert abs(abs(w) - 1) < mp.mpf(2) ** -100


def test_archimedean_poles():
    triv = DirichletChar.trivial(1)
    order, lead = archimedean_leading(triv, -2, 96)  # Gamma(-1) pole
    assert order == -1
    order, lead = archimedean_leading(triv, 3, 96)
    assert order == 0


def test_completed_lambda_zeta_pole_guard():
    with pytest.raises(ValueError):
        completed_lambda(DirichletChar.trivial(1), 0, 96)


def test_fe_residuals_small():
    for f in [1, 3, 4, 5]:
        for chi in enumerate_characters(f):
            if not chi.is_primitive:
                continue
            for s in [2, 3]:
                assert fe_residual(chi, s, 128) < mp.mpf(2) ** -100


def test_transported_l_value():
    chi = chi4()
    tv = l_value_via_fe(chi, -2, 128)
    assert abs(tv - mp.mpf(-1) / 2) < mp.mpf(2) ** -100
    # mismatched parity: trivial zero transported to exact 0
    triv = DirichletChar.trivial(1)
    assert l_value_via_fe(triv, -2, 128) == 0


def test_pi_power_ratios_known():
    assert pi_power_ratio_check("complex", 2, 1) == (-3, Fraction(-1, 8))
    assert pi_power_ratio_check("real", 2, 1, 0) == (-2, Fraction(-1, 2))
    assert pi_power_ratio_check("real", 3, 0, 1) == (-3, Fraction(-1, 2))


def test_pi_power_prediction_values():
    assert pi_power_prediction("complex", 2, 1) == -3
    assert pi_power_prediction("real", 3, 1, 0) == -2
    assert pi_power_prediction("real", 2, 0, 1) == -1


def test_gross_equivariance():
    for f in [5, 7, 12, 16]:
        assert gross_equivariance_check(f, 2) == []
        assert gross_equivariance_check(f, 3, S=(2, 3)) == []


def gen_bernoulli_by_terms(chi, r):
    """Oracle: f^(r-1) sum_a chi(a) B_r(a/f), one CycloNumber term at a time."""
    f = chi.modulus
    acc = CycloNumber.zero()
    for a in range(1, f + 1):
        c = chi.value(a)
        if not c.is_zero:
            acc = acc + c * bernoulli_polynomial(r, Fraction(a, f))
    return acc * Fraction(f ** (r - 1))


def test_one_pass_values_match_term_loop():
    S = (2, 31)
    for f in range(1, 25):
        for chi in enumerate_characters(f):
            for r in range(1, 6):
                b = gen_bernoulli_by_terms(chi, r)
                assert l_value_exact(chi, 1 - r) == -b * Fraction(1, r), (chi, r)
                euler = CycloNumber.one()
                for v in S:
                    if f % v:
                        euler = euler * (1 - chi.value(v) * Fraction(v ** (r - 1)))
                assert l_value_exact(chi, 1 - r, S) == -b * Fraction(1, r) * euler, (chi, r)


def gauss_sum_by_terms(chi):
    """Oracle: tau(chi) = sum_a chi(a) zeta_f^a, one CycloNumber term at a time."""
    f = chi.modulus
    acc = CycloNumber.zero()
    for a in range(1, f + 1):
        c = chi.value(a)
        if not c.is_zero:
            acc = acc + c * CycloNumber.zeta(f, a)
    return acc


def test_gauss_sum_matches_term_loop():
    for f in range(1, 17):
        for chi in enumerate_characters(f):
            tau, oracle = gauss_sum(chi), gauss_sum_by_terms(chi)
            assert (tau.n, tau.coeffs) == (oracle.n, oracle.coeffs), chi


def hurwitz_sum_by_terms(chi, s, wp):
    """Oracle: sum_a chi(a) zeta(s, a/f), one Hurwitz zeta evaluation per term."""
    with mp.workprec(wp):
        total = mp.mpc(0)
        for a in range(1, chi.modulus + 1):
            c = chi.value(a)
            if not c.is_zero:
                total += embed_complex(c, wp) * mp.zeta(s, mp.mpf(a) / chi.modulus)
        return total


def test_hurwitz_vector_holds_the_units_mod_f():
    for f in [1, 2, 5, 8, 12, 15]:
        for d in [0, 1]:
            with mp.workprec(120):
                s = mp.mpf(-2)
                vec = _hurwitz_vector(f, s, 120, d)
                assert [a for a, _ in vec] == [a for a in range(1, f + 1)
                                               if math.gcd(a, f) == 1]
                assert all(bits_of(z) == bits_of(mp.zeta(s, mp.mpf(a) / f, d))
                           for a, z in vec), (f, d)


def l_value_numeric_by_terms(chi, s, bits, S=()):
    """Oracle: L_S(s, chi) through the per-term Hurwitz sum."""
    f = chi.modulus
    with mp.workprec(bits + 24):
        s = mp.mpmathify(s)
        if f == 1:
            total = mp.zeta(s)
        else:
            total = hurwitz_sum_by_terms(chi, s, bits + 24) * mp.power(f, -s)
        for v in sorted(set(S)):
            if f % v:
                total *= 1 - embed_complex(chi.value(v), bits + 24) * mp.power(v, -s)
        with mp.workprec(bits):
            return +total


def bits_of(x):
    x = mp.mpmathify(x)
    return x._mpc_ if isinstance(x, mp.mpc) else x._mpf_


def test_l_value_numeric_independent_of_cache_state():
    # every character mod f shares one Hurwitz vector per (s, precision);
    # a value must not depend on which values were computed before it
    points = [2, 3, mp.mpf(1) / 3, mp.mpc(0.5, 14)]
    for f in [1, 5, 8, 12]:
        chars = enumerate_characters(f)
        for s in points:
            for bits in [96, 128]:
                wp = bits + 24
                with mp.workprec(wp):
                    s_wp = mp.mpmathify(s)
                for chi in chars:
                    _hurwitz_vector.cache_clear()
                    cold = l_value_numeric(chi, s, bits, S=(2, 7))
                    cold_sum = _character_sum(chi, s_wp, wp)
                    for other in reversed(chars):
                        l_value_numeric(other, s, bits, S=(2, 7))
                    warm = l_value_numeric(chi, s, bits, S=(2, 7))
                    oracle = l_value_numeric_by_terms(chi, s, bits, S=(2, 7))
                    assert bits_of(cold) == bits_of(warm) == bits_of(oracle), (chi, s, bits)
                    assert (bits_of(cold_sum) == bits_of(_character_sum(chi, s_wp, wp))
                            == bits_of(hurwitz_sum_by_terms(chi, s_wp, wp))), (chi, s, bits)


def derivative_by_central_difference(chi, s0, bits):
    """Oracle: L'(s0) as a central difference at three times the precision;
    truncation and roundoff are both about 2^(-2 bits)."""
    wp = 3 * bits
    with mp.workprec(wp):
        h = mp.mpf(2) ** (-bits)
        return (l_value_numeric(chi, mp.mpf(s0) + h, wp)
                - l_value_numeric(chi, mp.mpf(s0) - h, wp)) / (2 * h)


def test_derivative_matches_central_difference():
    bits = 128
    zeros = []
    for f in range(1, 13):
        for chi in enumerate_characters(f):
            if chi.is_primitive:
                zeros += [(chi, s0) for s0 in range(-4, 1)
                          if archimedean_leading(chi, s0, bits)[0] == -1
                          and (f, s0) != (1, 0)]
    assert len(zeros) == 65
    # oracles first: characters mod f share their Hurwitz vectors
    oracles = [derivative_by_central_difference(chi, s0, bits) for chi, s0 in zeros]
    for (chi, s0), old in zip(zeros, oracles):
        _hurwitz_vector.cache_clear()
        new = _l_derivative(chi, s0, bits)
        assert bits_of(_l_derivative(chi, s0, bits)) == bits_of(new)
        with mp.workprec(3 * bits):
            assert abs(new - old) < mp.mpf(2) ** -140 * abs(old), (chi, s0)
