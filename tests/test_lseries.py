from fractions import Fraction

import mpmath as mp
import pytest

from equivlk.cyclo import CycloNumber
from equivlk.dirichlet import DirichletChar, enumerate_characters
from equivlk.lseries import (archimedean_leading, bernoulli_number,
                             bernoulli_polynomial, completed_lambda,
                             fe_residual, gauss_sum, gen_bernoulli,
                             gross_equivariance_check, l_value_exact,
                             l_value_numeric, l_value_via_fe,
                             pi_power_prediction, pi_power_ratio_check,
                             root_number)
from equivlk.numeric import embed_complex


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


def test_gen_bernoulli_chi4():
    assert gen_bernoulli(chi4(), 3).to_fraction() == Fraction(3, 2)


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
    for f in [1, 3, 5, 8]:
        for chi in enumerate_characters(f):
            chip = chi.primitive()
            for s in [-1, -2, -3]:
                ex = embed_complex(l_value_exact(chip, s), 160)
                nu = l_value_numeric(chip, s, 160)
                assert abs(ex - nu) < mp.mpf(2) ** -120


def test_gauss_sum_chi4():
    # tau(chi_4) = i - i^3 = 2i
    tau = gauss_sum(chi4())
    val = embed_complex(tau, 96)
    assert abs(val - mp.mpc(0, 2)) < mp.mpf(2) ** -80


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
                assert gen_bernoulli(chi, r) == b, (chi, r)
                euler = CycloNumber.one()
                for v in S:
                    if f % v:
                        euler = euler * (1 - chi.value(v) * Fraction(v ** (r - 1)))
                assert l_value_exact(chi, 1 - r, S) == -b * Fraction(1, r) * euler, (chi, r)
