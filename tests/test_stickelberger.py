import math
import random
from fractions import Fraction

import pytest

from equivlk.cyclo import CycloNumber
from equivlk.dirichlet import enumerate_characters
from equivlk.lseries import l_value_exact
from equivlk.stickelberger import (easy_annihilators, higher_w,
                                   integrality_check,
                                   kgroup_annihilates, kgroup_finite_field,
                                   sigma_action, smoothed_element,
                                   stickelberger_element, valid_smoothing_c)


def test_theta_f3_classical():
    # theta_{S}(0) for f = 3, S = {3}: (1/6)(sigma_1 - sigma_2)
    th = stickelberger_element(3, 1, S=(3,))
    assert th == {1: Fraction(1, 6), 2: Fraction(-1, 6)}


def theta_by_character_sums(f, r, S=()):
    """Oracle: c_a = (1/phi) sum_chi L_S(1-r, chi) chi(a), summed in Q(zeta)."""
    chars = enumerate_characters(f)
    values = [l_value_exact(chi, 1 - r, S) for chi in chars]
    theta = {}
    for a in [a for a in range(1, f + 1) if math.gcd(a, f) == 1]:
        acc = CycloNumber.zero()
        for chi, value in zip(chars, values):
            acc = acc + value * chi.value(a)
        acc = acc * Fraction(1, len(chars))
        if not acc.is_rational:
            raise RuntimeError("Stickelberger coefficient is not rational")
        theta[a] = acc.to_fraction()
    return theta


def test_closed_form_matches_character_sums():
    for f in range(1, 17):
        for r in [1, 2, 3]:
            for S in [(), (2,), (3, 5), (31, 41)]:
                assert stickelberger_element(f, r, S) == \
                    theta_by_character_sums(f, r, S), (f, r, S)


def test_theta_rejects_out_of_range_input():
    for f, r in [(0, 2), (1001, 2), (5, 0)]:
        with pytest.raises(ValueError):
            stickelberger_element(f, r)


def test_theta_rationality_grid():
    for f in [4, 5, 7, 12]:
        for r in [1, 2, 3]:
            th = stickelberger_element(f, r)
            assert all(isinstance(v, Fraction) for v in th.values())


def test_sigma_action_is_group_action():
    th = stickelberger_element(5, 2)
    assert sigma_action(sigma_action(th, 2, 5), 3, 5) == sigma_action(th, 6 % 5, 5)


def test_higher_w():
    assert higher_w(1, 1) == 2
    assert higher_w(1, 2) == 24
    assert higher_w(1, 3) == 2
    assert higher_w(1, 4) == 240
    assert higher_w(5, 2) == 120


def test_valid_smoothing_c():
    cs = valid_smoothing_c(3, 1, count=3)
    # must avoid 2, 3 and w_1 = 2: first valid are 5, 7, 11
    assert cs == [5, 7, 11]


def test_integrality_grid():
    for f in [1, 3, 4, 5, 7, 12]:
        for r in [1, 2, 3]:
            _, results = integrality_check(f, r, count=5)
            assert len(results) >= 5
            assert all(ok for _, ok, _ in results), (f, r)


def test_integer_smoothing_matches_fraction_smoothing():
    # oracle: (c^r - sigma_c) theta on the Fraction coefficients of theta,
    # integral iff every denominator is 1; c = 2, 3 are invalid smoothings
    # for many f, and sigma_c needs c prime to f
    failures = 0
    for f in range(1, 31):
        cs = [c for c in [2, 3, 5, 7, 11] if math.gcd(c, f) == 1]
        for r in [1, 2, 3, 4]:
            for S in [(), (2,), (31, 43)]:
                theta, results = integrality_check(f, r, S, cs=cs)
                expected = stickelberger_element(f, r, S)
                assert theta == expected, (f, r, S)
                for c, (c_got, ok, el) in zip(cs, results):
                    want = smoothed_element(expected, c, r, f)
                    assert (c_got, ok, el) == (
                        c, all(v.denominator == 1 for v in want.values()), want)
                    assert all(type(v) is Fraction for v in el.values())
                    failures += not ok
    assert failures > 0


def test_invalid_c_can_fail():
    # c = 2 is not a valid smoothing for f = 3 (even, and 2 | w_1)
    theta = stickelberger_element(3, 1, S=(3,))
    el = smoothed_element(theta, 2, 1, 3)
    assert any(v.denominator != 1 for v in el.values())


def test_kgroup_orders():
    for q in [2, 3, 4, 5, 7, 8, 9]:
        for d in [1, 2, 3, 4]:
            for r in [1, 2, 3]:
                info = kgroup_finite_field(q, d, r)
                assert info["order"] == q ** (r * d) - 1
    with pytest.raises(ValueError):
        kgroup_finite_field(6, 2, 1)


def annihilates_by_congruence(coeffs, q, d, r):
    """Oracle: K_{2r-1}(F_{q^d}) is Z/(q^(rd) - 1) with x acting as q^r, so
    sum_i coeffs[i] x^i kills it iff sum_i coeffs[i] q^(r (i mod d)) is 0
    mod q^(rd) - 1."""
    order = q ** (r * d) - 1
    return sum(c * pow(q, r * (i % d), order) for i, c in enumerate(coeffs)) % order == 0


def test_kgroup_annihilators():
    info = kgroup_finite_field(3, 2, 2)
    for g in easy_annihilators(3, 2, 2):
        assert kgroup_annihilates(g, info)
    # x - q^r annihilates; x - 1 does not (for d = 2, r = 1, q = 3)
    info = kgroup_finite_field(3, 2, 1)
    assert kgroup_annihilates([-3, 1], info)
    assert not kgroup_annihilates([-1, 1], info)


def test_kgroup_annihilates_matches_congruence():
    rng = random.Random(7)
    for q in [2, 3, 4, 5, 7, 8, 9]:
        for d in range(1, 5):
            for r in range(1, 4):
                info = kgroup_finite_field(q, d, r)
                frob, _ = easy_annihilators(q, d, r)
                cands = easy_annihilators(q, d, r)
                for _ in range(10):
                    h = [rng.randint(-50, 50) for _ in range(d)]
                    multiple = [0] * d  # h * (x - q^r) in Z[x]/(x^d - 1)
                    for i, a in enumerate(h):
                        for j, b in enumerate(frob):
                            multiple[(i + j) % d] += a * b
                    cands += [multiple, [multiple[0] + 1] + multiple[1:], h,
                              [rng.randint(-50, 50) for _ in range(2 * d)]]
                verdicts = [kgroup_annihilates(g, info) for g in cands]
                assert verdicts == [annihilates_by_congruence(g, q, d, r)
                                    for g in cands], (q, d, r)
                assert all(verdicts[:2]) and verdicts[2::4].count(True) == 10
