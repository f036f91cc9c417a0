import random
from fractions import Fraction

import pytest

from equivlk.fitting import (Presentation, _lattice_hnf,
                             adjoint_integrality_probe, annihilates,
                             annihilation_check, cokernel_module,
                             commutative_determinant, denominator_trivial,
                             fitting_invariant)
from equivlk.group_algebra import GroupRingMatrix, central_recompose, reduced_norm
from equivlk.groups import from_abelian_invariants, named_group
from equivlk.snf import smith_normal_form
from oracles import kernel_mod


def annihilator_bruteforce(pres, p, N):
    """Oracle: generators (coefficient vectors mod p^N) of
    Ann_{Z/p^N [G]}(M/p^N), found as a kernel mod p^N."""
    m = pres.group.order
    n = pres.num_generators * m
    q = p ** N
    D, U, V = smith_normal_form(_lattice_hnf(pres, p, N))
    # the lattice has full rank n; Z^n/lattice = sum Z/m_i via x -> xV
    mods = [D[i][i] for i in range(n)]
    cond = []
    for j in range(pres.num_generators):
        for i in range(n):
            mi = mods[i]
            if q % mi != 0:
                raise RuntimeError("quotient exponent does not divide p^N")
            f = q // mi
            cond.append([f * V[j * m + g][i] % q for g in range(m)])
    out = []
    for v in kernel_mod(cond, q):
        t = [x % q for x in v]
        if any(t) and t not in out:
            out.append(t)
    return out


def test_trivial_presentation():
    G = from_abelian_invariants([2])
    pres = Presentation.from_integer_data(G, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    assert cokernel_module(pres) == []
    fitt = fitting_invariant(pres)
    gen = central_recompose(fitt.generators[0])
    assert list(gen.coeffs) == [1, 0]


def test_zero_fitting_when_underdetermined():
    G = from_abelian_invariants([2])
    pres = Presentation.from_integer_data(G, [[[2, 0], [0, 0]]])  # 1 relation, 2 gens
    assert fitting_invariant(pres).is_zero


def test_cokernel_p_parts():
    G = from_abelian_invariants([2])
    # Z[C2]/(3, 1-g) = Z/3 with trivial g-action
    pres = Presentation.from_integer_data(G, [[[3, 0]], [[1, -1]]])
    assert cokernel_module(pres) == [3]
    assert cokernel_module(pres, 3) == [3]
    assert cokernel_module(pres, 5) == []


def test_annihilates_and_bruteforce_agree():
    G = from_abelian_invariants([2])
    pres = Presentation.from_integer_data(G, [[[3, 0]], [[1, -1]]])
    gens = annihilator_bruteforce(pres, 3, 3)
    assert gens  # 3 and (1 - g) both annihilate
    for v in gens:
        assert annihilates(pres, v, 3, 3)
    assert annihilates(pres, [3, 0], 3, 3)
    assert annihilates(pres, [1, -1], 3, 3)
    assert not annihilates(pres, [1, 0], 3, 3)
    assert not annihilates(pres, [1, 1], 3, 3)


def test_fitting_generators_annihilate():
    rng = random.Random(101)
    G = named_group("S3")
    checked = 0
    while checked < 8:
        b = rng.randint(1, 2)
        data = [[[rng.randint(-3, 3) for _ in range(6)] for _ in range(b)]
                for _ in range(b)]
        pres = Presentation.from_integer_data(G, data)
        parts = cokernel_module(pres, 5)
        if any(x == 0 for x in parts):
            continue
        results = annihilation_check(pres, 5, 6)
        assert all(r["annihilates"] and r["h_exponent"] == 0 for r in results)
        checked += 1


def test_denominator_trivial():
    assert denominator_trivial(named_group("S3"), 5)
    assert not denominator_trivial(named_group("S3"), 3)
    assert not denominator_trivial(named_group("D4"), 2)
    assert denominator_trivial(named_group("D4"), 3)
    assert denominator_trivial(named_group("Q8"), 3)
    assert denominator_trivial(from_abelian_invariants([4]), 2)


def test_integrality_probe_witness_fixture():
    # regression: this matrix has a 3-denominator in its adjoint over S3
    G = named_group("S3")
    H = GroupRingMatrix.from_rational_entries(G, [[[9, -7, -7, 6, -7, 8]]])
    assert adjoint_integrality_probe(H, 3) < 0
    assert adjoint_integrality_probe(H, 5) >= 0


def test_commutative_determinant_matches_nrd():
    rng = random.Random(7)
    for inv in ([3], [4], [2, 2]):
        G = from_abelian_invariants(inv)
        b = rng.randint(1, 2)
        data = [[[rng.randint(-4, 4) for _ in range(G.order)] for _ in range(b)]
                for _ in range(b)]
        M = GroupRingMatrix.from_rational_entries(G, data)
        z = central_recompose(reduced_norm(M))
        d = commutative_determinant(M)
        assert list(z.coeffs) == [Fraction(c) for c in d.coeffs]


def test_commutative_determinant_rejects_nonabelian():
    G = named_group("S3")
    M = GroupRingMatrix.identity(G, 1)
    with pytest.raises(ValueError):
        commutative_determinant(M)


def test_minor_cap():
    G = from_abelian_invariants([2])
    data = [[[1, 0] for _ in range(3)] for _ in range(20)]
    pres = Presentation.from_integer_data(G, data)
    with pytest.raises(ValueError):
        fitting_invariant(pres, minor_cap=100)
