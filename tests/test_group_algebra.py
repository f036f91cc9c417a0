import random
from fractions import Fraction

import pytest

from equivlk.cyclo import CycloNumber
from equivlk.group_algebra import (CentralVector, GroupRingElement,
                                   GroupRingMatrix, adjoint_and_norm,
                                   apply_irrep, central_recompose,
                                   charpoly_exact, commutative_ideal_lattice,
                                   reduced_char_poly, reduced_norm)
from equivlk.groups import from_abelian_invariants, named_group

# every group named_group knows of order <= 12
SMALL_GROUPS = [f"C{n}" for n in range(2, 13)] + ["V4", "S3", "D4", "Q8", "A4"]


def central_idempotents(G):
    """Oracle: e_chi = (n_chi/|G|) sum_g chi(g^{-1}) g, in character-table
    order, with one cyclotomic coefficient per group element."""
    _, class_of = G.conjugacy_classes()
    out = []
    for chi in G.character_table():
        scale = Fraction(chi.degree, G.order)
        coeffs = [scale * chi.values[class_of[G.inv[g]]] for g in range(G.order)]
        out.append(GroupRingElement(G, coeffs))
    return out


def recompose_by_elements(v):
    """Oracle: sum_chi v_chi e_chi, scaling every coefficient of every e_chi."""
    acc = None
    for e, s in zip(central_idempotents(v.group), v.values):
        term = e.scale(s)
        acc = term if acc is None else acc + term
    return acc


def apply_irrep_entrywise(H, chi):
    """Oracle: rho_chi(H) with a cyclotomic multiply and add per group element."""
    G = H.group
    rho = G.irreducible_representation(chi)
    d = chi.degree
    zero = CycloNumber.zero()
    M = [[zero] * (H.ncols * d) for _ in range(H.nrows * d)]
    for i in range(H.nrows):
        for j in range(H.ncols):
            for g, c in enumerate(H.entries[i][j].coeffs):
                if c == 0:
                    continue
                mat = rho.matrices[g]
                for a in range(d):
                    row = M[i * d + a]
                    for b in range(d):
                        row[j * d + b] = row[j * d + b] + c * mat[a][b]
    return M


def adjoint_by_characters(H):
    """Oracle: H* = sum_chi (-1)^(deg+1) sum_j alpha_{chi,j} H^(j-1) e_chi,
    every power scaled by e_chi alpha_{chi,j} over cyclotomic coefficients."""
    G = H.group
    polys = [charpoly_exact(apply_irrep_entrywise(H, chi))
             for chi in G.character_table()]
    powers = [GroupRingMatrix.identity(G, H.nrows)]
    for _ in range(max(len(p) for p in polys) - 2):
        powers.append(powers[-1] * H)
    total = None
    for poly, e in zip(polys, central_idempotents(G)):
        deg = len(poly) - 1
        sign = Fraction(1) if deg % 2 == 1 else Fraction(-1)
        for j in range(1, deg + 1):
            term = powers[j - 1].scale_element(e.scale(sign * poly[j]))
            total = term if total is None else total + term
    return total


def central_decompose(x):
    """Oracle: Wedderburn components of a central element,
    s_chi = sum_g c_g chi(g) / n_chi."""
    G = x.group
    _, class_of = G.conjugacy_classes()
    values = []
    for chi in G.character_table():
        s = CycloNumber.zero()
        for g, c in enumerate(x.coeffs):
            if c != 0:
                s = s + c * chi.values[class_of[g]]
        values.append(s * Fraction(1, chi.degree))
    return CentralVector(G, tuple(values))


def rand_matrix(rng, G, n, lo=-9, hi=9):
    data = [[[rng.randint(lo, hi) for _ in range(G.order)] for _ in range(n)]
            for _ in range(n)]
    return GroupRingMatrix.from_rational_entries(G, data)


def test_group_ring_basic():
    G = named_group("S3")
    x = GroupRingElement.delta(G, 1)
    y = GroupRingElement.delta(G, 2)
    assert (x * y).coeffs[G.mul[1][2]] == 1


def test_central_idempotents():
    for name in ["C4", "S3", "Q8"]:
        G = named_group(name)
        idems = central_idempotents(G)
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        one = GroupRingElement.delta(G, G.id).map_coeffs(CycloNumber.from_rational)
        assert total == one
        for i, a in enumerate(idems):
            for j, b in enumerate(idems):
                assert a * b == (a if i == j else a.scale(0))


def test_central_recompose_matches_per_element_sum():
    rng = random.Random(31)
    for name in SMALL_GROUPS:
        G = named_group(name)
        classes, class_of = G.conjugacy_classes()
        vectors = []
        for _ in range(3):  # random rational central elements
            cvals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in classes]
            vectors.append(central_decompose(GroupRingElement(
                G, [cvals[class_of[g]] for g in range(G.order)])))
        vectors += [reduced_norm(rand_matrix(rng, G, n, -3, 3)) for n in (1, 2)]
        for v in vectors:
            got = central_recompose(v)
            assert all(type(c) is Fraction for c in got.coeffs), name
            want = recompose_by_elements(v)
            assert list(got.coeffs) == list(want.coeffs), name


def test_central_recompose_rejects_non_galois_stable():
    G = named_group("C3")
    table = G.character_table()
    k = next(i for i, chi in enumerate(table)
             if not all(x.is_rational for x in chi.values))
    values = [CycloNumber.zero()] * len(table)
    values[k] = CycloNumber.one()
    with pytest.raises(RuntimeError, match="central element is not rational"):
        central_recompose(CentralVector(G, tuple(values)))


def test_apply_irrep_matches_entrywise():
    rng = random.Random(37)
    for name in ["C6", "S3", "D4", "Q8", "A4"]:
        G = named_group(name)
        for chi in G.character_table():
            for n in (1, 2):
                H = rand_matrix(rng, G, n)
                got = apply_irrep(H, chi)
                want = apply_irrep_entrywise(H, chi)
                assert all((x.n, x.coeffs) == (y.n, y.coeffs)
                           for r, s in zip(got, want) for x, y in zip(r, s)), name


def test_rational_adjoint_matches_per_character_assembly():
    rng = random.Random(41)
    for name in ["C6", "S3", "D4", "Q8", "A4"]:
        G = named_group(name)
        for n in (1, 2):
            H = rand_matrix(rng, G, n, -4, 4)
            Hstar, _ = adjoint_and_norm(H)
            want = adjoint_by_characters(H)
            for row, wrow in zip(Hstar.entries, want.entries):
                for x, y in zip(row, wrow):
                    assert all(type(c) is Fraction for c in x.coeffs), name
                    assert list(x.coeffs) == list(y.coeffs), name


def test_central_decompose_roundtrip():
    G = named_group("D4")
    rng = random.Random(3)
    classes, class_of = G.conjugacy_classes()
    # random central element: constant on classes
    cvals = [Fraction(rng.randint(-5, 5)) for _ in classes]
    z = GroupRingElement.from_rational_coeffs(G, [cvals[class_of[g]] for g in range(G.order)])
    z = z.map_coeffs(CycloNumber.from_rational)
    back = central_recompose(central_decompose(z))
    assert back == z


def test_charpoly_cayley_hamilton():
    G = named_group("S3")
    rng = random.Random(5)
    H = rand_matrix(rng, G, 2, -3, 3)
    chi = next(c for c in G.character_table() if c.degree == 2)
    A = apply_irrep(H, chi)
    poly = charpoly_exact(A)
    n = len(A)
    zero = CycloNumber.zero()
    # evaluate poly at A
    acc = [[zero] * n for _ in range(n)]
    power = [[CycloNumber.one() if i == j else zero for j in range(n)] for i in range(n)]
    for c in poly:
        acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
        power = [[sum((power[i][t] * A[t][j] for t in range(n)), zero)
                  for j in range(n)] for i in range(n)]
    assert all(acc[i][j] == zero for i in range(n) for j in range(n))


def test_reduced_char_poly_degrees():
    G = named_group("Q8")
    rng = random.Random(9)
    H = rand_matrix(rng, G, 2)
    polys = reduced_char_poly(H)
    degrees = [len(p) - 1 for p in polys]
    assert sorted(degrees) == [2, 2, 2, 2, 4]


def test_adjoint_identity_and_norm():
    rng = random.Random(17)
    for name in ["C6", "S3", "D4", "Q8"]:
        G = named_group(name)
        for n in (1, 2):
            H = rand_matrix(rng, G, n)
            Hstar, nrd = adjoint_and_norm(H)
            z = central_recompose(nrd)
            target = GroupRingMatrix.identity(G, n).scale_element(z)
            assert H * Hstar == target
            assert Hstar * H == target


def test_norm_multiplicative():
    rng = random.Random(23)
    G = named_group("S3")
    A = rand_matrix(rng, G, 2, -4, 4)
    B = rand_matrix(rng, G, 2, -4, 4)
    na, nb, nab = reduced_norm(A), reduced_norm(B), reduced_norm(A * B)
    assert all(x * y == z for x, y, z in zip(na.values, nb.values, nab.values))


def test_norm_of_group_element_unit():
    # Nrd of a single group element is a root of unity componentwise
    G = named_group("Q8")
    g = GroupRingMatrix(G, [[GroupRingElement.delta(G, 3)]])
    nrd = reduced_norm(g)
    for v in nrd.values:
        k = G.element_order(3) * 2
        assert (v ** k) == CycloNumber.one()


def test_commutative_ideal_lattice():
    G = from_abelian_invariants([4])
    x = GroupRingElement.from_rational_coeffs(G, [2, 0, 0, 0])
    y = GroupRingElement.from_rational_coeffs(G, [0, 2, 0, 0])  # unit multiple
    assert commutative_ideal_lattice(G, [x], 3, 6) == commutative_ideal_lattice(G, [y], 3, 6)
    z = GroupRingElement.from_rational_coeffs(G, [6, 0, 0, 0])
    assert commutative_ideal_lattice(G, [x], 3, 6) != commutative_ideal_lattice(G, [z], 3, 6)
