from fractions import Fraction

import pytest
from oracles import irreducible_representation

from equivlk.cyclo import CycloNumber, zeta
from equivlk.groups import FiniteGroup, from_abelian_invariants, named_group


def classes_by_order(G):
    classes, _ = G.conjugacy_classes()
    return [(len(c), G.element_order(c[0])) for c in classes]


def test_basic_structure():
    S3 = named_group("S3")
    assert S3.order == 6 and not S3.is_abelian()
    assert sorted(classes_by_order(S3)) == [(1, 1), (2, 3), (3, 2)]
    assert len(S3.commutator_subgroup()) == 3
    assert S3.exponent == 6

    Q8 = named_group("Q8")
    assert Q8.order == 8
    assert sorted(len(c) for c in Q8.conjugacy_classes()[0]) == [1, 1, 2, 2, 2]
    assert len(Q8.commutator_subgroup()) == 2

    A4 = named_group("A4")
    assert A4.order == 12 and len(A4.commutator_subgroup()) == 4


def test_abelian_construction():
    G = from_abelian_invariants([2, 3])
    assert G.order == 6 and G.is_abelian() and G.exponent == 6
    with pytest.raises(ValueError):
        from_abelian_invariants([2] * 10)  # order 1024 > 512


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    # latin square that is not associative (order 5 quasigroup)
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        FiniteGroup(t)


def char_degrees(G):
    return sorted(chi.degree for chi in G.character_table())


def test_character_degrees():
    assert char_degrees(named_group("C6")) == [1] * 6
    assert char_degrees(named_group("S3")) == [1, 1, 2]
    assert char_degrees(named_group("D4")) == [1, 1, 1, 1, 2]
    assert char_degrees(named_group("Q8")) == [1, 1, 1, 1, 2]
    assert char_degrees(named_group("A4")) == [1, 1, 1, 3]
    assert char_degrees(from_abelian_invariants([2, 2])) == [1, 1, 1, 1]


def test_s3_table_values():
    # classes: identity, 3-cycles (size 2), transpositions (size 3)
    G = named_group("S3")
    classes, _ = G.conjugacy_classes()
    by_size = {len(c): i for i, c in enumerate(classes)}
    two_dim = next(c for c in G.character_table() if c.degree == 2)
    assert two_dim.values[by_size[1]] == CycloNumber.from_rational(2)
    assert two_dim.values[by_size[2]] == CycloNumber.from_rational(-1)
    assert two_dim.values[by_size[3]] == CycloNumber.zero()


def test_q8_two_dimensional_character():
    G = named_group("Q8")
    classes, _ = G.conjugacy_classes()
    chi = next(c for c in G.character_table() if c.degree == 2)
    for i, cls in enumerate(classes):
        order = G.element_order(cls[0])
        expected = {1: 2, 2: -2, 4: 0}[order]
        assert chi.values[i] == CycloNumber.from_rational(expected)


def test_a4_three_dimensional_character():
    G = named_group("A4")
    classes, _ = G.conjugacy_classes()
    chi = next(c for c in G.character_table() if c.degree == 3)
    for i, cls in enumerate(classes):
        order = G.element_order(cls[0])
        expected = {1: 3, 2: -1, 3: 0}[order]
        assert chi.values[i] == CycloNumber.from_rational(expected)


def test_c4_character_values():
    G = named_group("C4")
    table = G.character_table()
    # some character takes the value i on a generator
    g = next(x for x in range(4) if G.element_order(x) == 4)
    _, class_of = G.conjugacy_classes()
    vals = {chi.values[class_of[g]] for chi in table}
    assert zeta(4) in vals and zeta(4, 3) in vals


def test_irreps_are_homomorphisms():
    # the oracle verifies its irreps on construction; exercise the paths here
    for name in ["S3", "D4", "Q8", "A4"]:
        G = named_group(name)
        for chi in G.character_table():
            rho = irreducible_representation(G, chi)
            assert len(rho.matrices) == G.order
            assert len(rho.matrices[0]) == chi.degree


def test_class_constants_count_products_of_class_sums():
    # C_i * C_j = sum_k N_i[k][j] C_k, counted over group elements
    for name in ["S3", "D4", "Q8", "A4", "S4", "C6"]:
        G = named_group(name)
        classes, class_of = G.conjugacy_classes()
        N = G.class_constants()
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                counts = [0] * G.order
                for x in ci:
                    for y in cj:
                        counts[G.mul[x][y]] += 1
                want = [N[i][class_of[g]][j] for g in range(G.order)]
                assert counts == want, (name, i, j)


def test_orthogonality_second_kind():
    # column orthogonality: sum_chi chi(g) conj(chi(h)) = |C_G(g)| delta
    G = named_group("D4")
    classes, _ = G.conjugacy_classes()
    table = G.character_table()
    for i in range(len(classes)):
        for j in range(len(classes)):
            s = CycloNumber.zero()
            for chi in table:
                s = s + chi.values[i] * chi.values[j].conjugate()
            expect = Fraction(G.order, len(classes[i])) if i == j else 0
            assert s == CycloNumber.from_rational(expect)
