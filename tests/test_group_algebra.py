import math
import random
from fractions import Fraction

from oracles import (FractionElement, FractionMatrix, apply_irrep,
                     charpoly_exact, irrep_adjoint_and_norm,
                     recompose_components, reduced_char_poly)

from equivlk.cyclo import CycloNumber
from equivlk.group_algebra import (CentralElement, GroupRingElement,
                                   GroupRingMatrix, adjoint_and_norm,
                                   central_recompose, commutative_ideal_lattice,
                                   reduced_norm)
from equivlk.groups import from_abelian_invariants, named_group

# every group named_group knows of order <= 12
SMALL_GROUPS = [f"C{n}" for n in range(2, 13)] + ["V4", "S3", "D4", "Q8", "A4"]
# every group named_group knows of order <= 24
NAMED_GROUPS = [f"C{n}" for n in range(2, 25)] + ["V4", "S3", "D4", "Q8", "A4", "S4"]


def central_idempotents(G):
    """Oracle: e_chi = (n_chi/|G|) sum_g chi(g^{-1}) g, in character-table
    order, with one cyclotomic coefficient per group element."""
    _, class_of = G.conjugacy_classes()
    out = []
    for chi in G.character_table():
        scale = Fraction(chi.degree, G.order)
        coeffs = [scale * chi.values[class_of[G.inv[g]]] for g in range(G.order)]
        out.append(FractionElement(G, coeffs))
    return out


def adjoint_by_characters(H):
    """Oracle: H* = sum_chi (-1)^(deg+1) sum_j alpha_{chi,j} H^(j-1) e_chi,
    every power scaled by e_chi alpha_{chi,j} over cyclotomic coefficients."""
    G = H.group
    polys = reduced_char_poly(H)
    Hf = FractionMatrix.from_matrix(H)
    powers = [FractionMatrix.identity(G, H.nrows)]
    for _ in range(max(len(p) for p in polys) - 2):
        powers.append(powers[-1] * Hf)
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
    return tuple(values)


def rand_central(rng, G):
    classes, _ = G.conjugacy_classes()
    cvals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in classes]
    den = 12
    return CentralElement._make(G, [int(c * den) for c in cvals], den)


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
        one = FractionElement.from_element(GroupRingElement.delta(G, G.id))
        assert total == one.map_coeffs(CycloNumber.from_rational)
        for i, a in enumerate(idems):
            for j, b in enumerate(idems):
                assert a * b == (a if i == j else a.scale(0))


def test_integer_element_matches_fraction_class():
    # sums, differences, products, scales and equality against the
    # Fraction-coefficient group ring, with zero elements and denominators
    # that cancel
    rng = random.Random(43)
    for name in ["C5", "S3", "Q8", "A4"]:
        G = named_group(name)

        def rand_coeffs():
            kind = rng.randrange(4)
            if kind == 0:
                return [0] * G.order
            if kind == 1:  # one denominator that cancels against every numerator
                d = rng.randint(2, 6)
                return [Fraction(d * rng.randint(-4, 4), d) for _ in range(G.order)]
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(G.order)]

        for _ in range(30):
            a, b = rand_coeffs(), rand_coeffs()
            x, y = GroupRingElement(G, a), GroupRingElement(G, b)
            fx, fy = FractionElement(G, [Fraction(c) for c in a]), \
                FractionElement(G, [Fraction(c) for c in b])
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for got, want in [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy),
                              (y * x, fy * fx), (-x, -fx), (x.scale(q), fx.scale(q)),
                              (x - x, fx - fx)]:
                assert got.coeffs == want.coeffs, name
                assert got == GroupRingElement(G, want.coeffs), name
                assert got.den == math.lcm(*(c.denominator for c in want.coeffs))
            assert (x == y) == (fx == fy)
            assert not any((x - x).nums) and (x - x).den == 1
            assert (x + y) - y == x


def test_central_products_match_group_ring_products():
    rng = random.Random(47)
    for name in SMALL_GROUPS + ["S4"]:
        G = named_group(name)
        for _ in range(3):
            z, w = rand_central(rng, G), rand_central(rng, G)
            assert central_recompose(z * w) == central_recompose(z) * central_recompose(w)
            assert central_recompose(z + w) == central_recompose(z) + central_recompose(w)
            assert central_recompose(z - w) == central_recompose(z) - central_recompose(w)


def test_central_recompose_matches_per_element_sum():
    rng = random.Random(31)
    for name in SMALL_GROUPS:
        G = named_group(name)
        vectors = [rand_central(rng, G) for _ in range(3)]
        vectors += [reduced_norm(rand_matrix(rng, G, n, -3, 3)) for n in (1, 2)]
        for v in vectors:
            got = central_recompose(v)
            assert all(type(c) is Fraction for c in got.coeffs), name
            want = recompose_components(G, v.values)
            assert list(got.coeffs) == list(want.coeffs), name


def test_apply_irrep_is_multiplicative():
    # the oracle's rho_chi is a ring homomorphism on matrices over Q[G]
    rng = random.Random(37)
    for name in ["C6", "S3", "D4", "Q8", "A4"]:
        G = named_group(name)
        for chi in G.character_table():
            for n in (1, 2):
                A, B = rand_matrix(rng, G, n), rand_matrix(rng, G, n)
                ra, rb = apply_irrep(A, chi), apply_irrep(B, chi)
                d = len(ra)
                prod = [[sum((ra[i][t] * rb[t][j] for t in range(d)), CycloNumber.zero())
                         for j in range(d)] for i in range(d)]
                assert apply_irrep(A * B, chi) == prod, name


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


def test_newton_route_matches_irrep_route():
    # H*, Nrd and the nrd report JSON against explicit irreducible
    # representations and cyclotomic characteristic polynomials
    rng = random.Random(53)
    for name in NAMED_GROUPS:
        G = named_group(name)
        for n in (1, 2):
            H = rand_matrix(rng, G, n, -3, 3)
            Hstar, nrd = adjoint_and_norm(H)
            want_star, want_nrd = irrep_adjoint_and_norm(H)
            for row, wrow in zip(Hstar.entries, want_star.entries):
                for x, y in zip(row, wrow):
                    assert x.coeffs == y.coeffs, (name, n)
            assert nrd.values == want_nrd, (name, n)
            assert nrd.to_json() == {"components": [v.to_json() for v in want_nrd]}
            assert reduced_norm(H) == nrd, (name, n)


def test_central_decompose_roundtrip():
    G = named_group("D4")
    rng = random.Random(3)
    for _ in range(3):
        z = rand_central(rng, G)
        values = z.values
        assert values == central_decompose(central_recompose(z))
        assert recompose_components(G, values).coeffs == central_recompose(z).coeffs


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
    for name in ["C6", "S3", "D4", "Q8", "A4", "S4"]:
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
    assert na * nb == nab


def test_norm_of_group_element_unit():
    # Nrd of a single group element is a root of unity componentwise
    G = named_group("Q8")
    g = GroupRingMatrix(G, [[GroupRingElement.delta(G, 3)]])
    nrd = reduced_norm(g)
    for v in nrd.values:
        power = CycloNumber.one()
        for _ in range(G.element_order(3) * 2):
            power = power * v
        assert power == CycloNumber.one()


def test_commutative_ideal_lattice():
    G = from_abelian_invariants([4])
    x = GroupRingElement(G, [2, 0, 0, 0])
    y = GroupRingElement(G, [0, 2, 0, 0])  # unit multiple
    assert commutative_ideal_lattice(G, [x], 3, 6) == commutative_ideal_lattice(G, [y], 3, 6)
    z = GroupRingElement(G, [6, 0, 0, 0])
    assert commutative_ideal_lattice(G, [x], 3, 6) != commutative_ideal_lattice(G, [z], 3, 6)
