"""Group rings R[G], matrices over them, and reduced norms.

Coefficients are duck-typed (Fraction and CycloNumber both work);
anything needing Wedderburn data (reduced characteristic polynomials,
reduced norms, generalized adjoints, central idempotents) works over
exact cyclotomic coefficients via the explicit irreducible representations
of the group.

For an n x n matrix H over Q[G] and an irreducible character chi of degree
n_chi, the chi-component of the reduced characteristic polynomial is the
characteristic polynomial of rho_chi(H), an (n*n_chi) x (n*n_chi) matrix
over Q(zeta_e).  The reduced norm is its constant term up to sign, and the
generalized adjoint

    H*_chi = (-1)^(n*n_chi + 1) * sum_{j=1}^{n*n_chi} alpha_j H^(j-1) e_chi

satisfies H H* = H* H = Nrd(H) * I componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber
from .groups import Character, FiniteGroup

__all__ = [
    "GroupRingElement",
    "GroupRingMatrix",
    "CentralVector",
    "central_idempotents",
    "central_recompose",
    "apply_irrep",
    "charpoly_exact",
    "reduced_char_poly",
    "reduced_norm",
    "adjoint_and_norm",
]


class GroupRingElement:
    """Element sum_g coeffs[g] * g of R[G]; coeffs indexed by element."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise ValueError("coefficient list has wrong length")
        self.group = group
        self.coeffs = coeffs

    @staticmethod
    def from_rational_coeffs(group: FiniteGroup, coeffs) -> "GroupRingElement":
        return GroupRingElement(group, [Fraction(c) for c in coeffs])

    @staticmethod
    def delta(group: FiniteGroup, g: int, scalar=Fraction(1)) -> "GroupRingElement":
        coeffs = [scalar * 0] * group.order
        coeffs[g] = scalar
        return GroupRingElement(group, coeffs)

    def _check(self, other):
        if self.group is not other.group:
            raise ValueError("elements live in different group rings")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, [-a for a in self.coeffs])

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            return self.scale(other)
        self._check(other)
        G = self.group
        out = [None] * G.order
        for g, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for h, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = G.mul[g][h]
                t = a * b
                out[k] = t if out[k] is None else out[k] + t
        zero = self.coeffs[0] * 0
        return GroupRingElement(G, [zero if c is None else c for c in out])

    def __rmul__(self, other):
        # scalars are assumed central in the coefficient ring
        return self.scale(other)

    def scale(self, scalar) -> "GroupRingElement":
        return GroupRingElement(self.group, [scalar * c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group is other.group and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.group), self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def map_coeffs(self, f) -> "GroupRingElement":
        return GroupRingElement(self.group, [f(c) for c in self.coeffs])

    def to_json(self) -> dict:
        return {"coeffs": [_coeff_json(c) for c in self.coeffs]}

    def __repr__(self):
        terms = [f"({c})*g{g}" for g, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"


def _coeff_json(c):
    if hasattr(c, "to_json"):
        return c.to_json()
    return str(Fraction(c))


class GroupRingMatrix:
    """Rectangular matrix with GroupRingElement entries."""

    __slots__ = ("group", "entries", "nrows", "ncols")

    def __init__(self, group: FiniteGroup, entries):
        self.group = group
        self.entries = tuple(tuple(row) for row in entries)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")
            for x in row:
                if x.group is not group:
                    raise ValueError("entry in wrong group ring")

    @staticmethod
    def identity(group: FiniteGroup, n: int) -> "GroupRingMatrix":
        one = GroupRingElement.delta(group, group.id)
        zero = GroupRingElement.from_rational_coeffs(group, [0] * group.order)
        return GroupRingMatrix(group, [[one if i == j else zero for j in range(n)]
                                       for i in range(n)])

    @staticmethod
    def from_rational_entries(group: FiniteGroup, data) -> "GroupRingMatrix":
        """data[i][j] is a coefficient list of length |G|."""
        return GroupRingMatrix(group, [[GroupRingElement.from_rational_coeffs(group, e)
                                        for e in row] for row in data])

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        return GroupRingMatrix(self.group, [[a + b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        return GroupRingMatrix(self.group, [[a - b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.entries, other.entries)])

    def __mul__(self, other):
        if isinstance(other, GroupRingMatrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            rows = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = self.entries[i][0] * other.entries[0][j]
                    for t in range(1, self.ncols):
                        acc = acc + self.entries[i][t] * other.entries[t][j]
                    row.append(acc)
                rows.append(row)
            return GroupRingMatrix(self.group, rows)
        if isinstance(other, GroupRingElement):
            return GroupRingMatrix(self.group,
                                   [[e * other for e in row] for row in self.entries])
        return GroupRingMatrix(self.group,
                               [[e.scale(other) for e in row] for row in self.entries])

    def scale_element(self, x: GroupRingElement) -> "GroupRingMatrix":
        """Right-multiply every entry by x (used with central x)."""
        return GroupRingMatrix(self.group, [[e * x for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def to_json(self) -> dict:
        return {"rows": [[e.to_json() for e in row] for row in self.entries]}


@dataclass(frozen=True)
class CentralVector:
    """One scalar per irreducible character: the image of a central element
    under the Wedderburn isomorphism zeta(C[G]) = prod_chi C."""

    group: FiniteGroup
    values: tuple  # CycloNumber per character, char-table order

    def __add__(self, other: "CentralVector") -> "CentralVector":
        return CentralVector(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "CentralVector") -> "CentralVector":
        return CentralVector(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "CentralVector") -> "CentralVector":
        return CentralVector(self.group, tuple(a * b for a, b in zip(self.values, other.values)))

    def to_json(self) -> dict:
        return {"components": [v.to_json() for v in self.values]}


def central_idempotents(G: FiniteGroup) -> list[GroupRingElement]:
    """e_chi = (n_chi/|G|) sum_g chi(g^{-1}) g, in character-table order."""
    _, class_of = G.conjugacy_classes()
    out = []
    for chi in G.character_table():
        scale = Fraction(chi.degree, G.order)
        coeffs = [scale * chi.values[class_of[G.inv[g]]] for g in range(G.order)]
        out.append(GroupRingElement(G, coeffs))
    return out


def central_recompose(v: CentralVector) -> GroupRingElement:
    G = v.group
    idems = central_idempotents(G)
    acc = idems[0].scale(v.values[0])
    for e, s in zip(idems[1:], v.values[1:]):
        acc = acc + e.scale(s)
    return acc


def apply_irrep(H: GroupRingMatrix, chi: Character):
    """Block matrix rho_chi applied entrywise: (n*n_chi) x (n*n_chi) cyclotomic."""
    G = H.group
    rho = G.irreducible_representation(chi)
    d = chi.degree
    zero = CycloNumber.zero()
    N = H.nrows * d
    M = [[zero] * (H.ncols * d) for _ in range(N)]
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


def charpoly_exact(A) -> list[CycloNumber]:
    """Characteristic polynomial det(xI - A), ascending coefficients,
    by the Faddeev-LeVerrier recursion in exact arithmetic."""
    n = len(A)
    zero = CycloNumber.zero()
    one = CycloNumber.one()
    if n == 0:
        return [one]
    Mcur = [[one if i == j else zero for j in range(n)] for i in range(n)]
    cs = [one]
    for m in range(1, n + 1):
        AM = [[_dot(A[i], [Mcur[t][j] for t in range(n)], zero) for j in range(n)]
              for i in range(n)]
        tr = zero
        for i in range(n):
            tr = tr + AM[i][i]
        cm = tr * Fraction(-1, m)
        cs.append(cm)
        Mcur = [[AM[i][j] + cm if i == j else AM[i][j] for j in range(n)] for i in range(n)]
    return [cs[n - i] for i in range(n + 1)]


def _dot(row, col, zero):
    acc = zero
    for a, b in zip(row, col):
        if a != zero and b != zero:
            acc = acc + a * b
    return acc


def reduced_char_poly(H: GroupRingMatrix) -> list[list[CycloNumber]]:
    """Per character, ascending coefficients of charpoly(rho_chi(H))."""
    if H.nrows != H.ncols:
        raise ValueError("square matrix required")
    return [charpoly_exact(apply_irrep(H, chi)) for chi in H.group.character_table()]


def reduced_norm(H: GroupRingMatrix) -> CentralVector:
    """Nrd(H) componentwise: det(rho_chi(H)) = (-1)^deg * charpoly(0)."""
    G = H.group
    values = []
    for chi, poly in zip(G.character_table(), reduced_char_poly(H)):
        deg = len(poly) - 1
        c0 = poly[0]
        values.append(c0 if deg % 2 == 0 else -c0)
    return CentralVector(G, tuple(values))


def adjoint_and_norm(H: GroupRingMatrix):
    """(H*, Nrd(H)) computed together from one set of matrix powers.

    H* acts as the adjoint: H H* = H* H = Nrd(H) I, where the central
    element Nrd(H) is recomposed into the group ring.
    """
    if H.nrows != H.ncols:
        raise ValueError("square matrix required")
    G = H.group
    table = G.character_table()
    polys = reduced_char_poly(H)
    idems = central_idempotents(G)
    max_pow = max(len(p) - 2 for p in polys)  # need H^0 .. H^(deg-1)
    powers = [GroupRingMatrix.identity(G, H.nrows)]
    for _ in range(max_pow):
        powers.append(powers[-1] * H)
    total = None
    nrd_values = []
    for chi, poly, e in zip(table, polys, idems):
        deg = len(poly) - 1
        sign = Fraction(1) if deg % 2 == 1 else Fraction(-1)  # (-1)^(deg+1)
        nrd_values.append(poly[0] if deg % 2 == 0 else -poly[0])
        comp = None
        for j in range(1, deg + 1):
            term = powers[j - 1].scale_element(e.scale(sign * poly[j]))
            comp = term if comp is None else comp + term
        total = comp if total is None else total + comp
    return total, CentralVector(G, tuple(nrd_values))


def commutative_ideal_lattice(G: FiniteGroup, generators, p: int, prec: int):
    """Canonical basis (integer HNF) of the Z_p[G]-span of `generators`
    inside Z[G]/p^prec; two ideals are equal mod p^prec iff these agree.

    Generator coefficients must be rational with denominators prime to p
    (prime-to-p denominators are units mod p^prec)."""
    from .snf import hermite_normal_form

    m = G.order
    q = p ** prec
    rows = []
    for x in generators:
        ints = []
        for c in x.coeffs:
            if hasattr(c, "to_fraction"):
                c = c.to_fraction()
            c = Fraction(c)
            den = c.denominator
            if den % p == 0:
                raise ValueError("coefficient has a p-denominator")
            ints.append(c.numerator * pow(den, -1, q) % q)
        for g in range(m):
            row = [0] * m
            for h, v in enumerate(ints):
                row[G.mul[g][h]] = (row[G.mul[g][h]] + v) % q
            rows.append(row)
    rows += [[q * (i == j) for j in range(m)] for i in range(m)]
    return hermite_normal_form(rows)
