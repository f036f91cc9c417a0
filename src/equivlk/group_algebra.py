"""Group rings R[G], matrices over them, and reduced norms.

Group-ring arithmetic is duck-typed in its coefficients (Fraction and
CycloNumber both work).  The Wedderburn data of a matrix over Q[G] (reduced
characteristic polynomials, reduced norms, generalized adjoints) comes from
the explicit irreducible representations of the group, over exact
cyclotomic coefficients.

For an n x n matrix H over Q[G] and an irreducible character chi of degree
n_chi, the chi-component of the reduced characteristic polynomial is the
characteristic polynomial sum_j alpha_{chi,j} x^j of rho_chi(H), an
(n*n_chi) x (n*n_chi) matrix over Q(zeta_e).  The reduced norm is its
constant term up to sign, and the generalized adjoint

    H* = sum_{j>=1} H^(j-1) c_j,  c_j = sum_chi (-1)^(n*n_chi + 1) alpha_{chi,j} e_chi

(alpha_{chi,j} = 0 for j > n*n_chi) satisfies H H* = H* H = Nrd(H) * I.
Galois-conjugate characters have conjugate polynomials, so each c_j is a
rational central element: it is built once, one class sum per conjugacy
class (central_recompose), and H* is assembled from the rational c_j with
group-ring products over Q only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber, euler_phi
from .groups import Character, FiniteGroup

__all__ = [
    "GroupRingElement",
    "GroupRingMatrix",
    "CentralVector",
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


def central_recompose(v: CentralVector) -> GroupRingElement:
    """The central element sum_chi v_chi e_chi of Q[G].

    Its coefficient on g is (1/|G|) sum_chi n_chi v_chi chi(g^-1), a class
    function, so it is summed over the characters once per conjugacy class.
    Every caller recomposes a Galois-stable vector (a reduced norm, a c_j of
    the adjoint, a Fitting generator), whose class sums are rational; a sum
    that is not raises RuntimeError."""
    G = v.group
    table = G.character_table()
    classes, class_of = G.conjugacy_classes()
    weights = [s * Fraction(chi.degree, G.order) for chi, s in zip(table, v.values)]
    sums = []
    for cls in classes:
        k = class_of[G.inv[cls[0]]]
        total = sum((w * chi.values[k] for w, chi in zip(weights, table)),
                    CycloNumber.zero())
        if not total.is_rational:
            raise RuntimeError("central element is not rational")
        sums.append(total.to_fraction())
    return GroupRingElement(G, [sums[class_of[g]] for g in range(G.order)])


def apply_irrep(H: GroupRingMatrix, chi: Character):
    """Block matrix rho_chi(H), (n*n_chi) x (n*n_chi) cyclotomic, for H over Q[G].

    Each entry sum_g c_g rho(g)_ab is accumulated as one coefficient vector
    on the power basis of the conductor of the irrep's matrices and becomes
    one CycloNumber, so it is normalised once."""
    G = H.group
    rho = G.irreducible_representation(chi)
    d = chi.degree
    n = math.lcm(*(x.n for mat in rho.matrices for row in mat for x in row))
    lifted = [[[x.lift(n) for x in row] for row in mat] for mat in rho.matrices]
    phi = euler_phi(n)
    zero = CycloNumber.zero()
    M = [[zero] * (H.ncols * d) for _ in range(H.nrows * d)]
    for i, hrow in enumerate(H.entries):
        for j, x in enumerate(hrow):
            support = [(c, lifted[g]) for g, c in enumerate(x.coeffs) if c]
            if not support:
                continue
            for a in range(d):
                for b in range(d):
                    acc = [Fraction(0)] * phi
                    for c, mat in support:
                        for k, y in enumerate(mat[a][b]):
                            if y:
                                acc[k] += c * y
                    M[i * d + a][j * d + b] = CycloNumber(n, acc)
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
    return _norm(H.group, reduced_char_poly(H))


def _norm(G: FiniteGroup, polys) -> CentralVector:
    return CentralVector(G, tuple(p[0] if len(p) % 2 else -p[0] for p in polys))


def adjoint_and_norm(H: GroupRingMatrix):
    """(H*, Nrd(H)) computed together from one set of matrix powers.

    H* = sum_j H^(j-1) c_j with each rational central c_j recomposed once;
    it acts as the adjoint: H H* = H* H = Nrd(H) I, where the central
    element Nrd(H) is recomposed into the group ring.
    """
    if H.nrows != H.ncols:
        raise ValueError("square matrix required")
    G = H.group
    polys = reduced_char_poly(H)
    zero = CycloNumber.zero()
    power = GroupRingMatrix.identity(G, H.nrows)
    Hstar = None
    for j in range(1, max(len(p) for p in polys)):
        if j > 1:
            power = power * H
        # (-1)^(deg+1) alpha_j with deg = len(p) - 1
        c = central_recompose(CentralVector(G, tuple(
            zero if j >= len(p) else p[j] if len(p) % 2 == 0 else -p[j]
            for p in polys)))
        term = power.scale_element(c)
        Hstar = term if Hstar is None else Hstar + term
    return Hstar, _norm(G, polys)


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
