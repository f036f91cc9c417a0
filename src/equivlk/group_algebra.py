"""Group rings Q[G], matrices over them, reduced norms and adjoints.

A GroupRingElement sum_g c_g g is stored as one integer numerator per group
element over one positive denominator, reduced by their gcd once per
operation.  A CentralElement of the centre Z(Q[G]) is stored the same way
on the class sums C_i, and central products use the integer structure
constants of the class algebra (FiniteGroup.class_constants).

Reduced norms and generalized adjoints need no representation.  For an
n x n matrix H over Q[G] and an irreducible character chi of degree n_chi,
the eigenvalues of rho_chi(H), a d_chi x d_chi matrix with d_chi =
n * n_chi, have power sums chi(tr H^k).  As central elements these are

    P_k = N * avg(tr H^k),   N = sum_chi n_chi e_chi,

with avg the class average (the projection onto the centre).  Newton's
identities k E_k = sum_{i=1..k} (-1)^(i-1) E_{k-i} P_i, E_0 = 1, give the
elementary symmetric functions E_k of the eigenvalues on every component
at once; E_k vanishes on the components with d_chi < k.  With f_m the sum
of the e_chi of degree m, a rational idempotent,

    Nrd(H) = sum_m f_m E_{nm},
    c_j = (-1)^(j+1) sum_m f_m E_{nm-j}   (E_i = 0 for i < 0),
    H* = sum_{j>=1} H^(j-1) c_j,

and H H* = H* H = Nrd(H) * I by Cayley-Hamilton on each component
(Reiner, Maximal Orders, section 9; Johnston-Nickel, J. LMS 2013).  The
Wedderburn components chi(z)/n_chi of a central element z, which reports
print, are computed only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .cyclo import CycloNumber, euler_phi
from .groups import FiniteGroup
from .snf import hermite_normal_form

__all__ = [
    "GroupRingElement",
    "GroupRingMatrix",
    "CentralElement",
    "central_recompose",
    "reduced_norm",
    "adjoint_and_norm",
    "commutative_ideal_lattice",
]


def _rational(c):
    return c if type(c) is int else Fraction(c)


class _RationalVector:
    """A rational vector nums / den of a group's algebra, over one positive
    denominator with gcd(den, nums) = 1, so equal vectors have equal fields."""

    __slots__ = ("group", "nums", "den")

    @classmethod
    def _make(cls, group: FiniteGroup, nums, den: int):
        g = math.gcd(den, *nums)
        x = object.__new__(cls)
        x.group = group
        x.nums = tuple(nums) if g == 1 else tuple(a // g for a in nums)
        x.den = den // g
        return x

    def _combine(self, other, sign: int):
        if self.group is not other.group:
            raise ValueError("elements live in different group rings")
        a, b = self.den, other.den
        den = a // math.gcd(a, b) * b
        fa, fb = den // a, sign * (den // b)
        return self._make(self.group, [x * fa + y * fb for x, y in zip(self.nums, other.nums)],
                          den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._make(self.group, [-a for a in self.nums], self.den)

    def scale(self, scalar):
        q = _rational(scalar)
        return self._make(self.group, [q.numerator * a for a in self.nums],
                          q.denominator * self.den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.group is other.group and self.den == other.den
                and self.nums == other.nums)

    __hash__ = None


class GroupRingElement(_RationalVector):
    """Element sum_g (nums[g] / den) g of Q[G]."""

    __slots__ = ()

    def __init__(self, group: FiniteGroup, coeffs):
        qs = [_rational(c) for c in coeffs]
        if len(qs) != group.order:
            raise ValueError("coefficient list has wrong length")
        # over the least common denominator of reduced fractions, the
        # numerators share no factor with it
        den = math.lcm(*(q.denominator for q in qs))
        self.group = group
        self.nums = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.den = den

    @staticmethod
    def delta(group: FiniteGroup, g: int) -> "GroupRingElement":
        return GroupRingElement(group, [int(h == g) for h in range(group.order)])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.group is not other.group:
            raise ValueError("elements live in different group rings")
        G = self.group
        y = other.nums
        out = [0] * G.order
        for g, a in enumerate(self.nums):
            if a:
                # coefficient of k in (a g) * y is a * y[g^-1 k]
                out = [o + a * y[h] for o, h in zip(out, G.mul[G.inv[g]])]
        return GroupRingElement._make(G, out, self.den * other.den)

    def __repr__(self):
        terms = [f"({c})*g{g}" for g, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


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
        zero = GroupRingElement(group, [0] * group.order)
        return GroupRingMatrix(group, [[one if i == j else zero for j in range(n)]
                                       for i in range(n)])

    @staticmethod
    def from_rational_entries(group: FiniteGroup, data) -> "GroupRingMatrix":
        """data[i][j] is a coefficient list of length |G|."""
        return GroupRingMatrix(group, [[GroupRingElement(group, e) for e in row]
                                       for row in data])

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        return GroupRingMatrix(self.group, [[a + b for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.entries, other.entries)])

    def __mul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries))
        return GroupRingMatrix(self.group, [[_dot(row, col) for col in cols]
                                            for row in self.entries])

    def scale_element(self, x: GroupRingElement) -> "GroupRingMatrix":
        """Right-multiply every entry by x (used with central x)."""
        return GroupRingMatrix(self.group, [[e * x for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None


def _sum(xs):
    xs = iter(xs)
    acc = next(xs)
    for x in xs:
        acc = acc + x
    return acc


def _dot(xs, ys) -> GroupRingElement:
    return _sum(x * y for x, y in zip(xs, ys))


# ---------------------------------------------------------------------------
# the centre of Q[G] on the class sums


class CentralElement(_RationalVector):
    """Rational central element sum_i (nums[i] / den) C_i of Q[G], C_i the
    class sums in conjugacy_classes order."""

    __slots__ = ()

    def __mul__(self, other: "CentralElement") -> "CentralElement":
        """Product through the class constants: C_i C_j = sum_k a_ijk C_k."""
        x, y = self.nums, other.nums
        out = [0] * len(x)
        for i, j, k, a in _centre(self.group).constants:
            out[k] += a * x[i] * y[j]
        return CentralElement._make(self.group, out, self.den * other.den)

    @property
    def values(self) -> tuple[CycloNumber, ...]:
        """The Wedderburn components chi(z)/n_chi, in character-table order.

        chi(z) = sum_i z_i |C_i| chi(C_i) is summed on integer coordinates
        over Q(zeta_e), e the exponent, and normalised once per character."""
        centre = _centre(self.group)
        weights = [a * s for a, s in zip(self.nums, centre.sizes)]
        out = []
        for degree, lifted in zip(centre.degrees, centre.lifted):
            acc = [0] * centre.phi
            for w, v in zip(weights, lifted):
                if w:
                    acc = [c + w * x for c, x in zip(acc, v)]
            out.append(CycloNumber(centre.exponent, acc, den=self.den * degree))
        return tuple(out)

    def to_json(self) -> dict:
        return {"components": [v.to_json() for v in self.values]}


@dataclass(frozen=True)
class _Centre:
    """Per-group data of the centre, built once per group."""

    constants: tuple  # (i, j, k, a_ijk) for the nonzero class constants
    sizes: tuple  # class sizes
    lcm_size: int
    degrees: tuple  # character degrees, character-table order
    exponent: int
    phi: int
    lifted: tuple  # per character, per class: chi(C_i) on the zeta_e power basis
    one: CentralElement
    N: CentralElement  # sum_chi n_chi e_chi
    f: dict  # degree m -> sum of the e_chi of degree m


@cache  # one entry per group a process builds; campaigns build a handful
def _centre(G: FiniteGroup) -> _Centre:
    classes, class_of = G.conjugacy_classes()
    table = G.character_table()
    e = G.exponent
    # character values are algebraic integers: their denominator is 1 and
    # their numerators are the power-basis coordinates
    lifted = tuple(tuple(tuple(v.lift(e)) for v in chi.values) for chi in table)
    if any(v.den != 1 for chi in table for v in chi.values):
        raise RuntimeError("character value is not an algebraic integer")
    inverse = [class_of[G.inv[cls[0]]] for cls in classes]
    phi = euler_phi(e)

    def idempotent_sum(weights) -> CentralElement:
        """sum_chi w_chi e_chi; its coefficient on C_i is
        (1/|G|) sum_chi w_chi n_chi chi(g_i^-1), rational for the
        Galois-stable weights used here."""
        nums = []
        for i in inverse:
            acc = [0] * phi
            for w, chi, values in zip(weights, table, lifted):
                if w:
                    acc = [c + w * chi.degree * x for c, x in zip(acc, values[i])]
            if any(acc[1:]):
                raise RuntimeError("central element is not rational")
            nums.append(acc[0])
        return CentralElement._make(G, nums, G.order)

    degrees = tuple(chi.degree for chi in table)
    sizes = tuple(len(cls) for cls in classes)
    return _Centre(
        constants=tuple((i, j, k, a) for i, Ni in enumerate(G.class_constants())
                        for k, row in enumerate(Ni) for j, a in enumerate(row) if a),
        sizes=sizes,
        lcm_size=math.lcm(*sizes),
        degrees=degrees,
        exponent=e,
        phi=phi,
        lifted=lifted,
        one=CentralElement._make(G, [1] + [0] * (len(classes) - 1), 1),
        N=idempotent_sum(degrees),
        f={m: idempotent_sum([int(d == m) for d in degrees]) for m in sorted(set(degrees))},
    )


def central_recompose(z: CentralElement) -> GroupRingElement:
    """The central element z as a group-ring element: its coefficient on g
    is that of the class of g."""
    _, class_of = z.group.conjugacy_classes()
    return GroupRingElement._make(z.group, [z.nums[c] for c in class_of], z.den)


def _class_average(x: GroupRingElement) -> CentralElement:
    """Projection onto the centre: sum_i (sum_{g in C_i} x_g / |C_i|) C_i."""
    G = x.group
    classes, _ = G.conjugacy_classes()
    L = _centre(G).lcm_size
    nums = [sum(x.nums[g] for g in cls) * (L // len(cls)) for cls in classes]
    return CentralElement._make(G, nums, x.den * L)


def _newton(H: GroupRingMatrix):
    """(powers, E): the powers H^0..H^(D-1) and the central E_0..E_D, for D
    = n times the largest character degree."""
    if H.nrows != H.ncols:
        raise ValueError("square matrix required")
    G = H.group
    centre = _centre(G)
    n = H.nrows
    D = n * max(centre.degrees)
    powers = [GroupRingMatrix.identity(G, n)]
    while len(powers) < D:
        powers.append(H if len(powers) == 1 else powers[-1] * H)
    traces = [_sum(A.entries[i][i] for i in range(n)) for A in powers[1:]]
    # tr H^D needs only the diagonal of H^(D-1) H
    traces.append(_sum(_dot(row, col) for row, col in zip(powers[-1].entries, zip(*H.entries))))
    P = [None] + [centre.N * _class_average(t) for t in traces]
    E = [centre.one]
    for k in range(1, D + 1):
        # k E_k = sum_{i=1..k} (-1)^(i-1) E_{k-i} P_i, with E_0 P_k = P_k
        acc = P[k] if k % 2 else P[k].scale(-1)
        for i in range(1, k):
            term = E[k - i] * P[i]
            acc = acc + term if i % 2 else acc - term
        E.append(acc.scale(Fraction(1, k)))
    return powers, E


def _graded(G: FiniteGroup, n: int, E, j: int) -> CentralElement:
    """sum_m f_m E_{nm-j} over the degrees m with nm >= j."""
    f = _centre(G).f
    return _sum(f[m] if n * m == j else f[m] * E[n * m - j] for m in f if n * m >= j)


def reduced_norm(H: GroupRingMatrix) -> CentralElement:
    """Nrd(H) = sum_m f_m E_{nm}, a rational central element."""
    _, E = _newton(H)
    return _graded(H.group, H.nrows, E, 0)


def adjoint_and_norm(H: GroupRingMatrix):
    """(H*, Nrd(H)) from one set of matrix powers.

    H* = sum_j H^(j-1) c_j with c_j = (-1)^(j+1) sum_m f_m E_{nm-j}; it acts
    as the adjoint: H H* = H* H = Nrd(H) I, with the central element Nrd(H)
    recomposed into the group ring.
    """
    powers, E = _newton(H)
    G, n = H.group, H.nrows
    Hstar = None
    for j, power in enumerate(powers, start=1):
        c = _graded(G, n, E, j)
        if j % 2 == 0:
            c = c.scale(-1)
        term = power.scale_element(central_recompose(c))
        Hstar = term if Hstar is None else Hstar + term
    return Hstar, _graded(G, n, E, 0)


def commutative_ideal_lattice(G: FiniteGroup, generators, p: int, prec: int):
    """Canonical basis (integer HNF) of the Z_p[G]-span of `generators`
    inside Z[G]/p^prec; two ideals are equal mod p^prec iff these agree.

    Generator coefficients must be rational with denominators prime to p
    (prime-to-p denominators are units mod p^prec)."""
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
