"""Finite groups given by multiplication tables.

Provides conjugacy data, commutator subgroups, the integer structure
constants of the class algebra, and exact character tables over
Q(zeta_e), e the group exponent.

Character tables are computed by splitting the class algebra over a finite
field F_q with q = 1 (mod e) and lifting the eigenvalue data back to exact
cyclotomic integers; the lifted table is then verified against the first
orthogonality relation in exact arithmetic.  The structure constants are
also what group_algebra multiplies central elements with, so they are
computed once per group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import is_prime, primitive_root
from .cyclo import CycloNumber

MAX_ABELIAN_ORDER = 512
MAX_CHARTABLE_ORDER = 64

__all__ = [
    "FiniteGroup",
    "Character",
    "from_abelian_invariants",
    "named_group",
]


class FiniteGroup:
    """Immutable multiplication-table group on indices 0..m-1."""

    def __init__(self, mul, generators=None, name: str = "G", _trusted: bool = False):
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        self.name = name
        if not _trusted:
            self._validate(generators)
        self.id = self._find_identity()
        self.inv = tuple(self._find_inverse(g) for g in range(self.order))
        self._conj_data = None
        self._class_constants = None
        self._char_table = None

    # -- construction checks -------------------------------------------

    def _validate(self, generators):
        m = len(self.mul)
        for row in self.mul:
            if len(row) != m or any(not (0 <= x < m) for x in row):
                raise ValueError("malformed multiplication table")
        # latin square property (cancellation)
        for i in range(m):
            if len(set(self.mul[i])) != m or len({self.mul[j][i] for j in range(m)}) != m:
                raise ValueError("table is not a latin square")
        if generators is None and m > MAX_CHARTABLE_ORDER:
            generators = self._generating_set()
        if generators is None:
            gens = range(m)
        else:
            gens = generators
        # associativity on (gens, G, G) extends to all triples by induction
        # on word length
        for a in gens:
            for b in range(m):
                rowab = self.mul[self.mul[a][b]]
                ra = self.mul[a]
                rb = self.mul[b]
                for c in range(m):
                    if rowab[c] != ra[rb[c]]:
                        raise ValueError("multiplication table is not associative")

    def _generating_set(self):
        m = len(self.mul)
        gens = []
        span = {self._find_identity()}
        for g in range(m):
            if g in span:
                continue
            gens.append(g)
            frontier = [g]
            while frontier:
                x = frontier.pop()
                if x in span:
                    continue
                span.add(x)
                frontier.extend(self.mul[x][y] for y in list(span))
                frontier.extend(self.mul[y][x] for y in list(span))
            if len(span) == m:
                break
        return gens

    def _find_identity(self):
        for e in range(self.order):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(self.order)):
                return e
        raise ValueError("no identity element")

    def _find_inverse(self, g):
        for h in range(self.order):
            if self.mul[g][h] == self.id:
                return h
        raise ValueError("missing inverse")

    # -- basic structure ------------------------------------------------

    def power(self, g: int, k: int) -> int:
        result = self.id
        base = g
        k %= self.element_order(g)
        while k:
            if k & 1:
                result = self.mul[result][base]
            base = self.mul[base][base]
            k >>= 1
        return result

    @lru_cache(maxsize=None)
    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.id:
            x = self.mul[x][g]
            k += 1
        return k

    @property
    def exponent(self) -> int:
        e = 1
        for g in range(self.order):
            e = math.lcm(e, self.element_order(g))
        return e

    def conjugacy_classes(self):
        """(classes, class_of): classes sorted by minimal element, identity first."""
        if self._conj_data is not None:
            return self._conj_data
        m = self.order
        seen = [False] * m
        classes = []
        for g in range(m):
            if seen[g]:
                continue
            orbit = sorted({self.mul[self.mul[h][g]][self.inv[h]] for h in range(m)})
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
        classes.sort(key=lambda c: c[0])
        class_of = [0] * m
        for idx, cls in enumerate(classes):
            for x in cls:
                class_of[x] = idx
        self._conj_data = (tuple(classes), tuple(class_of))
        return self._conj_data

    def commutator_subgroup(self) -> frozenset[int]:
        comms = {self.mul[self.mul[self.mul[g][h]][self.inv[g]]][self.inv[h]]
                 for g in range(self.order) for h in range(self.order)}
        # close under multiplication (inverses of commutators are commutators)
        closure = set(comms) | {self.id}
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for y in list(closure):
                for z in (self.mul[x][y], self.mul[y][x]):
                    if z not in closure:
                        closure.add(z)
                        frontier.append(z)
        return frozenset(closure)

    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(self.order))

    def class_constants(self):
        """Integer structure constants of the class algebra, one r x r
        matrix N_i per class (r classes): with C_i the class sums,
        C_i * C_j = sum_k N_i[k][j] C_k.  N_i[k][j] counts the x in C_i
        with x^-1 z in C_j, for any fixed z in C_k."""
        if self._class_constants is None:
            classes, class_of = self.conjugacy_classes()
            reps = [c[0] for c in classes]
            mats = []
            for cls in classes:
                N = [[0] * len(classes) for _ in classes]
                for k, z in enumerate(reps):
                    for x in cls:
                        N[k][class_of[self.mul[self.inv[x]][z]]] += 1
                mats.append(tuple(tuple(row) for row in N))
            self._class_constants = tuple(mats)
        return self._class_constants

    # -- character table -------------------------------------------------

    def character_table(self, max_order: int = MAX_CHARTABLE_ORDER):
        if self._char_table is None:
            if self.order > max_order:
                raise ValueError(f"group order {self.order} exceeds bound {max_order}")
            table = _dixon_character_table(self)
            _verify_character_table(self, table)
            self._char_table = table
        return self._char_table

    def to_json(self) -> dict:
        return {"table": [list(r) for r in self.mul]}

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Character:
    """Irreducible character: one exact cyclotomic value per conjugacy class."""

    index: int
    degree: int
    values: tuple[CycloNumber, ...]

    def to_json(self) -> dict:
        return {"degree": self.degree, "values": [v.to_json() for v in self.values]}


# ---------------------------------------------------------------------------
# constructions


def from_abelian_invariants(invariants, max_order: int = MAX_ABELIAN_ORDER) -> FiniteGroup:
    """Direct product of cyclic groups Z/d_i, lexicographic element indexing."""
    invariants = list(invariants)
    if any(d < 2 for d in invariants):
        raise ValueError("all invariants must be >= 2")
    order = math.prod(invariants) if invariants else 1
    if order > max_order:
        raise ValueError(f"order {order} exceeds maximum {max_order}")
    tuples = list(itertools.product(*[range(d) for d in invariants])) or [()]
    index = {t: i for i, t in enumerate(tuples)}
    mul = [[index[tuple((a + b) % d for a, b, d in zip(x, y, invariants))]
            for y in tuples] for x in tuples]
    gens = [index[t] for t in
            [tuple(1 if i == j else 0 for j in range(len(invariants)))
             for i in range(len(invariants))]]
    name = "x".join(f"C{d}" for d in invariants) or "C1"
    return FiniteGroup(mul, generators=gens, name=name)


def _perm_group(perms, name):
    elems = []
    frontier = [tuple(range(len(perms[0])))] + [tuple(p) for p in perms]
    while frontier:
        p = frontier.pop()
        if p in elems:
            continue
        elems.append(p)
        for q in list(elems):
            frontier.append(tuple(p[i] for i in q))
            frontier.append(tuple(q[i] for i in p))
    elems.sort()
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[i] for i in q)] for q in elems] for p in elems]
    return FiniteGroup(mul, name=name)


def _quaternion_group():
    # units {±1, ±i, ±j, ±k} as (sign, axis): axis 0..3 = 1, i, j, k
    basis = {}
    table = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
    elems = [(s, a) for a in range(4) for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}
    mul = []
    for (s1, a1) in elems:
        row = []
        for (s2, a2) in elems:
            s, a = table[a1][a2]
            row.append(index[(s * s1 * s2, a)])
        mul.append(row)
    return FiniteGroup(mul, name="Q8")


@lru_cache(maxsize=None)
def named_group(name: str) -> FiniteGroup:
    name = name.upper()
    if name.startswith("C") and name[1:].isdigit():
        return from_abelian_invariants([int(name[1:])])
    if name in ("V4", "C2XC2"):
        return from_abelian_invariants([2, 2])
    if name == "S3":
        return _perm_group([(1, 0, 2), (1, 2, 0)], "S3")
    if name == "S4":
        return _perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "S4")
    if name == "A4":
        return _perm_group([(1, 0, 3, 2), (1, 2, 0, 3)], "A4")
    if name == "D4":
        # symmetries of the square as permutations of its vertices
        return _perm_group([(1, 2, 3, 0), (1, 0, 3, 2)], "D4")
    if name == "Q8":
        return _quaternion_group()
    raise ValueError(f"unknown group name {name!r}")


def group_from_json(data: dict) -> FiniteGroup:
    if "abelian" in data:
        return from_abelian_invariants(data["abelian"])
    if "table" in data:
        return FiniteGroup(data["table"])
    if "name" in data:
        return named_group(data["name"])
    raise ValueError("group JSON needs 'abelian', 'table' or 'name'")


# ---------------------------------------------------------------------------
# character table: finite-field splitting of the class algebra + exact lift


def _dixon_character_table(G: FiniteGroup):
    classes, class_of = G.conjugacy_classes()
    k = len(classes)
    e = G.exponent
    q = e + 1
    while not (is_prime(q) and q > 2 * G.order):
        q += e
    # N_i is the matrix of multiplication by the class sum C_i
    reps = [c[0] for c in classes]
    Nmats = G.class_constants()
    spaces = [[_unit_vec(k, j, q) for j in range(k)]]
    for i in range(k):
        if all(len(sp) == 1 for sp in spaces):
            break
        new_spaces = []
        for sp in spaces:
            if len(sp) == 1:
                new_spaces.append(sp)
                continue
            new_spaces.extend(_split_space(sp, Nmats[i], q))
        spaces = new_spaces
    if any(len(sp) > 1 for sp in spaces):
        raise RuntimeError("class algebra failed to split completely")
    omegas = []
    for sp in spaces:
        v = sp[0]
        j0 = next(j for j in range(k) if v[j])
        vinv = pow(v[j0], -1, q)
        om = []
        for i in range(k):
            Nv = [sum(Nmats[i][r][c] * v[c] for c in range(k)) % q for r in range(k)]
            om.append(Nv[j0] * vinv % q)
        omegas.append(om)

    inv_class = [class_of[G.inv[reps[i]]] for i in range(k)]
    z = pow(primitive_root(q), (q - 1) // e, q)  # of exact order e
    chars = []
    for om in omegas:
        t = 0
        for i in range(k):
            t += om[i] * om[inv_class[i]] * pow(len(classes[i]), -1, q)
        t %= q
        n2 = G.order * pow(t, -1, q) % q
        degree = next(n for n in range(1, G.order + 1) if n * n % q == n2)
        chi_mod = [degree * om[i] * pow(len(classes[i]), -1, q) % q for i in range(k)]
        values = []
        for i in range(k):
            d = G.element_order(reps[i])
            powers = [chi_mod[class_of[G.power(reps[i], j)]] for j in range(d)]
            zd = pow(z, e // d, q)
            dinv = pow(d, -1, q)
            val = CycloNumber.zero()
            for kk in range(d):
                m = sum(powers[j] * pow(zd, -j * kk % (q - 1), q) for j in range(d))
                m = m * dinv % q
                if m > degree:
                    raise RuntimeError("character lift out of range")
                if m:
                    val = val + m * CycloNumber.zeta(d, kk)
            values.append(val)
        chars.append((degree, values))
    chars.sort(key=lambda c: (c[0], [v.to_json() for v in c[1]] != [CycloNumber.one().to_json()] * k,
                              str([v.to_json() for v in c[1]])))
    return tuple(Character(i, deg, tuple(vals)) for i, (deg, vals) in enumerate(chars))


def _unit_vec(k, j, q):
    v = [0] * k
    v[j] = 1
    return v


def _modq_rref(M, q):
    R = [row[:] for row in M]
    rows, cols = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i][c] % q), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][c], -1, q)
        R[r] = [x * inv % q for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] % q:
                f = R[i][c]
                R[i] = [(a - f * b) % q for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def _split_space(basis, N, q):
    """Split a subspace (list of coordinate vectors) into eigenspaces of N mod q."""
    k = len(basis[0])
    dim = len(basis)
    B = [[basis[j][i] for j in range(dim)] for i in range(k)]  # k x dim
    images = []
    for b in basis:
        images.append([sum(N[r][c] * b[c] for c in range(k)) % q for r in range(k)])
    # coordinates of images in the basis: solve B * x = img
    aug = [[B[i][j] for j in range(dim)] + [img[i] for img in images] for i in range(k)]
    R, pivots = _modq_rref(aug, q)
    if len(pivots) < dim or any(p >= dim for p in pivots):
        raise RuntimeError("basis is degenerate")
    A = [[R[i][dim + j] for j in range(dim)] for i in range(dim)]
    charpoly = _modq_charpoly(A, q)
    out = []
    for lam in range(q):
        # Horner evaluation
        acc = 0
        for c in reversed(charpoly):
            acc = (acc * lam + c) % q
        if acc:
            continue
        M = [[(A[i][j] - (lam if i == j else 0)) % q for j in range(dim)] for i in range(dim)]
        ker = _modq_kernel(M, q)
        if ker:
            out.append([[sum(basis[j][i] * v[j] for j in range(dim)) % q for i in range(k)]
                        for v in ker])
    if sum(len(s) for s in out) != dim:
        raise RuntimeError("eigenvalue search incomplete")
    return out


def _modq_charpoly(A, q):
    """char poly coefficients (ascending) of A mod q by trace recursion."""
    n = len(A)
    # Faddeev-LeVerrier; q is prime and > n so the divisions by m exist mod q
    Mcur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = [1]
    for m in range(1, n + 1):
        AM = [[sum(A[i][t] * Mcur[t][j] for t in range(n)) % q for j in range(n)]
              for i in range(n)]
        tr = sum(AM[i][i] for i in range(n)) % q
        cm = (-tr * pow(m, -1, q)) % q
        cs.append(cm)
        Mcur = [[(AM[i][j] + (cm if i == j else 0)) % q for j in range(n)] for i in range(n)]
    # cs[m] is the coefficient of x^(n-m)
    return [cs[n - i] % q for i in range(n + 1)]


def _modq_kernel(M, q):
    rows = len(M)
    cols = len(M[0])
    R, pivots = _modq_rref(M, q)
    pivot_set = set(pivots)
    out = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i][free]) % q
        out.append(v)
    return out


def _verify_character_table(G: FiniteGroup, table):
    classes, class_of = G.conjugacy_classes()
    k = len(classes)
    if len(table) != k:
        raise RuntimeError("wrong number of irreducible characters")
    if sum(chi.degree ** 2 for chi in table) != G.order:
        raise RuntimeError("degree sum check failed")
    zero = CycloNumber.zero()
    for a, chi in enumerate(table):
        for b in range(a, k):
            psi = table[b]
            inner = zero
            for i in range(k):
                j = class_of[G.inv[classes[i][0]]]
                inner = inner + len(classes[i]) * (chi.values[i] * psi.values[j])
            expect = CycloNumber.from_rational(G.order if a == b else 0)
            if inner != expect:
                raise RuntimeError("first orthogonality failed")
