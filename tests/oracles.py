"""Reference implementations that the library replaced, kept as test oracles.

* The irreducible-representation route to reduced norms and adjoints:
  explicit irreps over Q(zeta_e) built by dense linear algebra, the block
  matrix rho_chi(H) and a cyclotomic Faddeev-LeVerrier characteristic
  polynomial per character.  equivlk.group_algebra now computes the same
  Nrd(H) and H* by Newton's identities in the centre.
* FractionElement / FractionMatrix: the group ring with one duck-typed
  coefficient (Fraction or CycloNumber) per group element, which the
  integer-numerator GroupRingElement replaced.
* kernel_mod, the kernel of an integer matrix mod m.
* reduce_conductor_by_solver, the conductor descent by Gauss-Jordan
  elimination of the embedding Q(zeta_d) -> Q(zeta_n), which the
  closed-form relative trace in equivlk.cyclo replaced.
* FractionCyclo, the CycloNumber with one Fraction per power-basis
  coordinate, which the integer-numerator CycloNumber replaced, and
  from_fractions, which builds a CycloNumber from Fraction coordinates.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from equivlk.arith import factorize
from equivlk.cyclo import (CycloNumber, _power_sum, _power_table,
                          _reduce_conductor, euler_phi)
from equivlk.snf import smith_normal_form


# ---------------------------------------------------------------------------
# dense exact linear algebra over CycloNumber entries


def cyclo_inverse(x: CycloNumber) -> CycloNumber:
    """x^-1 = prod_{sigma != 1} sigma(x) / N(x), N(x) = prod_sigma sigma(x)
    the rational norm of Q(zeta_n)/Q (Washington, Introduction to Cyclotomic
    Fields, ch. 2); ZeroDivisionError for x = 0."""
    rest = CycloNumber.one()
    for t in range(2, x.n):
        if gcd(t, x.n) == 1:
            rest = rest * x.galois(t)
    return rest * (1 / (x * rest).to_fraction())

def mat_mul(A, B, zero):
    n, k, m = len(A), len(B), len(B[0])
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == zero:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                b = Bt[j]
                if b != zero:
                    row[j] = row[j] + a * b
    return out


def rref(M, zero):
    """Row-reduce a copy of M; returns (R, pivot_columns)."""
    R = [list(row) for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i][c] != zero), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = cyclo_inverse(R[r][c])
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != zero:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def solve(M, rhs, zero):
    """One solution x of M x = rhs, or None if inconsistent."""
    rows = len(M)
    cols = len(M[0])
    aug = [list(M[i]) + [rhs[i]] for i in range(rows)]
    R, pivots = rref(aug, zero)
    for i in range(len(pivots), rows):
        if R[i][cols] != zero:
            return None
    if pivots and pivots[-1] == cols:
        return None
    x = [zero] * cols
    for i, c in enumerate(pivots):
        x[c] = R[i][cols]
    return x


def kernel_basis(M, zero, one):
    """Basis of the right kernel of M."""
    cols = len(M[0]) if M else 0
    R, pivots = rref(M, zero)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [zero] * cols
        v[free] = one
        for i, c in enumerate(pivots):
            v[c] = zero - R[i][free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# explicit irreducible representations


@dataclass(frozen=True)
class Irrep:
    character: object
    matrices: tuple  # one n x n CycloNumber matrix per group element


_IRREPS = {}


def irreducible_representation(G, chi) -> Irrep:
    key = (id(G), chi.index)
    if key not in _IRREPS:
        _IRREPS[key] = (G, _build_irrep(G, chi))
    return _IRREPS[key][1]


def _left_mult_matrix_entries(G, coeffs):
    """|G| x |G| CycloNumber matrix of left multiplication by sum coeffs[g]*g."""
    m = G.order
    zero = CycloNumber.zero()
    M = [[zero] * m for _ in range(m)]
    for g, c in enumerate(coeffs):
        if c.is_zero:
            continue
        for y in range(m):
            M[G.mul[g][y]][y] = M[G.mul[g][y]][y] + c
    return M


def _build_irrep(G, chi) -> Irrep:
    classes, class_of = G.conjugacy_classes()
    m = G.order
    n = chi.degree
    zero = CycloNumber.zero()
    one = CycloNumber.one()
    if n == 1:
        mats = tuple(((chi.values[class_of[g]],),) for g in range(m))
        return Irrep(chi, mats)

    # central idempotent e = (n/|G|) sum chi(g^-1) g
    scale = Fraction(n, m)
    e_coeffs = [scale * chi.values[class_of[G.inv[g]]] for g in range(m)]
    E = _left_mult_matrix_entries(G, e_coeffs)

    # find a group element with a multiplicity-one eigenvalue in this irrep;
    # the eigenvalue multiplicity of zeta_d^k in rho(g) is the discrete
    # Fourier transform of j -> chi(g^j)
    pick = None
    for g in range(m):
        d = G.element_order(g)
        if d == 1:
            continue
        powers = [chi.values[class_of[G.power(g, j)]] for j in range(d)]
        for kk in range(d):
            mult = zero
            for j in range(d):
                mult = mult + powers[j] * CycloNumber.zeta(d, (-j * kk) % d)
            mult = mult * Fraction(1, d)
            if mult == one:
                pick = (g, CycloNumber.zeta(d, kk))
                break
        if pick:
            break
    if pick is None:
        raise RuntimeError("no simple eigenvalue found; cannot realize this irrep")
    g0, lam = pick

    # w with e*w = w and g0*w = lam*w: every such w generates a minimal ideal
    rows = []
    for i in range(m):
        row = list(E[i])
        row[i] = row[i] - one
        rows.append(row)
    for i in range(m):  # rows of L_{g0} - lam: (g0 * w)_i = w_{g0^{-1} i}
        row = [zero] * m
        j = G.mul[G.inv[g0]][i]
        row[j] = row[j] + one
        row[i] = row[i] - lam
        rows.append(row)
    ker = kernel_basis(rows, zero, one)
    if not ker:
        raise RuntimeError("no eigenvector found for irrep construction")
    w0 = ker[0]

    # module basis: span of { g*w0 }
    span_rows = []
    basis_vecs = []
    for g in range(m):
        vec = [zero] * m
        for i in range(m):
            if w0[i] != zero:
                vec[G.mul[g][i]] = vec[G.mul[g][i]] + w0[i]
        cand = span_rows + [vec]
        if len(rref(cand, zero)[1]) > len(basis_vecs):
            span_rows.append(vec)
            basis_vecs.append(vec)
        if len(basis_vecs) == n:
            break
    if len(basis_vecs) != n:
        raise RuntimeError("generated module has wrong dimension")

    # matrices: coordinates of g*b_i in the basis
    B_cols = [[basis_vecs[j][i] for j in range(n)] for i in range(m)]  # m x n
    mats = []
    for g in range(m):
        cols = []
        for bi in basis_vecs:
            img = [zero] * m
            for i in range(m):
                if bi[i] != zero:
                    img[G.mul[g][i]] = img[G.mul[g][i]] + bi[i]
            coords = _solve_coords(B_cols, img, zero)
            cols.append(coords)
        mats.append(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))
    irrep = Irrep(chi, tuple(mats))
    _verify_irrep(G, irrep)
    return irrep


def _solve_coords(B, rhs, zero):
    x = solve(B, rhs, zero)
    if x is None:
        raise RuntimeError("image left the module span")
    return x


def _verify_irrep(G, irrep: Irrep):
    classes, class_of = G.conjugacy_classes()
    chi = irrep.character
    n = chi.degree
    zero = CycloNumber.zero()
    for g in range(G.order):
        tr = zero
        for i in range(n):
            tr = tr + irrep.matrices[g][i][i]
        if tr != chi.values[class_of[g]]:
            raise RuntimeError("trace mismatch in irrep")
    for g in range(G.order):
        for h in range(G.order):
            prod = mat_mul([list(r) for r in irrep.matrices[g]],
                           [list(r) for r in irrep.matrices[h]], zero)
            gh = irrep.matrices[G.mul[g][h]]
            if any(prod[i][j] != gh[i][j] for i in range(n) for j in range(n)):
                raise RuntimeError("homomorphism property failed in irrep")


# ---------------------------------------------------------------------------
# the group ring with duck-typed coefficients


class FractionElement:
    """Element sum_g coeffs[g] * g, coefficients Fraction or CycloNumber."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise ValueError("coefficient list has wrong length")
        self.group = group
        self.coeffs = coeffs

    @staticmethod
    def from_element(x) -> "FractionElement":
        """The oracle copy of an equivlk GroupRingElement."""
        return FractionElement(x.group, x.coeffs)

    def __add__(self, other):
        return FractionElement(self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FractionElement(self.group, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionElement):
            return self.scale(other)
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
        return FractionElement(G, [zero if c is None else c for c in out])

    def scale(self, scalar) -> "FractionElement":
        return FractionElement(self.group, [scalar * c for c in self.coeffs])

    def map_coeffs(self, f) -> "FractionElement":
        return FractionElement(self.group, [f(c) for c in self.coeffs])

    def __eq__(self, other):
        return self.group is other.group and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))


class FractionMatrix:
    """Square or rectangular matrix of FractionElement entries."""

    def __init__(self, group, entries):
        self.group = group
        self.entries = tuple(tuple(row) for row in entries)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_matrix(H) -> "FractionMatrix":
        return FractionMatrix(H.group, [[FractionElement.from_element(x) for x in row]
                                        for row in H.entries])

    @staticmethod
    def identity(group, n: int) -> "FractionMatrix":
        one = [Fraction(int(g == group.id)) for g in range(group.order)]
        zero = [Fraction(0)] * group.order
        return FractionMatrix(group, [[FractionElement(group, one if i == j else zero)
                                       for j in range(n)] for i in range(n)])

    def __add__(self, other):
        return FractionMatrix(self.group, [[a + b for a, b in zip(r1, r2)]
                                           for r1, r2 in zip(self.entries, other.entries)])

    def __mul__(self, other):
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = self.entries[i][0] * other.entries[0][j]
                for t in range(1, self.ncols):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            rows.append(row)
        return FractionMatrix(self.group, rows)

    def scale_element(self, x) -> "FractionMatrix":
        return FractionMatrix(self.group, [[e * x for e in row] for row in self.entries])


# ---------------------------------------------------------------------------
# reduced characteristic polynomials, norms and adjoints through the irreps


def apply_irrep(H, chi):
    """Block matrix rho_chi(H), (n*n_chi) x (n*n_chi) cyclotomic, for H over Q[G]."""
    G = H.group
    rho = irreducible_representation(G, chi)
    d = chi.degree
    zero = CycloNumber.zero()
    M = [[zero] * (H.ncols * d) for _ in range(H.nrows * d)]
    for i, hrow in enumerate(H.entries):
        for j, x in enumerate(hrow):
            for g, c in enumerate(x.coeffs):
                if c == 0:
                    continue
                mat = rho.matrices[g]
                for a in range(d):
                    row = M[i * d + a]
                    for b in range(d):
                        row[j * d + b] = row[j * d + b] + c * mat[a][b]
    return M


def charpoly_exact(A) -> list:
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
        AM = mat_mul(A, Mcur, zero)
        tr = zero
        for i in range(n):
            tr = tr + AM[i][i]
        cm = tr * Fraction(-1, m)
        cs.append(cm)
        Mcur = [[AM[i][j] + cm if i == j else AM[i][j] for j in range(n)] for i in range(n)]
    return [cs[n - i] for i in range(n + 1)]


def reduced_char_poly(H) -> list:
    """Per character, ascending coefficients of charpoly(rho_chi(H))."""
    return [charpoly_exact(apply_irrep(H, chi)) for chi in H.group.character_table()]


def recompose_components(G, values) -> FractionElement:
    """sum_chi v_chi e_chi, e_chi = (n_chi/|G|) sum_g chi(g^-1) g, with one
    cyclotomic sum per group element; the result must be rational."""
    _, class_of = G.conjugacy_classes()
    table = G.character_table()
    coeffs = []
    for g in range(G.order):
        k = class_of[G.inv[g]]
        total = CycloNumber.zero()
        for chi, v in zip(table, values):
            total = total + v * chi.values[k] * Fraction(chi.degree, G.order)
        if not total.is_rational:
            raise RuntimeError("central element is not rational")
        coeffs.append(total.to_fraction())
    return FractionElement(G, coeffs)


def irrep_adjoint_and_norm(H):
    """(H*, Nrd(H) per character) with c_j = sum_chi (-1)^(deg+1) alpha_{chi,j}
    e_chi recomposed from the characteristic polynomials and H* = sum_j
    H^(j-1) c_j assembled over Fractions."""
    G = H.group
    polys = reduced_char_poly(H)
    Hf = FractionMatrix.from_matrix(H)
    zero = CycloNumber.zero()
    power = FractionMatrix.identity(G, H.nrows)
    Hstar = None
    for j in range(1, max(len(p) for p in polys)):
        if j > 1:
            power = power * Hf
        c = recompose_components(G, [
            zero if j >= len(p) else p[j] if len(p) % 2 == 0 else -p[j] for p in polys])
        term = power.scale_element(c)
        Hstar = term if Hstar is None else Hstar + term
    return Hstar, tuple(p[0] if len(p) % 2 else -p[0] for p in polys)


# ---------------------------------------------------------------------------
# integer kernels mod m


def kernel_mod(A, m: int):
    """Basis (as columns x, returned as row vectors) of the lattice
    { x in Z^cols : A x = 0 mod m }, expressed by generators mod m.

    Returns a list of vectors that generate the kernel of
    Z^cols -> (Z/m)^rows together with m*Z^cols.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if rows == 0 or cols == 0:
        return [[int(i == j) for j in range(cols)] for i in range(cols)]
    D, U, V = smith_normal_form(A)
    gens = []
    r = min(rows, cols)
    for i in range(cols):
        d = D[i][i] if i < r else 0
        if d == 0:
            scale = 1
        else:
            scale = m // gcd(d, m)
        if scale % m == 0 and d != 0 and gcd(d, m) == 1:
            # x contributes only multiples of m; covered by the m-lattice
            continue
        vec = [V[row][i] * scale % m for row in range(cols)]
        if any(vec):
            gens.append(vec)
    return gens


# ---------------------------------------------------------------------------
# conductor descent by Gauss-Jordan elimination


@lru_cache(maxsize=None)
def _descent_solver(n: int, d: int):
    """Solver data for expressing conductor-n elements in Q(zeta_d), d | n.

    Returns (den, rows, pivots, rank): den * T = rows is an integer matrix,
    for T the row-operation matrix of a row reduction of the
    phi(n) x phi(d) embedding matrix M, and pivots maps each pivot row to
    its column.  An element v descends iff the non-pivot rows of T v vanish;
    its Q(zeta_d) coordinates are the pivot rows of T v.
    """
    phi_n = euler_phi(n)
    phi_d = euler_phi(d)
    table = _power_table(n)
    step = n // d
    # column j of M = coordinates of zeta_d^j = zeta_n^(j * step)
    M = [[Fraction(table[j * step][i]) for j in range(phi_d)] for i in range(phi_n)]
    T = [[Fraction(1 if i == j else 0) for j in range(phi_n)] for i in range(phi_n)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(phi_d):
        piv = next((r for r in range(row, phi_n) if M[r][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        T[row], T[piv] = T[piv], T[row]
        inv = 1 / M[row][col]
        M[row] = [x * inv for x in M[row]]
        T[row] = [x * inv for x in T[row]]
        for r in range(phi_n):
            if r != row and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[row])]
                T[r] = [a - f * b for a, b in zip(T[r], T[row])]
        pivots.append((row, col))
        row += 1
    den = lcm(*(x.denominator for r in T for x in r))
    rows = tuple(tuple(int(x * den) for x in r) for r in T)
    return den, rows, tuple(pivots), row


def reduce_conductor_by_solver(n: int, coeffs) -> tuple[int, tuple[Fraction, ...]]:
    """(d, coordinates) of sum_k coeffs[k] zeta_n^k at its minimal
    conductor d, descending one prime at a time through _descent_solver."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    nums = [int(Fraction(c) * den) for c in coeffs]
    while n > 1:
        for p, _ in factorize(n):
            d = n // p
            sden, T, pivots, rank = _descent_solver(n, d)
            tv = [sum(t * x for t, x in zip(T[r], nums)) for r in range(len(nums))]
            if any(tv[rank:]):
                continue
            new = [0] * euler_phi(d)
            for row, col in pivots:
                new[col] = tv[row]
            n, nums, den = d, new, den * sden
            break
        else:
            break
    return n, tuple(Fraction(x, den) for x in nums)


# ---------------------------------------------------------------------------
# the Fraction-coefficient CycloNumber


def from_fractions(n: int, coeffs) -> CycloNumber:
    """The CycloNumber sum_k coeffs[k] zeta_n^k for rational coeffs[k]."""
    den, nums = _numerators([Fraction(c) for c in coeffs])
    return CycloNumber(n, nums, den=den)


def _numerators(coeffs) -> tuple[int, list[int]]:
    """(den, nums) with coeffs[k] = nums[k] / den, den the least common
    denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _over(nums, den: int) -> list[Fraction]:
    return [Fraction(x, den) for x in nums]


class FractionCyclo:
    """An exact element of some Q(zeta_n), normalized to minimal conductor,
    with one Fraction per power-basis coordinate.  Its integer loops convert
    the Fractions to numerators over one denominator and back."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs, normalize: bool = True):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ValueError(f"need phi({n}) = {euler_phi(n)} coefficients, got {len(coeffs)}")
        if normalize and n > 1:
            den, nums = _numerators(coeffs)
            d, nums, scale = _reduce_conductor(n, nums)
            if d != n:
                n, coeffs = d, tuple(_over(nums, den * scale))
        self.n = n
        self.coeffs = coeffs

    @staticmethod
    def zero() -> "FractionCyclo":
        return FractionCyclo(1, (Fraction(0),), normalize=False)

    def lift(self, m: int) -> tuple[Fraction, ...]:
        """Coordinates of self on the conductor-m power basis (n | m)."""
        if m == self.n:
            return self.coeffs
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        den, nums = _numerators(self.coeffs)
        return tuple(_over(_power_sum(m, nums, m // self.n), den))

    def _common(self, other: "FractionCyclo"):
        m = self.n * other.n // gcd(self.n, other.n)
        return m, self.lift(m), other.lift(m)

    def __add__(self, other):
        other = _coerce_fraction_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return FractionCyclo(1, (self.coeffs[0] + other.coeffs[0],), normalize=False)
        m, a, b = self._common(other)
        return FractionCyclo(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclo(self.n, tuple(-c for c in self.coeffs), normalize=False)

    def __sub__(self, other):
        other = _coerce_fraction_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_fraction_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1:
            q = self.coeffs[0]
            if q == 0:
                return FractionCyclo.zero()
            return FractionCyclo(other.n, tuple(q * c for c in other.coeffs), normalize=False)
        if other.n == 1:
            q = other.coeffs[0]
            if q == 0:
                return FractionCyclo.zero()
            return FractionCyclo(self.n, tuple(q * c for c in self.coeffs), normalize=False)
        m, a, b = self._common(other)
        phi = euler_phi(m)
        table = _power_table(m)
        den_a, a = _numerators(a)
        den_b, b = _numerators(b)
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:phi]
        for e in range(phi, 2 * phi - 1):
            c = conv[e]
            if c:
                for j, rj in enumerate(table[e]):
                    if rj:
                        out[j] += c * rj
        return FractionCyclo(m, _over(out, den_a * den_b))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_fraction_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def galois(self, t: int) -> "FractionCyclo":
        """Image under zeta_n -> zeta_n^t; t must be coprime to the conductor."""
        if gcd(t, self.n) != 1:
            raise ValueError(f"{t} not coprime to conductor {self.n}")
        if self.n == 1:
            return self
        den, nums = _numerators(self.coeffs)
        return FractionCyclo(self.n, _over(_power_sum(self.n, nums, t), den))

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}


def _coerce_fraction_cyclo(x):
    if isinstance(x, FractionCyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionCyclo(1, (Fraction(x),), normalize=False)
    return NotImplemented
