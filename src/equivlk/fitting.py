"""Noncommutative Fitting invariants of finitely presented Z[G]-modules.

A presentation is an a x b relation matrix A over Z[G]: the module is
M = Z[G]^b / <rows of A>.  The (zeroth) reduced-norm Fitting invariant is
generated by Nrd(S) over all b x b submatrices S formed by choosing b rows
of A (it is zero when a < b).

Everything p-adic here is brute force on the finite module M/p^N: cokernel
structure via integer Smith forms, annihilation by reduction against the
Hermite form of the relation lattice plus p^N Z^n.  That is exactly what
makes the results independently checkable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .arith import pval
from .group_algebra import (GroupRingElement, GroupRingMatrix,
                            adjoint_and_norm, central_recompose, reduced_norm)
from .groups import FiniteGroup
from .snf import hermite_normal_form, smith_normal_form

__all__ = [
    "Presentation",
    "FittClass",
    "fitting_invariant",
    "cokernel_module",
    "annihilates",
    "annihilation_check",
    "denominator_trivial",
    "adjoint_integrality_probe",
    "commutative_determinant",
]

MINOR_CAP = 5000


@dataclass(frozen=True)
class Presentation:
    """M = Z[G]^b / (rows of relations); relations is a x b over Z[G]."""

    group: FiniteGroup
    relations: GroupRingMatrix

    @property
    def num_generators(self) -> int:
        return self.relations.ncols

    @staticmethod
    def from_integer_data(group: FiniteGroup, data) -> "Presentation":
        return Presentation(group, GroupRingMatrix.from_rational_entries(group, data))


@dataclass(frozen=True)
class FittClass:
    """Fitting invariant, kept as its reduced-norm generators, rational
    central elements whose Wedderburn components to_json prints.  is_zero
    marks the a < b case."""

    group: FiniteGroup
    generators: tuple  # CentralElement per chosen row subset
    is_zero: bool

    def recomposed_generators(self) -> list[GroupRingElement]:
        return [central_recompose(v) for v in self.generators]

    def to_json(self) -> dict:
        return {
            "zero": self.is_zero,
            "generators": [v.to_json() for v in self.generators],
        }


def fitting_invariant(pres: Presentation, minor_cap: int = MINOR_CAP) -> FittClass:
    A = pres.relations
    a, b = A.nrows, A.ncols
    if a < b:
        return FittClass(pres.group, (), True)
    if comb(a, b) > minor_cap:
        raise ValueError(f"too many {b}x{b} row choices ({comb(a, b)} > {minor_cap})")
    gens = []
    for rows in itertools.combinations(range(a), b):
        S = GroupRingMatrix(pres.group, [A.entries[i] for i in rows])
        gens.append(reduced_norm(S))
    return FittClass(pres.group, tuple(gens), False)


# ---------------------------------------------------------------------------
# integer expansion of the relation lattice


def _int_coeffs(x: GroupRingElement):
    if x.den != 1:
        raise ValueError("integral coefficients required")
    return x.nums


def expand_relations(pres: Presentation):
    """Z-relation matrix of M as an abelian group on basis (j, h), j < b,
    h in G; one integer row per (relation i, group element g) giving g*r_i."""
    G = pres.group
    m = G.order
    A = pres.relations
    rows = []
    for i in range(A.nrows):
        coeff_lists = [_int_coeffs(A.entries[i][j]) for j in range(A.ncols)]
        for g in range(m):
            row = [0] * (A.ncols * m)
            for j in range(A.ncols):
                cj = coeff_lists[j]
                for x in range(m):
                    if cj[x]:
                        row[j * m + G.mul[g][x]] += cj[x]
            rows.append(row)
    return rows


def cokernel_module(pres: Presentation, p: int | None = None):
    """Invariant factors of M as an abelian group; with p given, only the
    p-power parts (0 stands for a free Z_p summand)."""
    R = expand_relations(pres)
    n = pres.num_generators * pres.group.order
    D, _, _ = smith_normal_form(R)
    diag = [D[i][i] for i in range(min(len(D), n))] if R else []
    diag += [0] * (n - len(diag))
    if p is None:
        return [d for d in diag if d != 1]
    out = []
    for d in diag:
        if d == 0:
            out.append(0)
        elif d % p == 0:
            out.append(p ** pval(d, p))
    return out


def _lattice_hnf(pres: Presentation, p: int, N: int):
    """HNF basis of (relation lattice + p^N Z^n); full rank n."""
    n = pres.num_generators * pres.group.order
    q = p ** N
    rows = expand_relations(pres) + [[q * (i == j) for j in range(n)] for i in range(n)]
    return hermite_normal_form(rows)


def _reduce_against(H, v):
    v = list(v)
    # H is in row HNF with pivots left to right
    ri = 0
    pivots = []
    for row in H:
        c = next(i for i, x in enumerate(row) if x)
        pivots.append((c, row))
    for c, row in pivots:
        if v[c]:
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
    return v


def _action_vectors(pres: Presentation, coeffs):
    """For z = sum coeffs[g] g: the vectors z*e_j in the (j, h) basis."""
    G = pres.group
    m = G.order
    n = pres.num_generators * m
    vecs = []
    for j in range(pres.num_generators):
        v = [0] * n
        for g, c in enumerate(coeffs):
            if c:
                v[j * m + g] += c
        vecs.append(v)
    return vecs


def annihilates(pres: Presentation, coeffs, p: int, N: int) -> bool:
    """Does z = sum coeffs[g] g kill M/p^N (acting on each generator)?"""
    H = _lattice_hnf(pres, p, N)
    return all(all(x % p ** N == 0 for x in _reduce_against(H, v))
               for v in _action_vectors(pres, coeffs))


def denominator_trivial(G: FiniteGroup, p: int) -> bool:
    """True when p does not divide |G'|, so reduced-norm Fitting generators
    are already p-integral and annihilation needs no correction factor."""
    return len(G.commutator_subgroup()) % p != 0


def annihilation_check(pres: Presentation, p: int, N: int):
    """Check that each Fitting generator, after clearing any p-denominator,
    annihilates M/p^N.

    Returns a list of dicts (one per generator) with the p-power h_exp that
    had to be cleared (0 whenever p is prime to |G'|) and the verdict.
    """
    fitt = fitting_invariant(pres)
    results = []
    trivial = denominator_trivial(pres.group, p)
    for z in fitt.recomposed_generators():
        h_exp = max(pval(c.denominator, p) for c in z.coeffs)
        if trivial and h_exp:
            raise RuntimeError("unexpected p-denominator with p prime to |G'|")
        q = p ** N
        # p^h_exp * c is p-integral; prime-to-p denominators are units mod p^N
        scaled = []
        for c in z.coeffs:
            t = c * p ** h_exp
            scaled.append(t.numerator * pow(t.denominator, -1, q) % q)
        ok = annihilates(pres, scaled, p, N)
        results.append({"h_exponent": h_exp, "annihilates": ok})
    return results


# ---------------------------------------------------------------------------
# adjoint integrality probe


def adjoint_integrality_probe(H: GroupRingMatrix, p: int):
    """Minimum p-valuation over all coefficients of H*; negative means H*
    falls outside Z_p[G] and is an integrality witness for p."""
    Hstar, _ = adjoint_and_norm(H)
    vals = []
    for row in Hstar.entries:
        for x in row:
            vals += [pval(c, p) for c in x.coeffs if c]
    return min(vals, default=0)


def commutative_determinant(A: GroupRingMatrix) -> GroupRingElement:
    """Determinant over a commutative group ring by cofactor expansion."""
    if not A.group.is_abelian():
        raise ValueError("commutative determinant needs an abelian group")
    n = A.nrows
    if n != A.ncols:
        raise ValueError("square matrix required")

    def det(rows, cols):
        if len(cols) == 1:
            return A.entries[rows[0]][cols[0]]
        acc = None
        for t, c in enumerate(cols):
            minor = det(rows[1:], cols[:t] + cols[t + 1:])
            term = A.entries[rows[0]][c] * minor
            if t % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return det(tuple(range(n)), tuple(range(n)))
