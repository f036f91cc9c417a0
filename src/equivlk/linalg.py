"""Dense exact linear algebra over any field-like coefficient type.

Entries need +, -, *, /, equality with 0/1 semantics supplied by the caller
through `zero` and `one` elements (Fraction and CycloNumber both work).
Sizes here are tiny (<= ~64), plain Gaussian elimination is enough.
"""

from __future__ import annotations

__all__ = ["rref", "solve", "kernel_basis", "mat_mul"]


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
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
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
