"""Integer matrix normal forms: Smith (with transforms) and Hermite.

Matrices are lists of lists of Python ints; sizes stay small (at most a few
hundred rows), so the classical pivoting algorithms with exact big integers
are fine.
"""

from __future__ import annotations

__all__ = ["smith_normal_form", "hermite_normal_form"]


def smith_normal_form(A):
    """(D, U, V) with U A V = D, D diagonal with d1 | d2 | ..., di >= 0.

    U, V are unimodular; D has the same shape as A.
    """
    D = [list(row) for row in A]
    rows = len(D)
    cols = len(D[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, f):
        D[dst] = [a + f * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, f):
        for r in D:
            r[dst] += f * r[src]
        for r in V:
            r[dst] += f * r[src]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero entry of least absolute value as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] and (best is None or abs(D[i][j]) < best[0]):
                    best = (abs(D[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t]:
                q = D[i][t] // D[t][t]
                addmul_row(i, t, -q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j]:
                q = D[t][j] // D[t][t]
                addmul_col(j, t, -q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_t | D[i][j] for the trailing block
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t]:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            addmul_row(t, culprit, 1)
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return D, U, V


def hermite_normal_form(A):
    """Row-style HNF: upper-triangular-by-pivots canonical basis of the row
    lattice.  Zero rows are dropped."""
    H = [list(row) for row in A if any(row)]
    if not H:
        return []
    cols = len(H[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(H)):
            if H[i][c]:
                piv = i
                break
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        # clear below by gcd steps
        for i in range(r + 1, len(H)):
            while H[i][c]:
                if abs(H[i][c]) < abs(H[r][c]):
                    H[r], H[i] = H[i], H[r]
                q = H[i][c] // H[r][c]
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
        # reduce above
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
    return [row for row in H[:r]]
