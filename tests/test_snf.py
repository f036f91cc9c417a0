import random
from fractions import Fraction

from equivlk.snf import hermite_normal_form, smith_normal_form
from oracles import kernel_mod


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def det(M):
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            d = -d
        d *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return d


def test_known_invariants():
    def diagonal(A):
        D, _, _ = smith_normal_form(A)
        return [D[i][i] for i in range(len(D))]

    assert diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert diagonal([[0, 0], [0, 0]]) == [0, 0]


def test_snf_properties_random():
    rng = random.Random(99)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-15, 15) for _ in range(c)] for _ in range(r)]
        D, U, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D
        assert abs(det(U)) == 1 and abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        assert all(D[i][j] == 0 for i in range(r) for j in range(c) if i != j)


def test_hnf_canonical():
    # row-equivalent matrices share the HNF
    assert hermite_normal_form([[2, 4], [6, 8]]) == hermite_normal_form([[6, 8], [2, 4]])
    assert hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert hermite_normal_form([[0, 0]]) == []


def test_kernel_mod():
    # 2x = 0 mod 8 -> x in 4Z/8
    assert kernel_mod([[2]], 8) == [[4]]
    # full kernel check: every generator satisfies the congruence
    rng = random.Random(5)
    for _ in range(20):
        rows, cols, m = rng.randint(1, 3), rng.randint(1, 4), rng.choice([4, 9, 27])
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for v in kernel_mod(A, m):
            assert all(sum(a * x for a, x in zip(row, v)) % m == 0 for row in A)
