"""Exact linear algebra over integer, Fraction or Cyclotomic entries.

Plain list-of-lists matrices and Gaussian elimination with deterministic
pivoting (first nonzero in column order).  `rref`, `solve` and `nullspace`
serve Fraction and Cyclotomic entries alike; entries only need +, -, *, /,
bool and an ``inv``-compatible division.  Integer matrices take the
fraction-free routines instead: `bareiss` for rank and determinant (a
rational matrix is scaled row by row to integers for `det`) and `adjugate`
for the inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction


def mat_copy(m):
    return [list(r) for r in m]


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = mat_copy(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c] if isinstance(m[r][c], Fraction) else m[r][c].inv()
        m[r] = row = [v * inv for v in m[r]]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    if all(type(v) is int for row in m for v in row):
        return bareiss(m)[0]
    return len(rref(m)[1])


def nullspace(m, ncols=None, one=Fraction(1), zero=Fraction(0)):
    """Basis of the right kernel, one vector per free column (RREF-style)."""
    if not m:
        n = ncols or 0
        return [[one if i == j else zero for j in range(n)] for i in range(n)]
    red, pivots = rref(m)
    n = len(m[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(m, rhs):
    """One solution of m x = rhs, or None when inconsistent.

    ``rhs`` may be a vector or a list of columns (matrix); the return mirrors
    the input shape.
    """
    single = rhs and not isinstance(rhs[0], list)
    cols = [list(rhs)] if single else [list(c) for c in zip(*rhs)]
    n = len(m[0]) if m else 0
    aug = [list(row) + [col[i] for col in cols] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    # consistency: no pivot in the augmented part
    for p in pivots:
        if p >= n:
            return None
    sols = []
    for k in range(len(cols)):
        zero = cols[k][0] - cols[k][0] if cols[k] else Fraction(0)
        x = [zero] * n
        for r, pc in enumerate(pivots):
            x[pc] = red[r][n + k]
        sols.append(x)
    if single:
        return sols[0]
    return [list(row) for row in zip(*sols)] if sols else []


def det(m):
    """Exact determinant of a square matrix of ints or Fractions: an int for
    an integer matrix, else a Fraction.  Each row is scaled to integers by
    the lcm of its denominators, and `bareiss` reduces the result."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if all(type(v) is int for row in m for v in row):
        r, last = bareiss(m)
        return last if r == n else 0
    dens = [math.lcm(*(v.denominator for v in row)) for row in m]
    r, last = bareiss([[v.numerator * (den // v.denominator) for v in row]
                       for row, den in zip(m, dens)])
    return Fraction(last if r == n else 0, math.prod(dens))


def bareiss(m):
    """(rank, last pivot) of an integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 1968).

    Row echelon form with the first nonzero entry of each column as pivot.
    After k pivots every entry below them is a (k+1)-minor of m, so the
    division by the previous pivot is exact.  The last pivot carries the
    sign of the row swaps: it is det m when m is square and nonsingular.
    """
    rows = [list(r) for r in m]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r, sign * prev


def adjugate(m):
    """(adj, det) of a square integer matrix with adj m = det I and det > 0
    (the sign of det moved into adj), or None when m is singular.

    Fraction-free Gauss-Jordan on [m | I]: every division is exact, and the
    last pivot is +-det(m) with the right block its adjugate times the sign.
    """
    n = len(m)
    rows = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        p = rows[k][k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * a - f * c) // prev
                           for a, c in zip(rows[i], rows[k])]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * v for v in r[n:]] for r in rows], sign * prev


def dot(a, b):
    """sum_i a_i b_i; integer operands give an int."""
    return sum(x * y for x, y in zip(a, b))


def primitive(vec) -> tuple:
    """Scale a nonzero rational vector to a primitive integer tuple whose
    first nonzero entry is positive."""
    den = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def intersect_spans(rows_a, rows_b):
    """Row-space intersection: vectors expressible in both spans."""
    if not rows_a or not rows_b:
        return []
    n = len(rows_a[0])
    # [A^T | -B^T] kernel -> combinations of A rows equal to B combinations
    m = [[rows_a[j][i] for j in range(len(rows_a))]
         + [-rows_b[j][i] for j in range(len(rows_b))] for i in range(n)]
    out = []
    for v in nullspace(m):
        vec = [sum((v[j] * rows_a[j][i] for j in range(len(rows_a))),
                   rows_a[0][i] - rows_a[0][i]) for i in range(n)]
        if any(vec):
            out.append(vec)
    return out
