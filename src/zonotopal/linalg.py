"""Exact linear algebra over integer, Fraction or Cyclotomic entries.

Plain list-of-lists matrices with deterministic pivoting (first nonzero in
column order).  Integer data stays integer: a matrix of ints and Fractions
is scaled row by row to integers by the lcm of each row's denominators, and
one fraction-free elimination, `_eliminate` (Bareiss, with optional
Gauss-Jordan), runs behind `rref`, `solve`, `nullspace`, `rank`, `det`,
`bareiss` and `adjugate`.  `rref` then divides by the last pivot once per
entry; the reduced form is unique, so it equals the field elimination's.
`subset_adjugates` gives (adj, |det|) of every nonsingular square row
subset of an integer matrix: the one table behind the vertices of
`geometry`'s polytopes and the bases of `matroid`.
Cyclotomic matrices take the field elimination, which needs only +, -, *,
bool and ``inv``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

_F0 = Fraction(0)
_RATIONAL = frozenset((int, Fraction))


def mat_copy(m):
    return [list(r) for r in m]


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _integer_rows(m):
    """(rows, dens): each row of ints and Fractions times the lcm of its
    denominators, as ints, and those lcms."""
    dens = [math.lcm(*(v.denominator for v in row)) for row in m]
    return [[v.numerator * (den // v.denominator) for v in row]
            for row, den in zip(m, dens)], dens


def _eliminate(rows, jordan):
    """Fraction-free elimination of an integer matrix, in place; returns
    (pivot columns, signed last pivot).

    Bareiss (Math. Comp. 1968): each step sets row i to
    (p * row_i - f * pivot row) / previous pivot, an exact division.  Without
    ``jordan`` only the rows below the pivot are cleared, so every entry
    below k pivots is a (k+1)-minor: row echelon form.  With ``jordan`` the
    rows above are cleared too, and each pivot row ends with the last pivot
    p at its pivot column and zero at the others': p times the reduced row
    echelon form.  The signed last pivot carries the sign of the row swaps:
    it is det m when m is square and nonsingular.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
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
        for i in range(0 if jordan else r + 1, nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // prev
                           for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, sign * prev


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    if not all(type(v) in _RATIONAL for row in m for v in row):
        return _rref_field(m)
    rows, _ = _integer_rows(m)
    pivots, _ = _eliminate(rows, jordan=True)
    p = rows[0][pivots[0]] if pivots else 1
    return [[Fraction(a, p) if a else _F0 for a in r] for r in rows], pivots


def _rref_field(m):
    """`rref` by division, for entries in a field beyond Q."""
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
        zero = red[0][n + k] - red[0][n + k] if red else _F0
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
    rows, dens = _integer_rows(m)
    r, last = bareiss(rows)
    return Fraction(last if r == n else 0, math.prod(dens))


def bareiss(m):
    """(rank, last pivot) of an integer matrix by fraction-free elimination
    (`_eliminate` without Gauss-Jordan).

    The last pivot carries the sign of the row swaps: it is det m when m is
    square and nonsingular.
    """
    pivots, last = _eliminate([list(r) for r in m], jordan=False)
    return len(pivots), last


def adjugate(m):
    """(adj, det) of a square integer matrix with adj m = det I and det > 0
    (the sign of det moved into adj), or None when m is singular.

    Fraction-free Gauss-Jordan on [m | I]: each pivot row ends as p e_k
    followed by p m^-1, where the last pivot p is +-det(m); so the right
    block is the adjugate times the sign of p.
    """
    n = len(m)
    rows = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(m)]
    pivots, _ = _eliminate(rows, jordan=True)
    if pivots != list(range(n)):
        return None
    p = rows[0][0] if n else 1
    sign = 1 if p > 0 else -1
    return [[sign * v for v in r[n:]] for r in rows], sign * p


def subset_adjugates(A, dim) -> tuple:
    """(S, adj A_S, |det A_S|) for every nonsingular dim-row subset S of the
    integer matrix A, S a tuple of row indices in lexicographic order, as
    `adjugate` gives them: A_S^-1 = adj A_S / |det A_S|."""
    out = []
    for rows in itertools.combinations(range(len(A)), dim):
        inv = adjugate([A[i] for i in rows])
        if inv is not None:
            out.append((rows, *inv))
    return tuple(out)


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
