"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls `zonotopal`: each check compares the package's answer
with a different algorithm written from the definitions.

- `det`: Bareiss integer determinant.
- `count_table`: vector partition function by dynamic programming.
- `spline_piece`: the multivariate spline on a chamber, from Lawrence's
  vertex formula for the volume of the fibre polytope.
- `zonotope_interior`: interior lattice points of a planar zonotope.
- `snf_order`: group order from `sympy`'s Smith normal form.

Lists are given as tuples of integer columns; the planar helpers assume
nonzero columns with nonnegative entries, so every list is pointed.
"""

from fractions import Fraction
import itertools
import math


def det(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _frac_det(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    n, out = len(m), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def basis_dets(cols, d):
    """{index tuple: det} over the d-subsets of free parts with det != 0."""
    out = {}
    for b in itertools.combinations(range(len(cols)), d):
        v = det([[cols[j][i] for j in b] for i in range(d)])
        if v:
            out[b] = v
    return out


def snf_order(rows):
    """Order of Z^r / (column span) for a square nonsingular integer matrix,
    as the product of its Smith invariants."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    return abs(math.prod(int(snf[i, i]) for i in range(snf.rows)))


def count_table(cols, top):
    """table[a][b] = #{w in N^n : sum w_i col_i = (a, b)} for a <= top[0],
    b <= top[1]: unbounded knapsack over the columns, one at a time."""
    import numpy as np

    t = np.zeros((top[0] + 1, top[1] + 1), dtype=object)
    t[0, 0] = 1
    for a, b in cols:
        if a:
            for i in range(a, top[0] + 1):
                t[i, b:] += t[i - a, :top[1] + 1 - b]
        else:
            for j in range(b, top[1] + 1):
                t[:, j] += t[:, j - b]
    return t


def count_at(table, u):
    if u[0] < 0 or u[1] < 0:
        return 0
    return int(table[u[0], u[1]])


def zonotope_interior(cols):
    """Lattice points strictly inside sum_i [0, col_i] (planar, rank 2)."""
    normals = {(-c[1], c[0]) for c in cols}
    bounds = []
    for eta in normals:
        dots = [eta[0] * c[0] + eta[1] * c[1] for c in cols]
        bounds.append((eta, sum(min(0, v) for v in dots),
                       sum(max(0, v) for v in dots)))
    box = [range(sum(min(0, c[i]) for c in cols),
                 sum(max(0, c[i]) for c in cols) + 1) for i in range(2)]
    return [p for p in itertools.product(*box)
            if all(lo < eta[0] * p[0] + eta[1] * p[1] < hi
                   for eta, lo, hi in bounds)]


def torus_vertices(cols):
    """Number of vertices of the planar toric arrangement: the union over
    bases B of the characters theta in R^2/Z^2 with B^T theta integral."""
    points = set()
    for b, dt in basis_dets(cols, 2).items():
        (p, q), (r, s) = cols[b[0]], cols[b[1]]
        for k in itertools.product(range(abs(dt)), repeat=2):
            # theta = (B^T)^-1 k, reduced mod 1
            theta = (Fraction(s * k[0] - q * k[1], dt), Fraction(p * k[1] - r * k[0], dt))
            points.add(tuple(t - math.floor(t) for t in theta))
    return len(points)


def has_coloop(cols):
    """Some column whose deletion leaves a list of rank < 2 (planar)."""
    for i in range(len(cols)):
        rest = cols[:i] + cols[i + 1:]
        if not any(det([list(a), list(b)])
                   for a, b in itertools.combinations(rest, 2)):
            return True
    return False


def chamber_rays(cols):
    """Primitive column directions sorted by angle; consecutive pairs bound
    the chambers of the (pointed, nonnegative) cone."""
    dirs = {(c[0] // math.gcd(*c), c[1] // math.gcd(*c)) for c in cols}
    return sorted(dirs, key=lambda r: Fraction(r[1], r[0] + r[1]))


def spline_piece(cols, sample):
    """Homogeneous polynomial {(i, j): coeff of t1^i t2^j} equal to the
    spline T_X on the chamber containing the generic point `sample`.

    T_X(u) is the volume of the fibre {y >= 0 : X y = u}.  Coordinates on
    the fibre are y_N for a fixed basis B0 and its complement N, which
    scales volume by 1/|det B0|.  For u in the open chamber the fibre is a
    simple polytope whose vertices are the bases B with B^-1 u > 0.
    Lawrence's formula sums <xi, v>^k |det E_v| / (k! prod_e -<xi, e>) over
    vertices v with edge matrix E_v, for generic xi.
    """
    n, k = len(cols), len(cols) - 2
    dets = basis_dets(cols, 2)
    b0 = min(dets)
    free = [j for j in range(n) if j not in b0]

    def inv_apply(b, v):
        # B^-1 v for the 2x2 basis b, by Cramer's rule
        (p, q), (r, s) = cols[b[0]], cols[b[1]]
        dt = Fraction(dets[b])
        return ((v[0] * s - v[1] * r) / dt, (p * v[1] - q * v[0]) / dt)

    verts = [b for b in dets if all(c > 0 for c in inv_apply(b, sample))]
    # xi on the moment curve (1, t, t^2, ...): <xi, e> is a nonzero
    # polynomial in t for each edge e, so all but finitely many t are generic
    for t in itertools.count(2):
        xi = [t ** j for j in range(k)]
        terms = {}
        for b in verts:
            edges = []
            for j in range(n):
                if j in b:
                    continue
                step = [Fraction(0)] * n
                step[j] = Fraction(1)
                for pos, c in zip(b, inv_apply(b, cols[j])):
                    step[pos] = -c
                edges.append([step[i] for i in free])
            slopes = [sum(x * e for x, e in zip(xi, edge)) for edge in edges]
            if not all(slopes):
                break
            weight = abs(_frac_det(edges)) / math.factorial(k)
            for sl in slopes:
                weight /= -sl
            # <xi, y_v> as a linear form in u: y_v = (B^-1 u) placed on b
            lin = [Fraction(0), Fraction(0)]
            for unit in range(2):
                e = (1, 0) if unit == 0 else (0, 1)
                for pos, c in zip(b, inv_apply(b, e)):
                    if pos in free:
                        lin[unit] += xi[free.index(pos)] * c
            for i in range(k + 1):
                coeff = (weight * math.comb(k, i) * lin[0] ** i
                         * lin[1] ** (k - i))
                terms[(i, k - i)] = terms.get((i, k - i), 0) + coeff
        else:
            scale = Fraction(1, abs(dets[b0]))
            return {e: c * scale for e, c in terms.items() if c}
