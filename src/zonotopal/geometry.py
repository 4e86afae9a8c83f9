"""Zonotopes, chambers, exact fiber-polytope volumes, and counting.

Everything is exact, and the inner loops run on integers.  Volumes come
from integer vertex numerators over one common denominator, a recursive
star triangulation with integer face tests and fraction-free simplex
determinants (`linalg.det`); spline values from the per-list `Fiber`.
Lattice points compare the integer eta.p with integer bounds over the
admissible normals eta, and a spanning list's cone is cut out by its facet
normals.  A chamber is named by its sign vector, the signs of eta.y over
the admissible normals at any y inside it.  The polynomial piece of T_X on
a chamber comes from one triangulation of the fiber at a sample point,
whose vertices are affine in u, and is kept per list value (`GList.memo`)
under the chamber's sign vector; the pieces of B_X on its alcoves are sums of
translates of these (`brionvergne`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .abelian import GList
from .errors import (DegenerateSample, InternalError, NotInCone, NotPointed,
                     NotShort, SamplesRequired, SingularGram,
                     TorsionUnsupported)
from .matroid import corank_one_flats
from .scalar import MPoly, rat_str, t_vars

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# H-polytopes and Fourier-Motzkin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HPolytope:
    """{y : A y <= b} with rational data; may be empty or lower-dimensional.

    A and b are kept as tuples, so a polytope kept for a list cannot be
    changed through a caller's reference.  Integer rows and an integer
    point are compared in integers.
    """

    A: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(map(tuple, self.A)))
        object.__setattr__(self, "b", tuple(self.b))

    def contains(self, point, strict=False) -> bool:
        for row, beta in zip(self.A, self.b):
            v = linalg.dot(row, point)
            if v > beta or (strict and v == beta):
                return False
        return True

    def to_json(self):
        return {"A": [[rat_str(Fraction(v)) for v in row] for row in self.A],
                "b": [rat_str(Fraction(v)) for v in self.b]}


def fm_feasible(constraints, nvars):
    """Fourier-Motzkin feasibility for rows (coeffs, rhs, strict).

    Each row means coeffs . x <= rhs (strict: <).  Returns a feasible
    rational point or None.
    """
    rows = [([Fraction(c) for c in cs], Fraction(r), bool(s))
            for cs, r, s in constraints]
    stages = []
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for cs, r, s in rows:
            if cs[var] > 0:
                pos.append((cs, r, s))
            elif cs[var] < 0:
                neg.append((cs, r, s))
            else:
                rest.append((cs, r, s))
        stages.append((var, pos, neg))
        new_rows = list(rest)
        for (c1, r1, s1) in pos:
            for (c2, r2, s2) in neg:
                # c1[var] x <= r1 - ..., c2[var] x >= -(r2 - ...)/|c2[var]|
                scale1, scale2 = -c2[var], c1[var]
                cs = [a * scale1 + b * scale2 for a, b in zip(c1, c2)]
                cs[var] = _F0
                new_rows.append((cs, r1 * scale1 + r2 * scale2, s1 or s2))
        rows = _prune(new_rows)
    for cs, r, s in rows:
        if r < 0 or (s and r == 0):
            return None
    # back-substitute a point
    point = [_F0] * nvars
    for var, pos, neg in reversed(stages):
        lo, lo_strict = None, False
        hi, hi_strict = None, False
        for cs, r, s in pos:
            bound = (r - sum(cs[i] * point[i] for i in range(nvars)
                             if i != var)) / cs[var]
            if hi is None or bound < hi or (bound == hi and s):
                hi, hi_strict = bound, s
        for cs, r, s in neg:
            bound = (r - sum(cs[i] * point[i] for i in range(nvars)
                             if i != var)) / cs[var]
            if lo is None or bound > lo or (bound == lo and s):
                lo, lo_strict = bound, s
        if lo is None and hi is None:
            point[var] = _F0
        elif lo is None:
            point[var] = hi - 1 if hi_strict else hi
        elif hi is None:
            point[var] = lo + 1 if lo_strict else lo
        else:
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                return None
            point[var] = (lo + hi) / 2
    return point


def _prune(rows):
    seen = {}
    for cs, r, s in rows:
        nz = next((c for c in cs if c), None)
        if nz is None:
            key = ((), )
            cur = seen.get(key)
            if cur is None or (r, not s) < (cur[1], not cur[2]):
                seen[key] = (cs, r, s)
            continue
        scale = abs(nz)
        key = tuple(c / scale for c in cs)
        cur = seen.get(key)
        if cur is None:
            seen[key] = (cs, r, s)
        else:
            # keep the tighter bound
            r0 = cur[1] / abs(next(c for c in cur[0] if c))
            r1 = r / scale
            if (r1, not s) < (r0, not cur[2]):
                seen[key] = (cs, r, s)
    return list(seen.values())


# ---------------------------------------------------------------------------
# pointedness
# ---------------------------------------------------------------------------

def is_pointed(x: GList) -> bool:
    """0 outside the convex hull of the free parts (all strictly one side)."""
    return pointed_certificate(x) is not None


def pointed_certificate(x: GList):
    """A rational eta with eta . x_i >= 1 for every column, as a tuple, or
    None.  Found once per list value and kept (`GList.memo`)."""
    return x.memo("pointed_certificate", _pointed_certificate)


def _pointed_certificate(x: GList):
    d = x.group.free_rank
    cols = [[Fraction(v) for v in e.free] for e in x.elems]
    if any(not any(c) for c in cols):
        return None
    constraints = [([-c for c in col], Fraction(-1), False) for col in cols]
    eta = fm_feasible(constraints, d)
    return None if eta is None else tuple(eta)


def require_pointed(x: GList):
    if not is_pointed(x):
        raise NotPointed("0 lies in the convex hull of the list")


def in_cone(x: GList, u) -> bool:
    """u in cone(X)?

    When X spans, cone(X) is full-dimensional and is cut out by its
    facets, each of which spans an admissible hyperplane with every column
    on one side; so u is in the cone iff eta.u has that side's sign for
    every such normal eta.  X spans iff some admissible hyperplane misses a
    column.  Otherwise Fourier-Motzkin decides whether u is a nonnegative
    combination of the columns.
    """
    facets = x.memo("cone_facets", _cone_facets)
    if facets is not None:
        return all(linalg.dot(eta, u) >= 0 for eta in facets)
    cols = [[Fraction(v) for v in e.free] for e in x.elems]
    n, d = len(cols), x.group.free_rank
    cons = []
    for i in range(d):
        row = [cols[j][i] for j in range(n)]
        cons.append((row, Fraction(u[i]), False))
        cons.append(([-c for c in row], -Fraction(u[i]), False))
    for j in range(n):
        row = [_F0] * n
        row[j] = _F1
        cons.append(([-c for c in row], _F0, False))
    return fm_feasible(cons, n) is not None


def _cone_facets(x: GList):
    """The admissible normals with every column on one side, each signed so
    that the columns lie on its nonnegative side; None when X does not
    span."""
    planes = hyperplanes(x)
    if not any(h.mult for h in planes):
        return None
    out = []
    for h in planes:
        dots = [linalg.dot(h.normal, e.free) for e in x.elems]
        if min(dots) >= 0:
            out.append(h.normal)
        elif max(dots) <= 0:
            out.append(tuple(-v for v in h.normal))
    return tuple(out)


# ---------------------------------------------------------------------------
# zonotope and lattice points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """An admissible hyperplane: the span of a corank-1 flat of X."""

    normal: tuple          # primitive integer normal, first nonzero > 0
    mult: int              # m(H) = |X \ H|


def hyperplanes(x: GList) -> tuple:
    """The admissible hyperplanes, one per normal, sorted by normal.

    For d = 1 the single "hyperplane" {0} has normal (1,).  A list that
    does not span has none.  Built once per list value and kept
    (`GList.memo`).
    """
    return x.memo("hyperplanes", _hyperplanes)


def _hyperplanes(x: GList) -> tuple:
    d = x.group.free_rank
    normals = set()
    for flat in corank_one_flats(x):
        cols = [[Fraction(v) for v in x.elems[i].free] for i in flat
                if any(x.elems[i].free)]
        null = linalg.nullspace(cols, ncols=d)
        if len(null) == 1:
            normals.add(linalg.primitive(null[0]))
    return tuple(Hyperplane(eta, sum(1 for e in x.elems
                                     if linalg.dot(eta, e.free)))
                 for eta in sorted(normals))


def hyperplane_normals(x: GList) -> list:
    """Primitive integer normals of the admissible hyperplanes, sorted."""
    return [h.normal for h in hyperplanes(x)]


def zonotope_hrep(x: GList) -> HPolytope:
    """Facet description: for each admissible normal eta,
    -sum max(-eta.x, 0) <= eta.u <= sum max(eta.x, 0).  The rows are
    integers; built once per list value and kept (`GList.memo`)."""
    return x.memo("zonotope_hrep", _zonotope_hrep)


def _zonotope_hrep(x: GList) -> HPolytope:
    x.require_full_rank()
    a_rows, b_vals = [], []
    for eta in hyperplane_normals(x):
        dots = [linalg.dot(eta, e.free) for e in x.elems]
        a_rows += [eta, tuple(-v for v in eta)]
        b_vals += [sum(v for v in dots if v > 0),
                   -sum(v for v in dots if v < 0)]
    return HPolytope(a_rows, b_vals)


def lattice_points(x: GList, mode="interior", w=None) -> list:
    """Lattice points of the zonotope: interior, or shifted (Z(X)-w).

    Z(X) is lo_eta <= eta.y <= hi_eta over the admissible normals eta (see
    `zonotope_hrep`).  For a lattice point p, eta.p is an integer, so the
    interior is lo_eta + 1 <= eta.p <= hi_eta - 1 and p + w lies in Z(X)
    iff ceil(lo_eta - eta.w) <= eta.p <= floor(hi_eta - eta.w).  The same
    bounds for the unit vectors give the box the points are drawn from, in
    sorted order, however far w is.
    """
    x.require_full_rank()
    if mode not in ("interior", "shifted"):
        raise ValueError(f"unknown mode {mode!r}")
    shift = [0] * x.group.free_rank if mode == "interior" else \
        [Fraction(v) for v in w]
    inner = int(mode == "interior")

    def window(eta):
        dots = [linalg.dot(eta, e.free) for e in x.elems]
        move = linalg.dot(eta, shift)
        return (math.ceil(sum(v for v in dots if v < 0) - move) + inner,
                math.floor(sum(v for v in dots if v > 0) - move) - inner)

    bounds = [(eta, *window(eta)) for eta in hyperplane_normals(x)]
    units = [tuple(int(i == j) for j in range(len(shift)))
             for i in range(len(shift))]
    box = [range(lo, hi + 1) for lo, hi in map(window, units)]
    return [point for point in itertools.product(*box)
            if all(lo <= linalg.dot(eta, point) <= hi
                   for eta, lo, hi in bounds)]


# ---------------------------------------------------------------------------
# exact polytope volume
# ---------------------------------------------------------------------------

def _integer_rows(A, b):
    """[A | b] with each row scaled by the positive integer that clears the
    denominators of its A part."""
    out_a, out_b = [], []
    for row, beta in zip(A, b):
        den = math.lcm(*(Fraction(v).denominator for v in row))
        out_a.append([int(v * den) for v in row])
        out_b.append(beta * den)
    return out_a, out_b


def _enumerate_vertices(A, b, dim, subsets=None) -> tuple:
    """The vertices of P = {y : A y <= b} as integer points over one common
    denominator: (den, verts, A, rhs).

    ``verts`` maps each vertex numerator p (the vertex is p / den) to one
    row subset that defines it, as (S, adj A_S, |det A_S|): the first in
    ``subsets``.  A is integer and P = {p / den : A p <= rhs} with integer
    rhs, so a row is tight at a vertex iff row . p == rhs_i.

    ``subsets`` is `linalg.subset_adjugates(A, dim)` for an integer A,
    passed by a caller that keeps A and varies b; without it each row of
    [A | b] is first scaled so that A is integer.  With b = c / D for
    integers c and D > 0, each nonsingular subset S gives the candidate
    vertex y = adj c_S / (det D), and y satisfies every row iff
    A adj c_S <= det c holds in integers.  The common denominator is D
    times the lcm of the dets of the subsets that give vertices.
    """
    if subsets is None:
        A, b = _integer_rows(A, b)
        subsets = linalg.subset_adjugates(A, dim)
    den = math.lcm(*(beta.denominator for beta in b))
    c = [beta.numerator * (den // beta.denominator) for beta in b]
    found = []
    for rows, adj, det in subsets:
        c_s = [c[i] for i in rows]
        v = [sum(a * ci for a, ci in zip(arow, c_s)) for arow in adj]
        if all(sum(a * vk for a, vk in zip(row, v)) <= det * ci
               for row, ci in zip(A, c)):
            found.append((v, (rows, adj, det)))
    lcm = math.lcm(*(key[2] for _, key in found))
    verts = {}
    for v, key in found:
        k = lcm // key[2]
        verts.setdefault(tuple(vk * k for vk in v), key)
    return den * lcm, verts, A, [ci * lcm for ci in c]


def _affine_dim(points) -> int:
    if not points:
        return -1
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    rows = [r for r in rows if any(r)]
    return linalg.rank(rows) if rows else 0


def _triangulate(points, A, rhs, tight_rows, dim):
    """Recursive star triangulation; yields dim-simplices (point tuples).

    ``points`` are the integer vertices of a face of {A p <= rhs} of affine
    dimension ``dim``; ``tight_rows`` are the rows already tight on the
    face.
    """
    if dim == 0:
        yield (points[0],)
        return
    if dim == 1:
        yield (points[0], points[-1])
        return
    apex = points[0]
    seen = set()
    for i, (row, beta) in enumerate(zip(A, rhs)):
        if i in tight_rows:
            continue
        face = [p for p in points
                if sum(r * q for r, q in zip(row, p)) == beta]
        if apex in face:
            continue
        key = frozenset(face)
        if key in seen or len(face) < dim:
            continue
        seen.add(key)
        if _affine_dim(face) != dim - 1:
            continue
        for simplex in _triangulate(face, A, rhs, tight_rows | {i}, dim - 1):
            yield (apex,) + simplex


def polytope_volume(A, b, dim, subsets=None) -> Fraction:
    """Exact volume of {y : A y <= b} in R^dim (0 if lower-dimensional).

    A and b may be rational; ``subsets`` is as for `_enumerate_vertices`.
    The star triangulation of the integer vertex numerators p gives
    simplices whose integer determinants sum to den^dim dim! times the
    volume.
    """
    den, verts, A, rhs = _enumerate_vertices(A, b, dim, subsets)
    points = sorted(verts)
    if not points or _affine_dim(points) < dim:
        return _F0
    total = 0
    for simplex in _triangulate(points, A, rhs, frozenset(), dim):
        apex = simplex[0]
        total += abs(linalg.det([[p[i] - apex[i] for i in range(dim)]
                                 for p in simplex[1:]]))
    return Fraction(total, den ** dim * math.factorial(dim))


# ---------------------------------------------------------------------------
# splines: T_X and B_X values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fiber:
    """The fiber polytope of X over u, {w >= 0 : X w = u}, and its box
    truncation {0 <= w <= 1 : X w = u}, as polytopes Q(u) in the
    coordinates t of w = w0(u) + K^T t.

    The rows of K are a kernel basis of X scaled to primitive integer rows,
    so the facet matrices -K^T (for T_X) and [-K^T; K^T] (for B_X) are
    integer, and only the right-hand sides w0 and 1 - w0 depend on u.  The
    adjugate and |det| of every nonsingular m-row subset of the T_X facet
    matrix are kept, m = N - d, so a vertex of Q(u) costs integer products;
    those of the B_X facet matrix, which only `bx_value` reads, are built on
    its first call.

    T_X(u) is the (N-d)-volume of the fiber divided by sqrt(det X X^T), and
    t -> K^T t scales volume by sqrt(det K K^T).  The rows of K and of X are
    orthogonal, so det[K^T | X^T]^2 = det(K K^T) det(X X^T) and
    T_X(u) = vol(Q(u)) * scale with the rational
    scale = det(K K^T) / |det[K^T | X^T]|.  This holds for any kernel basis,
    the integer one included: scaling a row of K by c != 0 scales
    vol(Q(u)) by 1/|c| and scale by |c|.  B_X takes the same scale.
    """

    dim: int             # m = N - d
    basis: tuple         # pivot columns of X, a basis
    basis_adj: tuple     # (adj, det) of X restricted to ``basis``
    scale: Fraction
    t_facets: tuple
    t_subsets: tuple

    def particular(self, u) -> list:
        """w0 with X w0 = u, zero off the basis columns: u is scaled to
        integers, so each basis entry is one Fraction."""
        adj, det = self.basis_adj
        den = math.lcm(*(v.denominator for v in u))
        ints = [v.numerator * (den // v.denominator) for v in u]
        w0 = [0] * len(self.t_facets)
        for col, arow in zip(self.basis, adj):
            w0[col] = Fraction(sum(a * v for a, v in zip(arow, ints)),
                               det * den)
        return w0

    def rhs_forms(self) -> list:
        """The right-hand sides w0(u) of the T_X facet rows as integer
        affine forms (c, l_1, ..., l_d) over the basis det, meaning
        (c + l.u) / det."""
        adj, _ = self.basis_adj
        w0 = [(0,) * (len(adj) + 1)] * len(self.t_facets)
        for col, arow in zip(self.basis, adj):
            w0[col] = (0, *arow)
        return w0


def fiber(x: GList) -> Fiber:
    """The `Fiber` of a pointed, torsion-free, full-rank list, built once per
    list value and kept (`GList.memo`)."""
    return x.memo("fiber", _fiber)


def _fiber(x: GList) -> Fiber:
    require_pointed(x)
    if x.group.invariants:
        raise TorsionUnsupported("spline values require a torsion-free group")
    x.require_full_rank()
    d, n = x.group.free_rank, len(x)
    xmat = [[Fraction(e.free[i]) for e in x.elems] for i in range(d)]
    pivots = linalg.rref(xmat)[1]
    basis_adj = linalg.adjugate([[x.elems[j].free[i] for j in pivots]
                                 for i in range(d)])
    kern = [linalg.primitive(v) for v in linalg.nullspace(xmat, ncols=n)]
    m = len(kern)                            # = n - d
    ktk = [[Fraction(linalg.dot(a, b)) for b in kern] for a in kern]
    big = [[Fraction(v) for v in (*(k[j] for k in kern), *x.elems[j].free)]
           for j in range(n)]
    scale = linalg.det(ktk) / abs(linalg.det(big))
    t_facets = tuple(tuple(-k[j] for k in kern) for j in range(n))
    return Fiber(m, tuple(pivots), basis_adj, scale,
                 t_facets, linalg.subset_adjugates(t_facets, m))


def _box_facets(x: GList) -> tuple:
    """The B_X facet matrix [-K^T; K^T] and its `linalg.subset_adjugates`."""
    fib = fiber(x)
    facets = fib.t_facets + tuple(tuple(-v for v in row)
                                  for row in fib.t_facets)
    return facets, linalg.subset_adjugates(facets, fib.dim)


def tx_value(x: GList, u) -> Fraction:
    """Exact multivariate spline value: normalized fiber volume over u."""
    fib = fiber(x)
    return polytope_volume(fib.t_facets, fib.particular(u), fib.dim,
                           fib.t_subsets) * fib.scale


def bx_value(x: GList, u) -> Fraction:
    """Exact box spline value: volume of the box-truncated fiber."""
    fib = fiber(x)
    facets, subsets = x.memo("box_facets", _box_facets)
    w0 = fib.particular(u)
    return polytope_volume(facets, w0 + [1 - v for v in w0], fib.dim,
                           subsets) * fib.scale


# ---------------------------------------------------------------------------
# vector partition function
# ---------------------------------------------------------------------------

def vpf_count(x: GList, u) -> int:
    """|{w in Z^N_(>=0) : X w = u}| by bounded recursive enumeration.

    An integer eta with eta . x_i > 0 for every column bounds how often each
    column fits into what is left of u; the last column is solved by
    divisibility.
    """
    require_pointed(x)
    eta = pointed_certificate(x)
    scale = math.lcm(*(e.denominator for e in eta))
    eta = [int(e * scale) for e in eta]
    cols = [e.free for e in x.elems]
    target = [Fraction(v) for v in u]
    if any(t.denominator != 1 for t in target):
        return 0
    target = [int(t) for t in target]
    if not cols:
        return int(not any(target))
    weights = [linalg.dot(eta, col) for col in cols]
    return _vpf(cols, weights, eta, 0, target)


def _vpf(cols, weights, eta, idx, target) -> int:
    col = cols[idx]
    if idx == len(cols) - 1:
        j = next(i for i, c in enumerate(col) if c)
        k, rem = divmod(target[j], col[j])
        return int(rem == 0 and k >= 0
                   and all(t == k * c for t, c in zip(target, col)))
    budget = linalg.dot(eta, target)
    if budget < 0:
        return 0
    total = 0
    for k in range(budget // weights[idx] + 1):
        total += _vpf(cols, weights, eta, idx + 1,
                      [t - k * c for t, c in zip(target, col)])
    return total


# ---------------------------------------------------------------------------
# big cells
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """A big cell: a verified interior sample point and the sign vector
    (`chamber_signs` of the sample) that names the chamber.  Which cell
    holds a point, or lies toward a direction from it, is `cells_at`."""

    sample: tuple                 # rational interior point
    signs: tuple                  # eta.sample > 0 over the admissible normals

    def to_json(self):
        return {"sample": [rat_str(Fraction(v)) for v in self.sample]}


def chamber_signs(x: GList, point):
    """The sign vector of ``point``: eta.point > 0 over `hyperplane_normals`,
    or None when it lies on an admissible hyperplane through the origin."""
    dots = [linalg.dot(eta, point) for eta in hyperplane_normals(x)]
    return None if 0 in dots else tuple(v > 0 for v in dots)


def cells_at(x: GList, cells, u, w=None) -> list:
    """The cells of ``cells`` whose closure holds u, in their order; with w,
    those whose interior holds u + eps*w for all small eps > 0.

    A cell's sign must agree with every nonzero eta.u over the admissible
    normals eta; where eta.u = 0 and w is given, with the sign of eta.w.
    When eta.w = 0 as well, u + eps*w runs along the hyperplane, so w is
    not affine regular there: `SingularGram`.  The facets of cone(X) are
    admissible, so no cell matches a u (or a u + eps*w) outside the cone.
    """
    want = []
    for i, eta in enumerate(hyperplane_normals(x)):
        v = linalg.dot(eta, u)
        if not v and w is not None:
            v = linalg.dot(eta, w)
            if not v:
                raise SingularGram(
                    f"w is not affine regular: w = [{', '.join(map(str, w))}]"
                    f" and u = [{', '.join(map(str, u))}] are orthogonal to "
                    f"the hyperplane normal {list(eta)}")
        if v:
            want.append((i, v > 0))
    return [c for c in cells if all(c.signs[i] == s for i, s in want)]


def big_cells(x: GList, samples=None) -> list:
    """Chambers of cone(X): exact enumeration for d <= 2, else verified
    caller samples."""
    require_pointed(x)
    x.require_full_rank()
    d = x.group.free_rank
    if samples is not None:
        cells = []
        for s in samples:
            pt = tuple(Fraction(v) for v in s)
            signs = chamber_signs(x, pt)
            if signs is None or not in_cone(x, pt):
                raise DegenerateSample(f"sample {s} is singular or outside")
            cells.append(Cell(pt, signs))
        return cells
    if d > 2:
        raise SamplesRequired("automatic chamber enumeration is d <= 2 only")
    if d == 1:
        sign = 1 if x.elems[0].free[0] > 0 else -1
        ray = (Fraction(sign),)
        return [Cell(ray, chamber_signs(x, ray))]
    rays = _cone_rays(x)
    cells = []
    for r1, r2 in zip(rays, rays[1:]):
        mid = tuple(Fraction(a + b) for a, b in zip(r1, r2))
        signs = chamber_signs(x, mid)
        if signs is None:
            raise InternalError(f"the sum [{', '.join(map(str, mid))}] of "
                                f"the adjacent rays {list(r1)} and "
                                f"{list(r2)} lies on an admissible "
                                f"hyperplane")
        cells.append(Cell(mid, signs))
    return cells


def _cone_rays(x: GList) -> list:
    """The primitive column directions, which span the rays of the chambers,
    in counterclockwise order (d = 2).

    The pointed certificate eta is positive on every column, so the slope
    eta'.r / eta.r against eta' = eta turned left orders them by angle.
    """
    dirs = {tuple(c // math.gcd(*e.free) for c in e.free) for e in x.elems}
    eta = pointed_certificate(x)
    left = (-eta[1], eta[0])
    return sorted(dirs, key=lambda r: linalg.dot(left, r) / linalg.dot(eta, r))


def short_regular(x: GList, in_cone_of=None):
    """A short affine regular w: 0 < |eta.w| < 1 for every admissible eta,
    so the segment (0, w] crosses no affine admissible hyperplane.

    w is (1/q, 1/q^2, ..., 1/q^d) for the first q that works.  With
    ``in_cone_of`` a point b interior to cone(X) (`NotInCone` otherwise), w
    is b scaled down plus a smaller such term, and lies in cone(X) as well.

    A few small primes are tried first; past them q = (2M + 2) d L always
    works, M the largest |eta_i| and L the lcm of b's denominators: the
    first nonzero term of eta.w then decides its sign, and |eta.w| < 1.
    """
    d = x.group.free_rank
    normals = hyperplane_normals(x)
    base = None if in_cone_of is None else [Fraction(v) for v in in_cone_of]
    if base is not None:
        # on the boundary eta.b = 0 for a facet, and no q steps inside
        facets = x.memo("cone_facets", _cone_facets)
        if facets is None or any(linalg.dot(eta, base) <= 0
                                 for eta in facets):
            raise NotInCone(f"[{', '.join(map(str, base))}] is not interior "
                            f"to cone(X)")
    top = max((abs(v) for eta in normals for v in eta), default=0)
    lcm = math.lcm(*(v.denominator for v in base or ()))
    for q in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, (2 * top + 2) * d * lcm):
        if base is None:
            cand = [Fraction(1, q ** (i + 1)) for i in range(d)]
        else:
            denom = max(abs(v.numerator) * v.denominator for v in base) or 1
            cand = [v / (q * denom) + Fraction(1, (q * denom) ** (i + 2))
                    for i, v in enumerate(base)]
        ok = True
        for eta in normals:
            val = linalg.dot(eta, cand)
            if val == 0 or abs(val) >= 1:
                ok = False
                break
        if ok and (base is None or in_cone(x, cand)):
            return tuple(cand)
    raise InternalError("no short regular vector found")


def require_short(x: GList, w):
    """Raise `NotShort` unless |eta.w| < 1 for every admissible normal eta.

    eta.w = 0 passes here; the directional limits reject it as not affine
    regular.
    """
    for eta in hyperplane_normals(x):
        val = linalg.dot(eta, w)
        if abs(val) >= 1:
            raise NotShort(f"w = [{', '.join(map(str, w))}] is not short: "
                           f"eta.w = {val} for the hyperplane normal "
                           f"{list(eta)}")


# ---------------------------------------------------------------------------
# exact local pieces
# ---------------------------------------------------------------------------

def piece_at(x: GList, u0) -> MPoly:
    """The polynomial equal to T_X on the chamber that contains u0.

    u0 must lie off every admissible hyperplane.  Then the face lattice of
    Q(u) = {t : A t <= b(u)} is the same for every u in the chamber, and
    b(u) is affine in u (see `Fiber.rhs_forms`).  So the vertices and the
    triangulation found at u0 serve the whole chamber: the vertex defined by
    the rows S is u -> adj_S b_S(u) / det_S, and each simplex contributes
    det[v_i(u) - v_0(u)] / m!, a degree-m polynomial with the sign it has
    at u0.  Outside cone(X) the fiber is empty and the piece is 0.

    Every vertex map is kept as integer forms over the one denominator
    lcm_S(det_S) times the basis det, so the simplex determinants are
    integer polynomials until the final scale.
    """
    fib = fiber(x)
    d, m = x.group.free_rank, fib.dim
    forms = fib.rhs_forms()
    _, verts, facets, rhs = _enumerate_vertices(
        fib.t_facets, fib.particular(u0), m, fib.t_subsets)
    lcm = math.lcm(*(det for _, _, det in verts.values()))
    maps = {}
    for vert, (rows, adj, det) in verts.items():
        k = lcm // det
        maps[vert] = [tuple(k * sum(a * forms[i][j]
                                    for a, i in zip(arow, rows))
                            for j in range(d + 1)) for arow in adj]
    total = {}
    points = sorted(verts)
    if points and _affine_dim(points) == m:
        for simplex in _triangulate(points, facets, rhs, frozenset(), m):
            apex = simplex[0]
            at_u0 = linalg.det([[p[i] - apex[i] for i in range(m)]
                                for p in simplex[1:]])
            if not at_u0:
                raise InternalError(f"a simplex of the fiber over "
                                    f"[{', '.join(map(str, u0))}] is flat")
            base = maps[apex]
            rows = [[tuple(a - b for a, b in zip(fa, fb))
                     for fa, fb in zip(maps[p], base)] for p in simplex[1:]]
            sign = 1 if at_u0 > 0 else -1
            for e, c in _form_det(rows, d).items():
                total[e] = total.get(e, 0) + sign * c
    factor = fib.scale / (math.factorial(m) * (lcm * fib.basis_adj[1]) ** m)
    return MPoly(t_vars(d), {e: c * factor for e, c in total.items()})


def _form_det(rows, d) -> dict:
    """The determinant of a square matrix of affine forms (c, l_1..l_d), as
    a polynomial {exponent: coefficient} in d variables; Laplace expansion
    along the rows, each minor computed once."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    minors = {(): {(0,) * d: 1}}

    def minor(cols):
        if cols in minors:
            return minors[cols]
        form_row = rows[len(rows) - len(cols)]
        acc = {}
        for j, col in enumerate(cols):
            form = form_row[col]
            if not any(form):
                continue
            sub = minor(cols[:j] + cols[j + 1:])
            sign = -1 if j % 2 else 1
            for e, c in sub.items():
                for k, coef in enumerate(form):
                    if coef:
                        ek = e if k == 0 else \
                            tuple(a + b for a, b in zip(e, units[k - 1]))
                        acc[ek] = acc.get(ek, 0) + sign * c * coef
        minors[cols] = acc
        return acc

    return minor(tuple(range(len(rows))))


def require_value(piece: MPoly, u, value):
    """Raise `InternalError` unless the piece takes ``value`` at u."""
    got = piece.evaluate([Fraction(v) for v in u]).to_rational()
    if got != value:
        raise InternalError(f"the piece {piece} takes {got} at "
                            f"[{', '.join(map(str, u))}], the spline {value}")


def local_piece(x: GList, cell: Cell) -> MPoly:
    """Homogeneous degree-(N-d) polynomial agreeing with T_X on the cell,
    checked against `tx_value` at the cell's sample.  Kept per list value
    under the cell's sign vector, so each chamber's piece is built once."""
    store = x.memo("chamber_pieces", lambda _: {})
    piece = store.get(cell.signs)
    if piece is None:
        piece = piece_at(x, cell.sample)
        require_value(piece, cell.sample, tx_value(x, cell.sample))
        store[cell.signs] = piece
    return piece
