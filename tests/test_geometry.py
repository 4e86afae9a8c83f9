import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from accessors import homogeneous_slice
from alcoves import alcove_room, alcove_sample, bx_by_alternating_sum
from spans import span_contains
from zonotopal.abelian import GList
from zonotopal.brionvergne import (_alcove_polynomial, bv_count,
                                   chamber_quasipolynomial, walls)
from zonotopal.errors import (NotInCone, NotPointed, RankDeficient,
                              SamplesRequired, SingularGram)
from zonotopal.geometry import (HPolytope, _cone_rays, _enumerate_vertices,
                                big_cells, bx_value, cells_at, fm_feasible,
                                hyperplane_normals, in_cone, is_pointed,
                                lattice_points, local_piece, piece_at,
                                pointed_certificate, polytope_volume,
                                short_regular, tx_value, vpf_count,
                                zonotope_hrep)
from zonotopal.matroid import arithmetic_tutte
from zonotopal.periodic import dm_basis
from zonotopal.polyspace import _monomials, d_basis
from zonotopal.scalar import Cyclotomic, MPoly, t_vars
from zonotopal import linalg

F = Fraction


def enumerate_vertices_oracle(A, b, dim):
    """Vertices of {y : A y <= b}: one Fraction elimination of [A_S | b_S]
    per dim-row subset S.

    S defines a candidate when its pivots are the first ``dim`` columns,
    neither too few (rank < dim) nor one in the last column (inconsistent);
    the candidate is kept when it satisfies every row.  The reference for
    `geometry._enumerate_vertices`.
    """
    verts = {}
    for comb in itertools.combinations(range(len(A)), dim):
        red, pivots = linalg.rref([[*A[i], b[i]] for i in comb])
        if len(pivots) < dim or dim in pivots:
            continue
        pt = tuple(row[dim] for row in red)
        ok = all(sum((a * p for a, p in zip(row, pt)), F(0)) <= beta
                 for row, beta in zip(A, b))
        if ok:
            verts[pt] = True
    return sorted(verts)


def polytope_volume_oracle(A, b, dim):
    """Volume of {y : A y <= b} by Lasserre's facet recursion (Lasserre,
    J. Optim. Theory Appl. 1983), in Fractions only.

    Each row is scaled so that its first nonzero entry a_j is +-1, and rows
    that then agree keep the smaller bound, so each facet is counted once.
    vol_k = (1/k) sum_i b_i vol_(k-1)(F_i), where F_i is the facet a_i.y =
    b_i with y_j eliminated: the cone from 0 over F_i has height
    b_i / |a_i| and F_i's area is |a_i| / |a_j| times its projection's.  A
    lower-dimensional set gets 0, since opposite rows cancel.  The
    reference for `geometry.polytope_volume`.
    """
    rows = {}
    for row, beta in zip(A, b):
        lead = next((abs(v) for v in row if v), None)
        if lead is None:
            if beta < 0:
                return F(0)
            continue
        key = tuple(F(v) / lead for v in row)
        rows[key] = min(rows.get(key, F(beta) / lead), F(beta) / lead)
    if dim == 0:
        return F(1)
    total = F(0)
    for a, beta in rows.items():
        j = next(k for k, v in enumerate(a) if v)
        sub_a, sub_b = [], []
        for c, gamma in rows.items():
            if c != a:
                f = c[j] / a[j]
                sub_a.append([c[k] - f * a[k] for k in range(dim) if k != j])
                sub_b.append(gamma - f * beta)
        total += beta * polytope_volume_oracle(sub_a, sub_b, dim - 1)
    return total / dim


def cell_sample_points(x, cell, count, salt=0):
    """Deterministic rational points strictly inside the cell."""
    if x.group.free_rank == 1:
        return [tuple(v * F(k + 1 + salt, 3) for v in cell.sample)
                for k in range(count)]
    r1, r2 = cell_rays(x, cell)
    pts = []
    for i in itertools.count(1):
        for j in range(1, i + 1):
            a, b = F(i + salt), F(j) / (j + 1)
            pts.append(tuple(a * F(u) + (a * b) * F(v)
                             for u, v in zip(r1, r2)))
            if len(pts) == count:
                return pts


def interpolate(points, values, degree, vars):
    """The unique polynomial of total degree <= degree through the data, or
    None when the points do not determine it."""
    monos = [e for k in range(degree + 1) for e in _monomials(vars, k)]
    mat = [[math.prod((F(c) ** k for c, k in zip(p, e)), start=F(1))
            for e in monos] for p in points]
    red, pivots = linalg.rref([row + [F(v)] for row, v in zip(mat, values)])
    if len(pivots) < len(monos) or len(monos) in pivots:
        return None
    return MPoly(vars, {e: red[r][-1] for r, e in enumerate(monos)})


def local_piece_oracle(x, cell):
    """T_X on a big cell (d <= 2), interpolated from `tx_value` at points
    inside it: the reference for `geometry.local_piece`."""
    d = x.group.free_rank
    deg, vars = len(x) - d, t_vars(d)
    need = sum(len(_monomials(vars, k)) for k in range(deg + 1))
    for salt in range(4):
        pts = cell_sample_points(x, cell, need, salt)
        poly = interpolate(pts, [tx_value(x, p) for p in pts], deg, vars)
        if poly is not None:
            assert poly == homogeneous_slice(poly, deg)
            return poly
    raise AssertionError(f"no sample set determines the piece on {cell}")


def alcove_polynomial_oracle(x, point, w):
    """B_X on the alcove towards w, interpolated from `bx_value` at the
    principal-lattice nodes p0 + delta * i, sum i <= N - d, around the
    alcove sample p0 that `_alcove_polynomial` takes."""
    d = x.group.free_rank
    deg, vars = len(x) - d, t_vars(d)
    p0 = alcove_sample(x, point, w)
    delta = alcove_room(x, p0) / (deg + 1)
    nodes = [tuple(p + delta * k for p, k in zip(p0, e))
             for j in range(deg + 1) for e in _monomials(vars, j)]
    return interpolate(nodes, [bx_value(x, nd) for nd in nodes], deg, vars)


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def cell_rays(x, cell):
    """The boundary rays of a big cell (d <= 2): the ray (+-1,) on the side
    of its sample at d = 1, and at d = 2 the consecutive pair of
    `_cone_rays` whose open cone holds its sample."""
    s = cell.sample
    if x.group.free_rank == 1:
        return ((1 if s[0] > 0 else -1,),)
    rays = _cone_rays(x)
    [pair] = [(r1, r2) for r1, r2 in zip(rays, rays[1:])
              if cross(r1, s) > 0 and cross(s, r2) > 0]
    return pair


def cell_interior_rows(rays):
    """The open cone of a big cell (d <= 2) from its rays, as strict rows
    ``row . y < 0``: s y > 0 for the ray (s,) at d = 1, and at d = 2
    cross(r1, y) > 0 and cross(y, r2) > 0 for the rays (r1, r2)."""
    if len(rays) == 1:
        return [((-rays[0][0],), 0, True)]
    r1, r2 = rays
    return [((r1[1], -r1[0]), 0, True), ((-r2[1], r2[0]), 0, True)]


def region_contains(x, cell, u):
    """Does u + Z(X) meet the open chamber Omega of ``cell``, that is, does
    u lie in (Omega - Z(X))?"""
    zono = zonotope_hrep(x)
    cons = [(row, beta + sum(r * F(v) for r, v in zip(row, u)), False)
            for row, beta in zip(zono.A, zono.b)]
    return fm_feasible(cons + cell_interior_rows(cell_rays(x, cell)),
                       len(u)) is not None


def region_points(x, cell, count):
    """Up to ``count`` lattice points of (Omega - Z(X)), from the smallest
    box around 0 (radius 1, 2, 4, ..., 32) that holds that many."""
    d = x.group.free_rank
    out = []
    radius = 1
    while len(out) < count and radius <= 40:
        out = []
        for point in itertools.product(range(-radius, radius + 1), repeat=d):
            if region_contains(x, cell, point):
                out.append(point)
            if len(out) >= count:
                break
        radius *= 2
    return out[:count]


def quasi_fit_oracle(x, cell):
    """The DM(X) member that equals `vpf_count` at dim DM(X) + 4 lattice
    points of (Omega - Z(X)), or None when those points do not determine
    it: the reference for `brionvergne.chamber_quasipolynomial`."""
    basis = dm_basis(x)
    pts = region_points(x, cell, len(basis) + 4)
    rows = [[b.evaluate_at(p) for b in basis] for p in pts]
    if len(pts) < len(basis) or linalg.rank(rows) < len(basis):
        return None
    sol = linalg.solve(rows, [Cyclotomic.from_rational(vpf_count(x, p))
                              for p in pts])
    assert sol is not None, f"the counts on {cell} fit no DM(X) member"
    combo = basis[0].scale(sol[0])
    for c, b in zip(sol[1:], basis[1:]):
        combo = combo + b.scale(c)
    return combo


def limit_value_oracle(x, point, w, spline=bx_value):
    """lim towards w of the spline (B_X, or T_X for `tx_value`) at point.

    On the open segment (point, point + delta w] inside one alcove the
    spline is a univariate polynomial of degree <= N - d: it is
    interpolated from exact values and extrapolated back to the endpoint.
    """
    deg = len(x) - x.group.free_rank
    pt = [F(v) for v in point]
    wq = [F(v) for v in w]
    # first positive crossing of an affine admissible hyperplane
    t_min = None
    for eta in hyperplane_normals(x):
        s = sum(F(e) * c for e, c in zip(eta, wq))
        assert s, f"w is orthogonal to the normal {eta}"
        c = sum(F(e) * v for e, v in zip(eta, pt))
        k = math.floor(c) + 1 if s > 0 else math.ceil(c) - 1
        t = (k - c) / s
        t_min = t if t_min is None else min(t_min, t)
    delta = t_min / 2
    nodes = [delta * F(k + 1, deg + 2) for k in range(deg + 1)]
    vals = [spline(x, [p + t * v for p, v in zip(pt, wq)]) for t in nodes]
    # Lagrange extrapolation to t = 0
    total = F(0)
    for i, (ti, vi) in enumerate(zip(nodes, vals)):
        for j, tj in enumerate(nodes):
            if i != j:
                vi *= -tj / (ti - tj)
        total += vi
    return total


_WIDTHS = [F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(3)]


@st.composite
def small_polytopes(draw):
    """(A, b, dim): a box with rational bounds, cut by a few random rows
    that pass near its centre.

    A negative width makes the box empty and a zero width flat.  A row that
    is the sum of two others is tight only where both are, so it makes
    non-simple vertices.  Rational multiples of rows keep A and b rational.
    """
    dim = draw(st.sampled_from([0, 1, 2, 2, 3, 3]))
    rhs = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    slack = st.fractions(min_value=-1, max_value=3, max_denominator=4)
    A, b, mid = [], [], []
    for k in range(dim):
        lo, width = draw(rhs), draw(st.sampled_from(_WIDTHS))
        unit = [F(int(i == k)) for i in range(dim)]
        A += [unit, [-v for v in unit]]
        b += [lo + width, -lo]
        mid.append(lo + width / 2)
    for _ in range(draw(st.integers(0, 3))):
        row = [F(draw(st.integers(-3, 3))) for _ in range(dim)]
        A.append(row)
        b.append(sum((a * m for a, m in zip(row, mid)), F(0)) + draw(slack))
    for _ in range(draw(st.integers(0, 2)) if A else 0):
        i = draw(st.integers(0, len(A) - 1))
        j = draw(st.integers(0, len(A) - 1))
        A.append([p + q for p, q in zip(A[i], A[j])])
        b.append(b[i] + b[j])
    for i in range(len(A)):
        f = draw(st.sampled_from([F(1), F(1), F(1, 3), F(5, 2)]))
        A[i] = [v * f for v in A[i]]
        b[i] *= f
    return A, b, dim


@pytest.fixture(scope="module")
def wide_fibres():
    """Two d = 2 lists whose fibres have dimension 2 and 3."""
    return [GList.from_rows([[1, 0, 1, 0], [0, 1, 1, 1]]),
            GList.from_rows([[1, 0, 1, 1, 2], [0, 1, 1, 2, 1]])]


class TestPointed:
    def test_one_dim(self, x124):
        assert is_pointed(x124)
        assert not is_pointed(GList.from_rows([[1, -1]]))

    def test_zp(self, zp_list):
        assert is_pointed(zp_list)

    def test_zero_column(self):
        assert not is_pointed(GList.from_rows([[1, 0], [0, 0]]))

    def test_surrounding_fan(self):
        x = GList.from_rows([[1, -1, 0], [0, 0, 1]])
        assert not is_pointed(x)


def test_alcove_room_rejects_a_point_on_a_hyperplane(x12):
    # a typed error, so the check also runs under python -O
    with pytest.raises(ValueError, match="normal"):
        alcove_room(x12, (F(2),))


class TestZonotope:
    def test_interval(self, x12):
        h = zonotope_hrep(x12)
        pts = sorted(p for p in range(-1, 5)
                     if h.contains([F(p)]))
        assert pts == [0, 1, 2, 3]
        assert lattice_points(x12, "interior") == [(1,), (2,)]

    def test_124_counts(self, x124):
        m = arithmetic_tutte(x124)
        assert len(lattice_points(x124, "interior")) == m.evaluate(0, 1) == 6
        assert m.evaluate(1, 1) == 7

    def test_square_interior(self):
        x = GList.from_rows([[2, 0], [0, 2]])
        assert lattice_points(x, "interior") == [(1, 1)]

    def test_counts_match_tutte(self, mixed_corpus):
        for x in mixed_corpus[:15]:
            if x.group.invariants:
                continue
            m = arithmetic_tutte(x)
            w = short_regular(x)
            assert len(lattice_points(x, "shifted", w=w)) == m.evaluate(1, 1)
            assert len(lattice_points(x, "interior")) == m.evaluate(0, 1)


@st.composite
def free_lists(draw):
    """A list over Z^d, d = 1-3, with parallel, opposite and zero columns
    mixed in; at times a coordinate row is zeroed or copied, so that the
    rank falls below d."""
    d = draw(st.integers(1, 3))
    top = 1 if d == 3 else 3
    cols = [[draw(st.integers(-1, top)) for _ in range(d)]
            for _ in range(draw(st.integers(1, 6 - d)))]
    for _ in range(draw(st.integers(0, 2))):
        col = draw(st.sampled_from(cols))
        k = draw(st.sampled_from([0, -1, 1, 2]))
        cols.append([k * v for v in col])
    if d > 1 and draw(st.integers(0, 4)) == 0:
        copy = draw(st.booleans())
        for col in cols:
            col[-1] = col[0] if copy else 0
    return GList.from_columns(cols)


def lattice_points_oracle(x, mode, w=None):
    """Lattice points p with p (interior) or p + w (shifted) in Z(X), by
    `HPolytope.contains` on Fraction points over the box of Z(X) widened
    on each side by one more than the largest |w_i|.  The reference for
    `geometry.lattice_points`."""
    hrep = zonotope_hrep(x)
    pad = 1 + math.ceil(max((abs(v) for v in w or ()), default=0))
    box = [range(sum(min(e.free[i], 0) for e in x.elems) - pad,
                 sum(max(e.free[i], 0) for e in x.elems) + pad + 1)
           for i in range(x.group.free_rank)]
    if mode == "interior":
        return [p for p in itertools.product(*box)
                if hrep.contains([F(v) for v in p], strict=True)]
    return [p for p in itertools.product(*box)
            if hrep.contains([v + F(s) for v, s in zip(p, w)])]


def in_cone_oracle(x, u):
    """Is u a nonnegative combination of the columns?  `fm_feasible` on
    y >= 0, X y = u: the reference for `geometry.in_cone`."""
    n = len(x)
    cons = []
    for i in range(x.group.free_rank):
        row = [F(e.free[i]) for e in x.elems]
        cons += [(row, F(u[i]), False), ([-v for v in row], -F(u[i]), False)]
    cons += [([F(-int(k == j)) for k in range(n)], F(0), False)
             for j in range(n)]
    return fm_feasible(cons, n) is not None


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


class TestIntegerGeometry:
    """The integer paths of `lattice_points` and `in_cone` against Fraction
    references."""

    @settings(max_examples=120, deadline=None)
    @given(free_lists(), st.data())
    def test_lattice_points_match_contains_filter(self, x, data):
        d = x.group.free_rank
        w = data.draw(st.lists(rationals, min_size=d, max_size=d))
        if not x.is_full_rank():
            for mode in ("interior", "shifted"):
                with pytest.raises(RankDeficient):
                    lattice_points(x, mode, w=w)
            return
        assert lattice_points(x, "interior") \
            == lattice_points_oracle(x, "interior")
        assert lattice_points(x, "shifted", w=w) \
            == lattice_points_oracle(x, "shifted", w)

    def test_shift_by_lattice_vector_translates_points(self, x12):
        # Z(X) - (w + k) = (Z(X) - w) - k for an integer k, however far
        w = [F(1, 3)]
        near = lattice_points(x12, "shifted", w=w)
        for k in (3, -5):
            assert lattice_points(x12, "shifted", w=[w[0] + k]) \
                == [(p - k,) for (p,) in near]

    @settings(max_examples=100, deadline=None)
    @given(free_lists(), st.data())
    def test_in_cone_matches_fourier_motzkin(self, x, data):
        d = x.group.free_rank
        coords = st.integers(-4, 6) | st.fractions(-4, 6, max_denominator=5)
        for _ in range(4):
            u = data.draw(st.lists(coords, min_size=d, max_size=d))
            assert in_cone(x, u) == in_cone_oracle(x, u), (x, u)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_contains_integer_rows_match_fraction_rows(self, data):
        # every row passes through one of the points, so points on the
        # boundary are tested as well as points on either side
        d = data.draw(st.integers(1, 3))
        vec = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
        points = data.draw(st.lists(vec, min_size=1, max_size=4))
        rows = data.draw(st.lists(vec, min_size=1, max_size=4))
        through = [data.draw(st.sampled_from(points)) for _ in rows]
        b = [sum(r * v for r, v in zip(row, p))
             + data.draw(st.sampled_from([-1, 0, 0, 1]))
             for row, p in zip(rows, through)]
        ints = HPolytope(rows, b)
        fracs = HPolytope([[F(v) for v in row] for row in rows],
                          [F(v) for v in b])
        for point in points:
            for strict in (False, True):
                assert ints.contains(point, strict) \
                    == fracs.contains([F(v) for v in point], strict)

    def test_list_facts_are_kept_as_tuples(self, zp_list):
        h = zonotope_hrep(zp_list)
        assert zonotope_hrep(zp_list) is h
        assert type(h.A) is tuple and type(h.b) is tuple
        assert all(type(row) is tuple for row in h.A)
        assert all(type(v) is int for row in h.A for v in row + h.b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.A = ()
        eta = pointed_certificate(zp_list)
        assert pointed_certificate(zp_list) is eta
        assert type(eta) is tuple
        assert all(sum(e * v for e, v in zip(eta, col.free)) >= 1
                   for col in zp_list.elems)


class TestVolume:
    def test_simplex(self):
        # standard triangle x,y >= 0, x+y <= 1
        A = [[F(-1), F(0)], [F(0), F(-1)], [F(1), F(1)]]
        b = [F(0), F(0), F(1)]
        assert polytope_volume(A, b, 2) == F(1, 2)

    def test_degenerate(self):
        A = [[F(1)], [F(-1)]]
        b = [F(1), F(-1)]
        assert polytope_volume(A, b, 1) == 0

    def test_cube_with_redundancy(self):
        A = [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)],
             [F(1), F(1)]]
        b = [F(1), F(0), F(1), F(0), F(5)]
        assert polytope_volume(A, b, 2) == 1

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_adjugate(self, m):
        n = len(m)
        det = linalg.det([[F(v) for v in row] for row in m])
        got = linalg.adjugate(m)
        if not det:
            assert got is None
            return
        adj, d = got
        assert d == abs(det)
        assert [[sum(adj[i][k] * m[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] \
            == [[d * int(i == j) for j in range(n)] for i in range(n)]

    @settings(max_examples=120, deadline=None)
    @given(small_polytopes())
    def test_vertices_and_volume_match_oracle(self, poly):
        A, b, dim = poly
        den, verts, _, _ = _enumerate_vertices(A, b, dim)
        assert sorted(tuple(F(v, den) for v in p) for p in verts) \
            == enumerate_vertices_oracle(A, b, dim)
        assert polytope_volume(A, b, dim) == polytope_volume_oracle(A, b, dim)


class TestSplineValues:
    def test_t_values(self, x124, x11):
        assert tx_value(x124, [5]) == F(25, 16)
        assert tx_value(x11, [2]) == 2

    def test_b_values(self, x124, x11, x12):
        assert bx_value(x124, [F(7, 2)]) == F(1, 4)
        assert bx_value(x11, [1]) == 1
        assert bx_value(x12, [2]) == F(1, 2)

    def test_box_adjugates_built_on_first_bx_value(self, monkeypatch):
        from zonotopal import geometry
        built = []
        subset_adjugates = geometry._subset_adjugates
        monkeypatch.setattr(geometry, "_subset_adjugates",
                            lambda A, dim: built.append(len(A))
                            or subset_adjugates(A, dim))
        x = GList.from_rows([[1, 0, 1, 1], [0, 1, 1, 2]])
        assert tx_value(x, [2, 3]) == tx_value(x, [2, 3])
        assert built == [4]
        for u in ([F(4, 3), F(5, 2)], [F(7, 4), F(5, 3)]):
            assert bx_value(x, u) == bx_by_alternating_sum(x, u)
        assert built == [4, 8]

    def test_zp_middle_value_against_piece(self, zp_list):
        cells = big_cells(zp_list)
        mid = cells[1]
        piece = local_piece(zp_list, mid)
        # the piece of the middle cell agrees with T_X at a point inside it
        assert piece.evaluate([F(1), F(1)]).to_rational() \
            == tx_value(zp_list, [1, 1])

    def test_alternating_sum_crosscheck(self, geometry_corpus, wide_fibres):
        # the pointwise identity is asserted at affine-regular points (both
        # sides are continuous there); wall values depend on one-sided limits
        from zonotopal.geometry import hyperplane_normals
        rng = random.Random(17)
        for x in list(geometry_corpus[:4]) + wide_fibres:
            d = x.group.free_rank
            normals = hyperplane_normals(x)
            done = 0
            while done < 25:
                u = [F(rng.randint(-8, 16), rng.choice((2, 3, 5, 7)))
                     + F(1, 11) for _ in range(d)]
                if any((sum(F(e) * v for e, v in zip(eta, u))).denominator == 1
                       for eta in normals):
                    continue
                done += 1
                assert bx_value(x, u) == bx_by_alternating_sum(x, u)

    def test_support_is_zonotope(self, x124, zp_list):
        for x in (x124, zp_list):
            h = zonotope_hrep(x)
            d = x.group.free_rank
            rng = random.Random(3)
            for _ in range(20):
                u = [F(rng.randint(-10, 18), rng.choice((1, 2, 3)))
                     for _ in range(d)]
                if not h.contains(u):
                    assert bx_value(x, u) == 0

    def test_not_pointed_rejected(self):
        with pytest.raises(NotPointed):
            tx_value(GList.from_rows([[1, -1]]), [1])


def vpf_count_oracle(x, u):
    """|{w >= 0 : X w = u}| by a Fraction recursion over every column,
    each bounded by the rational certificate eta.  The reference for
    `geometry.vpf_count`."""
    eta = pointed_certificate(x)
    cols = [[F(v) for v in e.free] for e in x.elems]
    weights = [sum(e * c for e, c in zip(eta, col)) for col in cols]

    def rec(idx, target):
        if idx == len(cols):
            return 1 if not any(target) else 0
        col, wgt = cols[idx], weights[idx]
        budget = sum(e * t for e, t in zip(eta, target))
        if budget < 0:
            return 0
        total = 0
        for k in range(int(budget / wgt) + 1):
            total += rec(idx + 1, [t - k * c for t, c in zip(target, col)])
        return total

    return rec(0, [F(v) for v in u])


@st.composite
def pointed_lists_and_points(draw):
    """A pointed list (d = 1-3, n = 1-5, parallel columns and a dead
    coordinate allowed) and a point u near its cone, sometimes
    fractional."""
    d = draw(st.integers(1, 3))
    dead = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    n = draw(st.integers(1, 5))
    cols = [[0 if i in dead else draw(st.integers(-1, 3)) for i in range(d)]
            for _ in range(n)]
    x = GList.from_columns(cols)
    if not is_pointed(x):
        x = GList.from_columns([[abs(v) for v in c] for c in cols])
    u = [draw(st.integers(-2, 9)) for _ in range(d)]
    if draw(st.integers(0, 9)) == 0:
        u[0] = F(2 * u[0] + 1, 2)
    return x, u


class TestVpf:
    @settings(max_examples=150, deadline=None)
    @given(pointed_lists_and_points())
    def test_matches_fraction_recursion(self, case):
        x, u = case
        if not is_pointed(x):
            with pytest.raises(NotPointed):
                vpf_count(x, u)
            return
        assert vpf_count(x, u) == vpf_count_oracle(x, u)

    def test_values(self, x124, x11):
        assert vpf_count(x124, [5]) == 4
        assert vpf_count(x11, [3]) == 4
        assert vpf_count(x124, [0]) == 1

    def test_zero_point(self, geometry_corpus):
        for x in geometry_corpus:
            assert vpf_count(x, [0] * x.group.free_rank) == 1


class TestCells:
    def test_zp_three_cells(self, zp_list):
        assert len(big_cells(zp_list)) == 3

    def test_124_single_ray(self, x124):
        cells = big_cells(x124)
        assert len(cells) == 1
        assert cells[0].sample == (F(1),)

    def test_short_regular_1d(self, x11):
        w = short_regular(x11)
        assert 0 < abs(w[0]) < 1

    def test_short_regular_verified(self, geometry_corpus):
        from zonotopal.geometry import hyperplane_normals
        for x in geometry_corpus:
            w = short_regular(x)
            for eta in hyperplane_normals(x):
                v = sum(F(e) * c for e, c in zip(eta, w))
                assert v != 0 and abs(v) < 1

    def test_short_regular_past_the_small_primes(self):
        # the normal (50, -1) puts 50/q - 1/q^2 >= 1 for every q <= 41, so
        # w comes from q = (2M + 2) d L; also inside cone(X) from a point
        # interior to it, there (1/3, 50/3) on the hyperplane of (50, -1)
        for rows, point in (([[0, 1], [1, 50]], (1, 52)),
                            ([[0, 1, 1], [1, 50, 49]], (F(1, 3), F(50, 3)))):
            x = GList.from_rows(rows)
            for base in (None, point):
                w = short_regular(x, in_cone_of=base)
                for eta in hyperplane_normals(x):
                    v = sum(F(e) * c for e, c in zip(eta, w))
                    assert v != 0 and abs(v) < 1
                assert base is None or in_cone(x, w)

    def test_short_regular_from_the_boundary_is_not_in_cone(self):
        # (1, 50) is the column x_2, on a ray of cone(X): no w near it is
        # regular and inside the cone
        x = GList.from_rows([[0, 1], [1, 50]])
        for base in ((1, 50), (0, 1), (-1, 0)):
            with pytest.raises(NotInCone, match="not interior"):
                short_regular(x, in_cone_of=base)

    def test_d3_requires_samples(self):
        x = GList.from_rows([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        with pytest.raises(SamplesRequired):
            big_cells(x)
        cells = big_cells(x, samples=[(F(1, 3), F(1, 5), F(5))])
        assert len(cells) == 1

    def test_samples_verified_regular(self, zp_list):
        from zonotopal.errors import DegenerateSample
        with pytest.raises(DegenerateSample):
            big_cells(zp_list, samples=[(F(1), F(0))])


# cones that hold the negative x-axis, inside or on the boundary, where an
# angular order that starts at the positive x-axis would split the cone
NEGATIVE_X = [[[-1, -1, -1], [1, -1, 0]], [[-1, -1, -1, -2], [1, -1, 0, 1]],
              [[-1, -1], [1, -1]], [[-1, -1], [0, 1]], [[-1, 0], [0, -1]],
              [[-1, -2, -1], [2, -1, -3]]]

# directions w toward a chamber; the axes and diagonals lie on admissible
# hyperplanes of many lists, where u + eps*w can stay on a wall
TOWARD = [(1, 3), (3, -1), (-1, -3), (-3, 1), (2, -5), (-5, -2), (5, 2),
          (-2, 5), (1, 0), (0, 1), (-1, 0), (1, 1), (1, -1)]


def in_cell_oracle(rays, u, w=None):
    """Is u in the closure of the cell with the boundary ``rays``
    (`cell_rays`), or with w, is u + eps*w in the open cell for all small
    eps > 0?  Read off the cell's rays alone."""
    for row, _, _ in cell_interior_rows(rays):
        v = sum(r * a for r, a in zip(row, u))
        if not v and w is not None:
            # u + eps*w on the cell's wall is in no open cell
            v = sum(r * a for r, a in zip(row, w)) or 1
        if v > 0:
            return False
    return True


class TestChamberLookup:
    """`cells_at` names a chamber by its sign vector over the admissible
    normals; the oracle knows only each cell's rays."""

    @pytest.fixture(scope="class")
    def lookup_lists(self, long_geometry_corpus):
        return list(long_geometry_corpus) \
            + [GList.from_rows(rows) for rows in NEGATIVE_X]

    def test_rays_run_counterclockwise_across_the_cone(self, lookup_lists):
        for x in lookup_lists:
            if x.group.free_rank != 2:
                continue
            rays = _cone_rays(x)
            assert all(cross(a, b) > 0 for a, b in zip(rays, rays[1:])), x
            for e in x.elems:
                assert cross(rays[0], e.free) >= 0 \
                    and cross(e.free, rays[-1]) >= 0, x
            assert [cell_rays(x, c) for c in big_cells(x)] \
                == list(zip(rays, rays[1:]))

    def test_closure_lookup_matches_rays(self, lookup_lists):
        shared = 0
        for x in lookup_lists:
            cells = big_cells(x)
            rays = [cell_rays(x, c) for c in cells]
            for u in itertools.product(range(-6, 7),
                                       repeat=x.group.free_rank):
                want = [id(c) for c, r in zip(cells, rays)
                        if in_cell_oracle(r, u)]
                assert [id(c) for c in cells_at(x, cells, u)] == want, (x, u)
                assert bool(want) == in_cone(x, u), (x, u)
                shared += len(want) > 1
        assert shared

    def test_toward_w_lookup_matches_rays(self, lookup_lists):
        leaves = along = 0
        for x in lookup_lists:
            d = x.group.free_rank
            cells = big_cells(x)
            rays = [cell_rays(x, c) for c in cells]
            pieces = {id(c): local_piece(x, c) for c in cells}
            ws = [(1,), (-1,)] if d == 1 else TOWARD
            wall_rays = [] if d == 1 else _cone_rays(x)
            for u in itertools.product(range(-6, 7), repeat=d):
                if not in_cone(x, u):
                    continue
                for w in ws:
                    want = [id(c) for c, r in zip(cells, rays)
                            if in_cell_oracle(r, u, w)]
                    assert len(want) <= 1
                    if any(not cross(r, u) and not cross(r, w)
                           for r in wall_rays):
                        # u + eps*w runs along a wall: w is not affine
                        # regular there
                        assert not want
                        along += 1
                        with pytest.raises(SingularGram):
                            cells_at(x, cells, u, w)
                        with pytest.raises(SingularGram):
                            bv_count(x, x.group.zero(), u, w, cells=cells,
                                     pieces=pieces)
                        continue
                    got = cells_at(x, cells, u, w)
                    assert [id(c) for c in got] == want, (x, u, w)
                    if not want:
                        # w leaves the cone
                        leaves += 1
                        with pytest.raises(NotInCone):
                            bv_count(x, x.group.zero(), u, w, cells=cells,
                                     pieces=pieces)
        assert leaves and along

    def test_walls_match_rays(self, lookup_lists):
        # one wall per ray, in order, its normal the ray turned left; each
        # side's piece is that of the cell the oracle finds toward
        # +-normal from the ray, or zero outside the cone
        for x in lookup_lists:
            d = x.group.free_rank
            cells = big_cells(x)
            rays = [cell_rays(x, c) for c in cells]
            got = walls(x)
            assert [wall.ray for wall in got] \
                == ([(0,)] if d == 1 else _cone_rays(x))
            for wall in got:
                r = wall.ray
                assert wall.normal == ((1,) if d == 1 else (-r[1], r[0]))
                for s, piece in ((1, wall.piece_pos), (-1, wall.piece_neg)):
                    toward = [s * e for e in wall.normal]
                    want = [c for c, rs in zip(cells, rays)
                            if in_cell_oracle(rs, r, toward)]
                    assert len(want) <= 1
                    assert piece == (local_piece(x, want[0]) if want
                                     else MPoly(t_vars(d))), (x, wall)


class TestLocalPieces:
    def test_124_ray(self, x124):
        piece = local_piece(x124, big_cells(x124)[0])
        from zonotopal.scalar import MPoly
        assert piece == MPoly(("t1",), {(2,): F(1, 16)})

    def test_two_ones(self, x11):
        piece = local_piece(x11, big_cells(x11)[0])
        from zonotopal.scalar import MPoly
        assert piece == MPoly.linear_form(("t1",), (1,))

    def test_pieces_in_d_span_and_distinct(self, zp_list, geometry_corpus,
                                           wide_fibres):
        for x in [zp_list] + list(geometry_corpus[:3]) + wide_fibres:
            if x.group.free_rank > 2:
                continue
            db = d_basis(x)
            monos = sorted({e for p in db.basis for e in p.terms})
            rows = [[p.coefficient(e).to_rational() for e in monos]
                    for p in db.basis]
            seen = []
            for cell in big_cells(x):
                piece = local_piece(x, cell)
                vec = [piece.coefficient(e).to_rational() for e in monos]
                assert span_contains(rows, vec)
                assert piece not in seen
                seen.append(piece)


@pytest.fixture(scope="module")
def piece_corpus(geometry_corpus, zp_list, x124, wide_fibres):
    """The geometry corpus and lists whose fibres have dimension 1 to 3:
    most corpus lists are bases, with a point for a fibre."""
    return list(geometry_corpus) + [zp_list, x124] + wide_fibres


@pytest.fixture(scope="module")
def d3_list():
    return GList.from_rows([[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1],
                            [0, 0, 1, 0, 1, 1]])


class TestExactPieces:
    def test_local_pieces_match_interpolation(self, piece_corpus):
        for x in piece_corpus:
            for cell in big_cells(x):
                assert local_piece(x, cell) == local_piece_oracle(x, cell)

    def test_alcove_polynomials_match_interpolation(self, piece_corpus):
        for x in piece_corpus:
            w = short_regular(x)
            support = lattice_points(x, "shifted", w=[0] * x.group.free_rank)
            for lam in support:
                assert _alcove_polynomial(x, lam, w) \
                    == alcove_polynomial_oracle(x, lam, w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_piece_is_tx_inside_its_cell(self, piece_corpus, data):
        x = data.draw(st.sampled_from(piece_corpus))
        cell = data.draw(st.sampled_from(big_cells(x)))
        a, b = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        rays = cell_rays(x, cell)
        if x.group.free_rank == 1:
            u = (a * rays[0][0],)
        else:
            r1, r2 = rays
            u = tuple(a * p + b * q for p, q in zip(r1, r2))
        got = local_piece(x, cell).evaluate([F(v) for v in u])
        assert got.to_rational() == tx_value(x, u)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_piece_is_bx_inside_its_alcove(self, piece_corpus, data):
        x = data.draw(st.sampled_from(piece_corpus))
        w = short_regular(x)
        support = lattice_points(x, "shifted", w=[0] * x.group.free_rank)
        lam = data.draw(st.sampled_from(support))
        p0 = alcove_sample(x, lam, w)
        room = alcove_room(x, p0)
        step = st.fractions(min_value=-1, max_value=1, max_denominator=50)
        u = [p + room * data.draw(step) for p in p0]
        got = _alcove_polynomial(x, lam, w).evaluate(u)
        assert got.to_rational() == bx_value(x, u)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_d3_pieces_match_splines(self, d3_list, data):
        # a chamber given by its sample, and alcoves, with a 3-dim fibre
        x = d3_list
        step = st.fractions(min_value=-1, max_value=1, max_denominator=50)
        sample = (F(37, 10), F(23, 10), F(17, 10))
        cell = big_cells(x, samples=[sample])[0]
        room = min(abs(sum(e * v for e, v in zip(eta, sample)))
                   / sum(map(abs, eta)) for eta in hyperplane_normals(x)) / 2
        k = data.draw(st.integers(1, 5))
        u = [k * (v + room * data.draw(step)) for v in sample]
        assert local_piece(x, cell).evaluate(u).to_rational() \
            == tx_value(x, u)
        w = short_regular(x)
        lam = data.draw(st.sampled_from(
            lattice_points(x, "shifted", w=[0, 0, 0])))
        p0 = alcove_sample(x, lam, w)
        u = [p + alcove_room(x, p0) * data.draw(step) for p in p0]
        assert _alcove_polynomial(x, lam, w).evaluate(u).to_rational() \
            == bx_value(x, u)


def quasi(x, cell):
    """The quasi-polynomial count of the chamber, z = 0."""
    return chamber_quasipolynomial(x, cell)


class TestQuasiFit:
    def test_two_ones(self, x11):
        q = quasi(x11, big_cells(x11)[0])
        assert [q.evaluate_at((u,)).to_rational() for u in range(5)] \
            == [1, 2, 3, 4, 5]

    def test_one_two(self, x12):
        q = quasi(x12, big_cells(x12)[0])
        for u in range(8):
            expect = F(u, 2) + F(3, 4) + F((-1) ** u, 4)
            assert q.evaluate_at((u,)).to_rational() == expect

    def test_124_branch(self, x124):
        q = quasi(x124, big_cells(x124)[0])
        for u in (0, 4, 8, 12):
            assert q.evaluate_at((u,)).to_rational() \
                == F(u * u, 16) + F(u, 2) + 1

    def test_components_in_d_of_sublists(self, zp_list):
        from zonotopal.toric import vertices
        cells = big_cells(zp_list)
        q = quasi(zp_list, cells[1])
        verts = {v.character: v for v in vertices(zp_list)}
        for char, poly in q.terms:
            v = verts[char]
            sub = zp_list.sublist(v.x_phi)
            db = d_basis(sub)
            monos = sorted({e for p in db.basis for e in p.terms}
                           | set(poly.terms))
            rows = [[p.coefficient(e) for e in monos] for p in db.basis]
            vec = [poly.coefficient(e) for e in monos]
            assert span_contains(rows, vec)

    def test_matches_counts_in_box(self, geometry_corpus):
        for x in geometry_corpus[:3]:
            d = x.group.free_rank
            cells = big_cells(x)
            q = quasi(x, cells[0])
            # every lattice point of (Omega - Z) in a radius-6 box
            for pt in itertools.product(range(-6, 7), repeat=d):
                if not region_contains(x, cells[0], pt):
                    continue
                expect = vpf_count(x, pt) if in_cone(x, pt) else 0
                assert q.evaluate_at(pt) == expect


class TestChamberQuasipolynomial:
    def test_matches_fit_oracle(self, piece_corpus):
        # the fit fails where its sample points do not determine it; the
        # closed form covers those chambers too
        fitted = unfitted = 0
        for x in piece_corpus:
            for cell in big_cells(x):
                fit = quasi_fit_oracle(x, cell)
                if fit is None:
                    unfitted += 1
                    continue
                fitted += 1
                assert quasi(x, cell) == fit
        assert fitted > unfitted > 0

    def test_matches_counts_on_region(self, piece_corpus):
        # every lattice point of (Omega - Z(X)) in [-4, 8)^d, every chamber
        for x in piece_corpus:
            d = x.group.free_rank
            counts = {}
            for cell in big_cells(x):
                q = quasi(x, cell)
                for pt in itertools.product(range(-4, 8), repeat=d):
                    if not region_contains(x, cell, pt):
                        continue
                    if pt not in counts:
                        counts[pt] = vpf_count(x, pt)
                    assert q.evaluate_at(pt) == counts[pt], (x, cell, pt)

    def test_piece_limits_match_extrapolation(self, piece_corpus):
        # directional limits of B_X and T_X at lattice points: the value of
        # the piece on the alcove towards w, against Lagrange extrapolation.
        # The box holds every u at which criterion 11 and
        # TestSemidiscreteConvolution read T_X; the lattice points of Z(X)
        # (Z(X) shifted by 0) hold every u - z at which they read B_X.
        for x in piece_corpus:
            d = x.group.free_rank
            w = short_regular(x)
            box = set(itertools.product(range(-2, 7), repeat=d))
            zono = set(lattice_points(x, "shifted", w=[0] * d))
            for u in sorted(box | zono):
                assert _alcove_polynomial(x, u, w).evaluate(u) \
                    == limit_value_oracle(x, u, w)
                if u in box:
                    assert piece_at(x, alcove_sample(x, u, w)).evaluate(u) \
                        == limit_value_oracle(x, u, w, spline=tx_value)


class TestSemidiscreteConvolution:
    def test_identity(self, geometry_corpus, x124):
        # T_X(u) = sum_z B_X(u - z) i_X(z) at lattice u; both sides are read
        # with the same directional-limit convention since lattice points sit
        # on the walls of B_X: the value at u of the piece on the alcove
        # (B_X) or the chamber (T_X) towards w
        for x in list(geometry_corpus[:4]) + [x124]:
            d = x.group.free_rank
            h = zonotope_hrep(x)
            w = short_regular(x)
            window = itertools.product(range(0, 7), repeat=d)
            for u in itertools.islice(window, 10):
                if not in_cone(x, u):
                    continue
                total = F(0)
                box = itertools.product(range(-8, 9), repeat=d)
                for z in box:
                    diff = [F(a - b) for a, b in zip(u, z)]
                    if not h.contains(diff):
                        continue
                    b = _alcove_polynomial(x, diff, w).evaluate(diff)
                    if b:
                        total += b.to_rational() * vpf_count(x, z)
                t = piece_at(x, alcove_sample(x, u, w)).evaluate(u)
                assert total == t.to_rational()
