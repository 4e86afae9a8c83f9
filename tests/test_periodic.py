from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from accessors import coefficients_reversed, homogeneous_slice
from spans import span_equal, stacked_rank
from zonotopal import linalg
from zonotopal.abelian import FgGroup, GList, contract, list_facts, snf
from zonotopal.corpus import CorpusLimits, corpus
from zonotopal.errors import (InternalError, NonMember, TorsionPivot,
                              TorsionUnsupported)
from zonotopal.geometry import hyperplanes, lattice_points, short_regular
from zonotopal.matroid import arithmetic_tutte, is_coloop
from zonotopal import periodic
from zonotopal.periodic import (PeriodicPoly, PeriodicSeries,
                                QuasiFunction, dm_basis,
                                f_tilde, hilbert, l_map, pair_pper_dm,
                                periodic_todd, pper_basis, pper_decompose,
                                pper_internal_basis, pper_membership,
                                pper_mult, pper_project)
from zonotopal.polyspace import PsiProjector, p_linear
from zonotopal.scalar import (Cyclotomic, MPoly, TruncatedSeries, euler_phi,
                              exp_series, t_vars, todd_factor, todd_log)
from zonotopal.toric import Character, evaluate, evaluate_point, vertices

F = Fraction


def _pper_rows(ps):
    """One coefficient row per periodic polynomial, over common columns."""
    keys = sorted({c for p in ps for c, _ in p.terms})
    monos = sorted({e for p in ps for _, poly in p.terms
                    for e in poly.terms})

    def row(p):
        out = []
        comps = {c: poly for c, poly in p.terms}
        for k in keys:
            poly = comps.get(k)
            for e in monos:
                out.append(poly.coefficient(e) if poly is not None
                           else Cyclotomic.zero())
        return out

    return [row(p) for p in ps]


def _pper_span_equal(a, b):
    rows = _pper_rows(a + b)
    return span_equal(rows[:len(a)], rows[len(a):])


def _with_torsion_column(x):
    """x with the torsion column (0; 1) appended, over Z^d + Z/2 when x is
    torsion-free."""
    d, group = x.group.free_rank, x.group
    cols = [e.lift() for e in x.elems]
    if not group.invariants:
        cols, group = [c + [0] for c in cols], FgGroup(d, (2,))
    return GList.from_columns(cols + [[0] * d + [1]], group)


# prefixes of (1,0),(0,1),(1,1),(1,2),(2,1),(1,3),(3,1): d = 2 lists of
# n = 5-7, as in the todd benchmark, with 5, 12 and 24 toric vertices
_TODD_COLS = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
TODD_LISTS = [GList.from_rows([[c[0] for c in _TODD_COLS[:n]],
                               [c[1] for c in _TODD_COLS[:n]]])
              for n in (5, 6, 7)]


def f_tilde_projected(x, z):
    """Oracle: psi_X of each vertex component of the periodic Todd series
    at z, taken at the series' own default cap n - d + 1."""
    todd = periodic_todd(x, z)
    psi = PsiProjector(x, todd.vars)
    return PeriodicPoly(todd.vars, [(c, psi(s)) for c, s in todd.terms])


def periodic_todd_by_products(x, z, cap=None):
    """Oracle: each vertex component as e_phi(-z) exp(-p_z) times the Todd
    factor of every column, multiplied in one at a time at the full cap."""
    from zonotopal.periodic import _pper_vars
    if cap is None:
        cap = max(len(x) - x.group.free_rank + 1, 0)
    vars = _pper_vars(x)
    s0_form = MPoly.variable(vars, 0) if "s0" in vars else None
    out = []
    for v in vertices(x):
        series = TruncatedSeries.constant(vars, evaluate(v.character, -z), cap)
        pz = p_linear(z, vars)
        if pz:
            series = series * exp_series(-pz, cap)
        for elem in x.elems:
            c = evaluate(v.character, -elem)
            form = p_linear(elem, vars)
            if not form:
                if c.is_one():
                    continue
                form = s0_form
            series = series * todd_factor(form, c, cap)
        out.append((v.character, series))
    return PeriodicSeries(vars, out)


def todd_json(series):
    """The Todd series as the `todd` command prints it: declared cyclotomic
    orders included."""
    return [(c.to_json(), s.body.to_json(), s.cap) for c, s in series.terms]


def _make(x, items):
    """items: list of (character, poly) with polys over the right vars."""
    from zonotopal.periodic import _pper_vars
    return PeriodicPoly(_pper_vars(x), items)


class TestPperBasis:
    def test_one_two(self, x12):
        basis = pper_basis(x12)
        sv = ("s1",)
        triv = Character.trivial(x12.group)
        half = Character((F(1, 2),), ())
        s = MPoly.linear_form(sv, (1,))
        expect = [_make(x12, [(triv, MPoly.constant(sv, 1))]),
                  _make(x12, [(triv, s)]),
                  _make(x12, [(half, s)])]
        assert _pper_span_equal(basis, expect)
        assert hilbert(basis) == [1, 2]

    def test_zp_printed_basis(self, zp_list):
        basis = pper_basis(zp_list)
        sv = ("s1", "s2")
        s1 = MPoly.linear_form(sv, (1, 0))
        s2 = MPoly.linear_form(sv, (0, 1))
        triv = Character.trivial(zp_list.group)
        phi1 = Character((F(1, 2), F(1, 2)), ())
        expect = [
            _make(zp_list, [(triv, MPoly.constant(sv, 1))]),
            _make(zp_list, [(triv, s2)]),
            _make(zp_list, [(triv, s2 * (s1 + s2))]),
            _make(zp_list, [(triv, s1)]),
            _make(zp_list, [(triv, s1 * (s1 + s2))]),
            _make(zp_list, [(triv, s1 * s2)]),
            _make(zp_list, [(phi1, s1 * s2)]),
        ]
        assert len(basis) == 7
        assert _pper_span_equal(basis, expect)
        assert hilbert(basis) == [1, 2, 4]

    def test_molecule(self):
        x = GList.from_columns([[2]], FgGroup(0, (4,)))
        basis = pper_basis(x)
        sv = ("s0",)
        s0 = MPoly.linear_form(sv, (1,))

        def char(k):
            return Character((), (F(k, 4),))

        expect = [_make(x, [(char(0), MPoly.constant(sv, 1))]),
                  _make(x, [(char(1), s0)]),
                  _make(x, [(char(2), MPoly.constant(sv, 1))]),
                  _make(x, [(char(3), s0)])]
        assert _pper_span_equal(basis, expect)

    def test_dims_match_arithmetic_tutte(self, mixed_corpus):
        for x in mixed_corpus:
            basis = pper_basis(x)
            m = arithmetic_tutte(x)
            assert len(basis) == m.evaluate(1, 1)
            n, d = len(x), x.group.free_rank
            h = hilbert(basis)
            h += [0] * (n - d + 1 - len(h))
            assert h == coefficients_reversed(m, n - d, 1)

    def test_d3_hilbert_series(self):
        # 659 elements at 555 vertices, past the test corpus's volume cap
        x = GList.from_rows([[3, 1, -2, -1, -3, -3], [-2, 0, 2, -2, 3, -3],
                             [-1, -3, -3, -3, -3, 2]])
        m = arithmetic_tutte(x)
        assert hilbert(pper_basis(x)) == coefficients_reversed(m, 3, 1) \
            == [1, 3, 45, 610]

    def test_hilbert_count_is_stacked_rank(self):
        # hilbert counts elements; the rank over every character at once
        # says the count is the dimension, for both spaces
        lists = [y for seed in (5, 11)
                 for y in corpus(seed, CorpusLimits(max_dim=2, max_len=4))]
        lists += [_with_torsion_column(y) for y in lists]
        for x in lists:
            for basis in (pper_basis(x), pper_internal_basis(x)):
                ranks = []
                for deg in range(len(hilbert(basis))):
                    ranks.append(stacked_rank(
                        [p for p in basis if p.total_degree() == deg]))
                assert hilbert(basis) == ranks

    def test_dependent_block_is_internal_error(self, x12, monkeypatch):
        # every product 1: the trivial character's two bases {0} and {1}
        # give the same polynomial
        monkeypatch.setattr(periodic, "p_product",
                            lambda x, idx, vars: MPoly.constant(vars, 1))
        with pytest.raises(InternalError, match="dependent"):
            pper_basis(x12)


class TestDmBasis:
    def test_124(self, x124):
        basis = dm_basis(x124)
        assert len(basis) == 7
        reprs = {str(f) for f in basis}
        assert "e[1/4]*(1)" in reprs
        assert "e[1/2]*(t1)" in reprs

    def test_zp(self, zp_list):
        basis = dm_basis(zp_list)
        assert len(basis) == 7
        assert any(str(f) == "e[1/2,1/2]*(1)" for f in basis)

    def test_unimodular_is_restricted_d(self, x11):
        from zonotopal.polyspace import d_basis
        basis = dm_basis(x11)
        db = d_basis(x11)
        assert len(basis) == db.dim
        assert all(c.is_trivial() for f in basis for c, _ in f.terms)

    def test_torsion_rejected(self):
        x = GList.from_columns([[2, 0], [0, 1]], FgGroup(1, (2,)))
        with pytest.raises(TorsionUnsupported):
            dm_basis(x)


class TestTodd:
    def test_two_ones_shifted(self, x11):
        series = periodic_todd(x11, x11.group.element((1,)), cap=2)
        assert len(series.terms) == 1
        body = series.terms[0][1].body
        # 1 + 0 s + ... : the linear slice cancels
        assert body.constant_term().is_one()
        assert not homogeneous_slice(body, 1)

    def test_vertex_count(self, x12):
        series = periodic_todd(x12, x12.group.zero(), cap=2)
        assert len(series.terms) == 2

    def test_empty_rank_zero(self):
        x = GList.from_columns([[1]], FgGroup(0, (2,)))
        series = periodic_todd(x, x.group.zero(), cap=2)
        assert any(s.body.constant_term().is_one() for _, s in series.terms)

    def test_matches_products_of_factors(self, mixed_corpus):
        # caps 0, 1, the top degree n - d and the default n - d + 1; the
        # torsion lists move the s0 form at some vertex
        torsion = [GList.from_columns(cols, FgGroup(1, (k,))) for cols, k in
                   (([[1, 0], [0, 1], [1, 1]], 2),
                    ([[1, 0], [0, 1], [2, 1]], 3),
                    ([[1, 0], [1, 1], [0, 2], [2, 1]], 4))]
        moved_torsion = 0
        for x in [x for x in mixed_corpus
                  if len(x) <= 5 and len(vertices(x)) <= 12] \
                + torsion + TODD_LISTS[:1]:
            n, d, t = len(x), x.group.free_rank, len(x.group.invariants)
            zs = (x.group.zero(), x.group.element((1,) * d, (1,) * t))
            for cap in sorted({0, 1, n - d, n - d + 1}):
                for z in zs:
                    got = periodic_todd(x, z, cap)
                    want = periodic_todd_by_products(x, z, cap)
                    assert todd_json(got) == todd_json(want)
            moved_torsion += any(
                not evaluate(v.character, e).is_one()
                for v in vertices(x) for e in x.elems if e.is_torsion())
        assert moved_torsion >= 3

    def test_default_cap_and_one_element_call(self, zp_list):
        z = zp_list.group.element((1, 2))
        got = periodic_todd(zp_list, z)
        assert isinstance(got, PeriodicSeries)
        assert todd_json(got) == todd_json(periodic_todd_by_products(zp_list, z))
        assert {s.cap for _, s in got.terms} == {len(zp_list) - 2 + 1}


class TestFTilde:
    def test_one_two_values(self, x12):
        sv = ("s1",)
        s = MPoly.linear_form(sv, (1,))
        triv = Character.trivial(x12.group)
        half = Character((F(1, 2),), ())
        f1 = f_tilde(x12, x12.group.element((1,)))
        expect = _make(x12, [(triv, MPoly.constant(sv, 1) + s * F(1, 2)),
                             (half, s * F(-1, 2))])
        assert f1 == expect
        f2 = f_tilde(x12, x12.group.element((2,)))
        expect2 = _make(x12, [(triv, MPoly.constant(sv, 1) - s * F(1, 2)),
                              (half, s * F(1, 2))])
        assert f2 == expect2

    def test_124_printed_projection(self, x124):
        ft = f_tilde(x124, x124.group.zero())
        sv = ("s1",)
        s = MPoly.linear_form(sv, (1,))
        i = Cyclotomic.root_of_unity(4)
        expect = _make(x124, [
            (Character((F(0),), ()),
             MPoly.constant(sv, 1) + s * F(7, 2) + s * s * F(21, 4)),
            (Character((F(1, 4),), ()),
             s * s * ((Cyclotomic.one() - i) * F(1, 2))),
            (Character((F(1, 2),), ()),
             s * F(1, 2) + s * s * F(7, 4)),
            (Character((F(3, 4),), ()),
             s * s * ((Cyclotomic.one() + i) * F(1, 2))),
        ])
        assert ft == expect

    def test_zp_printed_values(self, zp_list):
        sv = ("s1", "s2")
        s1 = MPoly.linear_form(sv, (1, 0))
        s2 = MPoly.linear_form(sv, (0, 1))
        one = MPoly.constant(sv, 1)
        triv = Character.trivial(zp_list.group)
        phi1 = Character((F(1, 2), F(1, 2)), ())

        def elem(a, b):
            return zp_list.group.element((a, b))

        cases = {
            (0, 1): one + s1 * F(1, 2) + s2 * F(1, 2) + s1 * s2 * F(1, 4),
            (1, 1): one - s1 * F(1, 2) + s2 * F(1, 2) - s1 * s2 * F(1, 4),
            (0, 2): one + s1 * F(1, 2) - s2 * F(1, 2) - s1 * s2 * F(1, 4),
            (1, 2): one - s1 * F(1, 2) - s2 * F(1, 2) + s1 * s2 * F(1, 4),
        }
        signs = {(0, 1): -1, (1, 1): 1, (0, 2): 1, (1, 2): -1}
        for z, trivial_part in cases.items():
            expect = _make(zp_list, [
                (triv, trivial_part),
                (phi1, s1 * s2 * F(signs[z], 4))])
            assert f_tilde(zp_list, elem(*z)) == expect

    def test_zp_suspect_value_is_member(self, zp_list):
        # the printed f(0,0) has a degree-0 phi-component, which cannot lie
        # in Pper; the computed projection must be an actual member
        ft = f_tilde(zp_list, zp_list.group.zero())
        assert pper_membership(zp_list, ft)

    def test_members_of_pper(self, x124, x12):
        for x, z in ((x124, (1,)), (x124, (3,)), (x12, (2,))):
            assert pper_membership(x, f_tilde(x, x.group.element(z)))

    def test_matches_the_projected_todd_series(self, geometry_corpus,
                                               unity_corpus, zp_list):
        # f~_z stops the Todd series at psi_X's top degree n - d; the
        # oracle projects the series at its own default cap n - d + 1
        for x in list(geometry_corpus) + list(unity_corpus) + [zp_list] \
                + TODD_LISTS:
            n, d = len(x), x.group.free_rank
            if n > 6:
                continue
            z = x.group.element((-1,) + (2,) * (d - 1))
            assert f_tilde(x, z) == f_tilde_projected(x, z)

    def test_one_vertex_pass_and_series_at_top_degree(self, zp_list,
                                                       monkeypatch):
        # psi_X drops every degree above n - d, so the Todd series stops
        # there; the vertices are enumerated once per list, and a second
        # call at one z finds the value already built
        from zonotopal import periodic
        calls, caps = [], []
        build, todd = periodic.vertices, periodic.periodic_todd

        def counted(x):
            calls.append(x)
            return build(x)

        def todd_cap(x, z, cap):
            caps.append(cap)
            return todd(x, z, cap)
        monkeypatch.setattr(periodic, "vertices", counted)
        monkeypatch.setattr(periodic, "periodic_todd", todd_cap)
        list_facts.cache_clear()
        zs = [zp_list.group.element(z) for z in [(0, 0), (1, 2)]]
        fts = [f_tilde(zp_list, z) for z in zs]
        assert f_tilde(zp_list, zs[0]) is fts[0]
        assert len(calls) == 1
        assert caps == [2, 2]
        list_facts.cache_clear()

    def test_basis_property(self, x124):
        # f_z over Z(X, w) spans Pper; over interior points spans internal
        w = short_regular(x124)
        fs = [f_tilde(x124, x124.group.element(z))
              for z in lattice_points(x124, "shifted", w=w)]
        assert _pper_span_equal(fs, pper_basis(x124))
        fs_int = [f_tilde(x124, x124.group.element(z))
                  for z in lattice_points(x124, "interior")]
        assert _pper_span_equal(fs_int, pper_internal_basis(x124))


class TestInternal:
    def test_zp(self, zp_list):
        basis = pper_internal_basis(zp_list)
        sv = ("s1", "s2")
        s1 = MPoly.linear_form(sv, (1, 0))
        s2 = MPoly.linear_form(sv, (0, 1))
        triv = Character.trivial(zp_list.group)
        phi1 = Character((F(1, 2), F(1, 2)), ())
        expect = [
            _make(zp_list, [(triv, MPoly.constant(sv, 1))]),
            _make(zp_list, [(triv, s1)]),
            _make(zp_list, [(triv, s2)]),
            _make(zp_list, [(triv, s1 * s2), (phi1, -(s1 * s2))]),
        ]
        assert _pper_span_equal(basis, expect)
        assert hilbert(basis) == [1, 2, 1]

    def test_coloop_square(self):
        x = GList.from_rows([[2, 0], [0, 2]])
        basis = pper_internal_basis(x)
        assert len(basis) == 1
        sv = ("s1", "s2")
        chars = {c: p for c, p in basis[0].terms}
        assert len(chars) == 4
        one = MPoly.constant(sv, 1)
        signs = {Character((F(0), F(0)), ()): 1,
                 Character((F(0), F(1, 2)), ()): -1,
                 Character((F(1, 2), F(0)), ()): -1,
                 Character((F(1, 2), F(1, 2)), ()): 1}
        base = chars[Character((F(0), F(0)), ())]
        c0 = base.constant_term()
        for char, sign in signs.items():
            assert chars[char] == one * (c0 * sign)

    def test_124_span(self, x124):
        basis = pper_internal_basis(x124)
        sv = ("s1",)
        s = MPoly.linear_form(sv, (1,))
        s2 = s * s

        def char(num, den=4):
            return Character((F(num, den),), ())

        expect = [
            _make(x124, [(char(0), MPoly.constant(sv, 1))]),
            _make(x124, [(char(0), s)]),
            _make(x124, [(char(2), s)]),
            _make(x124, [(char(0), s2), (char(1), -s2)]),
            _make(x124, [(char(1), s2), (char(3), -s2)]),
            _make(x124, [(char(2), s2), (char(3), -s2)]),
        ]
        assert _pper_span_equal(basis, expect)

    def test_internalzwo(self):
        x = GList.from_columns([[2, 0], [0, 1]], FgGroup(1, (2,)))
        pb = pper_basis(x)
        ib = pper_internal_basis(x)
        sv = ("s0", "s1")
        one = MPoly.constant(sv, 1)
        s0 = MPoly.linear_form(sv, (1, 0))

        def char(a, b):
            return Character((F(a, 2),), (F(b, 2),))

        expect_pb = [_make(x, [(char(0, 0), one)]),
                     _make(x, [(char(1, 0), one)]),
                     _make(x, [(char(0, 1), s0)]),
                     _make(x, [(char(1, 1), s0)])]
        assert _pper_span_equal(pb, expect_pb)
        expect_ib = [_make(x, [(char(0, 0), one), (char(1, 0), -one)]),
                     _make(x, [(char(0, 1), s0), (char(1, 1), -s0)])]
        assert _pper_span_equal(ib, expect_ib)
        m = arithmetic_tutte(x)
        assert m.evaluate(1, 1) == 4 and m.evaluate(0, 1) == 2

    def test_molecule_internal_equals_central(self):
        # a list of only coloops and torsion: internal = central
        for cols, group in ((([[2]]), FgGroup(0, (4,))),
                            ([[2, 0], [0, 1]], FgGroup(1, (2,)))):
            x = GList.from_columns(cols, group)
            if group.free_rank == 0:
                assert _pper_span_equal(pper_internal_basis(x), pper_basis(x))

    def test_dims_match_tutte(self, mixed_corpus):
        for x in mixed_corpus:
            basis = pper_internal_basis(x)
            m = arithmetic_tutte(x)
            assert len(basis) == m.evaluate(0, 1)
            n, d = len(x), x.group.free_rank
            h = hilbert(basis)
            h += [0] * (n - d + 1 - len(h))
            assert h == coefficients_reversed(m, n - d, 0)

    def test_d3_hilbert_series(self):
        x = GList.from_rows([[-1, -2, 2, -1, 0, 1], [0, -2, -2, -1, 2, -1],
                             [-2, 1, 0, -2, -1, 2]])
        m = arithmetic_tutte(x)
        assert hilbert(pper_basis(x)) == coefficients_reversed(m, 3, 1)
        assert hilbert(pper_internal_basis(x)) \
            == coefficients_reversed(m, 3, 0)

    def test_d3_dimension_checks(self, mixed_corpus):
        seen = 0
        for x in mixed_corpus:
            if x.group.free_rank != 3:
                continue
            seen += 1
            m = arithmetic_tutte(x)
            assert len(pper_basis(x)) == m.evaluate(1, 1)
            assert len(pper_internal_basis(x)) == m.evaluate(0, 1)
        assert seen >= 3


def pper_internal_by_class_scan(x):
    """Oracle: the internal space as built before `polyspace.kernel`.  Per
    hyperplane the vertex characters are grouped by their Fraction angles
    on the integer kernel of eta and their torsion part; D_eta^(m(H)-1) is
    the expanded power of the linear form, applied by `apply_diff` to the
    components of each class and summed as MPolys; and the Cyclotomic
    rows go through the field elimination of `linalg.rref`."""
    vars = periodic._pper_vars(x)
    basis = pper_basis(x)
    verts = vertices(x)
    planes = []
    for hp in hyperplanes(x):
        eta = list(hp.normal)
        _, _, v_snf = snf([eta])
        gens = [[row[j] for row in v_snf] for j in range(1, len(eta))]
        groups = {}
        for v in verts:
            theta = v.character.theta
            key = tuple(sum((t * g for t, g in zip(theta, gen)), F(0)) % 1
                        for gen in gens) + v.character.tors
            groups.setdefault(key, set()).add(v.character)
        form = MPoly.linear_form(vars, [0] * (len(vars) - len(eta)) + eta)
        op = MPoly.constant(vars, 1)
        for _ in range(hp.mult - 1):
            op = op * form
        planes.append((list(groups.values()), op))
    by_degree = {}
    for b in basis:
        by_degree.setdefault(b.total_degree(), []).append(b)
    out = []
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    for deg in sorted(by_degree):
        elems = by_degree[deg]
        rows = []
        for classes, op in planes:
            for cls in classes:
                cols = []
                for b in elems:
                    total = MPoly(vars)
                    for char, poly in b.terms:
                        if char in cls:
                            total = total + op.apply_diff(poly)
                    cols.append(total)
                for e in sorted({e for c in cols for e in c.terms}):
                    rows.append([c.coefficient(e) for c in cols])
        if rows:
            red, pivots = linalg.rref(rows)
        else:
            red, pivots = [], []
        null = []
        for fc in (c for c in range(len(elems)) if c not in pivots):
            vec = [zero] * len(elems)
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
            null.append(vec)
        out += [PeriodicPoly(vars, [(char, poly * c)
                                    for c, b in zip(vec, elems) if c
                                    for char, poly in b.terms])
                for vec in null]
    return out


def _todd_parts_by_vertex(x, cap):
    """Oracle: `periodic._todd_parts` with the linear form and the negated
    element built once per (vertex, element)."""
    vars = periodic._pper_vars(x)
    s0_form = MPoly.variable(vars, 0) if "s0" in vars else None
    parts = []
    for v in vertices(x):
        lead, log = Cyclotomic.one(), MPoly(vars)
        prefactor = MPoly.constant(vars, 1)
        for elem in x.elems:
            c = evaluate(v.character, -elem)
            form = p_linear(elem, vars)
            if not form:
                if c.is_one():
                    continue
                form = s0_form
            a, moved, l = todd_log(form, c, cap)
            lead, log = lead * a, log + l
            if moved:
                prefactor = prefactor * form
        parts.append((v.character, lead, log, prefactor,
                      cap - prefactor.total_degree()))
    return tuple(parts)


def _oracle_lists():
    """Bounded corpus lists, torsion included, with M(1, 1) <= 150."""
    return [x for seed in (3, 5, 11) for x in corpus(
        seed=seed, limits=CorpusLimits(max_volume=150), count=20)]


class TestInternalKernel:
    def test_equals_class_scan(self, zp_list, x124, x11, x12):
        # element by element, with every coefficient's declared order
        fixed = [zp_list, x124, x11, x12, GList.from_rows([[2, 0], [0, 2]]),
                 GList.from_columns([[2, 0], [0, 1]], FgGroup(1, (2,))),
                 GList.from_columns([[2]], FgGroup(0, (4,)))]
        lists = fixed + _oracle_lists()
        assert sum(bool(x.group.invariants) for x in lists) >= 10
        assert sum(x.group.free_rank == 3 for x in lists) >= 10
        for x in lists:
            got = pper_internal_basis(x)
            want = pper_internal_by_class_scan(x)
            assert got == want, x
            assert [p.to_json() for p in got] \
                == [p.to_json() for p in want], x

    def test_no_field_elimination(self, zp_list, x124, monkeypatch):
        # every entry is rational, so no list takes the cyclotomic field
        # loop of `linalg.rref`
        def refuse(m):
            raise AssertionError("field elimination reached")
        monkeypatch.setattr(linalg, "_rref_field", refuse)
        torsion = GList.from_columns([[2, 0], [0, 1], [1, 1]],
                                     FgGroup(1, (2,)))
        for x in (zp_list, x124, torsion, _oracle_lists()[-1]):
            assert len(pper_internal_basis(x)) \
                == arithmetic_tutte(x).evaluate(0, 1)

    def test_two_characters_is_internal_error(self, x12, monkeypatch):
        # the first element of degree 0 gains the second vertex character
        basis = pper_basis(x12)
        verts = vertices(x12)
        chars = [v.character for v in verts]
        b = basis[0]
        [(char, poly)] = b.terms
        other = next(c for c in chars if c != char)
        broken = PeriodicPoly(b.vars, [(char, poly), (other, poly)])
        monkeypatch.setattr(periodic, "pper_basis",
                            lambda x: [broken] + basis[1:])
        with pytest.raises(InternalError, match="2 characters, not one"):
            pper_internal_basis(x12)

    def test_non_rational_coefficient_is_internal_error(self, x12,
                                                        monkeypatch):
        # a top-degree element, so the derivative along each hyperplane is
        # taken, scaled by a primitive cube root of unity
        basis = pper_basis(x12)
        top = max(range(len(basis)), key=lambda i: basis[i].total_degree())
        [(char, poly)] = basis[top].terms
        broken = PeriodicPoly(basis[top].vars, [
            (char, poly * Cyclotomic.root_of_unity(3))])
        monkeypatch.setattr(periodic, "pper_basis", lambda x: [
            broken if i == top else b for i, b in enumerate(basis)])
        with pytest.raises(InternalError, match="non-rational coefficient"):
            pper_internal_basis(x12)

    def test_restriction_classes_are_a_lookup(self, zp_list):
        verts = vertices(zp_list)
        classes = periodic._restriction_classes(verts, (1, 1))
        assert set(classes) == {v.character for v in verts}
        # e[1/2,1/2] is 0 on the kernel (1, -1) of eta, as the trivial one
        half = Character((F(1, 2), F(1, 2)), ())
        assert classes[half] == classes[Character.trivial(zp_list.group)]

    def test_d3_hilbert_series_n12(self):
        # the d = 3, n = 12 list of the CI steps, with M(1, 1) = 236: the
        # internal series is q^9 M(0, 1/q)
        import random
        r = random.Random(30)
        x = GList.from_rows([[r.randint(-1, 1) for _ in range(12)]
                             for _ in range(3)])
        m = arithmetic_tutte(x)
        assert m.evaluate(1, 1) == 236
        h = hilbert(pper_internal_basis(x))
        assert h == [1, 3, 7, 12, 17, 22, 28, 33, 34, 20]
        assert h == coefficients_reversed(m, 9, 0)


class TestToddParts:
    def test_equals_per_vertex_forms(self):
        # the same parts, with every coefficient's declared order
        lists = [x for x in _oracle_lists() if not x.group.invariants][:12] \
            + [GList.from_columns([[2, 0], [0, 1], [1, 1]],
                                  FgGroup(1, (2,)))]
        for x in lists:
            cap = len(x) - x.group.free_rank + 1
            got = periodic._todd_parts(x, cap)
            want = _todd_parts_by_vertex(x, cap)
            assert got == want, x
            for (_, la, ga, pa, _), (_, lb, gb, pb, _) in zip(got, want):
                assert la.to_json() == lb.to_json()
                assert ga.to_json() == gb.to_json()
                assert pa.to_json() == pb.to_json()

    def test_one_form_per_element(self, zp_list, monkeypatch):
        forms = []

        def counted(elem, vars):
            forms.append(elem)
            return p_linear(elem, vars)
        monkeypatch.setattr(periodic, "p_linear", counted)
        assert len(vertices(zp_list)) > 1
        periodic._todd_parts(zp_list, 3)
        assert forms == list(zp_list.elems)


class TestPairingAndL:
    def test_cross_terms_vanish(self, x12):
        triv = Character.trivial(x12.group)
        half = Character((F(1, 2),), ())
        sv, tv = ("s1",), ("t1",)
        s = MPoly.linear_form(sv, (1,))
        p = _make(x12, [(half, s)])   # e_phi p_{X\X_phi} * 1
        f = QuasiFunction(tv, [(triv, MPoly.constant(tv, 1))])
        assert not pair_pper_dm(x12, p, f)

    def test_unit_pairing(self, x12):
        sv, tv = ("s1",), ("t1",)
        p = _make(x12, [(Character.trivial(x12.group),
                         MPoly.constant(sv, 1))])
        f = QuasiFunction(tv, [(Character.trivial(x12.group),
                                MPoly.constant(tv, 1))])
        assert pair_pper_dm(x12, p, f).is_one()

    def test_gram_3x3(self, x12):
        pb, db = pper_basis(x12), dm_basis(x12)
        gram = [[pair_pper_dm(x12, p, f) for f in db] for p in pb]
        assert linalg.rank(gram) == 3

    def test_gram_nonsingular_corpus(self, mixed_corpus, zp_list, x124):
        targets = [zp_list, x124]
        targets += [x for x in mixed_corpus
                    if not x.group.invariants and x.group.free_rank <= 2][:6]
        for x in targets:
            pb, db = pper_basis(x), dm_basis(x)
            gram = [[pair_pper_dm(x, p, f) for f in db] for p in pb]
            assert linalg.rank(gram) == len(pb)

    def test_l_map_functional(self, x124):
        w = short_regular(x124)
        db = dm_basis(x124)
        for z in ((1,), (2,)):
            p = f_tilde(x124, x124.group.element(z))
            lc = l_map(x124, p, w)
            for f in db:
                assert lc.apply(f) == pair_pper_dm(x124, p, f)

    def test_l_map_delta_unimodular(self, x11):
        w = short_regular(x11)
        psi = PsiProjector(x11)
        pts = lattice_points(x11, "shifted", w=w)
        for z in pts:
            ez = exp_series(MPoly.linear_form(("s1",), (F(z[0]),)), 3)
            p = PeriodicPoly.single(("s1",),
                                    Character.trivial(x11.group), psi(ez))
            lc = l_map(x11, p, w)
            expect = [Cyclotomic.one() if pt == z else Cyclotomic.zero()
                      for pt in lc.support]
            assert list(lc.coeffs) == expect

    def test_l_map_zero(self, x124):
        w = short_regular(x124)
        p = PeriodicPoly(("s1",), [])
        lc = l_map(x124, p, w)
        assert not any(lc.coeffs)

    def test_l_map_zp_pure_derivative(self, zp_list):
        # p = s2^2: the functional is f -> (d^2/dt2^2 f_triv)(0)
        sv = ("s1", "s2")
        p = PeriodicPoly.single(sv, Character.trivial(zp_list.group),
                                MPoly(sv, {(0, 2): Cyclotomic.one()}))
        w = short_regular(zp_list)
        lc = l_map(zp_list, p, w)
        for f in dm_basis(zp_list):
            expect = pair_pper_dm(zp_list, p, f)
            assert lc.apply(f) == expect
            comps = {c: poly for c, poly in f.terms}
            triv = comps.get(Character.trivial(zp_list.group))
            dd = (triv.derivative(1).derivative(1).constant_term()
                  if triv is not None else Cyclotomic.zero())
            assert expect == dd

    def test_l_map_singular_evaluation_matrix(self, zp_list, monkeypatch):
        # |Z(X, w)| = dim DM, but a repeated basis element makes two rows
        # of the evaluation matrix equal
        from zonotopal import periodic
        from zonotopal.errors import SingularGram
        db = dm_basis(zp_list)
        monkeypatch.setattr(periodic, "dm_basis",
                            lambda x: [db[0]] + db[:-1])
        p = PeriodicPoly.one(zp_list)
        with pytest.raises(SingularGram, match="evaluation matrix singular"):
            l_map(zp_list, p, short_regular(zp_list))


class TestNormalForm:
    """`pper_decompose` takes a component apart as
    e_phi s0^tors(phi) p_{X \\ X_phi \\ X_t} q_phi; the membership test and
    the contraction map go through it."""

    def test_torsion_basis_elements_are_members(self):
        lists = [GList.from_rows([[1, 0, 2], [0, 1, 1]], FgGroup(1, (2,)))]
        lists += [_with_torsion_column(x) for x in
                  corpus(5, CorpusLimits(max_dim=2, max_len=4))]
        for x in lists:
            for p in pper_basis(x):
                assert pper_membership(x, p)

    def test_wrong_s0_exponent_is_non_member(self):
        x = GList.from_rows([[1, 0, 2], [0, 1, 1]], FgGroup(1, (2,)))
        for p in pper_basis(x):
            s0 = MPoly.variable(p.vars, 0)
            bad = PeriodicPoly(p.vars, [(c, poly * s0) for c, poly in p.terms])
            with pytest.raises(NonMember, match="s0"):
                pper_decompose(x, bad)
            assert not pper_membership(x, bad)
            with pytest.raises(NonMember):
                pper_project(x, 0, bad)

    def test_projecting_a_non_member_raises(self, x12):
        # the constant at e[1/2] is not divisible by its prefactor s1,
        # also where the character moves the pivot and the component dies
        half = Character((F(1, 2),), ())
        p = _make(x12, [(half, MPoly.constant(("s1",), 1))])
        for i in range(len(x12)):
            with pytest.raises(NonMember):
                pper_project(x12, i, p)


def _assert_exact_at(x, i):
    """0 -> Pper(X \\ x_i) -> Pper(X) -> Pper(X / x_i) -> 0, by ranks: pi o mu
    = 0, pi maps onto Pper(X / x_i), and rank mu + dim Pper(X / x_i) =
    dim Pper(X).  The basis elements that pi kills span only part of ker pi
    in general, so im mu is compared with ker pi by rank."""
    basis = pper_basis(x)
    quot, _ = contract(x, i)
    mult = [pper_mult(x, i, p) for p in pper_basis(x.delete(i))]
    assert not any(pper_project(x, i, m) for m in mult)
    proj = [q for q in (pper_project(x, i, p) for p in basis) if q]
    assert _pper_span_equal(proj, pper_basis(quot))
    assert (linalg.rank(_pper_rows(mult)) + len(pper_basis(quot))
            == len(basis))


class TestDeletionContraction:
    def test_contraction_sequence_maps(self):
        # on the second list the basis elements that pi kills span a
        # smaller space than im mu
        _assert_exact_at(GList.from_rows([[1, 0, 0], [0, 2, 1]]), 1)
        _assert_exact_at(GList.from_columns(
            [[1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]], FgGroup(2, (2,))), 2)

    def test_mult_lands_in_pper(self, x124):
        deleted = x124.delete(2)
        for p in pper_basis(deleted):
            assert pper_membership(x124, pper_mult(x124, 2, p))

    def test_projection_kills_moved_characters(self, x12):
        half = Character((F(1, 2),), ())
        s = MPoly.linear_form(("s1",), (1,))
        p = _make(x12, [(half, s)])
        # contracting x1 = (1): e_phi(1) = -1 != 1 -> dies
        assert not pper_project(x12, 0, p)

    @pytest.mark.parametrize("cols, group", [
        ([[1, 0], [0, 1], [2, 1]], FgGroup(1, (2,))),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]], FgGroup(2, (2,))),
    ])
    def test_exact_sequence_with_a_torsion_column(self, cols, group):
        x = GList.from_columns(cols, group)
        done = 0
        for i in range(len(x)):
            if x.elems[i].is_torsion() or is_coloop(x, i):
                continue
            _assert_exact_at(x, i)
            done += 1
        assert done >= 2

    def test_torsion_pivot_rejected(self):
        x = GList.from_columns([[2, 0], [0, 1]], FgGroup(1, (2,)))
        with pytest.raises(TorsionPivot):
            pper_project(x, 1, pper_basis(x)[0])

    def test_dimension_additivity(self, mixed_corpus):
        done = 0
        for x in mixed_corpus:
            if x.group.free_rank > 2:
                continue
            for i in range(len(x)):
                if x.elems[i].is_torsion() or is_coloop(x, i):
                    continue
                quot, _ = contract(x, i)
                assert (len(pper_basis(x))
                        == len(pper_basis(x.delete(i)))
                        + len(pper_basis(quot)))
                assert (len(pper_internal_basis(x))
                        == len(pper_internal_basis(x.delete(i)))
                        + len(pper_internal_basis(quot)))
                done += 1
                break
            if done >= 6:
                break
        assert done >= 4


class TestLargeArrangement:
    """A 14-vertex arrangement with a torsion-creating contraction."""

    def test_counts_and_projected_f(self):
        x = GList.from_rows([[2, 4, 0, -1], [0, 1, 2, 1]])
        from zonotopal.toric import vertices
        assert len(vertices(x)) == 14
        assert arithmetic_tutte(x).evaluate(1, 1) == 23
        assert len(pper_basis(x)) == 23
        quot, _ = contract(x, 0)
        assert quot.group == FgGroup(1, (2,))
        assert len(pper_basis(quot)) == 8
        assert len(pper_internal_basis(quot)) == 6
        ft = f_tilde(x, x.group.element((0, 1)))
        proj = pper_project(x, 0, ft)
        sv = ("s0", "s1")
        one = MPoly.constant(sv, 1)
        s = MPoly.linear_form(sv, (0, 1))
        s2 = s * s

        def ch(theta, tors):
            return Character((F(theta, 2),), (F(tors, 2),))

        expect = PeriodicPoly(sv, [
            (ch(0, 0), one + s + s2 * F(1, 4)),
            (ch(0, 1), s * F(1, 2) + s2 * F(1, 2)),
            (ch(1, 0), s2 * F(-1, 4)),
            (ch(1, 1), s * F(-1, 2) + s2 * F(-1, 2)),
        ])
        assert proj == expect


class TestSerialization:
    def test_periodic_poly_roundtrip(self, x12):
        p = f_tilde(x12, x12.group.element((1,)))
        assert PeriodicPoly.from_json(("s1",), p.to_json()) == p


# characters of Z^2 of order 1, 2 and 3, and coefficients of orders 1-6
_CHARS2 = [Character((F(a, k), F(b, k)), ())
           for k in (1, 2, 3) for a in range(k) for b in range(k)]
_coefficients = st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda n: st.lists(st.fractions(-3, 3, max_denominator=4),
                       min_size=euler_phi(n), max_size=euler_phi(n))
    .map(lambda cs, n=n: Cyclotomic(n, cs)))


@st.composite
def _char_terms(draw, vars):
    """(Character, MPoly) pairs over ``vars``; a character may repeat."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return [(draw(st.sampled_from(_CHARS2)),
             MPoly(vars, draw(st.dictionaries(exps, _coefficients,
                                              max_size=4))))
            for _ in range(draw(st.integers(0, 4)))]


def _same_value(p, q):
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


class TestPeriodicPolyHash:
    """Equal PeriodicPoly values hash equal however they were built, so
    `brionvergne._applied` can key its table on them."""

    SV = ("s1", "s2")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shuffled_terms(self, data):
        terms = data.draw(_char_terms(self.SV))
        shuffled = [(c, MPoly(self.SV, dict(reversed(p.terms.items()))))
                    for c, p in data.draw(st.permutations(terms))]
        _same_value(PeriodicPoly(self.SV, terms),
                    PeriodicPoly(self.SV, shuffled))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_merged_duplicate_characters(self, data):
        terms = data.draw(_char_terms(self.SV))
        split = [part for c, p in terms
                 for part in ((c, p * F(1, 3)), (c, p * F(2, 3)))]
        _same_value(PeriodicPoly(self.SV, terms),
                    PeriodicPoly(self.SV, split))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coefficients_at_a_higher_order(self, data):
        terms = data.draw(_char_terms(self.SV))
        k = data.draw(st.sampled_from([2, 3, 5]))
        embedded = [(c, MPoly(self.SV, {e: v.embed(v.order * k)
                                        for e, v in p.terms.items()}))
                    for c, p in terms]
        _same_value(PeriodicPoly(self.SV, terms),
                    PeriodicPoly(self.SV, embedded))

    def test_f_tilde_at_interior_points_hash_apart(self, geometry_corpus):
        # same list, same characters and exponents: only coefficients differ
        x = max(geometry_corpus,
                key=lambda x: len(lattice_points(x, "interior")))
        fts = [f_tilde(x, x.group.element(z))
               for z in lattice_points(x, "interior")]
        assert len(fts) >= 3
        assert len(set(fts)) == len(fts)
        assert len({hash(ft) for ft in fts}) == len(fts)


def evaluate_at_in_fractions(q, point):
    """q at point with the point read as Fractions, as every value was
    formed before integer evaluation: the reference for
    `QuasiFunction.evaluate_at`."""
    pt = [F(v) for v in point]
    total = Cyclotomic.zero()
    for char, poly in q.terms:
        root = Cyclotomic.from_angle(sum(t * v for t, v in
                                         zip(char.theta, pt)))
        value = Cyclotomic.zero()
        for e, c in poly.terms.items():
            for v, k in zip(pt, e):
                c = c * v ** k
            value = value + c
        total = total + root * value
    return total


class TestIntegerEvaluation:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_evaluate_at_matches_fractions(self, data):
        tv = ("t1", "t2")
        q = QuasiFunction(tv, data.draw(_char_terms(tv)))
        point = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=2,
                                         max_size=2)))
        got, want = q.evaluate_at(point), evaluate_at_in_fractions(q, point)
        assert got == want
        assert got.order == want.order

    def test_root_at_an_integer_point(self):
        char = Character((F(1, 6), F(1, 4)), ())
        for point in ((0, 0), (3, 2), (-5, 7), (12, -8)):
            angle = F(point[0], 6) + F(point[1], 4)
            assert evaluate_point(char, point) \
                == Cyclotomic.from_angle(angle)


def evaluate_at_term_by_term(q, point):
    """q at point as a running Cyclotomic total of e_phi(point) * f_phi(point),
    one character at a time: the reference for the integer form of
    `QuasiFunction.evaluate_at`, in value and in declared order."""
    total = Cyclotomic.zero()
    for char, poly in q.terms:
        total = total + evaluate_point(char, point) * poly.evaluate(point)
    return total


# 0, small coordinates of either sign and coordinates of size up to 10^12
_coordinates = st.one_of(st.just(0), st.integers(-30, 30),
                         st.integers(-10 ** 12, 10 ** 12),
                         st.sampled_from([10 ** 12, -10 ** 12]))



def _polys(vars, orders=(1, 2, 3, 4, 6)):
    """MPolys over vars with coefficients of the given orders."""
    exps = st.lists(st.integers(0, 3), min_size=len(vars),
                    max_size=len(vars)).map(tuple)
    coeffs = st.sampled_from(orders).flatmap(
        lambda n: st.lists(st.fractions(-3, 3, max_denominator=12),
                           min_size=euler_phi(n), max_size=euler_phi(n))
        .map(lambda cs, n=n: Cyclotomic(n, cs)))
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda terms: MPoly(vars, terms))


@pytest.fixture(scope="module")
def corpus_quasi_functions(geometry_corpus, zp_list):
    """Per list of the geometry corpus and zp_list: every chamber's
    quasi-polynomial at z = 0 and at one interior z (f~_z(D) of the
    chamber's piece), and the DM(X) basis that `l_map` evaluates."""
    from zonotopal.brionvergne import _applied, chamber_quasipolynomial
    from zonotopal.geometry import big_cells, local_piece
    out = []
    for x in list(geometry_corpus) + [zp_list]:
        cells = big_cells(x)
        out += [chamber_quasipolynomial(x, cell) for cell in cells]
        interior = lattice_points(x, "interior")
        if interior:
            ft = f_tilde(x, x.group.element(interior[-1]))
            out += [_applied.__wrapped__(ft, local_piece(x, cell))
                    for cell in cells]
        out += dm_basis(x)
    return out


@pytest.fixture(scope="module")
def torsion_lists(mixed_corpus):
    """Lists of the mixed corpus with a free part and a torsion summand."""
    return [x for x in mixed_corpus
            if x.group.invariants and x.group.free_rank]


class TestIntegerForm:
    """At an integer point `QuasiFunction.evaluate_at` sums every term into
    one vector of integers over zeta_L; the value and its declared order
    equal the term-by-term total, and its value at the same point read as
    Fractions."""

    @staticmethod
    def _check(q, point):
        want = evaluate_at_term_by_term(q, point)
        for got in (q.evaluate_at(point),
                    q.evaluate_at(tuple(F(v) for v in point))):
            assert got.order == want.order
            assert got.coeffs == want.coeffs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_corpus_quasi_functions(self, corpus_quasi_functions, data):
        q = data.draw(st.sampled_from(corpus_quasi_functions))
        n = len(q.vars)
        self._check(q, tuple(data.draw(st.lists(_coordinates, min_size=n,
                                                max_size=n))))

    def test_corpus_has_characters_and_irrational_coefficients(
            self, corpus_quasi_functions):
        # the draws above meet non-trivial roots and coefficients outside Q
        assert any(not c.is_trivial() for q in corpus_quasi_functions
                   for c, _ in q.terms)
        assert any(not v.is_rational() for q in corpus_quasi_functions
                   for _, p in q.terms for v in p.terms.values())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_torsion_vertex_characters(self, torsion_lists, data):
        # characters with a torsion part act on the free coordinates only
        x = data.draw(st.sampled_from(torsion_lists))
        vars = t_vars(x.group.free_rank)
        chars = data.draw(st.lists(st.sampled_from(
            [v.character for v in vertices(x)]), max_size=4))
        q = QuasiFunction(vars, [(c, data.draw(_polys(vars))) for c in chars])
        self._check(q, tuple(data.draw(st.lists(
            _coordinates, min_size=len(vars), max_size=len(vars)))))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_characters_of_order_2_to_12(self, data):
        # one k per value keeps the term-by-term oracle in Q(zeta_k)
        vars = ("t1", "t2")
        k = data.draw(st.integers(2, 12))
        orders = [n for n in range(1, k + 1) if k % n == 0]
        terms = []
        for _ in range(data.draw(st.integers(0, 4))):
            theta = tuple(F(data.draw(st.integers(0, k - 1)), k)
                          for _ in vars)
            terms.append((Character(theta, ()),
                          data.draw(_polys(vars, orders))))
        q = QuasiFunction(vars, terms)
        self._check(q, tuple(data.draw(st.lists(_coordinates, min_size=2,
                                                max_size=2))))

    def test_zero_and_a_repeated_point(self, zp_list):
        zero = QuasiFunction(("t1", "t2"))
        assert zero.evaluate_at((5, -3)) == 0
        assert zero.evaluate_at((5, -3)).order == 1
        # a second evaluation reuses the form and gives the same value
        q = dm_basis(zp_list)[-1]
        for point in ((0, 0), (10 ** 12, -7), (10 ** 12, -7)):
            self._check(q, point)
