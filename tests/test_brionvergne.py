import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from alcoves import alcove_sample, fraction_shift_groups
from spans import span_contains
from zonotopal.abelian import FgGroup, GList, list_facts
from zonotopal import periodic
from zonotopal.brionvergne import (_applied, _box_value, _shift_groups,
                                   apply_periodic,
                                   box_deconvolution_check, box_delta_check,
                                   box_interpolant, bv_count,
                                   chamber_quasipolynomial, continuity_check,
                                   partition_of_unity, wall_jump,
                                   wall_jump_check, wall_v12, walls)
from zonotopal.cli import main
from zonotopal.corpus import CorpusLimits, corpus
from zonotopal.errors import NotUnimodular
from zonotopal.geometry import (big_cells, bx_value, cells_at, chamber_signs,
                                in_cone, lattice_points, local_piece,
                                short_regular, vpf_count)
from zonotopal.periodic import (PeriodicPoly, f_tilde,
                                pper_basis, pper_internal_basis)
from zonotopal.scalar import Cyclotomic, MPoly, t_vars
from zonotopal.toric import Character

F = Fraction


class TestApplyPeriodic:
    def test_identity_operator(self, x11):
        f = MPoly.linear_form(("t1",), (1,))
        p = PeriodicPoly.one(x11)
        assert apply_periodic(p, f, (3,)) == 3

    def test_f1_counts(self, x12):
        # equals brute-force i_X(2) = |{(0,1),(2,0)}| = 2
        piece = local_piece(x12, big_cells(x12)[0])
        ft = f_tilde(x12, x12.group.element((1,)))
        assert apply_periodic(ft, piece, (3,)) == vpf_count(x12, [2]) == 2

    def test_sign_twist(self):
        x = GList.from_rows([[1, 2]])
        half = Character((F(1, 2),), ())
        p = PeriodicPoly.single(("s1",), half, MPoly.linear_form(("s1",), (1,)))
        f = MPoly.linear_form(("t1",), (1,))
        # e_phi(1) = -1 times the derivative of t
        assert apply_periodic(p, f, (1,)) == -1

    # the chamber of [[1,0,1],[0,1,1]] that holds (3,1) counts 1 + t2
    X111 = GList.from_rows([[1, 0, 1], [0, 1, 1]])

    def _chamber(self):
        [cell] = cells_at(self.X111, big_cells(self.X111), (3, 1))
        return cell

    def test_long_point_is_value_error(self):
        q = chamber_quasipolynomial(self.X111, self._chamber())
        assert repr(q) == "1 + t2"
        assert q.evaluate_at((3, 1)) == 2
        with pytest.raises(ValueError, match="needs 2 coordinates, got 3"):
            q.evaluate_at((3, 1, 5))
        ft = f_tilde(self.X111, self.X111.group.zero())
        piece = local_piece(self.X111, self._chamber())
        with pytest.raises(ValueError, match="needs 2 coordinates, got 3"):
            apply_periodic(ft, piece, (3, 1, 5))

    def test_short_point_is_value_error(self):
        q = chamber_quasipolynomial(self.X111, self._chamber())
        for point in ((3,), (F(3),), ()):
            with pytest.raises(ValueError, match="needs 2 coordinates"):
                q.evaluate_at(point)


class TestBvCount:
    def test_one_two(self, x12):
        assert bv_count(x12, [1], [3]) == vpf_count(x12, [2])

    def test_124_quasipolynomial_branch(self, x124):
        # u = 6, z = 1 -> i(5), the u = 1 (mod 4) branch value (25+30+9)/16
        assert bv_count(x124, [1], [6]) == vpf_count(x124, [5]) == 4

    def test_unimodular_khovanskii(self, x11):
        assert bv_count(x11, [0], [2]) == vpf_count(x11, [2]) == 3

    def test_matches_vpf_over_box(self, geometry_corpus):
        for x in geometry_corpus[:5]:
            d = x.group.free_rank
            cells = big_cells(x)
            pieces = {id(c): local_piece(x, c) for c in cells}
            for z in lattice_points(x, "interior"):
                box = itertools.product(range(10), repeat=d)
                for u in box:
                    if not in_cone(x, u):
                        continue
                    diff = [a - b for a, b in zip(u, z)]
                    expect = vpf_count(x, diff) if in_cone(x, diff) else 0
                    got = bv_count(x, z, u, cells=cells, pieces=pieces)
                    assert got == expect, (x, z, u)

    def test_d3_caller_sampled_chamber(self):
        # a d = 3 chamber known only by a caller's sample: the lookup names
        # it by its sign vector, as it does the enumerated chambers
        x = GList.from_rows([[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1],
                             [0, 0, 1, 0, 1, 1]])
        cells = big_cells(x, samples=[(F(37, 10), F(23, 10), F(17, 10))])
        pieces = {id(c): local_piece(x, c) for c in cells}
        for z in lattice_points(x, "interior")[:2]:
            for u in [(4, 3, 2), (5, 4, 2), (5, 4, 3), (6, 4, 3), (6, 5, 2),
                      (6, 5, 3)]:
                diff = [a - b for a, b in zip(u, z)]
                expect = vpf_count(x, diff) if in_cone(x, diff) else 0
                got = bv_count(x, z, u, cells=cells, pieces=pieces)
                assert got == expect, (z, u)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_vpf_on_random_queries(self, count_lists, data):
        # two lists interleaved, z repeated, and an equal list built again:
        # the f~_z table is hit, shared by value and, across examples,
        # evicted
        i, j = data.draw(st.lists(st.integers(0, len(count_lists) - 1),
                                  min_size=2, max_size=2, unique=True))
        for _ in range(data.draw(st.integers(4, 10))):
            x, interior, box, on_walls, cells, pieces = \
                count_lists[data.draw(st.sampled_from((i, j)))]
            z = data.draw(st.sampled_from(interior))
            u = data.draw(st.sampled_from(on_walls) | st.sampled_from(box))
            diff = [a - b for a, b in zip(u, z)]
            expect = vpf_count(x, diff) if in_cone(x, diff) else 0
            if data.draw(st.booleans()):
                again = GList.from_columns([e.free for e in x.elems])
                got = bv_count(again, z, u)
            else:
                got = bv_count(x, z, u, cells=cells, pieces=pieces)
            assert got == expect, (x, z, u)


@pytest.fixture(scope="module")
def count_lists(long_geometry_corpus):
    """Per corpus list with interior lattice points: (x, its interior
    points, the u in [0, 12)^d inside cone(X), those of them on a wall,
    big cells, pieces).  The walls are the origin at d = 1 and the lines
    through the columns at d = 2.  The lists outnumber the bound of the
    table that keeps f~_z per list."""
    out = []
    for x in long_geometry_corpus:
        interior = lattice_points(x, "interior")
        if not interior:
            continue
        d = x.group.free_rank
        box = [u for u in itertools.product(range(12), repeat=d)
               if in_cone(x, u)]
        on_walls = [u for u in box
                    if any(d == 1 and u == (0,) or d == 2
                           and u[0] * e.free[1] == u[1] * e.free[0]
                           for e in x.elems)]
        cells = big_cells(x)
        out.append((x, interior, box, on_walls, cells,
                    {id(c): local_piece(x, c) for c in cells}))
    assert len(out) > list_facts.cache_info().maxsize
    return out


class TestFTildeTable:
    """f~_z comes from `abelian.list_facts`, one bounded table keyed on
    the list's value, which keeps psi_X, the vertices, the Todd parts and
    every f~_z of a list, and bv_count's facts of each z beside them."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Each f~_z built, as the (x, z) of its periodic_todd call, on an
        empty table that is emptied again afterwards."""
        calls = []
        todd = periodic.periodic_todd

        def counted(x, z, cap=None):
            calls.append((x, z))
            return todd(x, z, cap)
        monkeypatch.setattr(periodic, "periodic_todd", counted)
        list_facts.cache_clear()
        yield calls
        list_facts.cache_clear()

    def test_miss_builds_once_and_hit_builds_nothing(self, x124, built):
        assert bv_count(x124, [1], [6]) == 4
        assert len(built) == 1
        assert bv_count(x124, [1], [9]) == vpf_count(x124, [8])
        # an equal list built again shares the entry
        assert bv_count(GList.from_rows([[1, 2, 4]]), [1], [7]) \
            == vpf_count(x124, [6])
        assert len(built) == 1
        assert bv_count(x124, [2], [6]) == vpf_count(x124, [4])
        assert len(built) == 2
        assert list_facts.cache_info().currsize == 1

    def test_bound_evicts_the_oldest(self, built):
        bound = list_facts.cache_info().maxsize
        lists = [GList.from_rows([[1, k]]) for k in range(2, bound + 4)]
        for x in lists:
            assert bv_count(x, [1], [30]) == vpf_count(x, [29])
        assert len(built) == bound + 2
        assert list_facts.cache_info().currsize == bound
        bv_count(lists[-1], [1], [31])
        assert len(built) == bound + 2
        assert bv_count(lists[0], [1], [31]) == vpf_count(lists[0], [30])
        assert len(built) == bound + 3
        assert list_facts.cache_info().currsize == bound

    def test_shared_values_stay_unchanged(self, long_geometry_corpus,
                                          monkeypatch):
        from zonotopal import brionvergne
        handed = []

        def recorded(x, z):
            handed.append((x, z, f_tilde(x, z)))
            return handed[-1][2]
        monkeypatch.setattr(brionvergne, "f_tilde", recorded)
        list_facts.cache_clear()
        for x in long_geometry_corpus[:12]:
            cells = big_cells(x)
            pieces = {id(c): local_piece(x, c) for c in cells}
            chamber_quasipolynomial(x, cells[0])
            for z in lattice_points(x, "interior"):
                for u in itertools.product(range(4), repeat=x.group.free_rank):
                    if in_cone(x, u):
                        bv_count(x, z, u, cells=cells, pieces=pieces)
        bound = list_facts.cache_info().maxsize
        recent = list(dict.fromkeys(x.elems for x, _, _ in reversed(handed)))
        assert len(recent) > bound
        # the entries still held hand out the very values handed out last
        latest = {(x.elems, z): (x, ft) for x, z, ft in handed}
        for (elems, z), (x, ft) in latest.items():
            if elems in recent[:bound]:
                assert f_tilde(x, z) is ft
        # and each value handed out equals one built afresh
        list_facts.cache_clear()
        for x, z, ft in handed:
            assert ft == f_tilde(x, z)
        list_facts.cache_clear()

    def test_one_psi_and_vertex_build_for_six_z(self, monkeypatch):
        builds = []
        for name in ("PsiProjector", "vertices"):
            build = getattr(periodic, name)

            def wrapper(*args, name=name, build=build):
                builds.append(name)
                return build(*args)
            monkeypatch.setattr(periodic, name, wrapper)
        list_facts.cache_clear()
        x = GList.from_rows([[1, 0, 1, 1, 2], [0, 1, 1, 2, 1]])
        cells = big_cells(x)
        pieces = {id(c): local_piece(x, c) for c in cells}
        interior = lattice_points(x, "interior")
        assert len(interior) >= 6
        for z in interior[:6]:
            for u in ((20, 21), (31, 29)):
                diff = [a - b for a, b in zip(u, z)]
                assert bv_count(x, z, u, cells=cells, pieces=pieces) \
                    == vpf_count(x, diff)
        assert sorted(builds) == ["PsiProjector", "vertices"]
        list_facts.cache_clear()


class TestAppliedTable:
    """apply_periodic takes p(D) f from `_applied`, one bounded table keyed
    on the values of p and f."""

    @pytest.fixture
    def empty(self):
        _applied.cache_clear()
        yield
        _applied.cache_clear()

    def test_bound_holds(self, x12, empty):
        piece = local_piece(x12, big_cells(x12)[0])
        bound = _applied.cache_info().maxsize
        for k in range(bound + 3):
            apply_periodic(PeriodicPoly.one(x12).scale(k + 1), piece, (3,))
        assert _applied.cache_info().currsize == bound

    def test_hit_differentiates_nothing(self, x124, empty, monkeypatch):
        calls = []
        apply_diff = MPoly.apply_diff

        def counted(q, f):
            calls.append(q)
            return apply_diff(q, f)
        monkeypatch.setattr(MPoly, "apply_diff", counted)
        ft = f_tilde(x124, x124.group.element((1,)))
        piece = local_piece(x124, big_cells(x124)[0])
        assert apply_periodic(ft, piece, (6,)) == 4
        assert len(calls) == len(ft.terms)
        assert apply_periodic(ft, piece, (9,)) == vpf_count(x124, [8])
        # equal values built again find the same entry
        again = GList.from_rows([[1, 2, 4]])
        assert apply_periodic(f_tilde(again, again.group.element((1,))),
                              local_piece(again, big_cells(again)[0]),
                              (7,)) == vpf_count(x124, [6])
        assert len(calls) == len(ft.terms)

    def test_stored_values_are_fresh_values(self, long_geometry_corpus,
                                            empty, monkeypatch):
        from zonotopal import brionvergne
        table = brionvergne._applied
        seen = []

        def recorded(p, f):
            seen.append((p, f, table(p, f)))
            return seen[-1][2]
        monkeypatch.setattr(brionvergne, "_applied", recorded)
        # every chamber at z = 0, and the z of Z(X) - w, boundary included
        for x in long_geometry_corpus:
            cells = big_cells(x)
            pieces = {id(c): local_piece(x, c) for c in cells}
            for cell in cells:
                chamber_quasipolynomial(x, cell)
            for z in lattice_points(x, "shifted", w=short_regular(x)):
                for u in itertools.product(range(4), repeat=x.group.free_rank):
                    if in_cone(x, u):
                        bv_count(x, z, u, cells=cells, pieces=pieces)
        bound = table.cache_info().maxsize
        # distinct pairs, the most recently used first
        recent = list(dict.fromkeys((p, f) for p, f, _ in reversed(seen)))
        assert len(recent) > bound
        assert table.cache_info().currsize == bound
        for p, f, q in seen:
            assert q == table.__wrapped__(p, f)
        hits = table.cache_info().hits
        for p, f in recent[:bound]:
            assert table(p, f) == table.__wrapped__(p, f)
        assert table.cache_info().hits == hits + bound


class TestPartitionOfUnity:
    def test_one_two(self, x12):
        assert partition_of_unity(x12) == PeriodicPoly.one(x12)

    def test_zp(self, zp_list):
        assert partition_of_unity(zp_list) == PeriodicPoly.one(zp_list)

    def test_unimodular(self, x11):
        assert partition_of_unity(x11) == PeriodicPoly.one(x11)

    def test_corpus(self, unity_corpus):
        assert len(unity_corpus) >= 5
        for x in unity_corpus:
            assert partition_of_unity(x) == PeriodicPoly.one(x)

    def test_d3(self):
        # the d = 3 lists of the coloop-free corpus, and two named ones:
        # the unimodular one with one interior point and the CI list
        lists = [x for x in _coloop_free_lists() if x.group.free_rank == 3]
        lists += [GList.from_rows([[1, 0, 0, 1], [0, 1, 0, 1],
                                   [0, 0, 1, 1]]),
                  GList.from_rows([[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1],
                                   [0, 0, 1, 1, 1, 1]])]
        assert len(lists) >= 4
        for x in lists:
            assert partition_of_unity(x) == PeriodicPoly.one(x), x

    def test_box_values_from_pieces(self):
        # B_X at every lattice point of the closed zonotope, boundary
        # included, equals the box-fibre volume, for d = 1, 2 and 3
        lists = _coloop_free_lists()
        assert {x.group.free_rank for x in lists} == {1, 2, 3}
        points = 0
        for x in lists:
            w = short_regular(x)
            for z in lattice_points(x, "shifted", w=[0] * len(w)):
                assert _box_value(x, z, w) == bx_value(x, z), (x, z)
                points += 1
        assert points >= 500

    def test_groups_equal_fraction_grouping(self):
        # the integer sign comparisons give the groups, in order, that
        # Fractions at the alcove sample give, toward a short w and toward
        # a long one (no normal of these lists is orthogonal to it); each
        # group's cell sample lies in its chamber
        for x in _coloop_free_lists():
            d = x.group.free_rank
            for w in (short_regular(x), (F(7, 5), F(-2, 3), F(5, 11))[:d]):
                for z in lattice_points(x, "shifted", w=[0] * d):
                    p0, groups = _shift_groups(x, z, w)
                    want = fraction_shift_groups(x, z, w)
                    assert p0 == alcove_sample(x, z, w)
                    assert [(c.signs, shifts) for c, shifts in groups] \
                        == list(want.items()), (x, z, w)
                    for cell, shifts in groups:
                        assert cell.sample == tuple(
                            p - v for p, v in zip(p0, shifts[0][0]))
                        assert chamber_signs(x, cell.sample) == cell.signs

    def test_no_box_volume(self, monkeypatch):
        # B_X comes from chamber pieces alone: no `bx_value`, and one
        # `tx_value` per chamber piece kept, fewer than the points
        from zonotopal import brionvergne, geometry

        def refuse(*args):
            raise AssertionError("bx_value reached")
        for module in (brionvergne, geometry):
            monkeypatch.setattr(module, "bx_value", refuse)
        volumes = []
        tx_value = geometry.tx_value
        monkeypatch.setattr(geometry, "tx_value",
                            lambda *args: volumes.append(args) or
                            tx_value(*args))
        list_facts.cache_clear()
        try:
            x = GList.from_rows([[1, 0, 1, 2, 1, 3, 1],
                                 [0, 1, 1, 1, 2, 1, 3]])
            assert partition_of_unity(x) == PeriodicPoly.one(x)
            pieces = x.memo("chamber_pieces", dict)
            assert len(volumes) == len(pieces)
            assert len(pieces) < len(lattice_points(x, "interior")) == 40
        finally:
            list_facts.cache_clear()

    def test_torsion_is_a_domain_error(self, capsys):
        # a coloop-free pointed list over Z^2 + Z/2 with interior points
        x = "[[1,0,1,1],[0,1,1,1],[0,1,1,0]]"
        assert main(["check-unity", "--x", x, "--group", "Z^2+Z/2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "spline values require a torsion-free group" in err


def _coloop_free_lists():
    """24 coloop-free pointed lattice lists with d = 1, 2 and 3, n <= 6."""
    limits = CorpusLimits(max_dim=3, max_len=6, max_entry=2,
                          allow_torsion=False, require_pointed=True,
                          max_volume=40, no_coloops=True)
    return corpus(seed=4711, limits=limits, count=24)


class TestBoxDelta:
    def test_two_ones(self, x11):
        res = box_delta_check(x11)[(1,)]
        assert res[(1,)].is_one()
        assert not res[(0,)] and not res[(2,)]

    def test_2d_identity_plus_diagonal(self):
        # and the d = 3 unimodular list: 15 support points, 4 z
        for rows, nz, nsupport in (
                ([[1, 0, 1], [0, 1, 1]], 3, 7),
                ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], 4, 15)):
            x = GList.from_rows(rows)
            w = short_regular(x)
            table = box_delta_check(x, w)
            assert [len(row) for row in table.values()] == [nsupport] * nz
            for z in lattice_points(x, "shifted", w=w):
                for lam, val in table[z].items():
                    expect = Cyclotomic.one() if lam == z \
                        else Cyclotomic.zero()
                    assert val == expect

    def test_one_row_per_z(self):
        x = GList.from_rows([[1, 0, 1], [0, 1, 1]])
        w = (F(1, 2), F(-1, 3))
        table = box_delta_check(x, w)
        assert list(table) == lattice_points(x, "shifted", w=w)
        support = lattice_points(x, "shifted", w=[0, 0])
        assert all(list(row) == support for row in table.values())

    def test_non_unimodular_rejected(self, zp_list):
        with pytest.raises(NotUnimodular):
            box_delta_check(zp_list)

    def test_per_list_objects_built_once(self, monkeypatch):
        from zonotopal import geometry
        builds = []

        def counted(name):
            build = getattr(geometry, name)

            def wrapper(x):
                builds.append(name)
                return build(x)
            return wrapper

        for name in ("_hyperplanes", "_fiber"):
            monkeypatch.setattr(geometry, name, counted(name))
        pieces = []
        piece_at = geometry.piece_at
        monkeypatch.setattr(geometry, "piece_at",
                            lambda *args: pieces.append(args) or
                            piece_at(*args))
        x = GList.from_rows([[1, 0, 1, 0], [0, 1, 1, 1]])
        table = box_delta_check(x)
        assert len(table) == 5
        assert sorted(builds) == ["_fiber", "_hyperplanes"]
        assert pieces
        # the chamber pieces are kept on the list: a second check builds
        # none, and gives the same table
        pieces.clear()
        assert box_delta_check(x) == table
        assert pieces == []
        assert sorted(builds) == ["_fiber", "_hyperplanes"]

    def test_one_todd_pass_for_all_z(self, monkeypatch):
        # psi_X, the vertices and the Todd parts are built once for the
        # list, across z and across the two checks
        builds = []
        for name in ("_todd_parts", "PsiProjector", "vertices"):
            build = getattr(periodic, name)

            def wrapper(*args, name=name, build=build):
                builds.append(name)
                return build(*args)
            monkeypatch.setattr(periodic, name, wrapper)
        list_facts.cache_clear()
        x = GList.from_rows([[1, 0, 1, 0], [0, 1, 1, 1]])
        assert len(box_delta_check(x)) == 5
        assert partition_of_unity(x) == PeriodicPoly.one(x)
        assert sorted(builds) == ["PsiProjector", "_todd_parts", "vertices"]
        list_facts.cache_clear()


class TestBoxInterpolant:
    def test_delta_data(self, x11):
        p = box_interpolant(x11, {(1,): 1})
        ft = f_tilde(x11, x11.group.element((1,)))
        assert p == ft.terms[0][1]

    def test_zero_data(self, x11):
        assert not box_interpolant(x11, {})

    def test_constant_five(self, x11):
        p = box_interpolant(x11, {(1,): 5})
        assert p == MPoly.constant(("s1",), 5)

    def test_second_vertex_component_is_internal_error(self, x11,
                                                       monkeypatch):
        # unimodular lists have one vertex, so f_z has one component; the
        # check is a typed error, so it also holds under python -O
        from zonotopal import brionvergne
        from zonotopal.errors import InternalError
        two = f_tilde(x11, x11.group.element((1,))) \
            + PeriodicPoly.single(("s1",), Character((F(1, 2),), ()),
                                  MPoly.constant(("s1",), 1))
        monkeypatch.setattr(brionvergne, "f_tilde", lambda x, z: two)
        with pytest.raises(InternalError, match="2 vertex components"):
            box_interpolant(x11, {(1,): 1})

    def test_reproduces_arbitrary_data(self):
        x = GList.from_rows([[1, 0, 1], [0, 1, 1]])
        w = short_regular(x)
        interior = lattice_points(x, "interior")
        data = {z: F(3 * i - 1, 2) for i, z in enumerate(interior)}
        p = box_interpolant(x, data)
        op = PeriodicPoly.single(("s1", "s2"),
                                 Character.trivial(x.group), p)
        from zonotopal.brionvergne import box_limit_value
        for z in interior:
            assert box_limit_value(x, op, z, w) == data[z]


class TestContinuity:
    def test_zp_internal_passes(self, zp_list):
        wl = walls(zp_list)
        for p in pper_internal_basis(zp_list):
            assert continuity_check(zp_list, p, wall_list=wl)

    def test_zp_s1s2_fails(self, zp_list):
        triv = Character.trivial(zp_list.group)
        sv = ("s1", "s2")
        p = PeriodicPoly.single(
            sv, triv, MPoly(sv, {(1, 1): Cyclotomic.one()}))
        assert not continuity_check(zp_list, p)

    def test_constant_passes(self, zp_list):
        assert continuity_check(zp_list, PeriodicPoly.one(zp_list))

    def test_classification_matches_kernel(self, geometry_corpus):
        # both directions of the characterization on a spanning set of Pper
        for x in geometry_corpus[:5]:
            wl = walls(x)
            internal = pper_internal_basis(x)
            basis = pper_basis(x)
            keys = sorted({c for p in internal + basis
                           for c, _ in p.terms})
            monos = sorted({e for p in internal + basis
                            for _, poly in p.terms for e in poly.terms})

            def row(p):
                comps = {c: poly for c, poly in p.terms}
                out = []
                for k in keys:
                    poly = comps.get(k)
                    for e in monos:
                        out.append(poly.coefficient(e) if poly is not None
                                   else Cyclotomic.zero())
                return out

            int_rows = [row(p) for p in internal]
            for p in basis + internal:
                member = span_contains(int_rows, row(p))
                assert continuity_check(x, p, wall_list=wl) == member


class TestWallCrossing:
    def test_triple_list_wall(self):
        x = GList.from_rows([[1, 0, 1], [0, 1, 1]])
        v12 = MPoly.constant(("t1", "t2"), 1)
        jump = wall_jump(x, (0, 1), v12)
        assert jump == MPoly.linear_form(("t1", "t2"), (0, 1))

    def test_zp_all_walls(self, zp_list):
        for wall in walls(zp_list):
            jump, diff, leading_ok = wall_jump_check(zp_list, wall)
            assert jump == diff
            assert leading_ok

    def test_constant_jump_when_minimal(self, x11):
        # m(H) = 2 for X=(1,1) at the origin wall; V12 = 1
        for wall in walls(x11):
            jump, diff, leading_ok = wall_jump_check(x11, wall)
            assert jump == diff
            assert leading_ok

    def test_corpus_walls(self, geometry_corpus):
        for x in geometry_corpus[:4]:
            for wall in walls(x):
                jump, diff, leading_ok = wall_jump_check(x, wall)
                assert jump == diff
                assert leading_ok

    @pytest.mark.parametrize("rows", [
        [[1, 0, 1, 0], [0, 1, 1, 1]],               # V12 = t2 on one wall
        [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]],   # V12 of degree 1 on all 3
    ])
    def test_parallel_columns_walls(self, rows):
        # columns repeated on a wall ray give V12 of positive degree, so the
        # residue needs the s-expansion up to that degree
        x = GList.from_rows(rows)
        degrees = []
        for wall in walls(x):
            jump, diff, leading_ok = wall_jump_check(x, wall)
            assert jump == diff
            assert leading_ok
            degrees.append(wall_v12(x, wall).total_degree())
        assert max(degrees) == 1

    @pytest.mark.parametrize("rows", [
        [[1, 0, 1], [0, 1, 1]], [[1, 2, -1], [1, 1, 2]], [[1, 1]], [[1, 2, 3]],
    ])
    def test_residue_matches_sympy(self, rows):
        # res_{z=0} v(D_s) e^{s.t + z eta(t)} / prod (x.s + eta(x) z)|_{s=0}
        # for the wall's own V12 and a fixed operator of degree 2
        x = GList.from_rows(rows)
        d = x.group.free_rank
        t1, td = (MPoly.variable(t_vars(d), i) for i in (0, d - 1))
        fixed = t1 * t1 - t1 * td * F(3, 2) + td * 2 + F(1, 3)
        z, w = sympy.symbols("z w")     # w stands for eta(t) until the end
        s = sympy.symbols(f"s1:{d + 1}")
        t = sympy.symbols(f"t1:{d + 1}")
        for wall in walls(x):
            eta = wall.normal
            den = 1
            for el in x.elems:
                ex = sum(e * c for e, c in zip(eta, el.free))
                if ex:
                    den *= sum(c * si for c, si in zip(el.free, s)) + ex * z
            kernel = sympy.exp(sum(si * ti for si, ti in zip(s, t))
                               + z * w) / den
            for v in (wall_v12(x, wall), fixed):
                applied = 0
                for e, c in v.terms.items():
                    term = kernel
                    for si, k in zip(s, e):
                        term = sympy.diff(term, si, k)
                    applied += sympy.Rational(str(c.to_rational())) * term
                # one fraction and one exponential: the residue runs faster
                applied = sympy.powsimp(sympy.together(
                    applied.subs({si: 0 for si in s})))
                expect = sympy.expand(sympy.residue(applied, z, 0).subs(
                    w, sum(e * ti for e, ti in zip(eta, t))))
                got = sum(sympy.Rational(str(c.to_rational()))
                          * sympy.prod(ti ** k for ti, k in zip(t, e))
                          for e, c in wall_jump(x, eta, v).terms.items())
                assert sympy.expand(got - expect) == 0, (wall.ray, v)

    def test_constant_jump_minimal_multiplicity(self):
        # m(H) = 1, V12 = 1: the jump is the bare constant c_X
        x = GList.from_rows([[1]])
        wall = walls(x)[0]
        jump, diff, leading_ok = wall_jump_check(x, wall)
        assert jump == diff == MPoly.constant(("t1",), 1)
        assert leading_ok


class TestDeconvolution:
    def _expect_delta(self, res):
        for lam, val in res.items():
            expect = Cyclotomic.one() if not any(lam) else Cyclotomic.zero()
            assert val == expect, (lam, val)

    def test_one_two(self, x12):
        self._expect_delta(box_deconvolution_check(x12))

    def test_124_printed_operator(self, x124):
        self._expect_delta(box_deconvolution_check(x124))

    def test_unimodular_reduction(self, x11):
        self._expect_delta(box_deconvolution_check(x11))

    def test_2d(self):
        x = GList.from_rows([[1, 0, 1], [0, 1, 1]])
        self._expect_delta(box_deconvolution_check(x))

    def test_default_w_inside_the_cone(self, geometry_corpus):
        # the default w lies in cone(X), also on the lists whose cone misses
        # (1/7, 1/49, ...), and at d = 3, where big_cells needs samples
        outside = 0
        for x in [GList.from_rows([[0, 1], [1, 2]]),
                  GList.from_rows([[0, 0, 1, 1], [1, 0, 2, 1], [0, 1, 0, 1]]),
                  *geometry_corpus]:
            outside += not in_cone(x, short_regular(x))
            self._expect_delta(box_deconvolution_check(x))
        assert outside >= 3
