"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a PASS/FAIL line (bypassing capture, so the lines show
under plain ``pytest``); any failure also fails the corresponding test.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from accessors import coefficients_reversed
from alcoves import alcove_sample
from spans import span_contains, span_equal
from zonotopal import linalg
from zonotopal.abelian import FgGroup, GList, contract
from zonotopal.brionvergne import (_alcove_polynomial, box_delta_check,
                                   box_interpolant, box_limit_value, bv_count,
                                   continuity_check, partition_of_unity,
                                   wall_jump, wall_jump_check, walls)
from zonotopal.geometry import (big_cells, bx_value, in_cone, lattice_points,
                                local_piece, piece_at, short_regular,
                                tx_value, vpf_count)
from zonotopal.matroid import (arithmetic_tutte, bases, is_coloop, tutte)
from zonotopal.periodic import (PeriodicPoly, dm_basis, f_tilde, hilbert,
                                l_map, pair_pper_dm, pper_basis,
                                pper_internal_basis, pper_membership)
from zonotopal.polyspace import PsiProjector
from zonotopal.scalar import Cyclotomic, MPoly, exp_series
from zonotopal.toric import Character

F = Fraction


RESULTS = []


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"ACCEPTANCE {num:2d}: FAIL  {title}")
                raise
            RESULTS.append(f"ACCEPTANCE {num:2d}: PASS  {title}")
        return wrapper
    return deco


def _pper_rows(polys):
    keys = sorted({c for p in polys for c, _ in p.terms})
    monos = sorted({e for p in polys for _, poly in p.terms
                    for e in poly.terms})
    rows = []
    for p in polys:
        comps = {c: poly for c, poly in p.terms}
        row = []
        for k in keys:
            poly = comps.get(k)
            for e in monos:
                row.append(poly.coefficient(e) if poly is not None
                           else Cyclotomic.zero())
        rows.append(row)
    return rows


def _pper_span_equal(a, b):
    rows = _pper_rows(list(a) + list(b))
    return span_equal(rows[:len(a)], rows[len(a):])


@criterion(1, "1-D fixtures (1,1) and (1,2): T, i, B exact values")
def test_criterion_01():
    x11 = GList.from_rows([[1, 1]])
    for u in range(11):
        assert tx_value(x11, [u]) == u
        assert vpf_count(x11, [u]) == u + 1
    assert bx_value(x11, [1]) == 1
    x12 = GList.from_rows([[1, 2]])
    for u in range(13):
        assert tx_value(x12, [u]) == F(u, 2)
        assert vpf_count(x12, [u]) == F(u, 2) + F(3, 4) + F((-1) ** u, 4)
    assert bx_value(x12, [1]) == F(1, 2)
    assert bx_value(x12, [2]) == F(1, 2)


@criterion(2, "(1,2,4): B piecewise, i mod-4 branches, printed f~_0, M")
def test_criterion_02():
    x = GList.from_rows([[1, 2, 4]])
    pieces = {
        (0, 1): lambda u: u * u / 16,
        (1, 2): lambda u: u / 8 - F(1, 16),
        (2, 3): lambda u: -u * u / 16 + 3 * u / 8 - F(5, 16),
        (3, 4): lambda u: F(1, 4),
        (4, 5): lambda u: -u * u / 16 + u / 2 - F(3, 4),
        (5, 6): lambda u: -u / 8 + F(13, 16),
        (6, 7): lambda u: u * u / 16 - 7 * u / 8 + F(49, 16),
    }
    for (lo, hi), f in pieces.items():
        for k in (1, 2, 3):
            u = F(lo) + F(k, 4)
            assert bx_value(x, [u]) == f(u)
    branches = {0: lambda u: u * u / 16 + u / 2 + 1,
                1: lambda u: u * u / 16 + 3 * u / 8 + F(9, 16),
                2: lambda u: u * u / 16 + u / 2 + F(12, 16),
                3: lambda u: u * u / 16 + 3 * u / 8 + F(5, 16)}
    for u in range(21):
        assert vpf_count(x, [u]) == branches[u % 4](F(u))
    sv = ("s1",)
    s = MPoly.linear_form(sv, (1,))
    i = Cyclotomic.root_of_unity(4)
    expect = PeriodicPoly(sv, [
        (Character((F(0),), ()),
         MPoly.constant(sv, 1) + s * F(7, 2) + s * s * F(21, 4)),
        (Character((F(1, 4),), ()),
         s * s * ((Cyclotomic.one() - i) * F(1, 2))),
        (Character((F(1, 2),), ()), s * F(1, 2) + s * s * F(7, 4)),
        (Character((F(3, 4),), ()),
         s * s * ((Cyclotomic.one() + i) * F(1, 2))),
    ])
    assert f_tilde(x, x.group.zero()) == expect
    assert arithmetic_tutte(x).terms == {(1, 0): 1, (0, 2): 1, (0, 1): 2,
                                         (0, 0): 3}


@criterion(3, "Zwart-Powell: Tutte polys, printed bases, printed f~ values")
def test_criterion_03(zp_list):
    assert tutte(zp_list).terms == {(2, 0): 1, (0, 2): 1, (1, 0): 2,
                                    (0, 1): 2}
    assert arithmetic_tutte(zp_list).terms == {(2, 0): 1, (0, 2): 1,
                                               (1, 0): 2, (0, 1): 2,
                                               (0, 0): 1}
    sv = ("s1", "s2")
    s1 = MPoly.linear_form(sv, (1, 0))
    s2 = MPoly.linear_form(sv, (0, 1))
    one = MPoly.constant(sv, 1)
    triv = Character.trivial(zp_list.group)
    phi1 = Character((F(1, 2), F(1, 2)), ())

    def mk(items):
        return PeriodicPoly(sv, items)

    basis = pper_basis(zp_list)
    assert len(basis) == 7
    printed = [mk([(triv, one)]), mk([(triv, s2)]),
               mk([(triv, s2 * (s1 + s2))]), mk([(triv, s1)]),
               mk([(triv, s1 * (s1 + s2))]), mk([(triv, s1 * s2)]),
               mk([(phi1, s1 * s2)])]
    assert _pper_span_equal(basis, printed)
    internal = pper_internal_basis(zp_list)
    printed_internal = [mk([(triv, one)]), mk([(triv, s1)]),
                        mk([(triv, s2)]),
                        mk([(triv, s1 * s2), (phi1, -(s1 * s2))])]
    assert _pper_span_equal(internal, printed_internal)
    f_values = {
        (0, 1): (one + s1 * F(1, 2) + s2 * F(1, 2) + s1 * s2 * F(1, 4), -1),
        (1, 1): (one - s1 * F(1, 2) + s2 * F(1, 2) - s1 * s2 * F(1, 4), 1),
        (0, 2): (one + s1 * F(1, 2) - s2 * F(1, 2) - s1 * s2 * F(1, 4), 1),
        (1, 2): (one - s1 * F(1, 2) - s2 * F(1, 2) + s1 * s2 * F(1, 4), -1),
    }
    for z, (trivial_part, sign) in f_values.items():
        expect = mk([(triv, trivial_part), (phi1, s1 * s2 * F(sign, 4))])
        assert f_tilde(zp_list, zp_list.group.element(z)) == expect
    # the printed f(0,0) is excluded (suspected typo: its phi_1 component is
    # not divisible by s1 s2); the computed value must be a Pper member
    assert pper_membership(zp_list, f_tilde(zp_list, zp_list.group.zero()))


@criterion(4, "corpus dims/Hilbert vs arithmetic Tutte, deletion-contraction")
def test_criterion_04(mixed_corpus):
    assert len(mixed_corpus) >= 50
    for x in mixed_corpus:
        n, d = len(x), x.group.free_rank
        m = arithmetic_tutte(x)
        central = pper_basis(x)
        assert len(central) == m.evaluate(1, 1)
        if not x.group.invariants:
            w = short_regular(x)
            assert len(lattice_points(x, "shifted", w=w)) == m.evaluate(1, 1)
            assert len(lattice_points(x, "interior")) == m.evaluate(0, 1)
            assert sum(
                abs(_det_of(x, b)) for b in bases(x)) == m.evaluate(1, 1)
        internal = pper_internal_basis(x)
        assert len(internal) == m.evaluate(0, 1)
        hc = hilbert(central)
        hc += [0] * (n - d + 1 - len(hc))
        assert hc == coefficients_reversed(m, n - d, 1)
        hi = hilbert(internal)
        hi += [0] * (n - d + 1 - len(hi))
        assert hi == coefficients_reversed(m, n - d, 0)
        for i in range(len(x)):
            if x.elems[i].is_torsion() or is_coloop(x, i):
                continue
            assert m == (arithmetic_tutte(x.delete(i))
                         + arithmetic_tutte(contract(x, i)[0]))


def _det_of(x, b):
    idx = sorted(b)
    cols = [x.elems[i].free for i in idx]
    mat = [[F(cols[j][i]) for j in range(len(idx))]
           for i in range(x.group.free_rank)]
    return linalg.det(mat)


@criterion(5, "improved Brion-Vergne counts over a 10x10 box, w-independent")
def test_criterion_05(geometry_corpus):
    for x in geometry_corpus:
        d = x.group.free_rank
        cells = big_cells(x)
        pieces = {id(c): local_piece(x, c) for c in cells}
        for z in lattice_points(x, "interior"):
            for u in itertools.product(range(10), repeat=d):
                if not in_cone(x, u):
                    continue
                diff = [a - b for a, b in zip(u, z)]
                expect = vpf_count(x, diff) if in_cone(x, diff) else 0
                # interior z: bv_count checks agreement over every adjacent
                # cell, which is the w-independence assertion
                assert bv_count(x, z, u, cells=cells, pieces=pieces) == expect


@criterion(6, "partition of unity: sum B(z) f~_z = 1 exactly")
def test_criterion_06(unity_corpus, zp_list, x12):
    targets = [x12, zp_list] + list(unity_corpus)
    assert len(targets) >= 7
    for x in targets:
        assert partition_of_unity(x) == PeriodicPoly.one(x)


@criterion(7, "duality: Gram nonsingular, L reproduces the pairing, delta")
def test_criterion_07(mixed_corpus, zp_list, x124):
    lattice_lists = [x for x in mixed_corpus
                     if not x.group.invariants and x.group.free_rank <= 2][:5]
    for x in [zp_list, x124] + lattice_lists:
        pb, db = pper_basis(x), dm_basis(x)
        gram = [[pair_pper_dm(x, p, f) for f in db] for p in pb]
        assert linalg.rank(gram) == len(pb)
    # functionals through L agree with the pairing on all of DM
    for x in (x124, zp_list):
        w = short_regular(x)
        db = dm_basis(x)
        for p in pper_basis(x)[:4]:
            lc = l_map(x, p, w)
            assert all(lc.apply(f) == pair_pper_dm(x, p, f) for f in db)
    # unimodular: L(psi(e^z)) is evaluation at z
    for rows in ([[1, 1]], [[1, 0, 1], [0, 1, 1]]):
        x = GList.from_rows(rows)
        d = x.group.free_rank
        w = short_regular(x)
        psi = PsiProjector(x)
        for z in lattice_points(x, "shifted", w=w):
            ez = exp_series(MPoly.linear_form(
                tuple(f"s{i+1}" for i in range(d)), [F(v) for v in z]),
                len(x) - d + 1)
            p = PeriodicPoly.single(tuple(f"s{i+1}" for i in range(d)),
                                    Character.trivial(x.group), psi(ez))
            lc = l_map(x, p, w)
            expect = [Cyclotomic.one() if pt == z else Cyclotomic.zero()
                      for pt in lc.support]
            assert list(lc.coeffs) == expect


@criterion(8, "continuity of p(D)T_X on the lattice == internal membership")
def test_criterion_08(geometry_corpus, zp_list):
    for x in [zp_list] + list(geometry_corpus):
        wall_list = walls(x)
        assert wall_list
        internal = pper_internal_basis(x)
        basis = pper_basis(x)
        int_rows = _pper_rows(internal + basis)[:len(internal)]
        any_fail = False
        for p in basis + internal:
            rows = _pper_rows(internal + [p])
            member = span_contains(rows[:len(internal)], rows[-1])
            verdict = continuity_check(x, p, wall_list=wall_list)
            assert verdict == member
            any_fail = any_fail or not verdict
        assert any_fail, "some central member must fail continuity"


@criterion(9, "wall crossing: residue jump matches pieces, leading term")
def test_criterion_09(zp_list):
    triple = GList.from_rows([[1, 0, 1], [0, 1, 1]])
    v12 = MPoly.constant(("t1", "t2"), 1)
    assert wall_jump(triple, (0, 1), v12) \
        == MPoly.linear_form(("t1", "t2"), (0, 1))
    for wall in walls(zp_list):
        jump, diff, leading_ok = wall_jump_check(zp_list, wall)
        assert jump == diff
        assert leading_ok


@criterion(10, "unimodular delta interpolation and arbitrary box data")
def test_criterion_10():
    for rows in ([[1, 1]], [[1, 0, 1], [0, 1, 1]]):
        x = GList.from_rows(rows)
        w = short_regular(x)
        table = box_delta_check(x, w)
        for z in lattice_points(x, "shifted", w=w):
            for lam, val in table[z].items():
                expect = Cyclotomic.one() if lam == z else Cyclotomic.zero()
                assert val == expect
        interior = lattice_points(x, "interior")
        data = {z: F(5 - 3 * i, 4) for i, z in enumerate(interior)}
        p = box_interpolant(x, data)
        sv = tuple(f"s{i+1}" for i in range(x.group.free_rank))
        op = PeriodicPoly.single(sv, Character.trivial(x.group), p)
        for z in interior:
            assert box_limit_value(x, op, z, w) == data[z]


@criterion(11, "semidiscrete convolution T = B * i at lattice points")
def test_criterion_11(geometry_corpus, x124):
    # each spline is read at u as the value of its piece on the alcove
    # (B_X) or chamber (T_X) towards w
    from zonotopal.geometry import zonotope_hrep
    for x in list(geometry_corpus) + [x124]:
        d = x.group.free_rank
        h = zonotope_hrep(x)
        w = short_regular(x)
        checked = 0
        for u in itertools.product(range(0, 6), repeat=d):
            if not in_cone(x, u) or checked >= 8:
                continue
            checked += 1
            total = F(0)
            for z in itertools.product(range(-7, 8), repeat=d):
                diff = [F(a - b) for a, b in zip(u, z)]
                if not h.contains(diff):
                    continue
                b = _alcove_polynomial(x, diff, w).evaluate(diff)
                if b:
                    total += b.to_rational() * vpf_count(x, z)
            t = piece_at(x, alcove_sample(x, u, w)).evaluate(u)
            assert total == t.to_rational()
        assert checked


@criterion(12, "torsion fixtures: molecule, mixed pair, contraction sequence")
def test_criterion_12():
    # molecule (2~) in Z/4
    mol = GList.from_columns([[2]], FgGroup(0, (4,)))
    assert arithmetic_tutte(mol).terms == {(0, 1): 2, (0, 0): 2}
    sv = ("s0",)
    s0 = MPoly.linear_form(sv, (1,))

    def ch4(k):
        return Character((), (F(k, 4),))

    printed = [PeriodicPoly(sv, [(ch4(0), MPoly.constant(sv, 1))]),
               PeriodicPoly(sv, [(ch4(1), s0)]),
               PeriodicPoly(sv, [(ch4(2), MPoly.constant(sv, 1))]),
               PeriodicPoly(sv, [(ch4(3), s0)])]
    assert _pper_span_equal(pper_basis(mol), printed)
    assert _pper_span_equal(pper_internal_basis(mol), printed)

    # mixed pair ((2,0~),(0,1~)) in Z + Z/2
    iz = GList.from_columns([[2, 0], [0, 1]], FgGroup(1, (2,)))
    assert arithmetic_tutte(iz).terms == {(1, 1): 1, (1, 0): 1, (0, 1): 1,
                                          (0, 0): 1}
    svz = ("s0", "s1")
    one = MPoly.constant(svz, 1)
    z0 = MPoly.linear_form(svz, (1, 0))

    def chz(a, b):
        return Character((F(a, 2),), (F(b, 2),))

    assert _pper_span_equal(pper_basis(iz), [
        PeriodicPoly(svz, [(chz(0, 0), one)]),
        PeriodicPoly(svz, [(chz(1, 0), one)]),
        PeriodicPoly(svz, [(chz(0, 1), z0)]),
        PeriodicPoly(svz, [(chz(1, 1), z0)])])
    assert _pper_span_equal(pper_internal_basis(iz), [
        PeriodicPoly(svz, [(chz(0, 0), one), (chz(1, 0), -one)]),
        PeriodicPoly(svz, [(chz(0, 1), z0), (chz(1, 1), -z0)])])

    # contraction of the second element of [[1,0,0],[0,2,1]]
    from zonotopal.periodic import pper_mult, pper_project
    x = GList.from_rows([[1, 0, 0], [0, 2, 1]])
    sv2 = ("s1", "s2")
    s2 = MPoly.linear_form(sv2, (0, 1))
    triv2 = Character.trivial(x.group)
    phib = Character((F(0), F(1, 2)), ())
    assert _pper_span_equal(pper_basis(x), [
        PeriodicPoly(sv2, [(triv2, MPoly.constant(sv2, 1))]),
        PeriodicPoly(sv2, [(triv2, s2)]),
        PeriodicPoly(sv2, [(phib, s2)])])
    quot, _ = contract(x, 1)
    svq = ("s0", "s1")
    assert _pper_span_equal(pper_basis(quot), [
        PeriodicPoly(svq, [(Character.trivial(quot.group),
                            MPoly.constant(svq, 1))]),
        PeriodicPoly(svq, [(Character((F(0),), (F(1, 2),)),
                            MPoly.linear_form(svq, (1, 0)))])])
    # exactness by ranks: projection after multiplication is zero, the
    # projection is onto, and rank(mult) + dim Pper(X/x_i) = dim Pper(X);
    # the basis elements the projection kills need not span its kernel
    xt = GList.from_columns([[1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]],
                            FgGroup(2, (2,)))
    for y, i in ((x, 1), (xt, 2)):
        quot, _ = contract(y, i)
        mult_images = [pper_mult(y, i, p) for p in pper_basis(y.delete(i))]
        assert not any(pper_project(y, i, m) for m in mult_images)
        proj_images = [q for q in (pper_project(y, i, p)
                                   for p in pper_basis(y)) if q]
        assert _pper_span_equal(proj_images, pper_basis(quot))
        assert (linalg.rank(_pper_rows(mult_images)) + len(pper_basis(quot))
                == len(pper_basis(y)))
