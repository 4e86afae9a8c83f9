import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

from zonotopal import linalg
from zonotopal import geometry
from zonotopal.abelian import (FgGroup, GList, contract, hnf_insert,
                               list_facts, multiplicity, rank_of, snf,
                               snf_diagonal)
from zonotopal.geometry import big_cells, fiber, local_piece, zonotope_hrep
from zonotopal.periodic import f_tilde


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestSnf:
    def test_diagonal_two_two(self):
        assert snf_diagonal([[2, 0], [0, 2]]) == [2, 2]

    def test_row_reduce_oracle(self):
        # by-hand reduction of [[1,2],[3,4]]: det 2, gcd 1 -> diag(1, 2)
        assert snf_diagonal([[1, 2], [3, 4]]) == [1, 2]

    def test_zero_matrix(self):
        _, d, _ = snf([[0]])
        assert d == [[0]]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.lists(
        st.lists(st.integers(-8, 8), min_size=r, max_size=r),
        min_size=1, max_size=4)))
    def test_diagonal_matches_sympy(self, m):
        want = smith_normal_form(sympy.Matrix(m), domain=ZZ)
        assert snf_diagonal(m) == [abs(int(want[i, i]))
                                   for i in range(min(want.shape))
                                   if want[i, i]]

    def test_transforms_randomized(self):
        rng = random.Random(5)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-8, 8) for _ in range(c)] for _ in range(r)]
            u, d, v = snf(m)
            assert _matmul(_matmul(u, m), v) == d
            assert abs(_det(u)) == 1
            assert abs(_det(v)) == 1
            diag = [d[i][i] for i in range(min(r, c))]
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0
            assert all(x >= 0 for x in diag)


class TestMultiplicity:
    def test_index_in_z(self):
        x = GList.from_rows([[2]])
        assert multiplicity(x, [0]) == 2

    def test_empty_set_in_finite_group(self):
        x = GList.from_columns([[2]], FgGroup(0, (4,)))
        assert multiplicity(x, []) == 4

    def test_determinant_pair(self):
        x = GList.from_rows([[2, 0], [0, 2]])
        assert multiplicity(x, [0, 1]) == 4

    def test_unimodular_iff_det_one(self):
        from zonotopal.matroid import bases
        rng = random.Random(9)
        for _ in range(20):
            cols = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(4)]
            x = GList.from_columns(cols, FgGroup(2))
            if rank_of(x, range(4)) < 2:
                continue
            for b in bases(x):
                sub = sorted(b)
                det = (cols[sub[0]][0] * cols[sub[1]][1]
                       - cols[sub[0]][1] * cols[sub[1]][0])
                assert (multiplicity(x, b) == 1) == (abs(det) == 1)


def _hnf(vectors, basis=()):
    for v in vectors:
        basis = hnf_insert(basis, v)
    return basis


def _relations(g):
    return [[k if i == g.free_rank + j else 0 for i in range(g.ncoords)]
            for j, k in enumerate(g.invariants)]


def _random_glist(rng, g, n):
    return GList(g, [g.element([rng.randint(-3, 3)
                                for _ in range(g.free_rank)],
                               [rng.randrange(k) for k in g.invariants])
                     for _ in range(n)])


class TestListFacts:
    """`GList.memo` keeps a list's facts in `list_facts`, one bounded table
    keyed on the list's value; no list holds its entry."""

    ROWS = [[1, 0, 1, 1], [0, 1, 1, 2]]

    def test_hash_agrees_with_equality(self):
        x, again = GList.from_rows(self.ROWS), GList.from_rows(self.ROWS)
        assert x is not again and x == again and hash(x) == hash(again)
        other = GList.from_rows(self.ROWS, FgGroup(1, (3,)))
        assert other != x and {x: 1, again: 2, other: 3} == {x: 2, other: 3}

    def test_equal_list_shares_the_geometry(self, monkeypatch):
        list_facts.cache_clear()
        x = GList.from_rows(self.ROWS)
        cells = big_cells(x)
        pieces = [local_piece(x, c) for c in cells]
        built = []
        monkeypatch.setattr(geometry, "piece_at",
                            lambda *args: built.append(args))
        again = GList.from_rows(self.ROWS)
        assert zonotope_hrep(again) is zonotope_hrep(x)
        assert fiber(again) is fiber(x)
        assert all(local_piece(again, c) is p for c, p in zip(cells, pieces))
        assert built == []
        assert list_facts.cache_info().currsize == 1
        list_facts.cache_clear()

    def test_evicted_psi_is_freed_without_a_collection(self):
        list_facts.cache_clear()
        x = GList.from_rows(self.ROWS)
        gc.disable()
        try:
            f_tilde(x, x.group.zero())
            psi = weakref.ref(list_facts(x)["psi"])
            assert psi() is not None
            for k in range(list_facts.cache_info().maxsize):
                GList.from_rows([[1, k + 2]]).memo("k", lambda _: k)
            # x is still alive, and its psi_X, which holds x, is gone
            assert x.elems and psi() is None
        finally:
            gc.enable()
            list_facts.cache_clear()


class TestSharedElements:
    """`FgGroup.element` gives equal elements as one object, from a table
    of bounded size."""

    def test_equal_columns_give_one_element(self):
        cols = [[1, 0, 2], [0, 1, 1], [1, 0, 2]]
        x, again = GList.from_columns(cols), GList.from_columns(cols)
        assert x.elems[0] is x.elems[2]
        assert all(a is b for a, b in zip(x.elems, again.elems))

    def test_other_group_or_unreduced_residue(self):
        free, tors = FgGroup(3), FgGroup(2, (3,))
        e = free.element((1, 0, 2))
        assert (e.group, e.free, e.tors) == (free, (1, 0, 2), ())
        for r in (2, 5, -1, 8):
            e = tors.element((1, 0), (r,))
            assert (e.group, e.free, e.tors) == (tors, (1, 0), (2,))
            assert e == tors.element((1, 0), (2,))
        other = FgGroup(2, (6,)).element((1, 0), (8,))
        assert (other.group.invariants, other.tors) == ((6,), (2,))
        assert other != tors.element((1, 0), (2,))
        x = GList.from_columns([[1, 0, 2], [1, 0, 5]], tors)
        y = GList.from_columns([[1, 0, 2], [1, 0, 5]], FgGroup(2, (6,)))
        assert x.elems[0] == x.elems[1] and y.elems[0] != y.elems[1]
        assert all(e.group == y.group for e in y.elems)


class TestHnf:
    def test_relations_are_their_own_form(self):
        for g in (FgGroup(2), FgGroup(1, (2,)), FgGroup(2, (2, 6, 12))):
            assert g.relations == tuple(map(tuple, _relations(g)))
            assert _hnf(_relations(g)) == g.relations

    GROUPS = (FgGroup(2), FgGroup(3), FgGroup(1, (2,)), FgGroup(2, (3,)),
              FgGroup(2, (2, 4)), FgGroup(0, (6,)))

    def test_form(self):
        rng = random.Random(17)
        for _ in range(100):
            dim = rng.randint(1, 4)
            vecs = [[rng.randint(-6, 6) for _ in range(dim)]
                    for _ in range(rng.randint(0, 5))]
            basis = _hnf(vecs)
            pivots = []
            for row in basis:
                c = next(i for i, v in enumerate(row) if v)
                assert row[c] > 0
                pivots.append(c)
            assert pivots == sorted(set(pivots))
            for i, c in enumerate(pivots):
                assert all(0 <= basis[k][c] < basis[i][c] for k in range(i))

    def test_canonical_under_order_and_generators(self):
        rng = random.Random(18)
        for _ in range(100):
            dim = rng.randint(1, 4)
            vecs = [[rng.randint(-6, 6) for _ in range(dim)]
                    for _ in range(rng.randint(1, 5))]
            basis = _hnf(vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert _hnf(shuffled) == basis
            # an integer combination of the generators spans nothing new
            coeffs = [rng.randint(-3, 3) for _ in vecs]
            combo = [sum(a * v[i] for a, v in zip(coeffs, vecs))
                     for i in range(dim)]
            assert hnf_insert(basis, combo) == basis
            assert _hnf([combo] + shuffled) == basis
            assert _hnf(vecs, _hnf(shuffled)) == basis

    def test_row_count_minus_torsion_is_free_rank(self):
        rng = random.Random(19)
        for g in self.GROUPS:
            for _ in range(15):
                x = _random_glist(rng, g, rng.randint(0, 5))
                basis = _hnf([e.lift() for e in x], _hnf(_relations(g)))
                free = [[Fraction(v) for v in e.free] for e in x
                        if any(e.free)]
                rank = linalg.rank(free) if free else 0
                assert len(basis) - len(g.invariants) == rank

    def test_snf_of_basis_is_multiplicity(self):
        rng = random.Random(20)
        for g in self.GROUPS:
            for _ in range(15):
                x = _random_glist(rng, g, rng.randint(0, 5))
                basis = _hnf([e.lift() for e in x], _hnf(_relations(g)))
                order = math.prod(snf_diagonal([list(r) for r in basis]))
                assert order == multiplicity(x, range(len(x)))


class TestRank:
    def test_empty(self):
        x = GList.from_rows([[1, 2]])
        assert rank_of(x, []) == 0

    def test_torsion_element_rank_zero(self):
        x = GList.from_columns([[0, 1]], FgGroup(1, (2,)))
        assert rank_of(x, [0]) == 0

    def test_collinear(self):
        x = GList.from_rows([[1, 2], [0, 0]])
        assert rank_of(x, [0, 1]) == 1

    def test_monotone_submodular(self):
        rng = random.Random(4)
        for _ in range(15):
            cols = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(5)]
            x = GList.from_columns(cols, FgGroup(3))
            idx = list(range(5))
            for _ in range(10):
                a = set(rng.sample(idx, rng.randint(0, 4)))
                b = set(rng.sample(idx, rng.randint(0, 4)))
                ra, rb = rank_of(x, a), rank_of(x, b)
                assert rank_of(x, a | b) + rank_of(x, a & b) <= ra + rb
                if a <= b:
                    assert ra <= rb


class TestContract:
    def test_mixed_quotient_contraction(self):
        x = GList.from_rows([[1, 0, 0], [0, 2, 1]])
        q, _ = contract(x, 1)
        assert q.group == FgGroup(1, (2,))
        assert [e.free + e.tors for e in q.elems] == [(1, 0), (0, 1)]

    def test_coloop_pair_contraction(self):
        # ((2,0),(0,2)) / (2,0): quotient Z + Z/2, image of (0,2) = (2, 0~)
        x = GList.from_rows([[2, 0], [0, 2]])
        q, _ = contract(x, 0)
        assert q.group == FgGroup(1, (2,))
        assert [e.free + e.tors for e in q.elems] == [(2, 0)]

    def test_zero_element(self):
        x = GList.from_rows([[1, 0], [0, 0]])
        q, _ = contract(x, 1)
        assert q.group == x.group
        assert len(q) == 1

    def test_descriptor_is_a_homomorphism(self):
        x = GList.from_rows([[1, 0, 3], [0, 2, 1]])
        _, qm = contract(x, 2)
        g1, g2 = x.elems[0], x.elems[1]
        assert qm.apply(g1 + g2).free == (qm.apply(g1) + qm.apply(g2)).free
        assert qm.apply(g1 + g2).tors == (qm.apply(g1) + qm.apply(g2)).tors

    def test_delete_contract_commute(self):
        rng = random.Random(13)
        for _ in range(25):
            cols = [[rng.randint(-3, 3), rng.randint(-3, 3)]
                    for _ in range(4)]
            x = GList.from_columns(cols, FgGroup(2))
            if x.elems[0].is_zero() or x.elems[2].is_zero():
                continue
            # contract 2 then delete 0  vs  delete 0 then contract (2 -> 1)
            a, _ = contract(x, 2)
            a = a.delete(0)
            b, _ = contract(x.delete(0), 1)
            assert a.group == b.group


class TestGroupParsing:
    def test_spec_strings(self):
        assert FgGroup.parse("Z^2") == FgGroup(2)
        assert FgGroup.parse("Z^1 + Z/2") == FgGroup(1, (2,))
        assert FgGroup.parse("Z/4") == FgGroup(0, (4,))
        g = FgGroup(2, (2, 4))
        assert FgGroup.parse(g.spec_string()) == g

    def test_invariant_normalization_enforced(self):
        with pytest.raises(ValueError):
            FgGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgGroup(1, (0,))

    def test_parse_normalizes_by_snf(self):
        assert FgGroup.parse("Z/2 + Z/3") == FgGroup(0, (6,))
        assert FgGroup.parse("Z + Z/3 + Z/2") == FgGroup(1, (6,))
        assert FgGroup.parse("Z/4 + Z/6") == FgGroup(0, (2, 12))
        assert FgGroup.parse("Z/4 + Z/2") == FgGroup(0, (2, 4))
        for spec in ("Z + Z/0", "Z/1"):
            with pytest.raises(ValueError):
                FgGroup.parse(spec)

    def test_mismatched_elements_raise_value_error(self):
        # ValueError, not assert, so the checks also hold under python -O
        g = FgGroup(2, (2,))
        with pytest.raises(ValueError):
            g.element((1, 2, 3), ())
        with pytest.raises(ValueError):
            g.element((1, 2), ())
        e = g.element((1, 2), (1,))
        with pytest.raises(ValueError):
            GList(FgGroup(1), [e])
        with pytest.raises(ValueError):
            e + FgGroup(2).element((1, 2))
        _, qm = contract(GList.from_rows([[1, 0], [0, 2]]), 0)
        with pytest.raises(ValueError):
            qm.apply(e)

    def test_list_json_roundtrip(self):
        x = GList.from_columns([[1, 0, 1], [0, 2, 1]], FgGroup(2, (3,)))
        assert GList.from_json(x.to_json()) == x
