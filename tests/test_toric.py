from fractions import Fraction

import pytest

from zonotopal.abelian import FgGroup, GList
from zonotopal.errors import InternalError
from zonotopal.matroid import arithmetic_tutte, tutte
from zonotopal.toric import (Character, _all_torsion_characters,
                             _characters_killing, evaluate, vertices)


class TestVertices:
    def test_zp_two_vertices(self, zp_list):
        vs = vertices(zp_list)
        assert [v.character.theta for v in vs] == [
            (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]
        assert vs[0].x_phi == (0, 1, 2, 3)
        assert vs[1].x_phi == (2, 3)

    def test_124_four_vertices(self, x124):
        vs = vertices(x124)
        assert [v.character.theta[0] for v in vs] == [
            Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_rank_zero_full_torus(self):
        x = GList.from_columns([[2]], FgGroup(0, (4,)))
        vs = vertices(x)
        assert [v.character.tors[0] for v in vs] == [
            Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_infinite_index_is_internal_error(self):
        # one column of a rank-2 list spans a subgroup of infinite index
        x = GList.from_rows([[1, 0], [0, 1]])
        with pytest.raises(InternalError, match="finite index"):
            _characters_killing(x, (0,))

    def test_torsion_characters_need_a_finite_group(self):
        with pytest.raises(InternalError, match="not finite"):
            _all_torsion_characters(FgGroup(1, (2,)))

    def test_weighted_count(self, mixed_corpus):
        # sum over vertices of Tutte_{X_phi}(1,1) = M_X(1,1)
        for x in mixed_corpus[:15]:
            total = 0
            for v in vertices(x):
                sub = x.sublist(v.x_phi)
                total += tutte(sub).evaluate(1, 1)
            assert total == arithmetic_tutte(x).evaluate(1, 1)

    def test_every_vertex_spans(self, mixed_corpus):
        from zonotopal.abelian import rank_of
        from zonotopal.matroid import bases
        for x in mixed_corpus[:15]:
            d = x.group.free_rank
            for v in vertices(x):
                sub = x.sublist(v.x_phi)
                assert rank_of(sub, range(len(sub))) == d
                assert bases(sub)

    def test_deduplication_sound(self, mixed_corpus):
        # distinct stored characters are distinct as characters of the group:
        # they differ on some standard generator
        for x in mixed_corpus[:15]:
            g = x.group
            gens = [g.element(tuple(int(i == j) for j in range(g.free_rank)),
                              (0,) * len(g.invariants))
                    for i in range(g.free_rank)]
            gens += [g.element((0,) * g.free_rank,
                               tuple(int(i == j)
                                     for j in range(len(g.invariants))))
                     for i in range(len(g.invariants))]
            seen = set()
            for v in vertices(x):
                key = tuple(str(evaluate(v.character, e).to_json())
                            for e in gens)
                assert key not in seen
                seen.add(key)


class TestCharacterHash:
    def test_forms_of_one_character_hash_equal(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        forms = [Character((half, -third), (Fraction(3, 4),)),
                 Character((3 * half, 2 * third), (Fraction(-1, 4),)),
                 Character(("-5/10", "8/12"), ("7/4",)),
                 Character((half, Fraction(4, 6)), (Fraction(6, 8),))]
        assert all(c == forms[0] for c in forms)
        assert {hash(c) for c in forms} == {hash(forms[0])}
        assert len(set(forms)) == 1
        other = Character((half, third), (Fraction(3, 4),))
        assert other != forms[0] and len({other, *forms}) == 2

    def test_trivial_from_integers(self):
        c = Character((0, 1), (2,))
        assert c == Character.trivial(FgGroup(2, (3,)))
        assert hash(c) == hash(Character.trivial(FgGroup(2, (3,))))


class TestEvaluate:
    def test_half_half_at_ones(self):
        c = Character((Fraction(1, 2), Fraction(1, 2)), ())
        g = GList.from_rows([[1], [1]]).elems[0]
        assert evaluate(c, g).is_one()

    def test_quarter_at_three(self):
        from zonotopal.scalar import Cyclotomic
        c = Character((Fraction(1, 4),), ())
        g = GList.from_rows([[3]]).elems[0]
        assert evaluate(c, g) == Cyclotomic.root_of_unity(4, 3)

    def test_trivial_character(self, zp_list):
        c = Character.trivial(zp_list.group)
        assert all(evaluate(c, e).is_one() for e in zp_list.elems)

    def test_multiplicative(self, mixed_corpus):
        for x in mixed_corpus[:6]:
            for v in vertices(x)[:3]:
                for a in x.elems[:2]:
                    for b in x.elems[:2]:
                        lhs = evaluate(v.character, a + b)
                        rhs = evaluate(v.character, a) * evaluate(v.character, b)
                        assert lhs == rhs

    def test_character_json_roundtrip(self, zp_list):
        for v in vertices(zp_list):
            c = v.character
            assert Character.from_json(c.to_json()) == c
