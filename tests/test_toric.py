import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zonotopal.abelian import FgGroup, GList, snf
from zonotopal.errors import InternalError
from zonotopal.matroid import arithmetic_tutte, bases, tutte
from zonotopal.scalar import Cyclotomic
from zonotopal.toric import (Character, _all_torsion_characters,
                             _characters_killing, evaluate, evaluate_point,
                             vertices)


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


# ---------------------------------------------------------------------------
# integer characters against the Fraction definitions
# ---------------------------------------------------------------------------

def characters_killing_by_fractions(x, basis):
    """The characters annihilating <B>, each pulled back along the SNF row
    transform U in Fraction arithmetic."""
    g = x.group
    n = g.ncoords
    u, d, _ = snf(g.presentation([x.elems[i].lift() for i in sorted(basis)]))
    diag = [d[r][r] for r in range(n)]
    out = []
    for combo in itertools.product(*(range(di) for di in diag)):
        func = [Fraction(0)] * n
        for c, di, row in zip(combo, diag, u):
            for i in range(n):
                func[i] += Fraction(c, di) * row[i]
        out.append(Character(tuple(func[:g.free_rank]),
                             tuple(func[g.free_rank:])))
    return out


def angle_by_fractions(c, g):
    """theta . free(g) + tors . tors(g) mod 1, summed in Fractions."""
    return sum((t * v for t, v in zip(c.theta + c.tors, g.free + g.tors)),
               Fraction(0)) % 1


def angle_point(c, point):
    """theta . point as a Fraction."""
    return sum((t * Fraction(v) for t, v in zip(c.theta, point)), Fraction(0))


@st.composite
def characters_with_elements(draw):
    """A character of order dividing 1-12 on Z^d + torsion, d = 0-3, and
    elements, lattice points and rational points to evaluate it at."""
    d = draw(st.integers(0, 3))
    invariants = draw(st.sampled_from([(), (2,), (3,), (4,), (2, 6), (12,)]))
    group = FgGroup(d, invariants)
    den = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-30, 30), min_size=group.ncoords,
                         max_size=group.ncoords))
    char = Character(tuple(Fraction(v, den) for v in nums[:d]),
                     tuple(Fraction(v, den) for v in nums[d:]))
    small = st.integers(-20, 20)
    elems = draw(st.lists(st.builds(
        group.element,
        st.lists(small, min_size=d, max_size=d).map(tuple),
        st.lists(small, min_size=len(invariants),
                 max_size=len(invariants)).map(tuple)), min_size=1,
        max_size=4))
    points = draw(st.lists(st.lists(small, min_size=d, max_size=d),
                           min_size=1, max_size=3))
    rational = draw(st.lists(st.lists(st.fractions(max_denominator=7),
                                      min_size=d, max_size=d),
                             min_size=1, max_size=3))
    return char, den, nums, elems, points + rational


class TestIntegerCharacters:
    @settings(max_examples=200, deadline=None)
    @given(characters_with_elements())
    def test_integer_methods_match_fractions(self, case):
        c, den, nums, elems, points = case
        for g in elems:
            angle = angle_by_fractions(c, g)
            assert c.angle(g) == angle
            assert c.fixes(g) == (angle == 0)
            assert evaluate(c, g) == Cyclotomic.from_angle(angle)
        for point in points:
            assert evaluate_point(c, point) \
                == Cyclotomic.from_angle(angle_point(c, point))
        assert c.order() == math.lcm(*(t.denominator
                                       for t in c.theta + c.tors))
        assert c.is_trivial() == (not any(c.theta + c.tors))
        built = Character.over(den, nums, len(c.theta))
        assert built == c and hash(built) == hash(c)
        assert Character.over(2 * den, [2 * v for v in nums],
                              len(c.theta)) == built
        assert (built.theta, built.tors, repr(built)) \
            == (c.theta, c.tors, repr(c))
        assert all(type(t) is Fraction and 0 <= t < 1
                   for t in c.theta + c.tors)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(characters_with_elements(), min_size=2, max_size=8))
    def test_order_is_fraction_order(self, cases):
        chars = [case[0] for case in cases]
        by_fractions = sorted(chars, key=lambda c: (c.theta, c.tors))
        assert [(c.theta, c.tors) for c in sorted(chars)] \
            == [(c.theta, c.tors) for c in by_fractions]
        for a in chars:
            for b in chars:
                key_a, key_b = (a.theta, a.tors), (b.theta, b.tors)
                assert (a < b, a <= b, a > b, a >= b, a == b) \
                    == (key_a < key_b, key_a <= key_b, key_a > key_b,
                        key_a >= key_b, key_a == key_b)

    def test_built_from_any_iterables(self):
        c = Character((Fraction(1, 2), Fraction(2, 3)), (Fraction(1, 4),))
        assert Character([Fraction(1, 2), "2/3"], [Fraction(5, 4)]) == c
        assert Character((t for t in c.theta), iter(c.tors)) == c
        assert Character([Fraction(1, 2)], ()) \
            == Character.over(2, [1], 1)
        assert repr(Character([], [Fraction(1, 3)])) == "e[;1/3]"

    def test_characters_killing_match_fractions(self, mixed_corpus):
        g = FgGroup(2, (2, 4))
        fixed = [
            GList.from_columns([[1, 0], [0, 0], [1, 2], [2, 0]]),
            GList.from_columns([[1, 0, 1, 3], [0, 1, 0, 2], [1, 1, 1, 1],
                                [2, 2, 0, 0]], g),
            GList.from_columns([[2, 1], [0, 3], [4, 2]], FgGroup(1, (6,))),
        ]
        for x in list(mixed_corpus) + fixed:
            for b in bases(x):
                got = _characters_killing(x, b)
                assert got == characters_killing_by_fractions(x, b), (x, b)
                assert [(c.den, c.nums) for c in got] \
                    == [(c.den, c.nums)
                        for c in characters_killing_by_fractions(x, b)]
