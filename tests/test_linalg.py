"""`linalg.det` and `linalg.rank` on integer and Fraction matrices against
sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from zonotopal import linalg


@st.composite
def matrices(draw, square):
    """A matrix of ints, or of Fractions, up to 4 x 5; a row may repeat a
    scaled earlier row or be zero, so that the rank drops."""
    rows = draw(st.integers(0 if square else 1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    rational = draw(st.booleans())
    entry = st.integers(-4, 4)
    if rational:
        entry = st.builds(Fraction, entry, st.sampled_from([1, 2, 3, 6]))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([0, -1, 2]))
        m[-1] = [k * v for v in m[draw(st.integers(0, rows - 2))]]
    return m


def _sympy(m):
    return sympy.Matrix(len(m), len(m[0]) if m else 0,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in m for v in row])


class TestAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True))
    def test_det(self, m):
        got = linalg.det(m)
        want = _sympy(m).det()
        assert got == Fraction(int(want.p), int(want.q))
        if m and all(type(v) is int for row in m for v in row):
            assert type(got) is int
        else:
            assert type(got) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=False))
    def test_rank(self, m):
        assert linalg.rank(m) == _sympy(m).rank()
