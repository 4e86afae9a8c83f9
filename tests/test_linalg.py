"""`linalg` on integer, Fraction and mixed matrices against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from zonotopal import linalg

_INTS = st.integers(-4, 4)
_FRACTIONS = st.builds(Fraction, _INTS, st.sampled_from([1, 2, 3, 6]))
_ENTRIES = {"int": _INTS, "fraction": _FRACTIONS,
            "mixed": st.one_of(_INTS, _FRACTIONS)}


@st.composite
def matrices(draw, square, kinds=tuple(_ENTRIES)):
    """A matrix of ints, of Fractions or of both, up to 4 x 6.  A row may
    repeat a scaled earlier row or be zero, so that the rank drops; a column
    may be zero; the top-left entry may be zero, so that the first pivot
    needs a row swap."""
    rows = draw(st.integers(0 if square else 1, 4))
    cols = rows if square else draw(st.integers(1, 6))
    entry = _ENTRIES[draw(st.sampled_from(kinds))]
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([0, -1, 2]))
        m[-1] = [k * v for v in m[draw(st.integers(0, rows - 2))]]
    if rows and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0
    if rows and draw(st.booleans()):
        m[0][0] = 0
    return m


def _sympy(m):
    return sympy.Matrix(len(m), len(m[0]) if m else 0,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in m for v in row])


def _fractions(mat):
    return [[Fraction(int(v.p), int(v.q)) for v in mat.row(i)]
            for i in range(mat.rows)]


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

    @settings(max_examples=200, deadline=None)
    @given(matrices(square=False))
    def test_rref(self, m):
        red, pivots = linalg.rref(m)
        want, want_pivots = _sympy(m).rref()
        assert red == _fractions(want)
        assert pivots == list(want_pivots)
        assert all(type(v) is Fraction for row in red for v in row)

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=False))
    def test_nullspace(self, m):
        got = linalg.nullspace(m, ncols=len(m[0]))
        want = [_fractions(v.T)[0] for v in _sympy(m).nullspace()]
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=False), st.data())
    def test_solve(self, m, data):
        # the solution with every free column 0, read off sympy's rref of
        # [m | b], or None when b adds a pivot
        b = data.draw(st.lists(st.one_of(_INTS, _FRACTIONS),
                               min_size=len(m), max_size=len(m)))
        n = len(m[0])
        red, pivots = _sympy([row + [v] for row, v in zip(m, b)]).rref()
        got = linalg.solve(m, b)
        if n in pivots:
            assert got is None
            return
        want = [Fraction(0)] * n
        for r, pc in enumerate(pivots):
            want[pc] = _fractions(red)[r][n]
        assert got == want
        assert linalg.solve(m, [[v, 2 * v] for v in b]) == \
            [[v, 2 * v] for v in want]


class TestFractionFree:
    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True, kinds=("int",)))
    def test_adjugate(self, m):
        got = linalg.adjugate(m)
        det = _sympy(m).det()
        if det == 0:
            assert got is None
            return
        adj, d = got
        sign = 1 if det > 0 else -1
        assert d == abs(det)
        assert adj == [[int(sign * v) for v in row]
                       for row in _sympy(m).adjugate().tolist()]

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=False, kinds=("int",)))
    def test_bareiss(self, m):
        r, last = linalg.bareiss(m)
        assert r == _sympy(m).rank()
        assert last != 0
        if len(m) == len(m[0]) == r:
            assert last == _sympy(m).det()

    def test_row_swaps_and_singular(self):
        swap = [[0, 1], [1, 0]]
        assert linalg.bareiss(swap) == (2, -1)
        assert linalg.det(swap) == -1
        assert linalg.adjugate(swap) == ([[0, 1], [1, 0]], 1)
        singular = [[0, 2, 4], [0, 1, 2], [3, 1, 1]]
        assert linalg.bareiss(singular)[0] == 2
        assert linalg.det(singular) == 0
        assert linalg.adjugate(singular) is None
        assert linalg.adjugate([]) == ([], 1)

    def test_int_matrices_are_accepted(self):
        assert linalg.solve([[2]], [1]) == [Fraction(1, 2)]
        assert linalg.nullspace([[1, 2]]) == [[Fraction(-2), Fraction(1)]]
        assert linalg.rref([[2, 4], [1, 3]]) == (
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], [0, 1])
