import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from accessors import free_columns
from spans import span_contains
from torus import basis_lcm, good_primes, point_count, tutte_side
from zonotopal import linalg
from zonotopal.abelian import (FgGroup, GList, contract, list_facts,
                               multiplicity, rank_of)
from zonotopal.errors import InternalError, NotABasis, RankDeficient
from zonotopal.matroid import (BivarPoly, arithmetic_tutte, bases, cocircuits,
                               corank_one_flats, external_activity, is_coloop,
                               is_unimodular, tutte)


def poly(terms):
    return BivarPoly(terms)


class TestBases:
    def test_rank_one(self, x11):
        assert sorted(sorted(b) for b in bases(x11)) == [[0], [1]]

    def test_zp_all_pairs(self, zp_list):
        # all 6 pairs independent: 2x2 determinant oracle
        cols = free_columns(zp_list)
        expect = []
        import itertools
        for i, j in itertools.combinations(range(4), 2):
            det = cols[i][0] * cols[j][1] - cols[i][1] * cols[j][0]
            if det:
                expect.append([i, j])
        assert sorted(sorted(b) for b in bases(zp_list)) == expect
        assert len(expect) == 6

    def test_zero_column_never_in_basis(self):
        x = GList.from_rows([[2, 0, 0], [0, 2, 0]])
        assert sorted(sorted(b) for b in bases(x)) == [[0, 1]]

    def test_rank_deficient_raises(self):
        x = GList.from_rows([[1, 2], [0, 0]])
        with pytest.raises(RankDeficient):
            bases(x)


class TestCocircuits:
    def test_pair(self, x11):
        assert cocircuits(x11) == [(0, 1)]

    def test_rank_one_flat(self, x124):
        assert cocircuits(x124) == [(0, 1, 2)]

    def test_zp_four_lines(self, zp_list):
        # complements of the 4 lines spanned by single columns
        assert cocircuits(zp_list) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


    def test_rank_that_does_not_drop_is_internal_error(self, zp_list,
                                                       monkeypatch):
        # a typed error, so the check also runs under python -O
        from zonotopal import matroid
        monkeypatch.setattr(matroid, "corank_one_flats",
                            lambda x: [frozenset()])
        with pytest.raises(InternalError,
                           match=r"cocircuit \(0, 1, 2, 3\) leaves rank 0"):
            cocircuits(zp_list)


def corank_one_flats_by_rank(x):
    """Oracle: each independent (r-1)-subset closed by one rank computation
    per column."""
    r = rank_of(x, range(len(x)))
    if r == 0:
        return []
    flats = set()
    for comb in itertools.combinations(range(len(x)), r - 1):
        if rank_of(x, comb) != r - 1:
            continue
        flats.add(frozenset(i for i in range(len(x))
                            if rank_of(x, list(comb) + [i]) == r - 1))
    return sorted(flats, key=sorted)


@st.composite
def flat_lists(draw):
    """Lists with d = 1-3, possibly torsion, zero and parallel columns and
    a rank below d."""
    d = draw(st.integers(1, 3))
    invariants = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    group = FgGroup(d, invariants)
    entry = st.integers(-2, 2)
    dead = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "parallel"]))
        if kind == "parallel" and cols:
            base = draw(st.sampled_from(cols))
            k = draw(st.sampled_from([-2, -1, 1, 2]))
            free = [k * v for v in base[:d]]
        elif kind == "zero":
            free = [0] * d
        else:
            free = [0 if i in dead else draw(entry) for i in range(d)]
        tors = [draw(st.integers(0, m - 1)) for m in invariants]
        cols.append(free + tors)
    return GList.from_columns(cols, group)


class TestCorankOneFlats:
    @settings(max_examples=150, deadline=None)
    @given(flat_lists())
    def test_equal_rank_oracle(self, x):
        assert corank_one_flats(x) == corank_one_flats_by_rank(x)

    def test_fixed_lists(self, mixed_corpus, zp_list):
        for x in list(mixed_corpus) + _special_lists() \
                + _rank_deficient_lists() + _z2_z2z4_lists() + [zp_list]:
            assert corank_one_flats(x) == corank_one_flats_by_rank(x), x


class TestExternalActivity:
    # x_j is active iff it lies in the span of the earlier basis elements;
    # checked directly against that defining condition.
    def test_first_basis_element(self, x11):
        assert external_activity(x11, [0]) == frozenset({1})

    def test_second_basis_element(self, x11):
        assert external_activity(x11, [1]) == frozenset()

    def test_identity_basis(self):
        x = GList.from_rows([[1, 0], [0, 1]])
        assert external_activity(x, [0, 1]) == frozenset()

    def test_defining_condition_randomized(self):
        import random
        rng = random.Random(2)
        for d, torsion in [(2, ()), (3, ()), (2, (2,)), (2, (3,))]:
            self._check_defining_condition(rng, d, torsion)

    @staticmethod
    def _check_defining_condition(rng, d, torsion):
        from fractions import Fraction
        n = d + 3
        for _ in range(20):
            cols = [[rng.randint(-2, 2) for _ in range(d)]
                    + [rng.randrange(k) for k in torsion] for _ in range(n)]
            x = GList.from_columns(cols, FgGroup(d, torsion))
            try:
                bs = bases(x)
            except RankDeficient:
                continue
            for b in bs:
                act = external_activity(x, b)
                for j in range(n):
                    if j in b:
                        continue
                    earlier = [[Fraction(v) for v in cols[i][:d]]
                               for i in sorted(b) if i < j]
                    inside = span_contains(earlier,
                                           [Fraction(v) for v in cols[j][:d]])
                    assert (j in act) == inside

    @pytest.mark.parametrize("rows,b", [
        ([[1, 0, 2, 1], [1, 1, 2, 0]], [0]),
        ([[1, 0, 2, 1], [1, 1, 2, 0]], [0, 1, 2]),
        ([[1, 0, 2, 1], [1, 1, 2, 0]], [0, 2]),      # parallel columns
        ([[1, 0, 2, 1], [1, 1, 2, 0]], [1, 1]),
        ([[1, 0, 2, 1], [1, 1, 2, 0]], [0, 5]),      # out of range
        # every column lies in the span of b, which spans no full lattice
        ([[1, 2, 3], [0, 0, 0]], [0, 1]),
    ])
    def test_non_basis_rejected(self, rows, b):
        with pytest.raises(NotABasis):
            external_activity(GList.from_rows(rows), b)


class TestTutte:
    def test_zp(self, zp_list):
        assert tutte(zp_list) == poly(
            {(2, 0): 1, (0, 2): 1, (1, 0): 2, (0, 1): 2})
        assert arithmetic_tutte(zp_list) == poly(
            {(2, 0): 1, (0, 2): 1, (1, 0): 2, (0, 1): 2, (0, 0): 1})

    def test_124(self, x124):
        assert arithmetic_tutte(x124) == poly(
            {(1, 0): 1, (0, 2): 1, (0, 1): 2, (0, 0): 3})

    def test_torsion_mixed(self):
        x = GList.from_columns([[2, 0], [0, 1]], FgGroup(1, (2,)))
        assert arithmetic_tutte(x) == poly(
            {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})

    def test_deletion_contraction(self, mixed_corpus):
        for x in mixed_corpus[:20]:
            m = arithmetic_tutte(x)
            for i in range(len(x)):
                if x.elems[i].is_torsion() or is_coloop(x, i):
                    continue
                md = arithmetic_tutte(x.delete(i))
                mc = arithmetic_tutte(contract(x, i)[0])
                assert m == md + mc

    def test_volume_identity(self, mixed_corpus):
        for x in mixed_corpus[:20]:
            m11 = arithmetic_tutte(x).evaluate(1, 1)
            assert m11 == sum(multiplicity(x, b) for b in bases(x))

    def test_tutte_equals_arithmetic_when_unimodular(self, mixed_corpus):
        fixed = [GList.from_rows([[1, 1]]),
                 GList.from_rows([[1, 0, 1], [0, 1, 1]]),
                 GList.from_rows([[1, 0, 1, 0], [0, 1, 1, 1]])]
        for x in fixed + [y for y in mixed_corpus if is_unimodular(y)]:
            assert is_unimodular(x)
            assert tutte(x) == arithmetic_tutte(x)

    def test_basis_count(self, mixed_corpus):
        for x in mixed_corpus[:20]:
            assert len(bases(x)) == tutte(x).evaluate(1, 1)

    def test_bivar_json_roundtrip(self, zp_list):
        t = arithmetic_tutte(zp_list)
        assert BivarPoly.from_json(t.to_json()) == t

    def test_bivar_keys_of_any_degree(self):
        # small exponent pairs are shared key objects, others are not
        p = poly({(40, 2): 1, (1, 33): 2, (3, 4): 5})
        q = poly({(1, 33): -2, (3, 4): 1})
        assert (p + q).terms == {(40, 2): 1, (3, 4): 6}
        assert BivarPoly.from_json(p.to_json()) == p
        assert p.evaluate(1, 2) == 4 + 2 ** 34 + 80


# ---------------------------------------------------------------------------
# subset-sum oracle: rank_of and multiplicity for every subset
# ---------------------------------------------------------------------------

def _oracle_powers(p, top):
    out = [BivarPoly({(0, 0): 1})]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


def tutte_oracle(x):
    """T(a, b) = sum over S of (a-1)^(r-rk S) (b-1)^(|S|-rk S)."""
    n = len(x)
    r = rank_of(x, range(n))
    total = BivarPoly()
    pow_a = _oracle_powers(poly({(1, 0): 1, (0, 0): -1}), r)
    pow_b = _oracle_powers(poly({(0, 1): 1, (0, 0): -1}), n)
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            rk = rank_of(x, comb)
            total = total + pow_a[r - rk] * pow_b[size - rk]
    return total


def arithmetic_tutte_oracle(x):
    """M(a, b) = sum over S of m(S) (a-1)^(d-rk S) (b-1)^(|S|-rk S)."""
    n = len(x)
    d = x.group.free_rank
    total = BivarPoly()
    pow_a = _oracle_powers(poly({(1, 0): 1, (0, 0): -1}), d)
    pow_b = _oracle_powers(poly({(0, 1): 1, (0, 0): -1}), n)
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            rk = rank_of(x, comb)
            m = multiplicity(x, comb)
            term = pow_a[d - rk] * pow_b[size - rk]
            total = total + BivarPoly({e: m * c
                                       for e, c in term.terms.items()})
    return total


def _special_lists():
    """A zero column, a torsion-only element and a repeated column."""
    g = FgGroup(2, (4,))
    return [
        GList.from_columns([[1, 0], [0, 0], [1, 2], [1, 0]]),
        GList.from_columns([[1, 0, 1], [0, 0, 2], [0, 1, 0], [1, 1, 3],
                            [0, 0, 0], [1, 0, 1]], g),
        GList.from_columns([[0, 0, 2], [0, 0, 2], [2, 1, 0], [0, 3, 1]], g),
    ]


def _z2_z2z4_lists():
    g = FgGroup(2, (2, 4))
    return [
        GList.from_columns([[1, 0, 1, 3], [0, 1, 0, 2], [1, 1, 1, 1]], g),
        GList.from_columns([[2, 1, 0, 1], [0, 2, 1, 3], [1, -1, 1, 0],
                            [0, 0, 1, 2], [3, 1, 0, 0]], g),
        GList.from_columns([[1, 2, 1, 1], [-1, 1, 0, 3], [2, 0, 1, 2],
                            [1, 1, 0, 0], [0, 1, 1, 1], [2, 2, 0, 2]], g),
    ]


def _rank_deficient_lists():
    return [GList.from_rows([[1, 2, 0], [2, 4, 0]]),
            GList.from_columns([[1, 1, 0], [2, 2, 1], [0, 0, 1]],
                               FgGroup(2, (2,)))]


@st.composite
def tutte_lists(draw):
    """Lists with d = 1-3 and n <= 9: Z/k torsion, zero, parallel and
    repeated columns, and possibly a rank below d."""
    d = draw(st.integers(1, 3))
    invariants = draw(st.sampled_from([(), (2,), (3,), (4,), (2, 4)]))
    group = FgGroup(d, invariants)
    dead = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    cols = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(
            ["fresh", "fresh", "fresh", "zero", "parallel", "repeat"]))
        if kind == "repeat" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
            continue
        if kind == "parallel" and cols:
            k = draw(st.sampled_from([-2, -1, 2, 3]))
            free = [k * v for v in draw(st.sampled_from(cols))[:d]]
        elif kind == "zero":
            free = [0] * d
        else:
            free = [0 if i in dead else draw(st.integers(-2, 2))
                    for i in range(d)]
        cols.append(free + [draw(st.integers(0, m - 1)) for m in invariants])
    return GList.from_columns(cols, group)


# The most points of a torus (Z/N)^d that `test_torus_point_count` counts.
_TORUS_POINTS = 5000


def _count_hnf_inserts(monkeypatch) -> list:
    """A list that gets one entry per `hnf_insert` call of the walk."""
    from zonotopal import matroid
    calls = []
    hnf_insert = matroid.hnf_insert
    monkeypatch.setattr(matroid, "hnf_insert",
                        lambda basis, v: calls.append(1)
                        or hnf_insert(basis, v))
    return calls


@st.composite
def long_lattice_lists(draw):
    """Lattice lists of full rank with d = 1-3 and n = 16-30, some columns
    repeated or zero.  Row r has entries in [-b_r, b_r] with b = (6,),
    (1, 3) or (1, 1, 1), so every |det B| is at most 6, 6 or 4, and the
    torus of `basis_lcm` has at most 60, 3600 or 1728 points."""
    bounds = draw(st.sampled_from([(6,), (1, 3), (1, 1, 1)]))
    cols = []
    for _ in range(draw(st.integers(16, 30))):
        kind = draw(st.sampled_from(["fresh"] * 8 + ["zero", "repeat"]))
        if kind == "repeat" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        elif kind == "zero":
            cols.append([0] * len(bounds))
        else:
            cols.append([draw(st.integers(-b, b)) for b in bounds])
    assume(basis_lcm(cols))
    return cols


class TestLatticeTable:
    """Both Tutte polynomials come from one table of subset counts per
    distinct lattice; the subset-sum oracles visit every subset."""

    @settings(max_examples=60, deadline=None)
    @given(tutte_lists())
    def test_equal_subset_sum_oracles(self, x):
        assert tutte(x) == tutte_oracle(x)
        assert arithmetic_tutte(x) == arithmetic_tutte_oracle(x)

    def test_d3_n12_with_torsion(self):
        x = GList.from_columns(
            [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 2], [1, 1, 0, 3],
             [1, -1, 2, 0], [2, 0, 1, 1], [0, 2, -1, 0], [1, 1, 1, 2],
             [-1, 0, 2, 3], [1, 2, 0, 0], [0, 1, 1, 1], [2, -1, 1, 3]],
            FgGroup(3, (4,)))
        assert tutte(x) == tutte_oracle(x)
        assert arithmetic_tutte(x) == arithmetic_tutte_oracle(x)

    def test_work_grows_with_lattices_not_subsets(self, monkeypatch):
        calls = _count_hnf_inserts(monkeypatch)
        cols = [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 0], [1, 1, 0, 1],
                [1, 0, 1, 2], [0, 1, 1, 0], [1, 1, 1, 1], [1, -1, 0, 0],
                [0, 1, -1, 2], [2, 1, 0, 1], [1, 0, 2, 0], [0, 2, 1, 1],
                [1, 1, -1, 2], [2, 0, 1, 0]]
        x = GList.from_columns(cols, FgGroup(3, (3,)))
        list_facts.cache_clear()
        # T(2, 2) counts every subset
        assert tutte(x).evaluate(2, 2) == 2 ** 14
        assert 0 < len(calls) < 2 ** 14 // 4
        # the second polynomial reads the walk the first one made
        calls.clear()
        arithmetic_tutte(x)
        assert calls == []

    COLS = [[1, 0, 2], [0, 1, 1], [1, 1, 0], [2, -1, 1], [1, 0, 2],
            [0, 0, 1]]

    def test_equal_list_shares_the_walk(self, monkeypatch):
        list_facts.cache_clear()
        x = GList.from_columns(self.COLS)
        arithmetic_tutte(x)
        calls = _count_hnf_inserts(monkeypatch)
        again = GList.from_columns(self.COLS)
        assert again is not x
        assert tutte(again) == tutte_oracle(again)
        assert calls == []
        assert again.memo("lattices", None) is x.memo("lattices", None)
        list_facts.cache_clear()

    def test_evicted_walk_is_built_again(self, monkeypatch):
        list_facts.cache_clear()
        x = GList.from_columns(self.COLS)
        expect = arithmetic_tutte(x)
        for k in range(list_facts.cache_info().maxsize):
            tutte(GList.from_columns([[1, k + 2], [0, 1]]))
        calls = _count_hnf_inserts(monkeypatch)
        assert arithmetic_tutte(x) == expect
        assert calls
        list_facts.cache_clear()

    @settings(max_examples=25, deadline=None)
    @given(long_lattice_lists())
    def test_torus_point_count(self, cols):
        """Both polynomials at n = 16-30 against the torus point count of
        `torus`, which enumerates no subsets.  tutte runs first, so
        arithmetic_tutte reads its walk."""
        x = GList.from_columns(cols)
        d, n = len(cols[0]), len(cols)
        plain = tutte(x)
        arith = arithmetic_tutte(x)
        modulus = basis_lcm(cols)
        for k in range(1, d + 2):
            if (k * modulus) ** d <= _TORUS_POINTS:
                assert (point_count(cols, k * modulus)
                        == tutte_side(arith, d, k * modulus, n))
        primes = good_primes(modulus, d, _TORUS_POINTS)
        assert primes
        for q in primes:
            assert point_count(cols, q) == tutte_side(plain, d, q, n)


def walk_lattices(x):
    """{L_S: the subset kept for it} over the lattices of the walk."""
    from zonotopal import matroid
    return {lattice: subset
            for lattice, _, subset in matroid._lattice_walk(x)}


class TestMultiplicityFromHnf:
    """A full-rank L_S gives m(S) as the product of its Hermite pivots; only
    a lattice below full rank reaches `multiplicity` and its SNF."""

    @settings(max_examples=60, deadline=None)
    @given(tutte_lists())
    def test_pivot_product_is_multiplicity(self, x):
        full = x.group.ncoords
        for lattice, subset in walk_lattices(x).items():
            if len(lattice) < full:
                continue
            product = 1
            for i, row in enumerate(lattice):
                assert not any(row[:i]) and row[i] > 0
                product *= row[i]
            assert product == multiplicity(x, subset), (lattice, subset)

    def test_multiplicity_only_below_full_rank(self, monkeypatch):
        from zonotopal import matroid
        x = GList.from_columns(
            [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 2], [1, 1, 0, 3],
             [2, 0, 0, 0], [0, 2, 1, 1], [1, 1, 1, 2], [0, 0, 0, 2]],
            FgGroup(3, (4,)))
        kept = walk_lattices(x)
        below = [s for lat, s in kept.items() if len(lat) < x.group.ncoords]
        assert 0 < len(below) < len(kept)
        calls = []
        monkeypatch.setattr(matroid, "multiplicity",
                            lambda x, subset: calls.append(tuple(subset))
                            or multiplicity(x, subset))
        assert arithmetic_tutte(x) == arithmetic_tutte_oracle(x)
        assert sorted(calls) == sorted(below)


@pytest.mark.parametrize("case, arithmetic", [
    ("mixed_corpus", True),
    ("special", True),
    ("rank_deficient", False),
    ("z2_z2z4", True),
])
def test_tutte_polynomials_equal_subset_sum_oracle(case, arithmetic,
                                                   request):
    lists = {"mixed_corpus": lambda: request.getfixturevalue("mixed_corpus"),
             "special": _special_lists,
             "rank_deficient": _rank_deficient_lists,
             "z2_z2z4": _z2_z2z4_lists}[case]()
    for x in lists:
        assert tutte(x) == tutte_oracle(x), x
        if arithmetic:
            assert arithmetic_tutte(x) == arithmetic_tutte_oracle(x), x


# ---------------------------------------------------------------------------
# the basis table against the definitions it replaced
# ---------------------------------------------------------------------------

def bases_by_rank(x):
    """The d-subsets of rank d, one `rank_of` each."""
    d = x.group.free_rank
    return [frozenset(c) for c in itertools.combinations(range(len(x)), d)
            if rank_of(x, c) == d]


def external_activity_by_solve(x, b):
    """x_j outside B is active when its coordinates in B, from one
    multi-column `linalg.solve`, vanish on every basis element after j."""
    b = sorted(b)
    d = x.group.free_rank
    free = free_columns(x)
    rest = [j for j in range(len(x)) if j not in b]
    unit = linalg.identity(d, 1, 0)
    coords = linalg.solve([[free[i][r] for i in b] for r in range(d)],
                          [[free[j][r] for j in rest] + unit[r]
                           for r in range(d)])
    return frozenset(j for col, j in enumerate(rest)
                     if not any(row[col] for i, row in zip(b, coords)
                                if i > j))


def is_unimodular_by_snf(x):
    """A free group and m(B) = 1 for every basis, by Smith normal form."""
    return not x.group.invariants and all(
        multiplicity(x, b) == 1 for b in bases_by_rank(x))


def _table_lists():
    """d = 0-3: torsion, zero, parallel and repeated columns."""
    return _special_lists() + _z2_z2z4_lists() + [
        GList.from_rows([[0, 2, -3, 2, 0]]),
        GList.from_columns([[1, 1], [0, 1], [0, 3], [1, 0]],
                           FgGroup(1, (4,))),
        GList.from_rows([[1, 0, 2, 0, 1, -1], [1, 0, 2, 1, -1, 0],
                         [0, 1, 0, 1, 1, 2]]),
        GList.from_columns([[2], [1], [3]], FgGroup(0, (4,))),
    ]


def _check_table(x):
    expect = bases_by_rank(x)
    if not expect:
        with pytest.raises(RankDeficient):
            bases(x)
        if x.group.invariants:
            assert not is_unimodular(x)
        else:
            with pytest.raises(RankDeficient):
                is_unimodular(x)
        return
    assert bases(x) == expect
    assert is_unimodular(x) == is_unimodular_by_snf(x)
    for b in expect:
        assert external_activity(x, b) == external_activity_by_solve(x, b)


class TestBasisTable:
    def test_fixed_and_corpus_lists(self, mixed_corpus):
        for x in _table_lists() + list(mixed_corpus):
            _check_table(x)

    @settings(max_examples=60, deadline=None)
    @given(tutte_lists())
    def test_drawn_lists(self, x):
        _check_table(x)

    def test_unimodular_reads_the_determinant(self):
        assert is_unimodular(GList.from_rows([[1, 0, 1, 1], [0, 1, 1, 0]]))
        assert not is_unimodular(GList.from_rows([[1, 0, 1], [0, 1, 2]]))
        assert not is_unimodular(GList.from_columns([[1, 0], [0, 1]],
                                                    FgGroup(1, (2,))))

    @pytest.mark.parametrize("b", [[0, 2], [0, 1, 3], [1], [3, 4], [-1, 1],
                                   [0, 0]])
    def test_not_a_basis(self, b):
        # [0, 2] is dependent; then wrong sizes and indices out of range
        x = GList.from_rows([[1, 0, 2, 1], [1, 1, 2, 0]])
        with pytest.raises(NotABasis):
            external_activity(x, b)

    COLS = [[1, 0, 2], [0, 1, 1], [1, 1, 0], [2, -1, 1], [1, 0, 2],
            [0, 0, 1]]

    @staticmethod
    def _count_adjugates(monkeypatch) -> list:
        calls = []
        adjugate = linalg.adjugate
        monkeypatch.setattr(linalg, "adjugate",
                            lambda m: calls.append(m) or adjugate(m))
        return calls

    @staticmethod
    def _read_table(x):
        for b in bases(x):
            external_activity(x, b)
        return is_unimodular(x)

    def test_equal_list_builds_no_table(self, monkeypatch):
        list_facts.cache_clear()
        x = GList.from_columns(self.COLS)
        self._read_table(x)
        calls = self._count_adjugates(monkeypatch)
        again = GList.from_columns(self.COLS)
        assert again is not x
        self._read_table(again)
        assert calls == []
        list_facts.cache_clear()

    def test_evicted_table_is_built_again(self, monkeypatch):
        list_facts.cache_clear()
        x = GList.from_columns(self.COLS)
        expect = bases(x)
        for k in range(list_facts.cache_info().maxsize):
            bases(GList.from_columns([[1, k + 2], [0, 1]]))
        calls = self._count_adjugates(monkeypatch)
        assert bases(x) == expect
        assert len(calls) == 20           # one per 3-subset of 6 columns
        list_facts.cache_clear()
