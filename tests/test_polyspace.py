
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from accessors import coefficients_reversed, is_constant
from cycfield import psi_by_components
from spans import psi_project, span_equal
from zonotopal import linalg, polyspace
from zonotopal.abelian import FgGroup, GList, contract, rank_of
from zonotopal.corpus import corpus
from zonotopal.matroid import cocircuits, is_coloop, tutte
from zonotopal.periodic import periodic_todd
from zonotopal.errors import InternalError
from zonotopal.polyspace import (GradedSpan, PsiProjector, _monomials,
                                 cocircuit_gens, d_basis, internal_p_basis,
                                 p_basis, p_linear, p_product, pair)
from zonotopal.scalar import (Cyclotomic, MPoly, euler_phi, exp_series,
                              s_vars, t_vars, todd_factor)

SV2 = ("s1", "s2")


def _span_matrix(polys, monos):
    return [[p.coefficient(e).to_rational() for e in monos] for p in polys]


def _spans_equal(a, b):
    monos = sorted({e for p in a + b for e in p.terms})
    return span_equal(
        [[p.coefficient(e) for e in monos] for p in a],
        [[p.coefficient(e) for e in monos] for p in b])


class TestProducts:
    def test_linear_form_product(self):
        y = GList.from_rows([[1, 1], [0, 2]])
        expect = MPoly.linear_form(SV2, (1, 0)) * MPoly.linear_form(SV2, (1, 2))
        assert p_product(y, [0, 1]) == expect

    def test_empty_product(self):
        y = GList.from_rows([[1, 1], [0, 2]])
        assert p_product(y, []) == MPoly.constant(SV2, 1)

    def test_zero_vector_kills(self):
        y = GList.from_rows([[1, 0], [0, 0]])
        assert not p_product(y, [0, 1])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([(), (2,), (3, 6)]),
           st.sampled_from(["s", "s0", "t"]), st.data())
    def test_equals_product_of_linear_forms(self, d, invariants, kind, data):
        # columns with torsion-only and zero free parts, any index list
        # (repeats and the empty list included), over s, s0 + s and t vars
        group = FgGroup(d, invariants)
        cols = data.draw(st.lists(
            st.tuples(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                      st.tuples(*[st.integers(0, m - 1)
                                  for m in invariants])).map(
                lambda c: c[0] + list(c[1])), min_size=1, max_size=6))
        x = GList.from_columns(cols, group)
        indices = data.draw(st.lists(st.integers(0, len(x) - 1),
                                     max_size=7))
        vars = {"s": s_vars(d), "s0": s_vars(d, with_s0=True),
                "t": t_vars(d)}[kind]
        want = MPoly.constant(vars, 1)
        for i in indices:
            want = want * p_linear(x.elems[i], vars)
        got = p_product(x, indices, vars)
        assert got == want
        assert all(c.order == 1 for c in got.terms.values())


class TestPBasis:
    def test_two_ones(self, x11):
        basis = p_basis(x11).basis
        assert _spans_equal(basis, [MPoly.constant(("s1",), 1),
                                    MPoly.linear_form(("s1",), (1,))])

    def test_zp_all_degree_two(self, zp_list):
        span = p_basis(zp_list)
        assert span.dim == 6
        assert span.hilbert() == [1, 2, 3]
        monos = []
        from zonotopal.polyspace import _monomials
        for k in range(3):
            monos.extend(_monomials(SV2, k))
        all_deg2 = [MPoly(SV2, {e: Cyclotomic.one()}) for e in monos]
        assert _spans_equal(span.basis, all_deg2)

    def test_124(self, x124):
        span = p_basis(x124)
        expect = [MPoly(("s1",), {(k,): Cyclotomic.one()}) for k in range(3)]
        assert _spans_equal(span.basis, expect)


class TestCocircuitIdeal:
    def test_two_ones_degree_two(self, x11):
        gens = cocircuit_gens(x11, 2)
        assert gens == [MPoly(("s1",), {(2,): Cyclotomic.one() * 1})]

    def test_below_min_size_empty(self, zp_list):
        assert cocircuit_gens(zp_list, 2) == []

    def test_124_degree_three(self, x124):
        gens = cocircuit_gens(x124, 3)
        assert len(gens) == 1
        assert gens[0] == MPoly(("s1",), {(3,): Cyclotomic.from_rational(8)})

    def test_negative_degree_is_value_error(self, x11):
        with pytest.raises(ValueError, match="degree >= 0"):
            cocircuit_gens(x11, -1)


class TestPsi:
    def test_todd_two_ones(self, x11):
        sv = ("s1",)
        s = MPoly.linear_form(sv, (1,))
        todd = exp_series(-s, 2) * todd_factor(s, 1, 2) * todd_factor(s, 1, 2)
        assert psi_project(x11, todd) == MPoly.constant(sv, 1)

    def test_idempotent(self, zp_list):
        psi = PsiProjector(zp_list)
        p = MPoly.linear_form(SV2, (2, -3)) * MPoly.linear_form(SV2, (1, 1)) \
            + MPoly.constant(SV2, 5)
        assert psi(psi(p)) == psi(p)

    def test_member_fixed(self, x11):
        p = MPoly.linear_form(("s1",), (7,))
        assert psi_project(x11, p) == p

    def test_ideal_killed(self, x11):
        p = MPoly(("s1",), {(2,): Cyclotomic.one()})
        assert not psi_project(x11, p)

    def test_cocircuits_found_once(self, zp_list, monkeypatch):
        from zonotopal import matroid, polyspace
        top = len(zp_list) - 2
        polys = [MPoly(SV2, {(k, 0): Cyclotomic.one(), (0, k): Cyclotomic.one(),
                             (k - 1, 1) if k else (0, 0): Cyclotomic.one()})
                 for k in range(top + 1)]
        # one projector per degree, so each builds its own solver
        expect = [PsiProjector(zp_list)(p) for p in polys]
        calls = []
        original = matroid.cocircuits

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(matroid, "cocircuits", counted)
        monkeypatch.setattr(polyspace, "cocircuits", counted)
        psi = PsiProjector(zp_list)
        assert psi.top == top
        assert [psi(p) for p in polys] == expect
        assert calls == [zp_list]

    def test_difference_annihilates_d(self, zp_list):
        psi = PsiProjector(zp_list)
        db = d_basis(zp_list)
        p = MPoly.linear_form(SV2, (1, 2)) * MPoly.linear_form(SV2, (1, -1))
        diff = p - psi(p)
        for f in db.basis:
            assert not pair(diff, f)


# d = 1 and d = 2 lists; the vertices of [12, 2, 3] have order up to 12
_PSI_LISTS = [[[1, 2, 4]], [[12, 2, 3]], [[1, 0, 1, -1], [0, 1, 1, 1]],
              [[1, 0, 1, 1, 2], [0, 1, 1, 2, 1]]]
_PROJECTORS = {}


def _projector(rows):
    key = repr(rows)
    if key not in _PROJECTORS:
        _PROJECTORS[key] = PsiProjector(GList.from_rows(rows))
    return _PROJECTORS[key]


def _stored(p):
    """Each term of p as (monomial, order, numerators, denominator), in
    term order."""
    return [(e, c.order, c.nums, c.den) for e, c in p.terms.items()]


@st.composite
def _psi_inputs(draw):
    """(projector, polynomial up to its top degree) with coefficients of
    orders 1-12 and entries in {-1, 0, 1}, so that sums cancel often."""
    psi = _projector(draw(st.sampled_from(_PSI_LISTS)))
    d = len(psi.vars)
    exps = st.lists(st.integers(0, psi.top), min_size=d, max_size=d).map(
        tuple).filter(lambda e: sum(e) <= psi.top)
    coeffs = st.sampled_from([1, 2, 3, 4, 6, 12]).flatmap(
        lambda n: st.lists(st.sampled_from([-1, 0, 1, Fraction(1, 2)]),
                           min_size=euler_phi(n), max_size=euler_phi(n))
        .map(lambda cs, n=n: Cyclotomic(n, cs)))
    return psi, MPoly(psi.vars, draw(st.dictionaries(exps, coeffs,
                                                     max_size=8)))


class TestPsiInIntegers:
    """`project_poly` forms each P-basis coefficient as integer dot
    products; it equals the loop over power-basis components
    (`cycfield.psi_by_components`) in value, in each term's declared order
    and in term order."""

    @pytest.mark.parametrize("rows", _PSI_LISTS)
    def test_todd_series_of_every_vertex(self, rows):
        psi = _projector(rows)
        x = psi.x
        for z in (x.group.element((0,) * len(rows)),
                  x.group.element(tuple(sum(r) - 1 for r in rows))):
            for _, series in periodic_todd(x, z, psi.top).terms:
                got = psi.project_poly(series.body)
                assert _stored(got) == _stored(psi_by_components(
                    psi, series.body))

    def test_declared_order_of_an_order_12_vertex(self):
        psi = _projector([[12, 2, 3]])
        orders = set()
        for _, series in periodic_todd(psi.x, psi.x.group.element((7,)),
                                       psi.top).terms:
            orders |= {c.order for c in psi(series).terms.values()}
        assert orders == {1, 3, 4, 6}

    @settings(max_examples=150, deadline=None)
    @given(_psi_inputs())
    def test_matches_component_loop(self, case):
        psi, f = case
        assert _stored(psi.project_poly(f)) == _stored(
            psi_by_components(psi, f))


class TestDBasis:
    def test_zp(self, zp_list):
        span = d_basis(zp_list)
        assert span.dim == 6
        assert span.hilbert() == [1, 2, 3]

    def test_124(self, x124):
        span = d_basis(x124)
        expect = [MPoly(("t1",), {(k,): Cyclotomic.one()}) for k in range(3)]
        assert _spans_equal(span.basis, expect)

    def test_single_basis(self):
        x = GList.from_rows([[1, 0], [0, 1]])
        span = d_basis(x)
        assert span.dim == 1
        assert span.basis[0] == MPoly.constant(("t1", "t2"), 1)


class TestPairing:
    def test_matching_monomial(self):
        p = MPoly(("s1",), {(2,): Cyclotomic.one()})
        f = MPoly(("t1",), {(2,): Cyclotomic.one()})
        assert pair(p, f) == 2

    def test_mismatched(self):
        p = MPoly(SV2, {(1, 0): Cyclotomic.one()})
        f = MPoly(("t1", "t2"), {(0, 1): Cyclotomic.one()})
        assert not pair(p, f)

    def test_constants(self):
        p = MPoly.constant(SV2, 1)
        f = MPoly.constant(("t1", "t2"), 1)
        assert pair(p, f).is_one()

    def test_gram_nonsingular(self, zp_list, x124, x11):
        for x in (zp_list, x124, x11):
            pb, db = p_basis(x), d_basis(x)
            gram = [[pair(p, f) for f in db.basis] for p in pb.basis]
            assert linalg.rank(gram) == pb.dim


class TestInternal:
    def test_zp(self, zp_list):
        span = internal_p_basis(zp_list)
        assert span.dim == 3
        assert span.hilbert() == [1, 2]

    def test_two_ones(self, x11):
        span = internal_p_basis(x11)
        assert span.dim == 1
        assert is_constant(span.basis[0])

    def test_basis_only_zero_space(self):
        x = GList.from_rows([[1, 0], [0, 1]])
        assert internal_p_basis(x).dim == 0

    @pytest.mark.parametrize("rows", [
        [[1, 0, 1], [0, 1, 0]],
        [[-2, 1, 1, -1, 2, 1], [0, 0, 0, 1, 0, 0]],
    ])
    def test_coloop_gives_zero(self, rows):
        # a coloop x spans a complement of the hyperplane X \ x, whose
        # m(H) = 1 makes D_eta^0 = 1 a constraint: T(0, 1) = 0
        x = GList.from_rows(rows)
        assert any(is_coloop(x, i) for i in range(len(x)))
        assert tutte(x).evaluate(0, 1) == 0
        span = internal_p_basis(x)
        assert span.dim == 0 and span.hilbert() == []

    def test_dimension_is_checked_against_tutte(self, zp_list, monkeypatch):
        kernel = polyspace.kernel
        monkeypatch.setattr(polyspace, "kernel", lambda images: kernel(
            images)[:-1])
        with pytest.raises(InternalError,
                           match=r"dim P_-\(X\) = 1 but Tutte\(0,1\) = 3"):
            internal_p_basis(zp_list)


def d_basis_by_dense_rows(x):
    """Oracle: D(X) as built before `polyspace.kernel`.  The cocircuit
    generators in s-variables act on each candidate monomial by
    `apply_diff`, each image is padded to every monomial of its degree,
    and the transposed candidate rows go to `linalg.nullspace`."""
    vars, svars = t_vars(x.group.free_rank), s_vars(x.group.free_rank)
    n, d = len(x), x.group.free_rank
    gens = [p_product(x, c, svars) for c in cocircuits(x)]
    gens = [g for g in gens if g]
    out = []
    for deg in range(n - d + 1):
        monos = _monomials(vars, deg)
        if not monos:
            continue
        cands = [MPoly(vars, {e: Cyclotomic.one()}) for e in monos]
        rows = []
        for cand in cands:
            row = []
            for g in gens:
                img = g.apply_diff(cand)
                low = deg - g.total_degree()
                row.extend(img.coefficient(e).to_rational()
                           for e in (_monomials(vars, low) if low >= 0
                                     else []))
            rows.append(row)
        mat = [list(col) for col in zip(*rows)] if rows and rows[0] else []
        for vec in linalg.nullspace(mat, ncols=len(cands)):
            poly = MPoly(vars)
            for c, cand in zip(vec, cands):
                if c:
                    poly = poly + cand * c
            out.append(poly)
    return out


def _intersect_rows(rows_a, rows_b):
    """Row-space intersection: the combinations of rows_a that are also
    combinations of rows_b, from the kernel of [A^T | -B^T]."""
    if not rows_a or not rows_b:
        return []
    n = len(rows_a[0])
    m = [[a[i] for a in rows_a] + [-b[i] for b in rows_b] for i in range(n)]
    out = []
    for v in linalg.nullspace(m):
        vec = [sum((c * a[i] for c, a in zip(v, rows_a)), Fraction(0))
               for i in range(n)]
        if any(vec):
            out.append(vec)
    return out


def internal_by_intersection(x):
    """Oracle: P_-(X) as the intersection of the P(X \\ x) over every
    deletion, degree by degree; for lists without a coloop, whose
    deletions all span."""
    vars = s_vars(x.group.free_rank)
    spans = [p_basis(x.delete(i), vars) for i in range(len(x))]
    top = min(max((p.total_degree() for p in s.basis), default=0)
              for s in spans)
    out = []
    for deg in range(top + 1):
        monos = _monomials(vars, deg)
        current = None
        for s in spans:
            rows = [[p.coefficient(e).to_rational() for e in monos]
                    for p in s.by_degree(deg)]
            current = rows if current is None else _intersect_rows(
                current, rows)
        out += [MPoly(vars, dict(zip(monos, vec))) for vec in current]
    return out


def _lattice_lists(mixed_corpus):
    return [x for x in mixed_corpus if not x.group.invariants]


def _oracle_lists(mixed_corpus, zp_list, x124, x11):
    """The fixtures and the lattice lists of the mixed corpus and of corpus
    seeds 3, 5 and 11, coloops included."""
    seeded = [x for seed in (3, 5, 11) for x in corpus(seed=seed, count=40)]
    return [zp_list, x124, x11] + _lattice_lists(mixed_corpus + seeded)


class TestKernelOracles:
    def test_d_basis_matches_dense_rows(self, mixed_corpus, zp_list, x124,
                                        x11):
        # element by element, with every coefficient's declared order
        for x in _oracle_lists(mixed_corpus, zp_list, x124, x11):
            got = d_basis(x)
            assert got.basis == d_basis_by_dense_rows(x), x
            assert got.to_json() == GradedSpan(
                d_basis_by_dense_rows(x), got.vars).to_json()

    def test_internal_matches_intersection(self, mixed_corpus, zp_list,
                                           x124, x11):
        done = 0
        for x in _oracle_lists(mixed_corpus, zp_list, x124, x11):
            if any(is_coloop(x, i) for i in range(len(x))):
                continue
            done += 1
            assert _spans_equal(internal_p_basis(x).basis,
                                internal_by_intersection(x)), x
        assert done >= 60


class TestKernel:
    def test_empty(self):
        assert polyspace.kernel([]) == []
        assert polyspace.kernel([{}, {}]) == [[1, 0], [0, 1]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_nullspace_in_any_row_order(self, ncand, data):
        keys = st.sampled_from(["a", "b", ("c", 1), ("c", 2), 3])
        vals = st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=4))
        images = data.draw(st.lists(st.dictionaries(keys, vals),
                                    min_size=ncand, max_size=ncand))
        order = sorted({k for im in images for k in im}, key=repr)
        dense = [[im.get(k, 0) for im in images] for k in order]
        want = linalg.nullspace(dense, ncols=ncand)
        assert polyspace.kernel(images) == want
        shuffled = data.draw(st.permutations(order))
        reordered = [{k: im[k] for k in shuffled if k in im}
                     for im in images]
        assert polyspace.kernel(reordered) == want


def _eta_operator(eta, k, vars):
    """Oracle: D_eta^k as the expanded polynomial of its k-th power, with
    a leading s0 given coefficient 0."""
    form = MPoly.linear_form(vars, [0] * (len(vars) - len(eta)) + list(eta))
    op = MPoly.constant(vars, 1)
    for _ in range(k):
        op = op * form
    return op


class TestDerivativeAlong:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.integers(0, 4), st.data())
    def test_matches_expanded_power(self, d, with_s0, k, data):
        vars = s_vars(d, with_s0=with_s0)
        eta = data.draw(st.lists(st.integers(-3, 3), min_size=d,
                                 max_size=d))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * len(vars)),
            st.fractions(max_denominator=6), max_size=6))
        poly = MPoly(vars, terms)
        want = _eta_operator(eta, k, vars).apply_diff(poly)
        got = polyspace.derivative_along(poly, eta, k)
        assert got == {e: c.to_rational() for e, c in want.terms.items()}
        assert all(type(v) is int for v in got.values()) \
            or any(c.den != 1 for c in poly.terms.values())

    def test_zero_at_once_past_the_degree(self):
        z = Cyclotomic.root_of_unity(3)
        poly = MPoly(SV2, {(1, 1): z})
        assert polyspace.derivative_along(poly, (1, 2), 3) == {}
        with pytest.raises(ValueError, match="not a rational polynomial"):
            polyspace.derivative_along(poly, (1, 2), 2)


class TestDependentBasis:
    def test_rational_basis(self):
        a, b = MPoly.linear_form(SV2, (1, 2)), MPoly.linear_form(SV2, (3, 1))
        GradedSpan([a, b], SV2)
        with pytest.raises(InternalError,
                           match="span basis is linearly dependent"):
            GradedSpan([a, b, a * Fraction(-2, 3) + b], SV2)

    def test_cyclotomic_basis(self):
        z = Cyclotomic.root_of_unity(3)
        a = MPoly.linear_form(SV2, (1, z))
        b = MPoly.linear_form(SV2, (z, 1))
        GradedSpan([a, b], SV2)
        with pytest.raises(InternalError,
                           match="span basis is linearly dependent"):
            GradedSpan([a, a * z], SV2)


class TestHilbertIdentities:
    def test_inhomogeneous_basis_is_value_error(self):
        one_plus_s1 = MPoly(("s1",), {(0,): 1, (1,): 1})
        with pytest.raises(ValueError, match="homogeneous"):
            GradedSpan([one_plus_s1], ("s1",)).hilbert()

    def test_hilbert_vs_tutte(self, mixed_corpus):
        # q^(N-d) T(1, 1/q) for P(X); q^(N-d) T(0, 1/q) for internal, on
        # every lattice list of the corpus, coloops included
        coloops = 0
        for x in _lattice_lists(mixed_corpus):
            n, d = len(x), x.group.free_rank
            coloops += any(is_coloop(x, i) for i in range(n))
            t = tutte(x)
            hp = p_basis(x).hilbert()
            hp += [0] * (n - d + 1 - len(hp))
            assert hp == coefficients_reversed(t, n - d, 1)
            hi = internal_p_basis(x).hilbert()
            hi += [0] * (n - d + 1 - len(hi))
            assert hi == coefficients_reversed(t, n - d, 0)
        assert coloops >= 3

    def test_exact_sequence_dimensions(self, mixed_corpus):
        done = 0
        for x in mixed_corpus:
            if x.group.invariants or x.group.free_rank > 2 or len(x) > 6:
                continue
            d = x.group.free_rank
            for i in range(len(x)):
                if x.elems[i].is_zero():
                    continue
                rest = x.delete(i)
                if rank_of(rest, range(len(rest))) < d:
                    continue
                quot, _ = contract(x, i)
                if quot.group.invariants:
                    # the continuous P-space of the quotient ignores torsion
                    g2 = FgGroup(quot.group.free_rank)
                    quot = GList(g2, [g2.element(e.free) for e in quot.elems])
                assert (p_basis(x).dim
                        == p_basis(rest).dim + p_basis(quot).dim)
                done += 1
            if done > 10:
                break
        assert done >= 3
