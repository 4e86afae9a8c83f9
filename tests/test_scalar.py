import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from zonotopal.scalar import (Cyclotomic, MPoly, TruncatedSeries,
                              _embed_powers, _poly_divide_exact, _todd_logs,
                              bernoulli, cyclotomic_polynomial,
                              divide_by_linear, euler_phi, exp_series,
                              rat_str, s_vars, todd_factor, todd_log)
from zonotopal.errors import InternalError, NonMember

from cycfield import FracCyclotomic, sympy_reduced, sympy_value

SV = ("s1",)


def lin(c=1):
    return MPoly.linear_form(SV, (Fraction(c),))


def todd_factor_multivariate(linear, c, cap):
    """Oracle: p / (1 - c e^{-p}) with the series inverse taken in all the
    variables of p (Bernoulli expansion for c = 1)."""
    c = Cyclotomic.one() * c
    if c.is_one():
        acc = MPoly.constant(linear.vars, 1)
        pw = MPoly.constant(linear.vars, 1)
        for k in range(1, cap + 1):
            pw = pw.mul_capped(-linear, cap)
            if not pw:
                break
            acc = acc + pw * (bernoulli(k) / math.factorial(k))
        return TruncatedSeries(acc, cap)
    den = TruncatedSeries.constant(linear.vars, 1, cap) \
        - exp_series(-linear, cap) * c
    return TruncatedSeries(linear, cap) * den.inverse()


# c = zeta_m^k for m <= 6 (1 included), and rationals c != 1
TODD_CS = sorted({(m, k % m) for m in range(1, 7) for k in range(m)}) \
    + [Fraction(2), Fraction(-1), Fraction(1, 3)]


def todd_c(spec):
    return Cyclotomic.root_of_unity(*spec) if isinstance(spec, tuple) \
        else spec


@st.composite
def todd_forms(draw):
    """A linear form (possibly zero) in 1-3 variables, with or without s0."""
    vars = s_vars(draw(st.integers(1, 3)), with_s0=draw(st.booleans()))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(vars),
                           max_size=len(vars)))
    return MPoly.linear_form(vars, [Fraction(v) for v in coeffs])


class TestCyclotomic:
    def test_i_squared(self):
        z4 = Cyclotomic.root_of_unity(4)
        assert z4 * z4 == -1

    def test_inv_one_minus_zeta2(self):
        val = (Cyclotomic.one() - Cyclotomic.root_of_unity(2)).inv()
        assert val == Fraction(1, 2)

    def test_conjugate_roots_sum_to_zero(self):
        assert Cyclotomic.root_of_unity(4) + Cyclotomic.root_of_unity(4, 3) == 0

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Cyclotomic.zero().inv()

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_cyclotomic_polynomials_match_sympy(self):
        t = sympy.Symbol("t")
        for n in range(1, 31):
            want = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
            assert cyclotomic_polynomial(n) == tuple(reversed(want)), n

    def test_order_embedding_associative(self):
        z3 = Cyclotomic.root_of_unity(3)
        z4 = Cyclotomic.root_of_unity(4)
        assert (z3 * z4) * z3 == z3 * (z4 * z3)
        assert (z3 * z4).order == 12

    def test_angle_roundtrip(self):
        for num, den in ((1, 2), (1, 3), (2, 3), (5, 6), (3, 8)):
            c = Cyclotomic.from_angle(Fraction(num, den))
            acc = Cyclotomic.one()
            for _ in range(den):
                acc = acc * c
            assert acc.is_one()


_small = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _cyc(order, coeffs):
    from zonotopal.scalar import euler_phi
    need = euler_phi(order)
    vals = (list(coeffs) * need)[:need]
    return Cyclotomic(order, vals)


@st.composite
def cyclotomics(draw):
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    from zonotopal.scalar import euler_phi
    coeffs = draw(st.lists(_small, min_size=euler_phi(order),
                           max_size=euler_phi(order)))
    return Cyclotomic(order, coeffs)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(), cyclotomics(), cyclotomics())
    def test_associativity_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics())
    def test_inverse(self, a):
        if a:
            assert (a * a.inv()).is_one()


class TestHash:
    def test_embedded_root_hashes_equal(self):
        a = Cyclotomic.root_of_unity(3)
        b = a.embed(6)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_rational_value_hashes_like_fraction(self):
        minus_one = Cyclotomic.root_of_unity(3) + Cyclotomic.root_of_unity(3, 2)
        assert minus_one.order == 3 and minus_one == -1
        assert hash(minus_one) == hash(Fraction(-1))
        assert {Fraction(-1): "ok"}[minus_one] == "ok"

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(), st.sampled_from([1, 2, 3, 5]))
    def test_hash_invariant_under_embedding(self, a, k):
        b = a.embed(a.order * k)
        assert a == b and hash(a) == hash(b)

    def test_conjugates_hash_apart(self):
        # Galois conjugates share a trace, so a trace hash cannot tell them
        # apart; the least-order vector can
        roots = [Cyclotomic.root_of_unity(5, k) for k in range(1, 5)]
        assert len({hash(r) for r in roots}) == 4
        assert len({hash(r.embed(20)) for r in roots}) == 4
        assert [hash(r.embed(20)) for r in roots] == [hash(r) for r in roots]

    def test_mpoly_hash_agrees_with_equality(self):
        z3 = Cyclotomic.root_of_unity(3)
        p = MPoly.linear_form(SV, (z3,)) + MPoly.constant(SV, z3 * z3)
        q = MPoly.linear_form(SV, (z3.embed(6),)) \
            + MPoly.constant(SV, (z3 * z3).embed(12))
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


class TestToddFactor:
    def test_bernoulli_values(self):
        assert [bernoulli(k) for k in range(5)] == [
            1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]

    def test_c_equal_one(self):
        body = todd_factor(lin(), 1, 2).body
        expect = (MPoly.constant(SV, 1) + lin() * Fraction(1, 2)
                  + (lin() * lin()) * Fraction(1, 12))
        assert body == expect

    def test_c_minus_one(self):
        body = todd_factor(lin(), -1, 2).body
        expect = lin() * Fraction(1, 2) + (lin() * lin()) * Fraction(1, 4)
        assert body == expect

    def test_degree_zero_truncation(self):
        assert todd_factor(lin(), 1, 0).body == MPoly.constant(SV, 1)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            todd_factor(lin(), 1, -1)

    @pytest.mark.parametrize("c", [1, -1, Cyclotomic.root_of_unity(3),
                                   Cyclotomic.root_of_unity(4),
                                   Fraction(2, 7)])
    def test_multiplying_back(self, c):
        # todd_factor(p, c, k) * (1 - c e^{-p}) == p, truncated at k
        cap = 4
        factor = todd_factor(lin(3), c, cap)
        den = TruncatedSeries.constant(SV, 1, cap) \
            - exp_series(-lin(3), cap) * Cyclotomic.one() * c
        assert (factor * den).body == lin(3)


    @settings(max_examples=100, deadline=None)
    @given(todd_forms(), st.sampled_from(TODD_CS), st.integers(0, 7))
    def test_matches_multivariate_inverse(self, linear, spec, cap):
        c = todd_c(spec)
        new = todd_factor(linear, c, cap)
        old = todd_factor_multivariate(linear, c, cap)
        assert new == old
        # same value in the same field, so it also prints the same
        assert repr(new) == repr(old)

    @pytest.mark.parametrize("c", [
        1, 2, -1, Fraction(1, 3), Cyclotomic(2, (Fraction(-1),)),
        Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4),
        Cyclotomic.root_of_unity(5, 2), Cyclotomic.root_of_unity(8, 3)])
    def test_tables_match_multivariate_inverse(self, c):
        # d = 1, 2, 3, a zero coefficient, and the s0 marker form
        forms = [MPoly.linear_form(s_vars(d), [Fraction(v) for v in coeffs])
                 for d, coeffs in ((1, (2,)), (2, (1, -1)), (3, (1, 0, -2)),
                                   (3, (1, 2, -1)))]
        forms.append(MPoly.variable(s_vars(2, with_s0=True), 0))
        order = (Cyclotomic.one() * c).order
        for linear in forms:
            for cap in range(7):
                new = todd_factor(linear, c, cap)
                old = todd_factor_multivariate(linear, c, cap)
                assert new == old
                # c's representation carries over, so the JSON agrees too
                assert new.body.to_json() == old.body.to_json()
                assert all(a.order == order for a in new.body.terms.values())
                assert todd_factor(linear, c, cap) == new

    def test_tables_keep_equal_values_of_other_orders_apart(self):
        minus_one = Cyclotomic(2, (Fraction(-1),))
        assert minus_one == -1
        for c, order in ((-1, 1), (minus_one, 2), (-1, 1)):
            body = todd_factor(lin(), c, 3).body
            assert {a.order for a in body.terms.values()} == {order}

    @pytest.mark.parametrize("c", [Fraction(2), Fraction(-1), Fraction(1, 3),
                                   Fraction(2, 7)])
    def test_one_variable_coefficients_match_sympy(self, c):
        cap = 7
        t = sympy.Symbol("t")
        expect = sympy.series(t / (1 - sympy.Rational(c.numerator,
                                                      c.denominator)
                                   * sympy.exp(-t)), t, 0, cap + 1).removeO()
        body = todd_factor(lin(), c, cap).body
        for k in range(cap + 1):
            want = expect.coeff(t, k)
            assert body.coefficient((k,)) == Fraction(int(want.p),
                                                      int(want.q))

    def test_bernoulli_coefficients_match_sympy(self):
        # t / (1 - e^{-t}) = sum_k B_k(1) t^k / k!, B_k(x) the Bernoulli
        # polynomial (B_1(1) = +1/2 in every convention)
        cap = 12
        body = todd_factor(lin(), 1, cap).body
        for k in range(cap + 1):
            want = sympy.bernoulli(k, 1) / sympy.factorial(k)
            assert body.coefficient((k,)) == Fraction(int(want.p),
                                                      int(want.q))


class TestSeries:
    def test_caps(self):
        s = TruncatedSeries(lin(), 3)
        assert (s + s).cap == 3
        assert (s * TruncatedSeries(lin(), 2)).cap == 2

    def test_sum_of_different_caps_raises(self):
        # a typed error, so the check holds under python -O too
        a, b = TruncatedSeries(lin(), 3), TruncatedSeries(lin(), 2)
        with pytest.raises(InternalError, match="caps 3 and 2"):
            a + b
        with pytest.raises(InternalError, match="caps 2 and 3"):
            b - a

    def test_exp_of_nonzero_constant_raises(self):
        with pytest.raises(ValueError, match="zero constant term"):
            exp_series(lin() + MPoly.constant(SV, 1), 3)

    def test_inverse_of_unit(self):
        s = TruncatedSeries.constant(SV, 2, 3) + lin()
        prod = s * s.inverse()
        assert prod.body == MPoly.constant(SV, 1)

    def test_exp_additivity(self):
        a, b = lin(2), lin(5)
        lhs = exp_series(a + b, 4)
        rhs = exp_series(a, 4) * exp_series(b, 4)
        assert lhs.body == rhs.body


def exp_by_powers(p, cap):
    """Oracle: sum_k p^k / k! with each power of p from `mul_capped`."""
    acc = MPoly.constant(p.vars, 1)
    pw = MPoly.constant(p.vars, 1)
    for k in range(1, cap + 1):
        pw = pw.mul_capped(p, cap)
        acc = acc + pw * Fraction(1, math.factorial(k))
    return acc


@st.composite
def graded_polynomials(draw):
    """A polynomial in 1-3 variables with zero constant term and nonzero
    parts of degree 1 and of degree 2 or 3, with cyclotomic or rational
    coefficients: never homogeneous."""
    vars = s_vars(draw(st.integers(1, 3)))

    def exps(low, high):
        return st.lists(st.integers(0, high), min_size=len(vars),
                        max_size=len(vars)).map(tuple).filter(
                            lambda e: low <= sum(e) <= high)
    coeffs = (cyclotomics() | _small).filter(bool)
    terms = draw(st.dictionaries(exps(1, 1), coeffs, min_size=1, max_size=2))
    terms.update(draw(st.dictionaries(exps(2, 3), coeffs, min_size=1,
                                      max_size=3)))
    return MPoly(vars, terms)


class TestExpSeries:
    @settings(max_examples=60, deadline=None)
    @given(graded_polynomials(), st.integers(0, 6))
    def test_euler_recursion_matches_powers(self, p, cap):
        got = exp_series(p, cap)
        assert got.cap == cap
        assert got.body == exp_by_powers(p, cap)


class TestToddLog:
    """p / (1 - c e^{-p}) = lead * p^v * exp(log), from the one-variable
    table `_todd_logs`."""

    T = ("t",)

    @pytest.mark.parametrize("spec", TODD_CS)
    def test_rebuilds_todd_factor(self, spec):
        c = todd_c(spec)
        t = MPoly.variable(self.T, 0)
        for cap in range(7):
            lead, v, log = todd_log(t, c, cap)
            assert v == (0 if Cyclotomic.one() * c == 1 else 1)
            assert lead == (1 if v == 0 else 1 / (1 - Cyclotomic.one() * c))
            assert log.constant_term() == 0 and log.total_degree() <= cap
            want = todd_factor(t, c, cap).body
            if cap < v:
                assert not want
                continue
            got = (exp_series(log, cap - v).body * lead).mul_capped(
                t if v else MPoly.constant(self.T, 1), cap)
            assert got == want
            assert got.to_json() == want.to_json()

    def test_log_of_a_form_is_the_one_variable_log_in_its_powers(self):
        form = MPoly.linear_form(s_vars(2), (Fraction(1), Fraction(-2)))
        c = Cyclotomic.root_of_unity(3)
        lead, v, log = todd_log(form, c, 4)
        _, _, logs = _todd_logs(c.order, c.nums, c.den, 4)
        want = MPoly(form.vars)
        pw = MPoly.constant(form.vars, 1)
        for l in logs:
            pw = pw * form
            want = want + pw * l
        assert (lead, v) == (1 / (1 - c), 1) and log == want

    def test_table_is_bounded(self):
        assert _todd_logs.cache_info().maxsize == 256

    def test_typed_checks(self):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            todd_log(lin(), 2, -1)
        with pytest.raises(ValueError, match="homogeneous linear form"):
            todd_log(lin() * lin(), 2, 3)


class TestPolynomials:
    def test_divide_exact(self):
        sv = ("s1", "s2")
        a = MPoly.linear_form(sv, (1, 2))
        b = MPoly.linear_form(sv, (1, 0))
        assert divide_by_linear(a * b * a, a) == a * b

    def test_divide_remainder_raises(self):
        sv = ("s1", "s2")
        a = MPoly.linear_form(sv, (1, 2))
        with pytest.raises(NonMember):
            divide_by_linear(a + MPoly.constant(sv, 1), a)

    def test_rational_strings(self):
        assert rat_str(Fraction(3, 4)) == "3/4"
        assert rat_str(Fraction(-5)) == "-5"

    def test_serialization_roundtrip(self):
        sv = ("s1", "s2")
        p = (MPoly.linear_form(sv, (1, 2)) * Cyclotomic.root_of_unity(4)
             + MPoly.constant(sv, Fraction(1, 3)))
        assert MPoly.from_json(sv, p.to_json()) == p


def evaluate_by_products(p, point):
    """p at point with every product and sum taken as a Cyclotomic, one
    factor at a time: the reference for `MPoly.evaluate`."""
    total = Cyclotomic.zero()
    for e, c in p.terms.items():
        v = c
        for i, k in enumerate(e):
            for _ in range(k):
                v = v * point[i]
        total = total + v
    return total


@st.composite
def polynomials(draw):
    """An MPoly in 1-3 variables of degree <= 3, coefficients of small
    cyclotomic order or rational."""
    vars = s_vars(draw(st.integers(1, 3)))
    exps = st.lists(st.integers(0, 3), min_size=len(vars),
                    max_size=len(vars)).map(tuple)
    coeffs = cyclotomics() | _small
    return MPoly(vars, draw(st.dictionaries(exps, coeffs, max_size=6)))


def divide_by_linear_by_subtraction(p, linear):
    """Oracle: the leading term of the remainder (pivot exponent first) over
    the pivot coefficient, and one `MPoly` subtraction of that quotient term
    times the form per step."""
    pivot = next(iter(linear.terms)).index(1)
    c_piv = linear.coefficient(tuple(1 if i == pivot else 0
                                     for i in range(len(p.vars))))
    inv = c_piv.inv()
    quot = MPoly(p.vars)
    rem = p
    while rem:
        lead = max(rem.terms, key=lambda e: (e[pivot], e))
        if lead[pivot] == 0:
            raise NonMember(f"division of {p} by {linear} leaves "
                            f"remainder {rem}")
        ne = list(lead)
        ne[pivot] -= 1
        mono = MPoly(p.vars, {tuple(ne): rem.terms[lead] * inv})
        quot = quot + mono
        rem = rem - mono * linear
    return quot


def _declared(p):
    """Each term with its coefficient's declared order and integers."""
    return {e: (c.order, c.nums, c.den) for e, c in p.terms.items()}


@st.composite
def linear_forms(draw, vars):
    """A nonzero linear form in vars with cyclotomic or rational
    coefficients, its terms in any order (the first term's variable is the
    pivot)."""
    units = [tuple(int(i == k) for i in range(len(vars)))
             for k in range(len(vars))]
    coeffs = draw(st.lists(cyclotomics() | _small, min_size=len(vars),
                           max_size=len(vars)))
    terms = [(e, c) for e, c in zip(units, coeffs) if c]
    if not terms:
        terms = [(units[0], Cyclotomic.one())]
    return MPoly(vars, dict(draw(st.permutations(terms))))


class TestDivideByLinear:
    @settings(max_examples=100, deadline=None)
    @given(polynomials(), st.data())
    def test_multiples_match_repeated_subtraction(self, p, data):
        linear = data.draw(linear_forms(p.vars))
        product = p * linear
        got = divide_by_linear(product, linear)
        want = divide_by_linear_by_subtraction(product, linear)
        assert got == want == p
        assert _declared(got) == _declared(want)
        assert list(got.terms) == list(want.terms)

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials(), st.data())
    def test_non_multiples_raise_alike(self, p, r, data):
        # r's terms of positive degree and a nonzero constant term c: no
        # multiple of a linear form has a constant term
        linear = data.draw(linear_forms(p.vars))
        c = data.draw(cyclotomics().filter(bool))
        q = p * linear + MPoly(p.vars, {e: v for e, v in r.terms.items()
                                        if any(e) and len(e) == len(p.vars)})
        q = q + MPoly.constant(p.vars, c)
        with pytest.raises(NonMember) as want:
            divide_by_linear_by_subtraction(q, linear)
        with pytest.raises(NonMember) as got:
            divide_by_linear(q, linear)
        assert str(got.value) == str(want.value)

    def test_zero_divides_to_zero(self):
        assert not divide_by_linear(MPoly(("s1", "s2")),
                                    MPoly.linear_form(("s1", "s2"), (0, 3)))

    def test_variable_mismatch_is_value_error(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            divide_by_linear(MPoly.linear_form(("s1", "s2"), (1, 1)),
                             MPoly.linear_form(("t1", "t2"), (1, 1)))


class TestMPolyHash:
    @settings(max_examples=60, deadline=None)
    @given(polynomials(), st.data())
    def test_independent_of_term_order(self, p, data):
        # the same terms inserted in another order, and the same value
        # reached by arithmetic; a second call gives the kept hash
        order = data.draw(st.permutations(list(p.terms.items())))
        q = MPoly(p.vars, dict(order))
        r = (p + MPoly.constant(p.vars, 1)) - 1
        assert list(q.terms) == [e for e, _ in order]
        assert p == q == r
        assert hash(p) == hash(q) == hash(r) == hash(q)
        assert len({p, q, r}) == 1


class TestFromPowers:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]).flatmap(
        lambda n: st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=n,
                           max_size=n)), st.integers(1, 100))
    def test_matches_a_sum_of_roots(self, ints, den):
        n = len(ints)
        want = Cyclotomic.zero().embed(n)
        for j, c in enumerate(ints):
            want = want + Cyclotomic.root_of_unity(n, j) * Fraction(c, den)
        got = Cyclotomic.from_powers(n, ints, den)
        assert got.order == n
        assert got.coeffs == want.coeffs


# every order the oracle tests mix, with small coefficients so that sums
# and products cancel and reduce often
_ORACLE_ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12]
_entries = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
                            Fraction(5, 6)])


@st.composite
def mixed_cyclotomics(draw):
    order = draw(st.sampled_from(_ORACLE_ORDERS))
    return Cyclotomic(order, draw(st.lists(
        _entries, min_size=euler_phi(order), max_size=euler_phi(order))))


@st.composite
def mixed_pairs(draw):
    """(a, b), where b is often a's value at another order, or its
    negative, so that == and cancellation are exercised."""
    a = draw(mixed_cyclotomics())
    kind = draw(st.sampled_from(["any", "embedded", "negated"]))
    if kind == "any":
        return a, draw(mixed_cyclotomics())
    b = a.embed(a.order * draw(st.sampled_from([1, 2, 3, 4])))
    return a, (b if kind == "embedded" else -b)


def assert_canonical(c):
    assert type(c.den) is int and c.den > 0
    assert all(type(v) is int for v in c.nums)
    assert len(c.nums) == euler_phi(c.order)
    assert math.gcd(c.den, *c.nums) == 1


class TestAgainstFractionVectors:
    """The integer `Cyclotomic` against the Fraction-vector arithmetic of
    `cycfield` and against sympy (a product reduced with `rem` modulo
    Phi_n): each result has the reference's order and coefficients, and is
    stored in lowest terms."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_pairs())
    def test_ring_operations(self, pair):
        a, b = pair
        fa, fb = FracCyclotomic.of(a), FracCyclotomic.of(b)
        for got, want in ((a + b, fa + fb), (a - b, fa - fb),
                          (a * b, fa * fb), (-a, -fa)):
            assert_canonical(got)
            assert (got.order, got.coeffs) == (want.order, want.coeffs)
        assert (a == b) == (fa == fb) and (b == a) == (fa == fb)

    @settings(max_examples=100, deadline=None)
    @given(mixed_cyclotomics())
    def test_inverse(self, a):
        if not a:
            return
        got, want = a.inv(), FracCyclotomic.of(a).inv()
        assert_canonical(got)
        assert (got.order, got.coeffs) == (want.order, want.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(mixed_pairs())
    def test_matches_sympy(self, pair):
        a, b = pair
        n = math.lcm(a.order, b.order)
        x, y = sympy_value(a.embed(n)), sympy_value(b.embed(n))
        assert (a * b).coeffs == sympy_reduced(x * y, n)
        assert (a + b).coeffs == sympy_reduced(x + y, n)
        assert a.embed(n).coeffs == sympy_reduced(sympy_value(a).subs(
            sympy.Symbol("x"), sympy.Symbol("x") ** (n // a.order)), n)

    @settings(max_examples=100, deadline=None)
    @given(mixed_cyclotomics(), st.integers(1, 12), st.integers(-7, 7))
    def test_lowest_terms(self, a, den, k):
        # the same value from coefficients scaled by k / den and back
        assert_canonical(a)
        b = Cyclotomic(a.order, [q * k / den for q in a.coeffs])
        assert_canonical(b)
        if k:
            assert b * Fraction(den, k) == a
            assert Cyclotomic(a.order, b.coeffs).nums == b.nums
        else:
            assert b.den == 1 and not b
        assert Cyclotomic.from_powers(a.order, [v * 3 for v in a.nums],
                                      3 * a.den) == a

    @settings(max_examples=100, deadline=None)
    @given(mixed_pairs())
    def test_hash_contract(self, pair):
        a, b = pair
        assert hash(a) == hash(FracCyclotomic.of(a))
        if a == b:
            assert hash(a) == hash(b)
        if a.is_rational():
            q = a.to_rational()
            assert hash(a) == hash(q)
            if q.denominator == 1:
                assert hash(a) == hash(int(q))

    def test_hash_of_equal_values_at_other_orders(self):
        z3, z4 = Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4)
        for a, n in ((z3, 6), (z3 * 2 - Fraction(1, 3), 6), (z4, 12),
                     (z4 * Fraction(-3, 4) + 5, 12)):
            b = a.embed(n)
            assert b.order == n and a == b and hash(a) == hash(b)
        assert hash(Cyclotomic(2, (Fraction(-3, 4),))) == hash(Fraction(-3, 4))
        assert hash(Cyclotomic(4, (7, 0))) == hash(7)

    def test_conjugates_hash_apart(self):
        z5 = Cyclotomic.root_of_unity(5)
        assert hash(z5) != hash(z5 * z5)
        assert hash(z5.embed(10)) != hash((z5 * z5).embed(10))


class TestEvaluate:
    """`MPoly.evaluate` multiplies each monomial out in ints or Fractions
    at a rational point; the value and its declared order (what printing
    shows) are those of the product-by-product reference."""

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), st.data())
    def test_matches_products(self, p, data):
        n = len(p.vars)
        coord = data.draw(st.sampled_from([
            st.integers(-5, 5), st.fractions(-3, 3, max_denominator=7),
            cyclotomics()]))
        point = data.draw(st.lists(coord, min_size=n, max_size=n))
        got, want = p.evaluate(point), evaluate_by_products(p, point)
        assert got == want
        assert got.order == want.order and repr(got) == repr(want)


class TestTypedChecks:
    """Each check raises a typed error, so it also runs under python -O."""

    def test_euler_phi_needs_positive_n(self):
        with pytest.raises(ValueError, match="n >= 1, got 0"):
            euler_phi(0)

    def test_cyclotomic_needs_phi_coefficients(self):
        with pytest.raises(ValueError, match="order 5 needs 4 coefficients"):
            Cyclotomic(5, (1, 0))

    def test_exponent_length_matches_variables(self):
        with pytest.raises(ValueError, match=r"exponent \(1,\) does not"):
            MPoly(("s1", "s2"), {(1,): 1})

    def test_evaluate_needs_one_coordinate_per_variable(self):
        p = MPoly.linear_form(("t1", "t2"), (1, 1))
        assert p.evaluate((3, 1)) == 4
        for point in ((3,), (3, 1, 5), (Fraction(3), 1, 5)):
            with pytest.raises(ValueError, match="needs 2 coordinates"):
                p.evaluate(point)

    def test_division_needs_divisible_leading_coefficient(self):
        with pytest.raises(InternalError, match="does not divide"):
            _poly_divide_exact([0, 1], [1, 2])

    def test_division_without_remainder(self):
        # 1 + x^2 = (1 + x)(x - 1) + 2
        with pytest.raises(InternalError, match="leaves remainder"):
            _poly_divide_exact([1, 0, 1], [1, 1])

    def test_embed_powers_needs_divisible_order(self):
        with pytest.raises(InternalError, match="order 3 does not divide 4"):
            _embed_powers(3, 4)

    def test_embed_needs_divisible_order(self):
        with pytest.raises(InternalError, match="order 5 does not divide 7"):
            Cyclotomic.root_of_unity(5).embed(7)
