"""Cyclotomic arithmetic on vectors of Fractions: the reference that the
integer `zonotopal.scalar.Cyclotomic` is compared against.

A value of Q(zeta_n) is (n, coefficient tuple) in the power basis
zeta^0..zeta^(phi(n)-1), each coefficient its own Fraction; values of
different orders are embedded into the lcm.  Phi_n comes from sympy, so the
reference shares no table with the package.  Also the psi projection as a
loop over power-basis components, one `MPoly` addition per slot and column.

No test-framework imports, as in `alcoves`.
"""

import math
from fractions import Fraction

import sympy

from zonotopal import linalg
from zonotopal.matroid import cocircuits
from zonotopal.polyspace import _ideal_gens, _monomials
from zonotopal.scalar import Cyclotomic, MPoly

_X = sympy.Symbol("x")


def _phi_poly(n):
    """Coefficients of Phi_n, low degree first, as ints."""
    return [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, _X),
                                                _X).all_coeffs())]


def _reduce(vec, n):
    """A coefficient vector (any length) modulo Phi_n, phi(n) long."""
    mod = _phi_poly(n)
    phi = len(mod) - 1
    vec = [Fraction(v) for v in vec] + [Fraction(0)] * max(phi - len(vec), 0)
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            for i, m in enumerate(mod):
                vec[k - phi + i] -= c * m
    return tuple(vec[:phi])


class FracCyclotomic:
    """(order, coeffs) with Fraction coefficients; +, -, *, inv, ==, hash."""

    def __init__(self, order, coeffs):
        self.order, self.coeffs = order, tuple(Fraction(c) for c in coeffs)

    @staticmethod
    def of(c: Cyclotomic) -> "FracCyclotomic":
        return FracCyclotomic(c.order, c.coeffs)

    def embed(self, n):
        out = [Fraction(0)] * (n + 1)
        for j, c in enumerate(self.coeffs):
            out[j * (n // self.order)] += c
        return FracCyclotomic(n, _reduce(out, n))

    def _common(self, other):
        n = math.lcm(self.order, other.order)
        return self.embed(n), other.embed(n), n

    def __add__(self, other):
        a, b, n = self._common(other)
        return FracCyclotomic(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return FracCyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, n = self._common(other)
        raw = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                raw[i + j] += x * y
        return FracCyclotomic(n, _reduce(raw, n))

    def inv(self):
        """The inverse by the extended Euclid of sympy over Q."""
        poly = sum(c * _X ** j for j, c in enumerate(self.coeffs))
        s, _, g = sympy.gcdex(sympy.Poly(poly, _X, domain="QQ"),
                              sympy.Poly(sympy.cyclotomic_poly(self.order, _X),
                                         _X, domain="QQ"))
        s = s.quo_ground(g.LC())
        return FracCyclotomic(self.order, _reduce(
            [Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())],
            self.order))

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        """A rational hashes as its Fraction, any other value as
        (m, its coordinates in Q(zeta_m)) for the least such m."""
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        for m in range(3, self.order + 1):
            if self.order % m == 0 and m % 4 != 2:
                phi = len(_phi_poly(m)) - 1
                cols = [FracCyclotomic(m, [int(i == j) for i in range(phi)])
                        .embed(self.order).coeffs for j in range(phi)]
                coords = linalg.solve([list(r) for r in zip(*cols)],
                                      list(self.coeffs))
                if coords is not None:
                    return hash((m, tuple(coords)))


def sympy_value(c) -> sympy.Expr:
    """sum_j coeffs[j] x^j of a Cyclotomic or FracCyclotomic."""
    return sum(sympy.Rational(q.numerator, q.denominator) * _X ** j
               for j, q in enumerate(c.coeffs))


def sympy_reduced(expr, n) -> tuple:
    """expr modulo Phi_n as phi(n) Fractions (`sympy.rem`)."""
    rem = sympy.Poly(sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(
        n, _X), _X), _X)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    phi = sympy.totient(n)
    return tuple(coeffs + [Fraction(0)] * (phi - len(coeffs)))


def psi_by_components(projector, f: MPoly) -> MPoly:
    """psi_X(f) one power-basis component at a time: the P part of each
    rational component, scaled by its root of unity and added to the
    result as an `MPoly`, slot by slot and column by column."""
    out = MPoly(projector.vars)
    for deg, slice_ in f.slices().items():
        if deg > projector.top:
            continue
        monos = _monomials(projector.vars, deg)
        pcols = projector.pspan.by_degree(deg)
        cols = pcols + _ideal_gens(projector.x, cocircuits(projector.x),
                                   deg, projector.vars)
        mat = [[c.coefficient(e).to_rational() for c in cols] for e in monos]
        g = linalg.solve(mat, linalg.identity(len(monos)))[:len(pcols)]
        rhs_cyc = [slice_.coefficient(e) for e in monos]
        order = math.lcm(*(c.order for c in rhs_cyc))
        rhs = [c.embed(order).coeffs for c in rhs_cyc]
        for j in range(len(rhs[0])):
            comp = [(i, c[j]) for i, c in enumerate(rhs) if c[j]]
            if not comp:
                continue
            unit = Cyclotomic.root_of_unity(order, j)
            for col, grow in zip(pcols, g):
                coef = sum(grow[i] * v for i, v in comp)
                if coef:
                    out = out + col * (unit * coef)
    return out

