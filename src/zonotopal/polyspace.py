"""Continuous zonotopal spaces: P(X), P_-(X), D(X), the cocircuit ideal,
the projection psi_X along it, and the differential pairing.

Each space is graded and built degree by degree, exactly.  D(X), P_-(X)
and the periodic internal space (`periodic`) are kernels of differential
constraints, all found by `kernel`: one fraction-free `linalg.nullspace`
over rows keyed by (constraint, monomial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from . import linalg
from .abelian import GElement, GList, rank_of
from .errors import InternalError
from .matroid import (bases, cocircuits, external_activity, hyperplane_flats,
                      tutte)
from .scalar import (Cyclotomic, MPoly, TruncatedSeries, euler_phi, s_vars,
                     t_vars)


@dataclass
class GradedSpan:
    """A list of linearly independent polynomials grouped by degree."""

    basis: list                  # list of MPoly
    vars: tuple

    def __post_init__(self):
        if self.basis:
            degs = {}
            for p in self.basis:
                degs.setdefault(max(p.total_degree(), 0), []).append(p)
            for k, polys in degs.items():
                if all(p.is_homogeneous() for p in polys):
                    mat = _to_matrix(polys)
                    if all(c.is_rational() for row in mat for c in row):
                        mat = [_integer_row(row) for row in mat]
                    if len(mat) != linalg.rank(mat):
                        raise InternalError("span basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def hilbert(self) -> list:
        """Coefficients of the Hilbert series (`hilbert`)."""
        return hilbert(self.basis)

    def by_degree(self, k: int) -> list:
        return [p for p in self.basis if p.total_degree() == k]

    def to_json(self):
        return [{"degree": p.total_degree(), "poly": p.to_json()}
                for p in self.basis]


def hilbert(basis) -> list:
    """Coefficients of the Hilbert series of span(basis): the number of
    elements in each degree (grading: total degree, s0 included).

    The count is the dimension of each degree only for a basis that was
    checked independent when it was built: a `GradedSpan`, each character
    block of `periodic.pper_basis`, or `periodic.pper_internal_basis`.
    Every element must be homogeneous.
    """
    degs = []
    for p in basis:
        if not p.is_homogeneous():
            raise ValueError("hilbert requires a homogeneous basis")
        degs.append(max(p.total_degree(), 0))
    out = [0] * (max(degs, default=-1) + 1)
    for k in degs:
        out[k] += 1
    return out


def _monomials(vars, degree):
    """Exponent tuples of the given total degree, lexicographic order."""
    n = len(vars)

    def rec(rem, slots):
        if slots == 1:
            yield (rem,)
            return
        for first in range(rem, -1, -1):
            for rest in rec(rem - first, slots - 1):
                yield (first,) + rest

    return list(rec(degree, n)) if n else ([()] if degree == 0 else [])


def _integer_terms(p: MPoly) -> list:
    """(monomial, int) over the terms of a polynomial with rational
    coefficients, scaled by the lcm of their denominators."""
    if not all(c.is_rational() for c in p.terms.values()):
        raise ValueError(f"not a rational polynomial: {p}")
    den = math.lcm(*(c.den for c in p.terms.values()))
    return [(e, c.nums[0] * (den // c.den)) for e, c in p.terms.items()]


def _integer_row(row) -> list:
    """A row of rational cyclotomics as ints, scaled by the lcm of their
    denominators."""
    den = math.lcm(*(c.den for c in row))
    return [c.nums[0] * (den // c.den) for c in row]


def _to_matrix(polys, monos=None):
    """Coefficient rows of homogeneous same-degree polynomials."""
    if monos is None:
        deg = max(p.total_degree() for p in polys)
        monos = _monomials(polys[0].vars, deg)
    return [[p.coefficient(e) for e in monos] for p in polys]


def kernel(images) -> list:
    """Kernel basis of the map sending candidate j to images[j], a dict
    {row key: int or Fraction} (absent keys are zero): one `linalg.nullspace`
    call, on the fraction-free path.  Its reduced form does not depend on
    the row order, so neither do the vectors: one per free candidate, 1
    there and 0 at the other free candidates."""
    index = {}
    for image in images:
        for key in image:
            index.setdefault(key, len(index))
    rows = [[0] * len(images) for _ in index]
    for j, image in enumerate(images):
        for key, v in image.items():
            rows[index[key]][j] = v
    return linalg.nullspace(rows, ncols=len(images))


def derivative_along(poly: MPoly, eta, k: int) -> dict:
    """D_eta^k poly as {exponent: int or Fraction}, for rational
    coefficients and D_eta = sum_i eta_i d/ds_i over the last len(eta)
    variables (a leading s0 marker is not differentiated); applied k times
    to the integer numerators, and {} at once when k exceeds the degree."""
    if k > poly.total_degree():
        return {}
    shift = len(poly.vars) - len(eta)
    form = [(i + shift, a) for i, a in enumerate(eta) if a]
    den = math.lcm(*(c.den for c in poly.terms.values()))
    terms = dict(_integer_terms(poly))
    for _ in range(k):
        out = {}
        for e, c in terms.items():
            for i, a in form:
                if e[i]:
                    de = (*e[:i], e[i] - 1, *e[i + 1:])
                    out[de] = out.get(de, 0) + c * a * e[i]
        terms = {e: v for e, v in out.items() if v}
    return terms if den == 1 else {e: Fraction(v, den)
                                   for e, v in terms.items()}


# ---------------------------------------------------------------------------
# products of linear forms
# ---------------------------------------------------------------------------

def p_linear(g: GElement, vars) -> MPoly:
    """Linear form of the free part of g (zero on a leading s0)."""
    coeffs = list(g.free)
    if len(vars) == len(coeffs) + 1:      # leading s0 present
        coeffs = [0] + coeffs
    return MPoly.linear_form(vars, coeffs)


def p_product(x: GList, indices, vars=None) -> MPoly:
    """prod over Y of the free-part linear forms (`p_linear`); empty
    product = 1.

    The integer forms are multiplied out in ints, term by term as `MPoly`
    multiplication would, and the result is wrapped as an `MPoly` once."""
    vars = vars or s_vars(x.group.free_rank)
    nv = len(vars)
    shift = int(nv == x.group.free_rank + 1)      # leading s0 present
    terms = {(0,) * nv: 1}
    for i in indices:
        form = [(k + shift, c) for k, c in enumerate(x.elems[i].free) if c]
        grown = {}
        for e1, c1 in terms.items():
            for k, c2 in form:
                e = (*e1[:k], e1[k] + 1, *e1[k + 1:])
                cur = grown.get(e)
                s = c1 * c2 if cur is None else cur + c1 * c2
                if s:
                    grown[e] = s
                elif cur is not None:
                    del grown[e]
        terms = grown
        if not terms:
            break
    return MPoly(vars, terms)


# ---------------------------------------------------------------------------
# the central space and the cocircuit ideal
# ---------------------------------------------------------------------------

def p_basis(x: GList, vars=None) -> GradedSpan:
    """Homogeneous basis {Q_B = p_{X \\ (B u E(B))}} indexed by bases."""
    x.require_full_rank()
    vars = vars or s_vars(x.group.free_rank)
    out = []
    for b in bases(x):
        drop = set(b) | set(external_activity(x, b))
        out.append(p_product(x, [i for i in range(len(x)) if i not in drop],
                             vars))
    out.sort(key=poly_sort_key)
    return GradedSpan(out, vars)


def poly_sort_key(p: MPoly):
    return (p.total_degree(),
            [(e, c.order, c.coeffs) for e, c in p.sorted_terms()])


def cocircuit_gens(x: GList, degree: int, vars=None) -> list:
    """Spanning set of the degree slice of the cocircuit ideal."""
    if degree < 0:
        raise ValueError(f"cocircuit_gens needs a degree >= 0, got {degree}")
    vars = vars or s_vars(x.group.free_rank)
    return _ideal_gens(x, cocircuits(x), degree, vars)


def _ideal_gens(x: GList, cocs, degree: int, vars) -> list:
    """p_C times every monomial of degree - |C|, over the cocircuits C in
    cocs that fit."""
    out = []
    for c in cocs:
        if len(c) > degree:
            continue
        pc = p_product(x, c, vars)
        if not pc:
            continue
        for mono in _monomials(vars, degree - len(c)):
            out.append(pc * MPoly(vars, {mono: Cyclotomic.one()}))
    return out


class PsiProjector:
    """Degreewise projection Sym(U) = P(X) + J(X) -> P(X).

    Per degree the decomposition is factored once as an integer linear
    system, kept as int numerators over one denominator.  A cyclotomic
    input is projected one power-basis slot at a time, in integers, so the
    elimination stays over Q.  The cocircuits are found once, when the
    projector is built, and every degree's ideal generators come from them.
    """

    def __init__(self, x: GList, vars=None):
        x.require_full_rank()
        self.x = x
        self.vars = vars or s_vars(x.group.free_rank)
        self.pspan = p_basis(x, self.vars)
        self.top = len(x) - rank_of(x, range(len(x)))
        self._cocircuits = cocircuits(x)
        self._solvers = {}

    def _solver(self, degree):
        """(index, pcols, rows, den): the P part of one solution of
        [P | J] y = b is G b for every b, with P and J scaled to integer
        columns.  [P | J] spans the degree slice, so one elimination
        against the identity gives G.

        index maps each monomial of the degree to its row, pcols holds each
        integer P column as (monomial, int) pairs, and G is rows / den: one
        tuple of int numerators per P column over one positive den."""
        if degree in self._solvers:
            return self._solvers[degree]
        monos = _monomials(self.vars, degree)
        index = {e: i for i, e in enumerate(monos)}
        pcols = self.pspan.by_degree(degree)
        cols = [_integer_terms(c) for c in pcols + _ideal_gens(
            self.x, self._cocircuits, degree, self.vars)]
        mat = [[0] * len(cols) for _ in monos]
        for k, col in enumerate(cols):
            for e, v in col:
                mat[index[e]][k] = v
        inv = linalg.solve(mat, linalg.identity(len(monos), 1, 0))
        if inv is None:
            raise InternalError(f"P(X) + J(X) does not span degree {degree}")
        g = inv[:len(pcols)]
        den = math.lcm(*(q.denominator for row in g for q in row))
        rows = [tuple(q.numerator * (den // q.denominator) for q in row)
                for row in g]
        self._solvers[degree] = (index, cols[:len(pcols)], rows, den)
        return self._solvers[degree]

    def project_poly(self, f: MPoly) -> MPoly:
        """psi_X(f), degree by degree.

        Each P-basis coefficient is one integer dot product per power-basis
        slot of the embedded input.  The coefficients are then summed into
        the output slot by slot, column by column, and each output term
        keeps the order of the sum zeta^j * coefficient * column taken in
        that sequence: the lcm of the reduced orders of zeta^j over the
        summands since the term last summed to zero."""
        parts = {}
        for e, c in f.terms.items():
            parts.setdefault(sum(e), []).append((e, c))
        terms = {}
        for deg in sorted(parts):
            if deg > self.top:
                continue
            index, pcols, rows, gden = self._solver(deg)
            part = parts[deg]
            order = math.lcm(*(c.order for _, c in part))
            den = math.lcm(*(c.den for _, c in part))
            rhs = [(index[e], c.embed(order).nums, den // c.den)
                   for e, c in part]
            phi = euler_phi(order)
            slots = [[(i, v[j] * s) for i, v, s in rhs if v[j]]
                     for j in range(phi)]
            coefs = [[sum([g[i] * v for i, v in slot]) for slot in slots]
                     for g in rows]
            # monomial -> [slot numerators, count of nonzero slots, order]
            live = {}
            for j in range(phi):
                oj = order // math.gcd(j, order)
                for a, col in zip(coefs, pcols):
                    a = a[j]
                    if not a:
                        continue
                    for e, p in col:
                        term = live.get(e)
                        if term is None:
                            vec = [0] * phi
                            vec[j] = p * a
                            live[e] = [vec, 1, oj]
                            continue
                        vec = term[0]
                        before = vec[j]
                        vec[j] = after = before + p * a
                        if not after:
                            term[1] -= 1
                            if not term[1]:
                                del live[e]
                                continue
                        elif not before:
                            term[1] += 1
                        if term[2] % oj:
                            term[2] = math.lcm(term[2], oj)
            for e, (vec, _, m) in live.items():
                step = order // m
                terms[e] = Cyclotomic.from_powers(
                    m, [vec[t * step] if t * step < phi else 0
                        for t in range(euler_phi(m))], gden * den)
        out = MPoly.__new__(MPoly)
        out.vars, out.terms = self.vars, terms
        return out

    def __call__(self, f) -> MPoly:
        if isinstance(f, TruncatedSeries):
            if f.cap < self.top:
                raise ValueError(
                    f"series cap {f.cap} below top degree {self.top}")
            return self.project_poly(f.body)
        return self.project_poly(f)


# ---------------------------------------------------------------------------
# D(X) and the pairing
# ---------------------------------------------------------------------------

def d_basis(x: GList, vars=None) -> GradedSpan:
    """D(X): the kernel of the cocircuit operators p_C(D), one `kernel`
    per degree over the monomials t^e, each with images
    sum_a c_a (e)_a t^(e-a) (falling factorials) keyed by (cocircuit,
    monomial).  Raises InternalError unless dim D(X) = T(1, 1)."""
    x.require_full_rank()
    vars = vars or t_vars(x.group.free_rank)
    gens = [p_product(x, c, vars) for c in cocircuits(x)]
    out = []
    for deg in range(len(x) - x.group.free_rank + 1):
        monos = _monomials(vars, deg)
        images = []
        for e in monos:
            image = {}
            for k, g in enumerate(gens):
                for a, c in g.terms.items():
                    f = math.prod(map(math.perm, e, a))
                    if f:
                        image[k, tuple(map(sub, e, a))] = c.to_rational() * f
            images.append(image)
        out += [MPoly(vars, {e: c for e, c in zip(monos, vec) if c})
                for vec in kernel(images)]
    span = GradedSpan(out, vars)
    expected = tutte(x).evaluate(1, 1)
    if span.dim != expected:
        raise InternalError(
            f"dim D(X) = {span.dim} but Tutte(1,1) = {expected}")
    return span


def pair(p: MPoly, f: MPoly) -> Cyclotomic:
    """<p, f> = (p(D) f)(0): differentiate and take the constant term."""
    total = Cyclotomic.zero()
    for e, c in p.terms.items():
        fc = f.terms.get(e)
        if fc is None:
            continue
        mult = 1
        for k in e:
            for j in range(1, k + 1):
                mult *= j
        total = total + c * fc * mult
    return total


# ---------------------------------------------------------------------------
# the internal space
# ---------------------------------------------------------------------------

def internal_p_basis(x: GList, vars=None) -> GradedSpan:
    """P_-(X): the part of P(X) killed by D_eta^(m(H)-1) for every
    hyperplane H (normal eta, m(H) columns off H; Holtz-Ron), one `kernel`
    per degree over the `p_basis` elements, keyed by (hyperplane,
    monomial).  A coloop is off a hyperplane with m(H) = 1, so P_-(X) = 0.
    Raises InternalError unless dim P_-(X) = T(0, 1)."""
    x.require_full_rank()
    vars = vars or s_vars(x.group.free_rank)
    planes = [(eta, len(x) - len(flat) - 1)
              for eta, flat in hyperplane_flats(x).items()]
    by_degree = {}
    for p in p_basis(x, vars).basis:
        by_degree.setdefault(p.total_degree(), []).append(p)
    out = []
    for polys in by_degree.values():
        images = [{(eta, e): v for eta, k in planes
                   for e, v in derivative_along(p, eta, k).items()}
                  for p in polys]
        out += [sum((p * c for c, p in zip(vec, polys) if c), MPoly(vars))
                for vec in kernel(images)]
    span = GradedSpan(out, vars)
    expected = tutte(x).evaluate(0, 1)
    if span.dim != expected:
        raise InternalError(
            f"dim P_-(X) = {span.dim} but Tutte(0,1) = {expected}")
    return span
