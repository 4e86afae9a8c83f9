"""Continuous zonotopal spaces: P(X), P_-(X), D(X), the cocircuit ideal,
the projection psi_X along it, and the differential pairing.

All span computations are exact Gaussian eliminations with deterministic
pivoting; degree slices are handled independently (each space here is graded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .abelian import GElement, GList, rank_of
from .errors import InternalError
from .matroid import bases, cocircuits, external_activity, tutte
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


def _to_matrix(polys, monos=None):
    """Coefficient rows of homogeneous same-degree polynomials."""
    if monos is None:
        deg = max(p.total_degree() for p in polys)
        monos = _monomials(polys[0].vars, deg)
    return [[p.coefficient(e) for e in monos] for p in polys]


# ---------------------------------------------------------------------------
# products of linear forms
# ---------------------------------------------------------------------------

def p_linear(g: GElement, vars) -> MPoly:
    """Linear form of the free part of g (zero on a leading s0)."""
    coeffs = [Fraction(v) for v in g.free]
    if len(vars) == len(coeffs) + 1:      # leading s0 present
        coeffs = [Fraction(0)] + coeffs
    return MPoly.linear_form(vars, coeffs)


def p_product(x: GList, indices, vars=None) -> MPoly:
    """prod over Y of the free-part linear forms; empty product = 1."""
    vars = vars or s_vars(x.group.free_rank)
    out = MPoly.constant(vars, 1)
    for i in indices:
        out = out * p_linear(x.elems[i], vars)
        if not out:
            break
    return out


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

    Per degree the decomposition is factored once as a rational linear
    system; cyclotomic inputs are split into power-basis components so the
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
        """(monomials, P columns, G): the P part of one solution of
        [P | J] y = b is G b for every b.  [P | J] spans the degree slice, so
        one elimination against the identity gives G."""
        if degree in self._solvers:
            return self._solvers[degree]
        monos = _monomials(self.vars, degree)
        pcols = self.pspan.by_degree(degree)
        cols = pcols + _ideal_gens(self.x, self._cocircuits, degree,
                                   self.vars)
        mat = [[c.coefficient(e).to_rational() for c in cols] for e in monos]
        inv = linalg.solve(mat, linalg.identity(len(monos)))
        if inv is None:
            raise InternalError(f"P(X) + J(X) does not span degree {degree}")
        self._solvers[degree] = (monos, pcols, inv[:len(pcols)])
        return self._solvers[degree]

    def project_poly(self, f: MPoly) -> MPoly:
        out = MPoly(self.vars)
        for deg, slice_ in f.slices().items():
            if deg > self.top:
                continue
            monos, pcols, g = self._solver(deg)
            rhs_cyc = [slice_.coefficient(e) for e in monos]
            order = math.lcm(*(c.order for c in rhs_cyc))
            rhs = [c.embed(order).coeffs for c in rhs_cyc]
            proj = MPoly(self.vars)
            for j in range(euler_phi(order)):
                comp = [(i, c[j]) for i, c in enumerate(rhs)]
                comp = [(i, v) for i, v in comp if v]
                if not comp:
                    continue
                unit = Cyclotomic.root_of_unity(order, j) if j \
                    else Cyclotomic.one()
                for col, grow in zip(pcols, g):
                    coef = sum(grow[i] * v for i, v in comp)
                    if coef:
                        proj = proj + col * (unit * coef)
            out = out + proj
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
    """Degreewise kernel of the cocircuit differential operators."""
    x.require_full_rank()
    vars = vars or t_vars(x.group.free_rank)
    svars = s_vars(x.group.free_rank)
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
        low_monos = {}
        for cand in cands:
            row = []
            for g in gens:
                img = g.apply_diff(cand)
                key = g.total_degree()
                lm = low_monos.setdefault(
                    (key, deg), _monomials(vars, deg - key) if deg >= key else [])
                row.extend(img.coefficient(e).to_rational() for e in lm)
            rows.append(row)
        # nullspace of the map candidate -> constraint values
        mat = [list(col) for col in zip(*rows)] if rows and rows[0] else []
        for vec in linalg.nullspace(mat, ncols=len(cands)):
            poly = MPoly(vars)
            for c, cand in zip(vec, cands):
                if c:
                    poly = poly + cand * c
            out.append(poly)
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
    """P_-(X): intersection of the P(X \\ x) over full-rank deletions.

    Deletions that drop the rank are excluded from the intersection (the
    defining formula leaves them undefined); the case never occurs for the
    lists the identities are asserted on.
    """
    vars = vars or s_vars(x.group.free_rank)
    x.require_full_rank()
    d = x.group.free_rank
    spans = []
    skipped = 0
    for i in range(len(x)):
        rest = x.delete(i)
        if rank_of(rest, range(len(rest))) < d:
            skipped += 1
            continue
        spans.append(p_basis(rest, vars))
    if not spans:
        return GradedSpan([], vars)
    top = min(max((p.total_degree() for p in s.basis), default=0)
              for s in spans)
    out = []
    for deg in range(top + 1):
        monos = _monomials(vars, deg)
        current = None
        for s in spans:
            rows = [[p.coefficient(e).to_rational() for e in monos]
                    for p in s.by_degree(deg)]
            current = rows if current is None else \
                linalg.intersect_spans(current, rows)
            if not current:
                break
        for vec in current or []:
            out.append(MPoly(vars, dict(zip(monos, vec))))
    return GradedSpan(out, vars)
