"""Periodic P-spaces, DM(X), periodic Todd projections, and the dualities.

A PeriodicPoly assigns a polynomial (in s-variables, plus a degree marker s0
for torsion) to each vertex of the toric arrangement; a QuasiFunction does
the same with t-polynomials and is evaluated on the lattice as
sum_phi e_phi(lambda) f_phi(lambda).

f~_z, the psi_X-projection of the periodic Todd operator, needs the Todd
series only up to psi_X's top degree n - d; one vertex enumeration serves
the series and the projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .abelian import GList, contract, rank_of, snf
from .errors import (InternalError, NonMember, SingularGram,
                     TorsionPivot, TorsionUnsupported)
from .geometry import hyperplanes
from .matroid import arithmetic_tutte, bases, external_activity
from .polyspace import PsiProjector, d_basis, p_linear, p_product, pair
from .scalar import (Cyclotomic, MPoly, TruncatedSeries, divide_by_linear,
                     exp_series, s_vars, t_vars, todd_log)
from .toric import Character, evaluate, evaluate_point, vertices

_F0 = Fraction(0)


def _pper_vars(x: GList):
    need_s0 = bool(x.group.invariants)
    return s_vars(x.group.free_rank, with_s0=need_s0)


class _CharacterSum:
    """sum over characters of e_phi * (body), as (Character, body) pairs.

    Characters within one value are distinct and kept sorted.  A body is an
    MPoly, dropped when zero, or a TruncatedSeries, which is always kept so
    that a Todd operator has a component at every vertex.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        merged = {}
        for char, poly in (terms or []):
            if poly.vars != self.vars:
                raise ValueError(
                    f"variable mismatch: {poly.vars} vs {self.vars}")
            merged[char] = merged[char] + poly if char in merged else poly
        self.terms = tuple(sorted((c, p) for c, p in merged.items() if p))

    def __add__(self, other):
        return type(self)(self.vars, self.terms + other.terms)

    def scale(self, c):
        return type(self)(self.vars, [(ch, p * c) for ch, p in self.terms])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def component(self, char: Character):
        """The body at char; the zero polynomial if there is none."""
        for c, p in self.terms:
            if c == char:
                return p
        return MPoly(self.vars)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for char, poly in self.terms:
            if char.is_trivial():
                bits.append(f"{poly!r}")
            else:
                bits.append(f"{char!r}*({poly!r})")
        return " + ".join(bits)

    def to_json(self):
        return [{"character": c.to_json(), "poly": p.to_json()}
                for c, p in self.terms]


class PeriodicPoly(_CharacterSum):
    """sum over vertices of e_phi * (polynomial in s0, s1..sd)."""

    __slots__ = ("_hash",)

    def __hash__(self):
        """Equal values hash equal: the terms are merged by character and
        sorted, an MPoly hashes its terms in sorted order, and a Cyclotomic
        hashes the same at every order it is embedded in.  The hash covers
        the coefficients, so the f~_z of one list at different z differ.
        Computed once and kept, as the value does not change."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.vars, self.terms))
            return self._hash

    @staticmethod
    def one(x: GList) -> "PeriodicPoly":
        vars = _pper_vars(x)
        return PeriodicPoly(vars, [(Character.trivial(x.group),
                                    MPoly.constant(vars, 1))])

    @staticmethod
    def single(vars, char: Character, poly: MPoly) -> "PeriodicPoly":
        return PeriodicPoly(vars, [(char, poly)])

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def is_homogeneous(self):
        degs = {p.total_degree() for _, p in self.terms}
        return len(degs) <= 1

    def total_degree(self):
        return max((p.total_degree() for _, p in self.terms), default=-1)

    @staticmethod
    def from_json(vars, obj) -> "PeriodicPoly":
        return PeriodicPoly(vars, [(Character.from_json(t["character"]),
                                    MPoly.from_json(vars, t["poly"]))
                                   for t in obj])


class PeriodicSeries(_CharacterSum):
    """As PeriodicPoly with truncated series bodies."""

    __slots__ = ()


class QuasiFunction(_CharacterSum):
    """sum over vertices of e_phi * f_phi with f_phi a t-polynomial."""

    __slots__ = ()

    def evaluate_at(self, point) -> Cyclotomic:
        """Value at a lattice point: sum e_phi(point) * f_phi(point)."""
        total = Cyclotomic.zero()
        for char, poly in self.terms:
            total = total + evaluate_point(char, point) * poly.evaluate(point)
        return total


# ---------------------------------------------------------------------------
# bases of the periodic spaces and of DM
# ---------------------------------------------------------------------------

def pper_basis(x: GList) -> list:
    """Homogeneous basis: e_phi s0^tors(phi) p_{X \\ (B u (E(B) cap X_phi) u X_t)}
    over vertices phi and bases B of X_phi."""
    x.require_full_rank()
    vars = _pper_vars(x)
    tors = set(x.torsion_indices())
    out = []
    for v in vertices(x):
        sub = x.sublist(v.x_phi)
        if rank_of(sub, range(len(sub))) != x.group.free_rank:
            raise InternalError("vertex sublist does not span")
        phi_bases = [frozenset(v.x_phi[i] for i in b) for b in bases(sub)]
        for b in sorted(phi_bases, key=sorted):
            ext = external_activity(x, b)
            drop = set(b) | (ext & set(v.x_phi)) | tors
            poly = p_product(x, [i for i in range(len(x)) if i not in drop],
                             vars)
            if "s0" in vars and v.tors_count:
                e0 = [0] * len(vars)
                e0[vars.index("s0")] = v.tors_count
                poly = poly * MPoly(vars, {tuple(e0): Cyclotomic.one()})
            out.append((v.character, poly))
    return [PeriodicPoly.single(vars, c, p) for c, p in out]


def dm_basis(x: GList) -> list:
    """DM(X) = sum over vertices of e_phi * D(X_phi), lattices only."""
    if x.group.invariants:
        raise TorsionUnsupported("DM(X) is defined over lattices")
    x.require_full_rank()
    vars = t_vars(x.group.free_rank)
    out = []
    for v in vertices(x):
        sub = x.sublist(v.x_phi)
        for f in d_basis(sub, vars).basis:
            out.append(QuasiFunction(vars, [(v.character, f)]))
    expected = arithmetic_tutte(x).evaluate(1, 1)
    if len(out) != expected:
        raise InternalError(
            f"dim DM = {len(out)} but arithmetic Tutte(1,1) = {expected}")
    return out


# ---------------------------------------------------------------------------
# periodic Todd operators and their projections
# ---------------------------------------------------------------------------

def periodic_todd(x: GList, z, cap: int | None = None, verts=None):
    """sum_phi e_phi e_phi(-z) e^{-p_z} prod_x p_x / (1 - e_phi(-x) e^{-p_x}).

    ``z`` is a group element, or a tuple of them; the return mirrors it.
    Torsion elements use the marker variable s0 as their linear form when the
    vertex moves them (e_phi(x) != 1) and contribute a factor 1 otherwise.
    The default cap is n - d + 1.  ``verts`` are the toric vertices of x when
    the caller has them already.

    Each factor is lead * p_x^v * exp(log), with v = 1 exactly when the
    vertex moves x (`scalar.todd_log`).  So a vertex component is
    e_phi(-z) * lead_phi * p_{X \\ X_phi} * exp(L_phi - p_z), where lead_phi
    is the product of the leads and L_phi the sum of the logs, both built
    once per vertex; per z it costs one exp, to the cap less the degree r
    of the prefactor, and one product.  A vertex with r > cap keeps a zero
    series.
    """
    if cap is None:
        cap = max(len(x) - x.group.free_rank + 1, 0)
    vars = _pper_vars(x)
    s0_form = MPoly.variable(vars, 0) if "s0" in vars else None
    parts = []
    for v in vertices(x) if verts is None else verts:
        lead, log = Cyclotomic.one(), MPoly(vars)
        prefactor = MPoly.constant(vars, 1)
        for elem in x.elems:
            c = evaluate(v.character, -elem)
            form = p_linear(elem, vars)
            if not form:
                if c.is_one():
                    continue          # torsion fixed by the vertex: factor 1
                form = s0_form
            a, moved, l = todd_log(form, c, cap)
            lead, log = lead * a, log + l
            if moved:
                prefactor = prefactor * form
        parts.append((v.character, lead, log, prefactor,
                      cap - prefactor.total_degree()))
    out = []
    for zi in z if isinstance(z, tuple) else (z,):
        pz = p_linear(zi, vars)
        terms = []
        for char, lead, log, prefactor, room in parts:
            body = MPoly(vars)
            if room >= 0:
                body = exp_series(log - pz, room).body \
                    * (evaluate(char, -zi) * lead) * prefactor
            terms.append((char, TruncatedSeries(body, cap)))
        out.append(PeriodicSeries(vars, terms))
    return tuple(out) if isinstance(z, tuple) else out[0]


def f_tilde(x: GList, z, cap: int | None = None):
    """Projection of the periodic Todd operator into Pper(X).

    ``z`` is a group element, or a tuple of them; the return mirrors it.
    Each vertex component is projected by psi_X of the full list; the result
    is checked divisible by the prefactor p_{X \\ X_phi} (hard failure
    otherwise: it would indicate a truncation-cap bug).

    psi_X keeps no degree above its top degree n - d, so the Todd series is
    truncated there; an explicit ``cap`` above it changes nothing, and one
    below it is a ValueError.
    """
    if x.group.invariants:
        raise TorsionUnsupported(
            "the Todd projection is defined over lattices")
    x.require_full_rank()
    if isinstance(z, tuple):
        return _f_tilde_many(x, z, cap)
    return _f_tilde_many(x, (z,), cap)[0]


def _f_tilde_many(x: GList, zs: tuple, cap) -> tuple:
    """f_tilde at each z of zs.  psi_X, the vertices and each vertex's lead,
    Todd log and prefactor are built once for all of zs: `periodic_todd`
    takes the tuple, and each z then costs one exp per vertex."""
    if not zs:
        return ()
    vars = _pper_vars(x)
    psi = PsiProjector(x, vars)
    cap = psi.top if cap is None else min(cap, psi.top)
    verts = vertices(x)
    prefactors = [(v.character,
                   [p_linear(x.elems[i], vars) for i in range(len(x))
                    if i not in v.x_phi]) for v in verts]
    out = []
    for todd in periodic_todd(x, zs, cap, verts):
        terms = []
        for char, prefactor in prefactors:
            proj = psi(todd.component(char))
            if proj:
                rem = proj
                for form in prefactor:
                    rem = divide_by_linear(rem, form)
                terms.append((char, proj))
        out.append(PeriodicPoly(vars, terms))
    return tuple(out)


# ---------------------------------------------------------------------------
# the internal space
# ---------------------------------------------------------------------------

def pper_internal_basis(x: GList) -> list:
    """Kernel of the wall constraints inside span(pper_basis), degreewise.

    For each generalised hyperplane H (the admissible hyperplane plus the
    torsion): group the vertices by the restriction of their character to
    the subgroup H; within each class the sum of D_eta^(m(H)-1) applied to
    the polynomial components must vanish.
    """
    x.require_full_rank()
    vars = _pper_vars(x)
    basis = pper_basis(x)
    verts = vertices(x)
    planes = [(_restriction_classes(verts, hp.normal),
               _eta_power(hp.normal, hp.mult - 1, vars))
              for hp in hyperplanes(x)]
    by_degree = {}
    for b in basis:
        by_degree.setdefault(b.total_degree(), []).append(b)
    out = []
    for deg in sorted(by_degree):
        elems = by_degree[deg]
        rows = []      # one row per (hyperplane, class, output monomial)
        for classes, op in planes:
            for cls in classes:
                cols = []
                for b in elems:
                    total = MPoly(vars)
                    for char, poly in b.terms:
                        if char in cls:
                            total = total + op.apply_diff(poly)
                    cols.append(total)
                monos = sorted({e for c in cols for e in c.terms})
                for e in monos:
                    rows.append([c.coefficient(e) for c in cols])
        if rows:
            null = linalg.nullspace(rows, ncols=len(elems),
                                    one=Cyclotomic.one(),
                                    zero=Cyclotomic.zero())
        else:
            null = [[Cyclotomic.one() if i == j else Cyclotomic.zero()
                     for j in range(len(elems))] for i in range(len(elems))]
        for vec in null:
            combo = None
            for c, b in zip(vec, elems):
                if c:
                    term = b.scale(c)
                    combo = term if combo is None else combo + term
            if combo:
                out.append(combo)
    return out


def _restriction_classes(verts, eta):
    """Vertex characters grouped by equal restriction to the subgroup
    {v : eta . v = 0} of the free part plus the torsion."""
    # columns 2..d of V span the integer kernel of the 1 x d matrix [eta]
    _, _, v_snf = snf([list(eta)])
    sat_basis = [[row[j] for row in v_snf] for j in range(1, len(eta))]
    groups = {}
    for v in verts:
        key = []
        for gen in sat_basis:
            angle = sum((t * g for t, g in zip(v.character.theta, gen)),
                        _F0) % 1
            key.append(angle)
        key.extend(v.character.tors)   # torsion generators are in H
        groups.setdefault(tuple(key), set()).add(v.character)
    return list(groups.values())


def _eta_power(eta, order: int, vars) -> MPoly:
    """The operator D_eta^order as a polynomial; a leading s0 (a pure degree
    marker) gets coefficient 0."""
    form = MPoly.linear_form(vars, [0] * (len(vars) - len(eta)) + list(eta))
    return math.prod([form] * order, start=MPoly.constant(vars, 1))


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

def hilbert(space: list) -> list:
    """Hilbert series coefficients (grading: total degree incl. s0)."""
    by_degree = {}
    for p in space:
        if not p.is_homogeneous():
            raise ValueError("hilbert requires a homogeneous-by-degree list")
        by_degree.setdefault(max(p.total_degree(), 0), []).append(p)
    top = max(by_degree, default=-1)
    out = [0] * (top + 1)
    for deg, elems in by_degree.items():
        out[deg] = _periodic_rank(elems)
    return out


def _periodic_rank(elems) -> int:
    chars = sorted({c for p in elems for c, _ in p.terms})
    monos = sorted({e for p in elems for _, poly in p.terms
                    for e in poly.terms})
    return linalg.rank([[p.component(c).coefficient(e)
                         for c in chars for e in monos] for p in elems])


# ---------------------------------------------------------------------------
# pairing with DM and the duality map L
# ---------------------------------------------------------------------------

def pper_decompose(x: GList, p: PeriodicPoly):
    """Write each phi-component as p_{X \\ X_phi} * q_phi (exact division)."""
    verts = {v.character: v for v in vertices(x)}
    out = []
    for char, poly in p.terms:
        v = verts.get(char)
        if v is None:
            raise NonMember(f"character {char} is not a vertex")
        q = poly
        for i in range(len(x)):
            if i not in v.x_phi:
                q = divide_by_linear(q, p_linear(x.elems[i], p.vars))
        out.append((v, q))
    return out


def pair_pper_dm(x: GList, p: PeriodicPoly, f: QuasiFunction) -> Cyclotomic:
    """<p, f> = sum_phi <q_phi, f_phi> after stripping the prefactors."""
    if x.group.invariants:
        raise TorsionUnsupported("the DM pairing is defined over lattices")
    comps = {v.character: q for v, q in pper_decompose(x, p)}
    total = Cyclotomic.zero()
    for char, fpoly in f.terms:
        q = comps.get(char)
        if q is None:
            continue
        total = total + pair(q, fpoly)
    return total


@dataclass
class LClass:
    """A functional on DM(X) as coefficients over the points Z(X, w)."""

    support: tuple              # lattice points, sorted
    coeffs: tuple               # Cyclotomic per point

    def apply(self, f: QuasiFunction) -> Cyclotomic:
        total = Cyclotomic.zero()
        for pt, c in zip(self.support, self.coeffs):
            total = total + c * f.evaluate_at(pt)
        return total

    def to_json(self):
        return [{"point": list(pt), "coeff": c.to_json()}
                for pt, c in zip(self.support, self.coeffs)]


def l_map(x: GList, p: PeriodicPoly, w) -> LClass:
    """Duality-based computation of the isomorphism onto C[Lambda]/ideal.

    Solves sum_{lambda} c_lambda f(lambda) = <p, f> over all DM basis
    elements; the evaluation matrix is invertible for affine regular w.
    """
    from .geometry import lattice_points

    if x.group.invariants:
        raise TorsionUnsupported("l_map is defined over lattices")
    points = lattice_points(x, "shifted", w=w)
    basis = dm_basis(x)
    if len(points) != len(basis):
        raise SingularGram(
            f"|Z(X,w)| = {len(points)} != dim DM = {len(basis)}; "
            "w is not affine regular")
    # one elimination of [mat | rhs]: a pivot in every point column means
    # mat is invertible, and the last column is then the solution
    n = len(points)
    red, pivots = linalg.rref([[f.evaluate_at(pt) for pt in points]
                               + [pair_pper_dm(x, p, f)] for f in basis])
    if pivots[:n] != list(range(n)):
        raise SingularGram("evaluation matrix singular; retry with fresh w")
    return LClass(support=tuple(points), coeffs=tuple(row[n] for row in red))


# ---------------------------------------------------------------------------
# deletion / contraction maps
# ---------------------------------------------------------------------------

def pper_mult(x: GList, i: int, p: PeriodicPoly) -> PeriodicPoly:
    """Multiplication map Pper(X \\ x_i) -> Pper(X) by the linear form of x_i."""
    if x.elems[i].is_torsion():
        raise TorsionPivot("multiplication pivot must be non-torsion")
    vars = _pper_vars(x)
    form = p_linear(x.elems[i], vars)
    terms = []
    for char, poly in p.terms:
        lifted = _change_vars(poly, vars)
        terms.append((char, lifted * form))
    return PeriodicPoly(vars, terms)


def _change_vars(poly: MPoly, vars) -> MPoly:
    if poly.vars == tuple(vars):
        return poly
    # same variables up to the presence of the s0 marker
    old = poly.vars
    mapping = []
    for v in old:
        mapping.append(vars.index(v) if v in vars else None)
    terms = {}
    for e, c in poly.terms.items():
        ne = [0] * len(vars)
        for j, k in enumerate(e):
            if k:
                if mapping[j] is None:
                    raise ValueError(f"variable {old[j]} absent from {vars}")
                ne[mapping[j]] = k
        terms[tuple(ne)] = c
    return MPoly(vars, terms)


def pper_project(x: GList, i: int, p: PeriodicPoly) -> PeriodicPoly:
    """Projection map Pper(X) -> Pper(X/x_i).

    Components whose character moves x_i die; the rest are pushed through
    the quotient descriptor, with prefactor elements that become torsion
    converted into s0 markers.
    """
    if x.elems[i].is_torsion():
        raise TorsionPivot("projection pivot must be non-torsion")
    quotient, qm = contract(x, i)
    tvars = _pper_vars(quotient)
    verts = {v.character: v for v in vertices(x)}
    svars = _pper_vars(x)
    # images of the source s-variables in the quotient's s-variables
    d_src = x.group.free_rank
    images = []
    if "s0" in svars:
        images.append(MPoly(tvars))     # s0 of the source has no image; see below
    free_rows = [row for row, m in zip(qm.matrix, qm.moduli) if m == 0]
    for j in range(d_src):
        coeffs = [Fraction(row[j]) for row in free_rows]
        if "s0" in tvars:
            coeffs = [_F0] + coeffs
        images.append(MPoly.linear_form(tvars, coeffs))
    tors_set = set(x.torsion_indices())
    out_terms = []
    for char, poly in p.terms:
        v = verts.get(char)
        if v is None:
            raise NonMember(f"character {char} is not a vertex")
        if not evaluate(char, x.elems[i]).is_one():
            continue
        # decompose: strip the full prefactor (non-X_phi, non-torsion part)
        pre_idx = [j for j in range(len(x))
                   if j not in v.x_phi and j not in tors_set]
        q = poly
        for j in pre_idx:
            q = divide_by_linear(q, p_linear(x.elems[j], svars))
        # s0 exponent of q is tors(phi), uniform per component; strip it
        s0_exp = 0
        if "s0" in svars:
            s0_pos = svars.index("s0")
            exps = {e[s0_pos] for e in q.terms}
            if len(exps) > 1:
                raise NonMember("mixed s0 exponents in one component")
            s0_exp = exps.pop() if exps else 0
            stripped = {}
            for e, c in q.terms.items():
                ne = list(e)
                ne[s0_pos] = 0
                stripped[tuple(ne)] = c
            q = MPoly(svars, stripped)
        # new character on the quotient
        new_char = _push_character(char, qm)
        # new prefactor: old prefactor elements that stay non-torsion
        surviving = []
        becoming_s0 = 0
        for j in pre_idx:
            jj = j if j < i else j - 1
            img = quotient.elems[jj]
            if img.is_torsion():
                becoming_s0 += 1
            else:
                surviving.append(jj)
        new_poly = p_product(quotient, surviving, tvars)
        qq = q.substitute(tvars, images)
        new_poly = new_poly * qq
        total_s0 = s0_exp + becoming_s0
        if total_s0:
            e0 = [0] * len(tvars)
            e0[tvars.index("s0")] = total_s0
            new_poly = new_poly * MPoly(tvars, {tuple(e0): Cyclotomic.one()})
        if new_poly:
            out_terms.append((new_char, new_poly))
    return PeriodicPoly(tvars, out_terms)


def _push_character(char: Character, qm) -> Character:
    """The character on G/<x> matching one fixing x.

    The functional of char evaluated on the section column of each new
    coordinate gives the new character data (the dropped SNF coordinates
    contribute integers, harmless mod 1).
    """
    func = list(char.theta) + list(char.tors)
    vals = [sum((f * s for f, s in zip(func, col)), _F0) % 1
            for col in qm.sections]
    k = qm.target.free_rank
    return Character(tuple(vals[:k]), tuple(vals[k:]))


def pper_membership(x: GList, p: PeriodicPoly) -> bool:
    """Is p in Pper(X)?  Divisibility by prefactors plus psi-invariance."""
    try:
        comps = pper_decompose(x, p)
    except NonMember:
        return False
    svars = _pper_vars(x)
    plain = s_vars(x.group.free_rank)
    for v, q in comps:
        if "s0" in svars:
            s0_pos = svars.index("s0")
            for e in q.terms:
                if e[s0_pos] != v.tors_count:
                    return False
            q = MPoly(plain, {tuple(e[:s0_pos] + e[s0_pos + 1:]): c
                              for e, c in q.terms.items()})
        else:
            q = _change_vars(q, plain)
        sub = x.sublist(v.x_phi)
        proj = PsiProjector(sub, plain)(q)
        if proj != q:
            return False
    return True
