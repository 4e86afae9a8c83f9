"""Periodic P-spaces, DM(X), periodic Todd projections, and the dualities.

A PeriodicPoly assigns a polynomial (in s-variables, plus a degree marker s0
for torsion) to each vertex of the toric arrangement; a QuasiFunction does
the same with t-polynomials and is evaluated on the lattice as
sum_phi e_phi(lambda) f_phi(lambda).

A component of Pper(X) has the normal form
e_phi s0^tors(phi) p_{X \\ X_phi \\ X_t} q_phi with q_phi in s1..sd:
`pper_basis` builds it, and `pper_decompose` alone takes it apart, for the
pairing, the membership test and the contraction map.

The Hilbert series of Pper(X) and of its internal space are the count per
degree of an independent basis (`hilbert`, from `polyspace`):
`pper_basis` is checked independent one character at a time when it is
built, and `pper_internal_basis` is independent by construction, as a
`polyspace.kernel` over rational rows.

f~_z, the psi_X-projection of the periodic Todd operator, needs the Todd
series only up to psi_X's top degree n - d.  The f~_z of one list share
psi_X, the vertices and the Todd parts, kept once per list value
(`GList.memo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
# rank_of stays bound here, unused: perfbench/selftest.py checks that the
# tracer patches this module's binding of it.
from .abelian import GList, contract, rank_of, snf  # noqa: F401
from .errors import (InternalError, NonMember, SingularGram,
                     TorsionPivot, TorsionUnsupported)
from .geometry import hyperplanes, lattice_points
from .matroid import arithmetic_tutte, bases, external_activity
from .polyspace import (GradedSpan, PsiProjector, d_basis, derivative_along,
                        hilbert, kernel, p_linear, p_product, pair)
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

    __slots__ = ("_form",)

    def evaluate_at(self, point) -> Cyclotomic:
        """Value at a point: sum e_phi(point) * f_phi(point).

        The value is declared in Q(zeta_m), m the lcm of the orders of the
        roots e_phi(point) and of the coefficients, and is the same at
        every kind of point.  At an integer point it is summed in integers
        (`_integer_form`); at any other point term by term.
        """
        if len(point) != len(self.vars):
            raise ValueError(f"a point of {self.vars} needs {len(self.vars)} "
                             f"coordinates, got {len(point)}")
        if not self.terms:
            return Cyclotomic.zero()
        if not all(type(v) is int for v in point):
            total = Cyclotomic.zero()
            for char, poly in self.terms:
                total = total + evaluate_point(char, point) \
                    * poly.evaluate(point)
            return total
        size, den, order, tops, exps, comps = self._integer_form()
        # u_i^k for k up to the top degree of t_i, then each monomial once
        pows = []
        for v, top in zip(point, tops):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * v)
            pows.append(row)
        vals = [math.prod(map(list.__getitem__, pows, e)) for e in exps]
        raw = [0] * size
        for angle, parts in comps:
            k = sum([a * v for a, v in zip(angle, point)]) % size
            order = math.lcm(order, size // math.gcd(k, size))
            for j, shift, c in parts:
                raw[(k + shift) % size] += c * vals[j]
        # every power of zeta_size used is a power of zeta_order
        return Cyclotomic.from_powers(order, raw[::size // order], den)

    def _integer_form(self) -> tuple:
        """(size, den, order, tops, exps, comps): this value in integers
        over the powers of zeta_size.

        size is the lcm of the characters' theta denominators and of the
        coefficients' orders, den the lcm of the coefficients'
        denominators, order the lcm of the coefficients' orders, tops the
        top degree of each variable and exps the distinct exponents.  comps
        holds, per character, its angle numerators theta * size and one
        (j, shift, c) per nonzero numerator of a coefficient: the
        character's polynomial is the sum of
        c * zeta_size^shift * (monomial exps[j]) / den.  Built once and
        kept, as the value does not change.
        """
        try:
            return self._form
        except AttributeError:
            pass
        size = den = order = 1
        for char, poly in self.terms:
            size = math.lcm(size, *[t.denominator for t in char.theta])
            for c in poly.terms.values():
                order = math.lcm(order, c.order)
                den = math.lcm(den, c.den)
        size = math.lcm(size, order)
        index = {}
        comps = tuple(
            (tuple(t.numerator * (size // t.denominator) for t in char.theta),
             tuple((index.setdefault(e, len(index)), i * (size // c.order),
                    v * (den // c.den))
                   for e, c in poly.terms.items()
                   for i, v in enumerate(c.nums) if v))
            for char, poly in self.terms)
        exps = tuple(index)
        self._form = (size, den, order, tuple(map(max, zip(*exps))), exps,
                      comps)
        return self._form


# ---------------------------------------------------------------------------
# bases of the periodic spaces and of DM
# ---------------------------------------------------------------------------

def pper_basis(x: GList) -> list:
    """Homogeneous basis: e_phi s0^tors(phi) p_{X \\ (B u (E(B) cap X_phi) u X_t)}
    over vertices phi and bases B of X_phi.

    The bases of X_phi are the bases of X inside X_phi, read from X's basis
    table (`matroid.bases`) in its lexicographic order; X_phi spans exactly
    when there is one.  Elements at distinct characters are independent,
    so the basis is checked one character at a time: each vertex's
    polynomials form a `GradedSpan`, which raises InternalError when they
    are dependent.
    """
    x.require_full_rank()
    vars = _pper_vars(x)
    tors = set(x.torsion_indices())
    x_bases = bases(x)
    out = []
    for v in vertices(x):
        phi = set(v.x_phi)
        phi_bases = [b for b in x_bases if b <= phi]
        if not phi_bases:
            raise InternalError("vertex sublist does not span")
        s0 = _s0_power(vars, v.tors_count)
        polys = []
        for b in phi_bases:
            ext = external_activity(x, b)
            drop = set(b) | (ext & phi) | tors
            polys.append(p_product(
                x, [i for i in range(len(x)) if i not in drop], vars) * s0)
        GradedSpan(polys, vars)  # InternalError when dependent
        out += [PeriodicPoly.single(vars, v.character, p) for p in polys]
    return out


def _s0_power(vars, k: int) -> MPoly:
    """s0^k, the degree marker of k torsion columns; 1 when k = 0."""
    e = [0] * len(vars)
    if k:
        e[vars.index("s0")] = k
    return MPoly(vars, {tuple(e): Cyclotomic.one()})


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

def periodic_todd(x: GList, z, cap: int | None = None) -> PeriodicSeries:
    """sum_phi e_phi e_phi(-z) e^{-p_z} prod_x p_x / (1 - e_phi(-x) e^{-p_x}).

    Torsion elements use the marker variable s0 as their linear form when the
    vertex moves them (e_phi(x) != 1) and contribute a factor 1 otherwise.
    The default cap is n - d + 1.

    Each factor is lead * p_x^v * exp(log), with v = 1 exactly when the
    vertex moves x (`scalar.todd_log`).  So a vertex component is
    e_phi(-z) * lead_phi * p_{X \\ X_phi} * exp(L_phi - p_z), where lead_phi
    is the product of the leads and L_phi the sum of the logs, kept once per
    list value and cap (`_todd_parts`); per z a vertex costs one exp, to the
    cap less the degree r of the prefactor, and one product.  A vertex with
    r > cap keeps a zero series.
    """
    if cap is None:
        cap = max(len(x) - x.group.free_rank + 1, 0)
    parts = x.memo(("todd_parts", cap), lambda x: _todd_parts(x, cap))
    vars = _pper_vars(x)
    pz = p_linear(z, vars)
    terms = []
    for char, lead, log, prefactor, room in parts:
        body = MPoly(vars)
        if room >= 0:
            body = exp_series(log - pz, room).body \
                * (evaluate(char, -z) * lead) * prefactor
        terms.append((char, TruncatedSeries(body, cap)))
    return PeriodicSeries(vars, terms)


def _todd_parts(x: GList, cap: int) -> tuple:
    """(character, lead, log, prefactor, room) per vertex: the parts of
    `periodic_todd` that do not depend on z, with room the cap less the
    prefactor's degree."""
    vars = _pper_vars(x)
    s0_form = MPoly.variable(vars, 0) if "s0" in vars else None
    elems = [(-elem, p_linear(elem, vars)) for elem in x.elems]
    parts = []
    for v in x.memo("vertices", vertices):
        lead, log = Cyclotomic.one(), MPoly(vars)
        prefactor = MPoly.constant(vars, 1)
        for neg, form in elems:
            c = evaluate(v.character, neg)
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
    return tuple(parts)


def f_tilde(x: GList, z) -> PeriodicPoly:
    """Projection of the periodic Todd operator at z into Pper(X).

    Each vertex component is projected by psi_X of the full list and must
    be divisible by its prefactor p_{X \\ X_phi} (`pper_decompose`).
    psi_X keeps no degree above its top degree n - d, so the Todd series is
    truncated there.

    psi_X, the vertices and the Todd parts are kept once per list value
    with every f~_z found (`GList.memo`), so a new z costs one exp and one
    projection per vertex.  The value is shared: callers must not change it.
    """
    if x.group.invariants:
        raise TorsionUnsupported(
            "the Todd projection is defined over lattices")
    psi = x.memo("psi", PsiProjector)
    found = x.memo("f_tilde", lambda _: {})
    if z not in found:
        todd = periodic_todd(x, z, psi.top)
        ft = PeriodicPoly(psi.vars, [(c, psi(s)) for c, s in todd.terms])
        pper_decompose(x, ft)
        found[z] = ft
    return found[z]


# ---------------------------------------------------------------------------
# the internal space
# ---------------------------------------------------------------------------

def pper_internal_basis(x: GList) -> list:
    """Kernel of the wall constraints inside span(pper_basis), degreewise.

    For each generalised hyperplane H (the admissible hyperplane plus the
    torsion): group the vertices by the restriction of their character to
    the subgroup H; within each class the sum of D_eta^(m(H)-1) applied to
    the polynomial components must vanish.  Each `pper_basis` element has
    one character, hence one class per hyperplane, and one rational
    derivative (`derivative_along`): one `kernel` per degree takes the rows
    keyed by (hyperplane, class, monomial).

    The elements are independent by construction: `kernel` gives one
    vector per free column, with a 1 there and 0 at the other free
    columns, and each vector combines the independent `pper_basis`
    elements of one degree.  So `hilbert` counts them.
    """
    x.require_full_rank()
    vars = _pper_vars(x)
    verts = vertices(x)
    planes = [(hp.normal, hp.mult - 1, _restriction_classes(verts, hp.normal))
              for hp in hyperplanes(x)]
    by_degree = {}
    for b in pper_basis(x):
        by_degree.setdefault(b.total_degree(), []).append(b)
    out = []
    for deg in sorted(by_degree):
        elems = by_degree[deg]
        images = []
        for b in elems:
            [(char, poly)] = b.terms
            images.append({(eta, classes[char], e): v
                           for eta, k, classes in planes
                           for e, v in derivative_along(poly, eta, k).items()})
        out += [PeriodicPoly(vars, [(char, poly * c)
                                    for c, b in zip(vec, elems) if c
                                    for char, poly in b.terms])
                for vec in kernel(images)]
    return out


def _restriction_classes(verts, eta) -> dict:
    """{character: class} over the vertices: the restriction to the
    subgroup {v : eta . v = 0} of the free part plus the torsion, as the
    values mod 1 on its generators (the integer kernel of eta, then the
    torsion generators)."""
    # columns 2..d of V span the integer kernel of the 1 x d matrix [eta]
    _, _, v_snf = snf([list(eta)])
    sat_basis = [[row[j] for row in v_snf] for j in range(1, len(eta))]
    out = {}
    for v in verts:
        c = v.character
        theta, tors = c.nums[:c.free_rank], c.nums[c.free_rank:]
        out[c] = tuple(Fraction(a % c.den, c.den) for a in (
            *(linalg.dot(theta, gen) for gen in sat_basis), *tors))
    return out


# ---------------------------------------------------------------------------
# pairing with DM and the duality map L
# ---------------------------------------------------------------------------

def pper_decompose(x: GList, p: PeriodicPoly) -> list:
    """Each component of p in the normal form of Pper(X), as (vertex, q_phi).

    A component of Pper(X) is e_phi s0^tors(phi) p_{X \\ X_phi \\ X_t} q_phi
    with q_phi in s1..sd (`pper_basis`); the torsion columns X_t have no
    linear form, so they are counted by the s0 marker.  Raises NonMember
    when a character is not a vertex, when a prefactor leaves a remainder,
    or when the s0 exponent is not tors(phi).
    """
    verts = {v.character: v for v in x.memo("vertices", vertices)}
    plain = s_vars(x.group.free_rank)
    out = []
    for char, poly in p.terms:
        v = verts.get(char)
        if v is None:
            raise NonMember(f"character {char} is not a vertex")
        q = poly
        for i, elem in enumerate(x.elems):
            if i not in v.x_phi and not elem.is_torsion():
                q = divide_by_linear(q, p_linear(elem, p.vars))
        if "s0" in q.vars:
            if any(e[0] != v.tors_count for e in q.terms):
                raise NonMember(f"{poly} at {char} does not carry "
                                f"s0^{v.tors_count}")
            q = MPoly(plain, {e[1:]: c for e, c in q.terms.items()})
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
    """Multiplication map Pper(X \\ x_i) -> Pper(X) by the linear form of x_i.

    X \\ x_i has the group of X, so p is in the variables of Pper(X).
    """
    if x.elems[i].is_torsion():
        raise TorsionPivot("multiplication pivot must be non-torsion")
    vars = _pper_vars(x)
    form = p_linear(x.elems[i], vars)
    return PeriodicPoly(vars, [(char, poly * form) for char, poly in p.terms])


def pper_project(x: GList, i: int, p: PeriodicPoly) -> PeriodicPoly:
    """Projection map Pper(X) -> Pper(X/x_i).

    p is taken apart by `pper_decompose`.  Components whose character moves
    x_i die; the rest are rebuilt in the quotient's normal form: the
    character pushed to G/<x_i>, q_phi through the quotient map, and the
    prefactor columns that become torsion turned into s0 markers.
    """
    if x.elems[i].is_torsion():
        raise TorsionPivot("projection pivot must be non-torsion")
    comps = pper_decompose(x, p)
    quotient, qm = contract(x, i)
    tvars = _pper_vars(quotient)
    # images of s1..sd in the quotient's s-variables, 0 on its s0
    lead = [_F0] if "s0" in tvars else []
    free_rows = [row for row, m in zip(qm.matrix, qm.moduli) if m == 0]
    images = [MPoly.linear_form(tvars, lead + [Fraction(row[j])
                                               for row in free_rows])
              for j in range(x.group.free_rank)]
    out_terms = []
    for v, q in comps:
        if i not in v.x_phi:
            continue
        # the prefactor columns, indexed in the quotient
        pre = [j - (j > i) for j, e in enumerate(x.elems)
               if j not in v.x_phi and not e.is_torsion()]
        kept = [j for j in pre if not quotient.elems[j].is_torsion()]
        new_poly = p_product(quotient, kept, tvars) \
            * q.substitute(tvars, images) \
            * _s0_power(tvars, v.tors_count + len(pre) - len(kept))
        out_terms.append((_push_character(v.character, qm), new_poly))
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
    """Is p in Pper(X)?  Each component in the normal form
    (`pper_decompose`), with q_phi fixed by psi_{X_phi}."""
    try:
        comps = pper_decompose(x, p)
    except NonMember:
        return False
    plain = s_vars(x.group.free_rank)
    return all(PsiProjector(x.sublist(v.x_phi), plain)(q) == q
               for v, q in comps)
