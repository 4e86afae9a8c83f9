"""Operator application and the headline counting identities.

Directional limits apply the operator to the exact polynomial of the spline
on the alcove next to the evaluation point; the quasi-polynomial of a chamber
applies f~_z to the exact piece of T_X there.  Counts are checked to be
rational integers after cyclotomic cancellation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .abelian import FgGroup, GElement, GList
from .errors import (HasColoop, InternalError, NonIntegerResult, NotInCone,
                     NotUnimodular, RankDeficient, SingularGram)
from .geometry import (Cell, _cone_rays, big_cells, bx_value, cells_at,
                       hyperplane_normals, in_cone, lattice_points,
                       local_piece, pointed_certificate, require_pointed,
                       require_short, require_value, short_regular,
                       zonotope_hrep)
from .linalg import dot
from .matroid import is_coloop, is_unimodular
from .periodic import PeriodicPoly, QuasiFunction, f_tilde, periodic_todd
from .scalar import (Cyclotomic, MPoly, TruncatedSeries, exp_series, s_vars,
                     t_vars)
from .toric import evaluate, vertices

_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_periodic(p: PeriodicPoly, f: MPoly, point) -> Cyclotomic:
    """(sum_phi e_phi q_phi)(D) f evaluated at a lattice point.

    The quasi-polynomial p(D) f comes from `_applied`, which keeps the last
    64, so a repeated (p, f) at another point only evaluates.
    """
    return _applied(p, f).evaluate_at(point)


@lru_cache(maxsize=64)
def _applied(p: PeriodicPoly, f: MPoly) -> QuasiFunction:
    """(sum_phi e_phi q_phi)(D) f as sum_phi e_phi (q_phi(D) f).

    A table of the last 64 (p, f) pairs and their quasi-polynomials.  By
    the improved Brion-Vergne formula a count on a chamber is f~_z(D)
    applied to the chamber's piece of T_X, which does not depend on u; so
    every count query at one (list, z, chamber) after the first is a lookup
    and one evaluation.  The key is the pair's value, not a list: p and f
    are immutable values that hash by value, and neither carries its list,
    so the table keeps no caller's `GList` alive and an equal list built
    again finds the entry.  The returned value is shared: callers must not
    change it.
    """
    return QuasiFunction(f.vars, [(char, q.apply_diff(f))
                                  for char, q in p.terms])


# ---------------------------------------------------------------------------
# improved counting formula
# ---------------------------------------------------------------------------

def bv_count(x: GList, z, u, w=None, cells=None, pieces=None) -> int:
    """lim_w f_tilde_z(D_pw) T_X at u: the quasipolynomial count i^Omega(u-z).

    The chambers come from `geometry.cells_at`, by sign vector: for z
    interior to the zonotope the value is checked identical over every cell
    whose closure holds u (w-independence); otherwise it is taken on the one
    cell toward w.  The result must be a rational integer.

    f~_z and whether z is interior to the zonotope depend on X and z only:
    they are found once per (list value, z) and kept with the list's other
    facts (the pointed certificate, the cone's facets, the zonotope's
    H-rep) by `GList.memo`, and f~_z(D) piece comes from
    `apply_periodic`'s table of the last 64.  So a repeated query on one
    list, z and chamber tests u against the cone and evaluates at u.
    """
    require_pointed(x)
    if not in_cone(x, u):
        raise NotInCone(f"{u} is outside cone(X)")
    if cells is None:
        cells = big_cells(x)
    if pieces is None:
        pieces = {id(c): local_piece(x, c) for c in cells}
    key = z if isinstance(z, GElement) else tuple(z)
    at_z = x.memo("bv_count", lambda _: {})
    if key not in at_z:
        zel = z if isinstance(z, GElement) else x.group.element(key)
        at_z[key] = (f_tilde(x, zel),
                     zonotope_hrep(x).contains(zel.free, strict=True))
    ft, interior = at_z[key]
    if interior:
        adj = cells_at(x, cells, u)
        if not adj:
            raise NotInCone(f"{u} is not in the closure of any big cell")
        candidates = {_eval_count(ft, pieces[id(cell)], u) for cell in adj}
        if len(candidates) != 1:
            raise InternalError(
                f"w-independence fails at {u}: {sorted(candidates)}")
        return candidates.pop()
    if w is None:
        w = short_regular(x, in_cone_of=cells[0].sample)
    toward = cells_at(x, cells, u, w)
    if len(toward) != 1:
        raise NotInCone(f"no big cell towards [{', '.join(map(str, w))}] "
                        f"from [{', '.join(map(str, u))}]")
    return _eval_count(ft, pieces[id(toward[0])], u)


def chamber_quasipolynomial(x: GList, cell: Cell) -> QuasiFunction:
    """The quasi-polynomial f~_0(D) T_X of the chamber Omega of ``cell``:
    sum_phi e_phi (q_phi(D) piece) for f~_0 = sum_phi e_phi q_phi and the
    local piece of T_X on Omega (the improved Brion-Vergne formula).

    It equals `vpf_count` at every lattice point of (Omega - Z(X)), the u
    whose translate u + Z(X) meets Omega.  The chambers share f~_0, which
    `f_tilde` keeps per list value.
    """
    return _applied(f_tilde(x, x.group.zero()), local_piece(x, cell))


def _eval_count(ft: PeriodicPoly, piece: MPoly, u) -> int:
    val = apply_periodic(ft, piece, u)
    if not val.is_rational():
        raise NonIntegerResult(f"count at {u} is {val}")
    q = val.to_rational()
    if q.denominator != 1:
        raise NonIntegerResult(f"count at {u} is {q}")
    return int(q)


def partition_of_unity(x: GList) -> PeriodicPoly:
    """sum over interior zonotope lattice points of B_X(z) * f_tilde_z.

    The sum is 1 for a coloop-free list, where B_X vanishes on the boundary
    of the zonotope; a list with a coloop raises `HasColoop`.
    """
    x.require_full_rank()
    require_pointed(x)
    for i in range(len(x)):
        if is_coloop(x, i):
            raise HasColoop(f"x_{i} = {list(x.elems[i].free)} is a coloop; "
                            f"the partition of unity needs a coloop-free "
                            f"list")
    total = PeriodicPoly(s_vars(x.group.free_rank), [])
    for z in lattice_points(x, "interior"):
        b = bx_value(x, z)   # with torsion a domain error, before element()
        total = total + f_tilde(x, x.group.element(z)).scale(b)
    return total


# ---------------------------------------------------------------------------
# alcove-local evaluation (directional limits of B_X derivatives)
# ---------------------------------------------------------------------------

def _alcove_polynomial(x: GList, point, w, spline=bx_value) -> MPoly:
    """Polynomial agreeing with B_X on the alcove towards w, checked against
    ``spline`` (`bx_value`) at one point of it.

    B_X = sum_v c_v T_X(. - v) (`_box_shifts`), so the piece on the alcove
    of p0 is sum_v c_v P_v(t - v), with P_v the T_X piece on the chamber of
    p0 - v.  p0 is off every affine hyperplane and v is integral, so the
    signs of eta.(p0 - v) name that chamber: the shifts are grouped by it,
    and `local_piece` keeps each chamber's piece per list value.
    """
    normals = hyperplane_normals(x)
    # step keeping (point, point + 2 eps0 w] inside one alcove
    bound = max(abs(dot(eta, w)) for eta in normals)
    eps0 = Fraction(1, 4 * (int(bound) + 1))
    for eta in normals:
        if not dot(eta, w):
            raise SingularGram(f"w is not affine regular: it is orthogonal "
                               f"to the hyperplane normal {list(eta)}")
    p0 = tuple(Fraction(v) + 2 * eps0 * Fraction(c)
               for v, c in zip(point, w))
    heights = [dot(eta, p0) for eta in normals]
    for eta, val in zip(normals, heights):
        if val.denominator == 1:
            raise InternalError(f"alcove sample [{', '.join(map(str, p0))}] "
                                f"lies on the affine hyperplane eta.y = {val} "
                                f"of the normal {list(eta)}")
    groups = {}
    for v, c in x.memo("box_shifts", _box_shifts):
        signs = tuple(h > dot(eta, v) for h, eta in zip(heights, normals))
        groups.setdefault(signs, []).append((v, c))
    terms = {}
    for signs, shifts in groups.items():
        v0 = shifts[0][0]
        piece = local_piece(x, Cell(tuple(p - a for p, a in zip(p0, v0)),
                                    signs))
        for e, coeff in piece.terms.items():
            # t^e translated by v: sum_{k <= e} binom(e, k) t^k (-v)^(e - k)
            for k in itertools.product(*(range(ei + 1) for ei in e)):
                power = sum(c * math.prod((-a) ** (ei - ki)
                                          for a, ei, ki in zip(v, e, k))
                            for v, c in shifts)
                if power:
                    terms[k] = terms.get(k, _F0) + coeff.to_rational() * (
                        power * math.prod(map(math.comb, e, k)))
    poly = MPoly(t_vars(len(p0)), terms)
    require_value(poly, p0, spline(x, p0))
    return poly


def _box_shifts(x: GList) -> tuple:
    """The pairs (v, c_v) of prod_i (1 - tau_{x_i}): v runs over the subset
    sums x_S and c_v = sum_{x_S = v} (-1)^|S|, zeros dropped."""
    sums = {(0,) * x.group.free_rank: 1}
    for el in x.elems:
        step = dict(sums)
        for v, c in sums.items():
            key = tuple(a + b for a, b in zip(v, el.free))
            step[key] = step.get(key, 0) - c
        sums = step
    return tuple((v, c) for v, c in sorted(sums.items()) if c)


def box_limit_value(x: GList, op: PeriodicPoly, point, w) -> Cyclotomic:
    """lim_w op(D_pw) B_X (point)."""
    return apply_periodic(op, _alcove_polynomial(x, point, w), point)


# ---------------------------------------------------------------------------
# unimodular delta interpolation
# ---------------------------------------------------------------------------

def box_delta_check(x: GList, w=None) -> dict:
    """lim_w f_z(D_pw) B_X over the lattice support, for every z in
    (Z(X) - w) cap Lambda, as {z: {lambda: value}}; expect delta_z.

    w must be short (`NotShort` otherwise) and affine regular
    (`SingularGram` otherwise).  The alcove polynomial of B_X next to each
    lambda does not depend on z, so it is built once for all z.
    """
    if not is_unimodular(x):
        raise NotUnimodular("box delta interpolation needs a unimodular list")
    require_pointed(x)
    if w is None:
        w = short_regular(x)
    else:
        require_short(x, w)
    support = lattice_points(x, "shifted", w=[_F0] * x.group.free_rank)
    polys = [_alcove_polynomial(x, lam, w) for lam in support]
    out = {}
    for z in lattice_points(x, "shifted", w=w):
        fz = f_tilde(x, x.group.element(z))
        out[z] = {lam: apply_periodic(fz, poly, lam)
                  for lam, poly in zip(support, polys)}
    return out


def box_interpolant(x: GList, values: dict) -> MPoly:
    """The unique internal-space polynomial hitting the requested values
    on the interior zonotope lattice points: sum values(z) * f_z."""
    if not is_unimodular(x):
        raise NotUnimodular("interpolation needs a unimodular list")
    coeffs = {z: Fraction(values.get(tuple(z), 0))
              for z in lattice_points(x, "interior")}
    combo = MPoly(s_vars(x.group.free_rank))
    for z in [z for z, c in coeffs.items() if c]:
        fz = f_tilde(x, x.group.element(z))
        if len(fz.terms) > 1:
            raise InternalError(f"f_z at z = {list(z)} of a unimodular list "
                                f"has {len(fz.terms)} vertex components")
        if fz.terms:
            combo = combo + fz.terms[0][1] * coeffs[z]
    return combo


# ---------------------------------------------------------------------------
# continuity characterization
# ---------------------------------------------------------------------------

@dataclass
class Wall:
    """A (d-1)-dimensional wall between two regions of polynomiality, in
    the frame (normal, ray) with normal.ray = 0.

    At d = 1 the wall is the origin, with ray (0,) and normal (1,).  A side
    beyond the cone boundary has the zero polynomial as its piece.
    """

    normal: tuple            # primitive integer normal, positive on piece_pos
    ray: tuple               # primitive lattice direction spanning the wall
    piece_pos: MPoly
    piece_neg: MPoly


def walls(x: GList) -> list:
    """Walls of the big-cell decomposition (d <= 2), zero region included.

    One wall per ray of `_cone_rays`, in that order, with the ray turned
    left as its normal; at d = 1 the origin.  Each side's piece is the
    `local_piece` of the chamber `cells_at` finds toward +-normal from the
    ray, or zero when none lies there (outside the cone).
    """
    require_pointed(x)
    d = x.group.free_rank
    cells = big_cells(x)
    frames = [((1,), (0,))] if d == 1 else \
        [((-r[1], r[0]), r) for r in _cone_rays(x)]
    zero = MPoly(t_vars(d))
    out = []
    for eta, ray in frames:
        pos, neg = (cells_at(x, cells, ray, [s * e for e in eta])
                    for s in (1, -1))
        out.append(Wall(eta, ray, local_piece(x, pos[0]) if pos else zero,
                        local_piece(x, neg[0]) if neg else zero))
    return out


def continuity_check(x: GList, p: PeriodicPoly, window: int = 3,
                     wall_list=None) -> bool:
    """Does p(D)T_X extend continuously over the lattice points of every wall?"""
    require_pointed(x)
    x.require_full_rank()
    if wall_list is None:
        wall_list = walls(x)
    for wall in wall_list:
        ks = range(window + 1) if any(wall.ray) else (0,)
        for k in ks:
            lam = tuple(k * r for r in wall.ray)
            a = apply_periodic(p, wall.piece_pos, lam)
            b = apply_periodic(p, wall.piece_neg, lam)
            if a != b:
                return False
    return True


# ---------------------------------------------------------------------------
# wall crossing (Boysal-Vergne residue)
# ---------------------------------------------------------------------------

def wall_jump(x: GList, eta, v12: MPoly) -> MPoly:
    """Residue form of the jump of T_X across the wall with normal eta.

    The jump is res_{z=0} (V12(D_s) e^{s.t + z eta(t)} / prod_{x not in H}
    (x.s + eta(x) z))|_{s=0} (Boysal-Vergne); eta must be oriented
    positively on the cell whose piece is the minuend.  With m columns off
    the wall and H(s) = prod_{x not in H} 1 / (eta(x) + x.s), the product is
    z^-m H(s/z), so the residue is

        sum_k H_k(s) eta(t)^(m+k-1) / (m+k-1)! e^{s.t}

    for the degree-k parts H_k of H.  V12 has degree r and s is set to 0
    after it acts, so only s-degree <= r counts: H is capped at r, and the
    terms of e^{s.t} of s-degree <= r are those of total degree <= 2r.
    """
    d = x.group.free_rank
    both = s_vars(d) + t_vars(d)
    r = max(v12.total_degree(), 0)
    h = TruncatedSeries.constant(both, 1, r)
    m = 0
    for el in x.elems:
        ex = dot(eta, el.free)
        if ex:
            m += 1
            xs = MPoly.linear_form(both, [Fraction(c) for c in el.free]
                                   + [_F0] * d)
            h = h * TruncatedSeries(xs + ex, r).inverse()
    eta_t = MPoly.linear_form(both, [_F0] * d + list(eta))
    eta_pows = exp_series(eta_t, max(m + r - 1, 0)).body.slices()
    res = MPoly(both)
    for k, hk in h.body.slices().items():
        if m + k >= 1:
            res = res + hk * eta_pows[m + k - 1]
    st = sum((MPoly.variable(both, i) * MPoly.variable(both, d + i)
              for i in range(d)), MPoly(both))
    res = v12.apply_diff(res * exp_series(st, 2 * r).body)
    return MPoly(t_vars(d), {e[d:]: c for e, c in res.terms.items()
                             if not any(e[:d])})


def wall_v12(x: GList, wall: Wall) -> MPoly:
    """Extension of the on-wall spline piece, constant along the normal.

    The columns on the wall are x_i = a_i rho with a_i = x_i.rho / rho.rho.
    The T piece of the one-dimensional list (a_i) is composed with
    gamma(t) = rho.t / rho.rho, which is 1 on rho and, as the normal is
    orthogonal to rho, 0 on the normal.
    """
    d = x.group.free_rank
    tv = t_vars(d)
    on_wall = [i for i, el in enumerate(x.elems)
               if not dot(wall.normal, el.free) and any(el.free)]
    if not on_wall:
        return MPoly.constant(tv, 1)
    if d != 2:
        raise RankDeficient("V12 construction implemented for d = 2")
    rho = wall.ray
    rr = dot(rho, rho)
    if not rr:
        raise ValueError("wall ray must be nonzero for d = 2")
    coeffs = []
    for i in on_wall:
        free = x.elems[i].free
        a = Fraction(dot(free, rho), rr)
        if a.denominator != 1 or not a:
            raise InternalError(f"x_{i} = {list(free)} is not a nonzero "
                                f"integer multiple of the wall ray "
                                f"{list(rho)}")
        coeffs.append(int(a))
    sub = GList.from_columns([[c] for c in coeffs], FgGroup(1))
    piece = local_piece(sub, big_cells(sub)[0])
    image = MPoly.linear_form(tv, [Fraction(r, rr) for r in rho])
    return piece.substitute(tv, [image])


def wall_jump_check(x: GList, wall: Wall):
    """Jump via the residue formula, matched against the piece difference.

    Returns (residue_jump, piece_difference, leading_ok) where leading_ok
    asserts the c_X t1^(m-1) V12 structure in rotated coordinates.
    """
    v12 = wall_v12(x, wall)
    jump = wall_jump(x, wall.normal, v12)
    diff = wall.piece_pos - wall.piece_neg
    leading_ok = _leading_structure_ok(x, wall, v12, jump)
    return jump, diff, leading_ok


def _leading_structure_ok(x: GList, wall: Wall, v12: MPoly,
                          jump: MPoly) -> bool:
    """jump = c_X u1^(m-1) V12 + u1^m h in the wall frame t = u1 g + u2 rho.

    The normal eta is orthogonal to rho, so g = eta / eta.eta has eta.g = 1
    and rho.g = 0, and u1 = eta.t.  The same check covers d = 1 (rho = 0):
    there the jump is homogeneous of degree m - 1, so it reads
    jump = c_X t^(m-1) V12.
    """
    eta, rho = wall.normal, wall.ray
    dots = [v for v in (dot(eta, el.free) for el in x.elems) if v]
    m = len(dots)
    c_x = Fraction(1, math.factorial(m - 1) * math.prod(dots))
    ee = dot(eta, eta)
    uv = ("u1", "u2")
    images = [MPoly.linear_form(uv, [Fraction(e, ee), r])
              for e, r in zip(eta, rho)]
    jump_u = jump.substitute(uv, images)
    v12_u = v12.substitute(uv, images)
    lead = MPoly(uv, {(m - 1, 0): Cyclotomic.from_rational(c_x)}) * v12_u
    rest = jump_u - lead
    return all(e[0] >= m for e in rest.terms)


# ---------------------------------------------------------------------------
# box deconvolution
# ---------------------------------------------------------------------------

def box_deconvolution_check(x: GList, w=None) -> dict:
    """lim_w ToddB(X)(D_pw) B_X over the support lattice; expect delta_0.

    w must lie in cone(X) (`NotInCone` otherwise) and be affine regular
    (`SingularGram` otherwise); the default is a short one inside the
    cone.  The translation factors
    (1 - e_phi(-x) tau_x) / (1 - tau_x) are expanded as finite geometric
    sums on the compact support of B_X.
    """
    require_pointed(x)
    if x.group.invariants:
        raise NotUnimodular("box deconvolution runs over lattices")
    x.require_full_rank()
    if w is None:
        # the sum of the columns is interior to the pointed cone(X)
        w = short_regular(x, in_cone_of=[sum(c) for c in
                                         zip(*(e.free for e in x.elems))])
    elif not in_cone(x, w):
        # the limit at lambda = 0 is delta_0 only from inside cone(X)
        raise NotInCone(f"w = [{', '.join(map(str, w))}] is outside "
                        f"cone(X)")
    d = x.group.free_rank
    n = len(x)
    todd = periodic_todd(x, x.group.zero(), n - d)
    eta_c = pointed_certificate(x)
    support = lattice_points(x, "shifted", w=[_F0] * d)
    kmax = max((dot(eta_c, lam) for lam in support), default=_F0)
    kmax = int(kmax) + 1
    out = {lam: Cyclotomic.zero() for lam in support}
    alcove_cache = {}
    for v in vertices(x):
        series = todd.component(v.character)
        # expand the product of (1 - c_i tau_{x_i}) * sum_k tau_{x_i}^k
        offs = [i for i in range(n) if i not in v.x_phi]
        shifts = {(0,) * d: Cyclotomic.one()}
        for i in offs:
            c = evaluate(v.character, -x.elems[i])
            xi = x.elems[i].free
            new = {}
            for shift, coeff in shifts.items():
                k = 0
                while True:
                    base = tuple(s + k * xv for s, xv in zip(shift, xi))
                    wgt = dot(eta_c, base)
                    if wgt > kmax:
                        break
                    # (1 - c tau)(sum tau^k) = 1 + (1-c)(tau + tau^2 + ...)
                    factor = Cyclotomic.one() if k == 0 \
                        else (Cyclotomic.one() - c)
                    cur = new.get(base, Cyclotomic.zero())
                    new[base] = cur + coeff * factor
                    k += 1
            shifts = {s: cc for s, cc in new.items() if cc}
        values = {}
        for lam in support:
            # the character multiplies at the output point, after the
            # translations have shifted the argument
            root = evaluate(v.character, x.group.element(lam))
            acc = Cyclotomic.zero()
            for shift, coeff in shifts.items():
                target = tuple(l - s for l, s in zip(lam, shift))
                wgt = dot(eta_c, target)
                if wgt < 0 or wgt > kmax:
                    continue
                if target not in values:
                    if target not in alcove_cache:
                        alcove_cache[target] = _alcove_polynomial(x, target, w)
                    der = series.body.apply_diff(alcove_cache[target])
                    values[target] = der.evaluate(
                        [Fraction(t) for t in target])
                acc = acc + coeff * values[target]
            out[lam] = out[lam] + root * acc
    return out
