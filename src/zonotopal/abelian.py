"""Finitely generated abelian groups and vector lists over them.

A group is stored in normalized invariant-factor form Z^d + Z/k1 + ... with
k1 | k2 | ...; elements carry an integer free part and reduced torsion
residues.  Smith normal form drives multiplicities, quotients, and the
character enumeration in the toric module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InternalError, RankDeficient
from .linalg import adjugate, rank as qrank


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf(m):
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D.

    D is diagonal with d_i | d_{i+1} and d_i >= 0; U and V are unimodular.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(map(int, r)) for r in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        d[dst] = [a + c * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def scale_row(i, c):
        d[i] = [c * a for a in d[i]]
        u[i] = [c * a for a in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            again = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        again = True
            if again:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        again = True
            if not again and all(not d[i][t] for i in range(t + 1, rows)):
                break
        if d[t][t] < 0:
            scale_row(t, -1)
        # divisibility fix: fold any non-multiple into the pivot position
        entry = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    entry = (i, j)
                    break
            if entry:
                break
        if entry:
            add_row(entry[0], t, 1)
            continue
        t += 1
    return u, d, v


def snf_diagonal(m):
    """Just the nonnegative invariant factors (nonzero ones, sorted)."""
    _, d, _ = snf(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))
            if d[i][i]]


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _pivot(row):
    c = 0
    while not row[c]:
        c += 1
    return c


def hnf_insert(basis, v):
    """Row basis, in Hermite normal form, of the lattice spanned by the
    rows of ``basis`` (a tuple of tuples in that form) and the integer
    vector v.

    The form: rows in increasing pivot column, each pivot positive, and the
    entries above a pivot reduced into [0, pivot).  It is canonical, so two
    generating sets of one lattice give the same tuple of tuples; when v
    lies in the lattice, ``basis`` itself is returned.  Only integer row
    operations of determinant +-1 are used.
    """
    rows = list(basis)
    pivots = [_pivot(r) for r in rows]
    changed = False
    i = 0
    while any(v):
        c = _pivot(v)
        while i < len(rows) and pivots[i] < c:
            i += 1
        if i == len(rows) or pivots[i] > c:
            if v[c] < 0:
                v = [-q for q in v]
            rows.insert(i, v)
            pivots.insert(i, c)
            changed = True
            break
        # same pivot column: v keeps only what lies past c
        row = rows[i]
        if v[c] % row[c]:
            g, s, t = _xgcd(row[c], v[c])
            a, b = row[c] // g, v[c] // g
            rows[i] = [s * p + t * q for p, q in zip(row, v)]
            v = [a * q - b * p for p, q in zip(row, v)]
            changed = True
        else:
            f = v[c] // row[c]
            v = [q - f * p for p, q in zip(row, v)]
        i += 1
    if not changed:
        return basis
    for i, row in enumerate(rows):
        c = pivots[i]
        for above in range(i):
            f = rows[above][c] // row[c]
            if f:
                rows[above] = [p - f * r for p, r in zip(rows[above], row)]
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# groups, elements, lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FgGroup:
    """Z^free_rank + Z/k1 + Z/k2 + ... with k_i | k_{i+1}, k_i >= 2."""

    free_rank: int
    invariants: tuple = ()

    def __post_init__(self):
        inv = tuple(int(k) for k in self.invariants)
        if any(k < 2 for k in inv):
            raise ValueError(f"invariant factors must be >= 2, got {inv}")
        for a, b in zip(inv, inv[1:]):
            if b % a:
                raise ValueError(
                    f"invariant factors must be in divisibility order, "
                    f"got {inv}")
        object.__setattr__(self, "invariants", inv)

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.invariants)

    @property
    def relations(self) -> tuple:
        """The torsion relations k_j e_(d+j) in Z^(d+t), one row each, in
        increasing pivot column: already the `hnf_insert` form."""
        n, d = self.ncoords, self.free_rank
        return tuple(tuple(k if r == d + j else 0 for r in range(n))
                     for j, k in enumerate(self.invariants))

    def presentation(self, lifts) -> list:
        """The matrix [lifts | relations], one column per lift and per
        torsion relation: its columns generate the subgroup of the lifts
        inside Z^(d+t) with the relations."""
        cols = [*lifts, *self.relations]
        return [[col[r] for col in cols] for r in range(self.ncoords)]

    def element(self, free=(), tors=()) -> "GElement":
        """The element with these free coordinates and torsion residues
        (reduced modulo the invariants).  Equal elements are shared: they
        come from one table of the last 1024 built, so a list whose values
        repeat holds each value once."""
        return _shared_element(self, tuple(free), tuple(tors))

    def zero(self) -> "GElement":
        return self.element((0,) * self.free_rank,
                            (0,) * len(self.invariants))

    def spec_string(self) -> str:
        parts = [f"Z^{self.free_rank}"]
        parts += [f"Z/{k}" for k in self.invariants]
        return " + ".join(parts)

    @staticmethod
    def parse(s: str) -> "FgGroup":
        """Parse "Z^d" / "Z^d + Z/k1 + Z/k2" (whitespace optional).

        The cyclic parts may come in any order and need not divide each
        other: they are brought to invariant-factor form by Smith normal
        form, so "Z/2 + Z/3" is Z/6 and "Z/4 + Z/6" is Z/2 + Z/12.  Element
        residues are given in that form.
        """
        s = s.replace(" ", "")
        free = 0
        invariants = []
        for part in s.split("+"):
            if not part:
                continue
            m = re.fullmatch(r"Z\^?(\d*)", part)
            if m:
                free += int(m.group(1) or 1)
                continue
            m = re.fullmatch(r"Z/(\d+)Z?", part)
            if m:
                invariants.append(int(m.group(1)))
                continue
            raise ValueError(f"cannot parse group component {part!r}")
        if any(k < 2 for k in invariants):
            raise ValueError(f"cyclic orders must be >= 2, got "
                             f"{tuple(invariants)}")
        diag = [[k if i == j else 0 for j in range(len(invariants))]
                for i, k in enumerate(invariants)]
        return FgGroup(free, tuple(k for k in snf_diagonal(diag) if k > 1))


@dataclass(frozen=True, slots=True)
class GElement:
    group: FgGroup
    free: tuple
    tors: tuple

    def __post_init__(self):
        if (len(self.free) != self.group.free_rank
                or len(self.tors) != len(self.group.invariants)):
            raise ValueError(
                f"element with {len(self.free)} free and {len(self.tors)} "
                f"torsion coordinates is not in {self.group.spec_string()}")
        object.__setattr__(self, "free", tuple(int(x) for x in self.free))
        object.__setattr__(
            self, "tors",
            tuple(int(t) % k for t, k in zip(self.tors,
                                             self.group.invariants)))

    def lift(self) -> list:
        """Coordinates in Z^(d+t) presenting the group."""
        return list(self.free) + list(self.tors)

    def is_torsion(self) -> bool:
        return not any(self.free)

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.tors)

    def __add__(self, other):
        if self.group != other.group:
            raise ValueError(
                f"cannot add elements of {self.group.spec_string()} and "
                f"{other.group.spec_string()}")
        return GElement(self.group,
                        tuple(a + b for a, b in zip(self.free, other.free)),
                        tuple(a + b for a, b in zip(self.tors, other.tors)))

    def __neg__(self):
        return GElement(self.group, tuple(-a for a in self.free),
                        tuple(-a for a in self.tors))

    def __repr__(self):
        if not self.group.invariants:
            return repr(tuple(self.free))
        return repr(tuple(self.free) + tuple(f"{t}~" for t in self.tors))


@lru_cache(maxsize=1024)
def _shared_element(group: FgGroup, free: tuple, tors: tuple) -> GElement:
    return GElement(group, free, tors)


class GList:
    """Ordered list of group elements; order is semantically significant."""

    __slots__ = ("group", "elems", "_hash")

    def __init__(self, group: FgGroup, elems):
        self.group = group
        self.elems = tuple(elems)
        for e in self.elems:
            if e.group != group:
                raise ValueError(f"{e} is an element of "
                                 f"{e.group.spec_string()}, not of "
                                 f"{group.spec_string()}")

    def memo(self, key, build):
        """build(self), computed on the first call for ``key`` on a list of
        this value and kept in its `list_facts` entry.  The list does not
        change after __init__, so a kept value stays valid; a build that
        raises keeps nothing."""
        facts = list_facts(self)
        try:
            return facts[key]
        except KeyError:
            value = facts[key] = build(self)
            return value

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_columns(columns, group: FgGroup | None = None) -> "GList":
        """Build from a matrix whose columns are the list elements.

        Rows are the free coordinates followed by torsion residues (matching
        the group's coordinate layout).  Without an explicit group the matrix
        is read over Z^d.
        """
        if not columns:
            raise ValueError("empty matrix")
        ncoords = len(columns[0])
        if group is None:
            group = FgGroup(ncoords)
        if group.ncoords != ncoords:
            raise ValueError(
                f"matrix has {ncoords} coordinate rows but the group "
                f"{group.spec_string()} needs {group.ncoords}")
        d = group.free_rank
        elems = [group.element(tuple(col[:d]), tuple(col[d:]))
                 for col in columns]
        return GList(group, elems)

    @staticmethod
    def from_rows(rows, group: FgGroup | None = None) -> "GList":
        """Build from a row-matrix (the JSON wire format: list of rows)."""
        cols = [list(c) for c in zip(*rows)]
        return GList.from_columns(cols, group)

    # -- basics -------------------------------------------------------------

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    @property
    def dim(self) -> int:
        return self.group.free_rank

    def torsion_indices(self):
        return [i for i, e in enumerate(self.elems) if e.is_torsion()]

    def delete(self, i: int) -> "GList":
        return GList(self.group,
                     self.elems[:i] + self.elems[i + 1:])

    def sublist(self, indices) -> "GList":
        return GList(self.group, [self.elems[i] for i in indices])

    def is_full_rank(self) -> bool:
        return rank_of(self, range(len(self))) == self.group.free_rank

    def require_full_rank(self):
        if not self.is_full_rank():
            raise RankDeficient(
                f"list spans rank {rank_of(self, range(len(self)))} "
                f"< {self.group.free_rank}")

    def __repr__(self):
        return f"GList({self.group.spec_string()}, {list(self.elems)})"

    def __eq__(self, other):
        return (isinstance(other, GList) and self.group == other.group
                and self.elems == other.elems)

    def __hash__(self):
        """Equal lists hash equal.  Computed once and kept, as the list
        does not change."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.group, self.elems))
            return self._hash

    def to_json(self):
        cols = [e.lift() for e in self.elems]
        return {"group": self.group.spec_string(), "columns": cols}

    @staticmethod
    def from_json(obj) -> "GList":
        group = FgGroup.parse(obj["group"])
        return GList.from_columns(obj["columns"], group)


@lru_cache(maxsize=4)
def list_facts(x: GList) -> dict:
    """The facts `GList.memo` keeps for the last 4 list values: the
    lattice walk of both Tutte polynomials, the geometry of X, psi_X, the
    vertices, the Todd parts and every f~_z.
    They depend only on X, so equal lists share one entry.  No list holds
    its entry, so psi_X, which holds its list, closes no reference cycle
    and an evicted entry is freed at once."""
    return {}


# ---------------------------------------------------------------------------
# rank, multiplicity, quotients
# ---------------------------------------------------------------------------

def rank_of(x: GList, indices) -> int:
    """Rank of the free part of the subgroup generated by the sublist."""
    cols = [x.elems[i].free for i in indices]
    cols = [c for c in cols if any(c)]
    if not cols:
        return 0
    return qrank([[Fraction(v) for v in c] for c in cols])


def multiplicity(x: GList, indices) -> int:
    """m(S) = torsion order of G/<S>: product of nonzero invariant factors."""
    out = 1
    for d in snf_diagonal(x.group.presentation(
            [x.elems[i].lift() for i in indices])):
        out *= d
    return out


@dataclass(frozen=True)
class QuotientMap:
    """Descriptor for G -> G/<x>: new group plus the coordinate recipe.

    ``matrix`` has one row per new coordinate (free rows first, then torsion
    rows); applying it to lift(g) and reducing torsion rows modulo the new
    invariants gives the image of g.  ``sections`` holds, per new coordinate,
    the preimage column (from the inverse of the SNF row transform), used to
    transport characters backwards.
    """

    source: FgGroup
    target: FgGroup
    matrix: tuple          # rows over Z acting on lift(g)
    moduli: tuple          # 0 for free coordinates, k for torsion ones
    sections: tuple = ()   # columns over Z, one per new coordinate

    def apply(self, g: GElement) -> GElement:
        if g.group != self.source:
            raise ValueError(f"{g} is not in the source group "
                             f"{self.source.spec_string()}")
        lift = g.lift()
        coords = [sum(r * v for r, v in zip(row, lift))
                  for row in self.matrix]
        free = [c for c, m in zip(coords, self.moduli) if m == 0]
        tors = [c % m for c, m in zip(coords, self.moduli) if m]
        return self.target.element(tuple(free), tuple(tors))


def contract(x: GList, i: int):
    """Quotient list X/x_i over G/<x_i> plus the projection descriptor."""
    g = x.group
    n = g.ncoords
    pivot = x.elems[i]
    if pivot.is_zero():
        # quotient by the trivial subgroup: group unchanged, element dropped
        ident = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
        moduli = (0,) * g.free_rank + g.invariants
        qm = QuotientMap(g, g, ident, moduli, ident)
        return GList(g, [e for j, e in enumerate(x.elems) if j != i]), qm
    u, d, _ = snf(g.presentation([pivot.lift()]))
    uinv, det = adjugate(u) or (None, 0)
    if det != 1:
        raise InternalError(f"the SNF transform {u} is not unimodular")
    diag = [d[r][r] if r < min(len(d), len(d[0])) else 0 for r in range(n)]
    # coordinate r of y = U*lift(g) is taken modulo diag[r] (0 = free)
    keep = [(r, u[r], dr) for r, dr in enumerate(diag) if dr != 1]
    free_rows = [(r, row, 0) for r, row, dr in keep if dr == 0]
    tors_rows = sorted(((r, row, dr) for r, row, dr in keep if dr >= 2),
                       key=lambda p: p[2])
    target = FgGroup(len(free_rows), tuple(dr for _, _, dr in tors_rows))
    ordered = free_rows + tors_rows
    matrix = tuple(tuple(row) for _, row, _ in ordered)
    moduli = (0,) * len(free_rows) + tuple(dr for _, _, dr in tors_rows)
    sections = tuple(tuple(uinv[j][r] for j in range(n)) for r, _, _ in ordered)
    qm = QuotientMap(g, target, matrix, moduli, sections)
    new_elems = [qm.apply(e) for j, e in enumerate(x.elems) if j != i]
    return GList(target, new_elems), qm

