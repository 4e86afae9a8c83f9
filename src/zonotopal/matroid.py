"""Matroid and arithmetic-matroid combinatorics of a list.

Bases, cocircuits, external activity, and both Tutte polynomials.  The
bases come from one table per list value, kept in its `list_facts` entry:
(adj B, |det B|) for each nonsingular d-subset B of the free parts, from
`linalg.subset_adjugates`.  `bases` returns its keys, `is_unimodular`
reads |det B| = m(B) and `external_activity` the B-coordinates
adj B . x_j / |det B|, all in integers; `toric.vertices` and
`periodic.pper_basis` take their bases from it.  The definitions it
replaces (a rank per d-subset, a solve per basis, a Smith normal form per
basis) are kept in the tests as oracles.  Rank
and multiplicity of a subset depend only on the integer lattice it spans,
so both Tutte polynomials come from one walk over the distinct lattices,
built one column at a time: each lattice keeps its number of subsets of
each size and one subset that spans it.  The work grows with n times the
number of distinct lattices, not with 2^n.  The walk is made once per list
value and kept in its `list_facts` entry, so whichever polynomial runs
second reads it; only the weights are found per call.  The rank is read
off the lattice's Hermite normal form, and so is the multiplicity of a
lattice of full rank: the product of its pivots.  Only a lattice below full
rank takes a Smith normal form, once per lattice and call.  The direct
subset sum, with `rank_of` and `multiplicity` for every subset, is kept in
the tests as the oracle.
"""

from __future__ import annotations

import itertools
import math
from operator import add

from .abelian import GList, hnf_insert, multiplicity, rank_of
from .errors import InternalError, NotABasis, RankDeficient
from .linalg import dot, nullspace, subset_adjugates


# Exponent pairs (i, j) with i < 16 and j < 32, one object each.  Every
# BivarPoly uses these as its keys rather than tuples of its own, which
# halves the memory a Tutte polynomial holds.
_PAIRS = tuple(tuple((i, j) for j in range(32)) for i in range(16))


class BivarPoly:
    """Integer polynomial in two variables (alpha, beta)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (i, j), c in terms.items():
                if c:
                    i, j = int(i), int(j)
                    key = (_PAIRS[i][j] if 0 <= i < 16 and 0 <= j < 32
                           else (i, j))
                    self.terms[key] = int(c)

    @staticmethod
    def monomial(i, j, c=1) -> "BivarPoly":
        return BivarPoly({(i, j): c})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
            if not terms[e]:
                del terms[e]
        return BivarPoly(terms)

    def __sub__(self, other):
        return self + BivarPoly({e: -c for e, c in other.terms.items()})

    def __mul__(self, other):
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return BivarPoly(terms)

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def evaluate(self, alpha, beta):
        total = 0
        for (i, j), c in self.terms.items():
            total += c * alpha ** i * beta ** j
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items(),
                                key=lambda e: (-(e[0][0] + e[0][1]),
                                               -e[0][0])):
            mono = "".join([f"a^{i}" if i > 1 else "a" if i else "",
                            f"b^{j}" if j > 1 else "b" if j else ""])
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}{mono}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    def to_json(self):
        return {"terms": [{"a": i, "b": j, "c": c}
                          for (i, j), c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(obj) -> "BivarPoly":
        return BivarPoly({(t["a"], t["b"]): t["c"] for t in obj["terms"]})


# ---------------------------------------------------------------------------
# bases, cocircuits, activity
# ---------------------------------------------------------------------------

def bases(x: GList) -> list:
    """All d-subsets of full free rank, in lexicographic index order: the
    keys of the list's basis table (`_spanning_table`)."""
    return list(_spanning_table(x))


def _spanning_table(x: GList) -> dict:
    """The list's basis table (`_basis_table`), kept by `GList.memo`;
    RankDeficient when the list does not span."""
    table = x.memo("bases", _basis_table)
    if not table:
        raise RankDeficient("list does not span")
    return table


def _basis_table(x: GList) -> dict:
    """{B: (adj, det)} over the bases B of X, in lexicographic index order,
    from one `linalg.subset_adjugates` over the free parts.

    adj is the adjugate of the d x d matrix whose rows are the free parts
    of B in index order, and det > 0 its |determinant|.  So the coordinates
    of x_j in B are (x_j . adj[:, k]) / det, and on a lattice m(B) = det.
    Built once per list value and kept by `GList.memo`; a list that does
    not span has an empty table.
    """
    subsets = subset_adjugates([e.free for e in x.elems], x.group.free_rank)
    return {frozenset(rows): (adj, det) for rows, adj, det in subsets}


def is_unimodular(x: GList) -> bool:
    """Every basis has multiplicity 1 (and the group is free): on a
    lattice m(B) = |det B|, read from the basis table."""
    if x.group.invariants:
        return False
    return all(det == 1 for _, det in _spanning_table(x).values())


def corank_one_flats(x: GList) -> list:
    """Index sets of the closed rank-(r-1) flats of X (r = rank of X).

    Each independent (r-1)-subset spans a flat: the columns orthogonal to
    every vector of the subset's orthogonal complement, found with one
    elimination per subset.
    """
    n, d = len(x), x.group.free_rank
    r = rank_of(x, range(n))
    if r == 0:
        return []
    cols = [x.elems[i].free for i in range(n)]
    flats = set()
    for comb in itertools.combinations(range(n), r - 1):
        normals = nullspace([cols[i] for i in comb], ncols=d)
        if len(normals) != d - r + 1:
            continue
        flats.add(frozenset(
            i for i in range(n)
            if not any(dot(eta, cols[i]) for eta in normals)))
    return sorted(flats, key=sorted)


def cocircuits(x: GList) -> list:
    """Complements of corank-1 flats, as sorted index tuples."""
    n = len(x)
    r = rank_of(x, range(n))
    if r == 0:
        return []
    out = [tuple(sorted(set(range(n)) - f)) for f in corank_one_flats(x)]
    # minimality sanity: removing a cocircuit drops the rank
    for c in out:
        rest = [i for i in range(n) if i not in c]
        rest_rank = rank_of(x, rest)
        if rest_rank != r - 1:
            raise InternalError(f"removing cocircuit {c} leaves rank "
                                f"{rest_rank}, not {r - 1}")
    return sorted(out)


def external_activity(x: GList, b) -> frozenset:
    """Externally active indices: x_j outside B lying in the span of the
    basis elements that precede it in the list order.

    (Equivalently, x_j is the largest index in its fundamental circuit.)
    The coordinates of x_j in B are adj . x_j / det, read from the basis
    table (`_basis_table`) in integers; x_j is active when they vanish on
    every basis element after j, that is when those entries of the integer
    vector adj . x_j are zero.  b must be a basis of x: any other index set
    misses the table and raises NotABasis.
    """
    key = frozenset(b)
    try:
        adj, _ = x.memo("bases", _basis_table)[key]
    except KeyError:
        raise NotABasis(f"{sorted(key)} is not a basis of the list") \
            from None
    cols = list(zip(sorted(key), zip(*adj)))
    return frozenset(j for j, e in enumerate(x.elems)
                     if j not in key and not any(dot(e.free, col)
                                                 for i, col in cols if i > j))


# ---------------------------------------------------------------------------
# Tutte polynomials
# ---------------------------------------------------------------------------

def tutte(x: GList) -> BivarPoly:
    """Tutte polynomial of the matroid of free parts (torsion = loops)."""
    r = rank_of(x, range(len(x)))
    return _tutte_sum(_size_rank_table(x, lambda lattice, subset: 1), r)


def arithmetic_tutte(x: GList) -> BivarPoly:
    """Subset sum with multiplicities; exponent d is the group rank.

    m(S) is the torsion order of Z^(d+t)/L_S.  When L_S has full rank d+t,
    that is its index, the product of its Hermite pivots; a lattice below
    full rank takes the Smith normal form of `multiplicity`.
    """
    full = x.group.ncoords

    def weight(lattice, subset):
        if len(lattice) == full:
            return math.prod(row[i] for i, row in enumerate(lattice))
        return multiplicity(x, subset)

    return _tutte_sum(_size_rank_table(x, weight), x.group.free_rank)


def _size_rank_table(x: GList, weight) -> dict:
    """{(|S|, rank S): sum of weight(L_S, S)} over every subset S of
    indices, for a weight that depends only on the lattice L_S.

    The lattices come from `_lattice_walk`, built once per list value and
    kept by `GList.memo`, so both Tutte polynomials of one list share one
    walk.  The relations span the t torsion coordinates, so the free rank
    of S is the row count of L_S minus t.  The weight is called once per
    distinct L_S, with L_S (the `hnf_insert` rows) and the subset kept for
    it.
    """
    t = len(x.group.invariants)
    table = {}
    for lattice, counts, subset in x.memo("lattices", _lattice_walk):
        w, rk = weight(lattice, subset), len(lattice) - t
        for size, c in enumerate(counts):
            if c:
                table[size, rk] = table.get((size, rk), 0) + w * c
    return table


def _lattice_walk(x: GList) -> tuple:
    """One (L_S, counts, subset) per distinct lattice L_S over the subsets
    S of indices: counts[k] is the number of such S of size k, and subset
    is one S that spans L_S.

    L_S is the lattice spanned by lift(S) and the torsion relations
    k_j e_(d+j), in the canonical form of `hnf_insert`.  One pass over the
    columns keeps every state; column i adds each one grown by lift(x_i).
    """
    g = x.group
    n = len(x)
    states = {g.relations: ([1] + [0] * n, ())}
    for i, e in enumerate(x.elems):
        lift = e.lift()
        grown = {lattice: (list(counts), subset)
                 for lattice, (counts, subset) in states.items()}
        for lattice, (counts, subset) in states.items():
            key = hnf_insert(lattice, lift)
            state = grown.get(key)
            if state is None:
                state = grown[key] = ([0] * (n + 1), subset + (i,))
            into = state[0]
            into[1:i + 2] = map(add, into[1:i + 2], counts)
        states = grown
    return tuple((lattice, tuple(counts), subset)
                 for lattice, (counts, subset) in states.items())


def _tutte_sum(table, top: int) -> BivarPoly:
    """Sum of c (a-1)^(top - rk) (b-1)^(size - rk) over table[size, rk] = c."""
    terms = {}
    for (size, rk), c in table.items():
        for i, ci in enumerate(_binomial_row(top - rk)):
            for j, cj in enumerate(_binomial_row(size - rk)):
                terms[i, j] = terms.get((i, j), 0) + c * ci * cj
    return BivarPoly(terms)


def _binomial_row(p: int) -> list:
    """Coefficients of (z - 1)^p in increasing degree."""
    return [math.comb(p, i) * (-1) ** (p - i) for i in range(p + 1)]


def is_coloop(x: GList, i: int) -> bool:
    """x_i is a coloop iff deleting it drops the rank."""
    n = len(x)
    full = rank_of(x, range(n))
    return rank_of(x, [j for j in range(n) if j != i]) == full - 1
