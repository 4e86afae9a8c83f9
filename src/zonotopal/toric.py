"""Vertices of the generalised toric arrangement and character evaluation.

A character is stored by exact rational data: theta for the free part
(entries mod 1) and one residue per torsion coordinate.  Vertex enumeration
goes basis by basis through the Smith normal form of the presented quotient,
so exactly m(B) candidate characters are produced per basis, no search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .abelian import FgGroup, GElement, GList, snf
from .errors import InternalError, RankDeficient
from .matroid import bases
from .scalar import Cyclotomic, rat_str


@dataclass(frozen=True, order=True)
class Character:
    """theta . free(g) + tors . tors(g) mod 1, all entries reduced mod 1.

    Equal data means an equal character, so a Character is the key of every
    per-vertex value; characters sort by (theta, tors).
    """

    theta: tuple
    tors: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta",
                           tuple(Fraction(t) % 1 for t in self.theta))
        object.__setattr__(self, "tors",
                           tuple(Fraction(t) % 1 for t in self.tors))

    @staticmethod
    def trivial(group: FgGroup) -> "Character":
        return Character((Fraction(0),) * group.free_rank,
                         (Fraction(0),) * len(group.invariants))

    def angle(self, g: GElement) -> Fraction:
        """phi(g) as a rational mod 1."""
        total = Fraction(0)
        for t, v in zip(self.theta, g.free):
            total += t * v
        for t, v in zip(self.tors, g.tors):
            total += t * v
        return total % 1

    def is_trivial(self) -> bool:
        return not any(self.theta) and not any(self.tors)

    def fixes(self, g: GElement) -> bool:
        return self.angle(g) == 0

    def order(self) -> int:
        """Order of the root-of-unity image lattice (lcm of denominators)."""
        return math.lcm(*(t.denominator for t in self.theta + self.tors))

    def __repr__(self):
        th = ",".join(rat_str(t) for t in self.theta)
        if not self.tors:
            return f"e[{th}]"
        tr = ",".join(rat_str(t) for t in self.tors)
        return f"e[{th};{tr}]"

    def to_json(self):
        return {"theta": [rat_str(t) for t in self.theta],
                "tors": [rat_str(t) for t in self.tors]}

    @staticmethod
    def from_json(obj) -> "Character":
        return Character(tuple(Fraction(str(t)) for t in obj["theta"]),
                         tuple(Fraction(str(t)) for t in obj["tors"]))


def evaluate(c: Character, g: GElement) -> Cyclotomic:
    """e_phi(g) as an exact root of unity."""
    return Cyclotomic.from_angle(c.angle(g))


def evaluate_point(c: Character, point) -> Cyclotomic:
    """e_phi at a point of the free part, given by its coordinates.  At an
    integer point the angle is summed in integers over the lcm of theta's
    denominators."""
    if all(type(v) is int for v in point):
        den = math.lcm(*(t.denominator for t in c.theta))
        return Cyclotomic.root_of_unity(
            den, sum(t.numerator * (den // t.denominator) * v
                     for t, v in zip(c.theta, point)))
    return Cyclotomic.from_angle(
        sum((t * v for t, v in zip(c.theta, point)), Fraction(0)))


@dataclass(frozen=True)
class VertexData:
    character: Character
    x_phi: tuple          # indices with e_phi(x_i) = 1
    tors_count: int       # |X_t \ X_phi|


def _characters_killing(x: GList, basis) -> list:
    """All characters of G annihilating <B>, via SNF of the presentation."""
    g = x.group
    n = g.ncoords
    cols = [x.elems[i].lift() for i in sorted(basis)]
    for j, k in enumerate(g.invariants):
        col = [0] * n
        col[g.free_rank + j] = k
        cols.append(col)
    mat = [[col[r] for col in cols] for r in range(n)]
    u, d, _ = snf(mat)
    diag = [d[r][r] if r < min(len(d), len(d[0])) else 0 for r in range(n)]
    if not all(diag):
        raise InternalError(f"the basis {sorted(basis)} does not have "
                            f"finite index")
    out = []
    for combo in itertools.product(*(range(di) for di in diag)):
        # character y -> sum_i combo[i]/diag[i] * y_i pulled back along U
        coeffs = [Fraction(c, di) for c, di in zip(combo, diag)]
        func = [Fraction(0)] * n
        for c, row in zip(coeffs, u):
            if c:
                for i in range(n):
                    func[i] += c * row[i]
        out.append(Character(tuple(func[: g.free_rank]),
                             tuple(func[g.free_rank:])))
    return out


def _all_torsion_characters(group: FgGroup) -> list:
    if group.free_rank:
        raise InternalError(f"{group.spec_string()} is not finite, so its "
                            f"characters cannot be listed")
    out = []
    for combo in itertools.product(*(range(k) for k in group.invariants)):
        out.append(Character((), tuple(Fraction(c, k) for c, k
                                       in zip(combo, group.invariants))))
    return out


def vertices(x: GList) -> list:
    """Vertices of the toric arrangement of X, sorted by character data.

    Rank-0 groups return all of T(G); otherwise the union over bases of the
    characters annihilating the basis.
    """
    g = x.group
    if g.free_rank == 0:
        chars = _all_torsion_characters(g)
    else:
        chars = {c for b in bases(x) for c in _characters_killing(x, b)}
        if not chars:
            raise RankDeficient("no basis of finite index")
    tors_idx = set(x.torsion_indices())
    out = []
    for c in sorted(chars):
        x_phi = tuple(i for i in range(len(x)) if c.fixes(x.elems[i]))
        tors_count = sum(1 for i in tors_idx if i not in x_phi)
        out.append(VertexData(c, x_phi, tors_count))
    return out
