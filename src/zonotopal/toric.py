"""Vertices of the generalised toric arrangement and character evaluation.

A character is stored as integer numerators over their least common
denominator (its order): theta for the free part, then one residue per
torsion coordinate, all reduced mod 1.  It is tested, evaluated and
ordered on group elements in integers; theta and tors are Fraction views
of the same data.  Vertex enumeration goes basis by basis, over the bases
in the list's basis table (`matroid.bases`), through the Smith normal form
of the presented quotient, so exactly m(B) candidate characters are
produced per basis, no search; each is built over the lcm of the Smith
diagonal in integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from operator import mul

from .abelian import FgGroup, GElement, GList, snf
from .errors import InternalError, RankDeficient
from .matroid import bases
from .scalar import Cyclotomic, rat_str


@total_ordering
@dataclass(frozen=True, slots=True, init=False, repr=False)
class Character:
    """theta . free(g) + tors . tors(g) mod 1, all entries reduced mod 1.

    Stored as ``nums`` / ``den``: den the lcm of the denominators (the
    order) and nums the numerators over it, theta's first (``free_rank``
    of them), each in [0, den).  Equal data means an equal character, so a
    Character is the key of every per-vertex value.  Characters sort by
    (theta, tors), compared in integers; `theta` and `tors` are Fraction
    views.  ``Character(theta, tors)`` takes any iterables of rationals;
    `Character.over` builds one from ints.
    """

    den: int
    nums: tuple
    free_rank: int

    def __init__(self, theta, tors):
        theta = [Fraction(t) for t in theta]
        data = theta + [Fraction(t) for t in tors]
        den = math.lcm(*(t.denominator for t in data))
        self._keep(den, [t.numerator * (den // t.denominator) for t in data],
                   len(theta))

    @staticmethod
    def over(den: int, nums, free_rank: int) -> "Character":
        """The character with data nums / den, for ints nums (free_rank of
        theta, then tors) and den > 0, with no Fraction arithmetic."""
        c = object.__new__(Character)
        c._keep(den, nums, free_rank)
        return c

    def _keep(self, den, nums, free_rank):
        """Set den, nums and free_rank from nums / den reduced mod 1 and
        over their least common denominator."""
        nums = [v % den for v in nums]
        g = math.gcd(den, *nums)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "nums", tuple(v // g for v in nums))
        object.__setattr__(self, "free_rank", free_rank)

    @property
    def theta(self) -> tuple:
        return tuple(Fraction(v, self.den)
                     for v in self.nums[:self.free_rank])

    @property
    def tors(self) -> tuple:
        return tuple(Fraction(v, self.den)
                     for v in self.nums[self.free_rank:])

    def __lt__(self, other):
        """(theta, tors) < (other.theta, other.tors), with each side's
        numerators brought over the product of the two orders."""
        if not isinstance(other, Character):
            return NotImplemented
        a = [v * other.den for v in self.nums]
        b = [v * self.den for v in other.nums]
        f, g = self.free_rank, other.free_rank
        return (a[:f], a[f:]) < (b[:g], b[g:])

    @staticmethod
    def trivial(group: FgGroup) -> "Character":
        return Character.over(1, (0,) * group.ncoords, group.free_rank)

    def angle(self, g: GElement) -> Fraction:
        """phi(g) as a rational mod 1."""
        return Fraction(self._numerator(g) % self.den, self.den)

    def _numerator(self, g: GElement) -> int:
        """den * phi(g), an integer (not reduced mod den)."""
        return sum(map(mul, self.nums, g.free + g.tors))

    def is_trivial(self) -> bool:
        return not any(self.nums)

    def fixes(self, g: GElement) -> bool:
        return not self._numerator(g) % self.den

    def order(self) -> int:
        """Order of the root-of-unity image lattice (lcm of denominators)."""
        return self.den

    def __repr__(self):
        th = ",".join(rat_str(t) for t in self.theta)
        if self.free_rank == len(self.nums):
            return f"e[{th}]"
        tr = ",".join(rat_str(t) for t in self.tors)
        return f"e[{th};{tr}]"

    def to_json(self):
        return {"theta": [rat_str(t) for t in self.theta],
                "tors": [rat_str(t) for t in self.tors]}

    @staticmethod
    def from_json(obj) -> "Character":
        return Character(map(str, obj["theta"]), map(str, obj["tors"]))


def evaluate(c: Character, g: GElement) -> Cyclotomic:
    """e_phi(g) as an exact root of unity."""
    return Cyclotomic.root_of_unity(c.den, c._numerator(g))


def evaluate_point(c: Character, point) -> Cyclotomic:
    """e_phi at a point of the free part, given by its (rational)
    coordinates."""
    return Cyclotomic.from_angle(
        Fraction(sum(map(mul, c.nums[:c.free_rank], point)), c.den))


@dataclass(frozen=True)
class VertexData:
    character: Character
    x_phi: tuple          # indices with e_phi(x_i) = 1
    tors_count: int       # |X_t \ X_phi|


def _characters_killing(x: GList, basis) -> list:
    """All characters of G annihilating <B>, via SNF of the presentation.

    With U [lifts of B | relations] V = diag, the characters are
    y -> sum_i c_i / diag_i (U y)_i for 0 <= c_i < diag_i: over
    den = lcm(diag), the numerators sum_i c_i (den / diag_i) U_i, in ints.
    """
    g = x.group
    n = g.ncoords
    u, d, _ = snf(g.presentation([x.elems[i].lift()
                                  for i in sorted(basis)]))
    diag = [d[r][r] if r < min(len(d), len(d[0])) else 0 for r in range(n)]
    if not all(diag):
        raise InternalError(f"the basis {sorted(basis)} does not have "
                            f"finite index")
    den = math.lcm(*diag)
    out = []
    for combo in itertools.product(*(range(di) for di in diag)):
        nums = [0] * n
        for c, di, row in zip(combo, diag, u):
            if c:
                f = c * (den // di)
                nums = [v + f * r for v, r in zip(nums, row)]
        out.append(Character.over(den, nums, g.free_rank))
    return out


def _all_torsion_characters(group: FgGroup) -> list:
    if group.free_rank:
        raise InternalError(f"{group.spec_string()} is not finite, so its "
                            f"characters cannot be listed")
    den = math.lcm(*group.invariants)
    return [Character.over(den, [c * (den // k) for c, k
                                 in zip(combo, group.invariants)], 0)
            for combo in itertools.product(*(range(k)
                                             for k in group.invariants))]


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
