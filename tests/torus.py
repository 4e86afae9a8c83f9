"""The torus point count: an oracle for both Tutte polynomials of a lattice
list that enumerates no subsets.

For t in Hom(Z^d, Z/N) = (Z/N)^d let h(t) be the number of columns x with
t.x = 0 mod N.  The t that vanish on a subset S number N^(d - rk S) m(S)
when N is a multiple of the exponent of every torsion group of Z^d/<S>,
so

    sum_t y^h(t) = sum_S (y-1)^|S| N^(d - rk S) m(S)
                 = (y-1)^d M(1 + N/(y-1), y).

N = lcm |det B| over the bases B is such a multiple.  Modulo a prime q that
divides no det B, every subset has its rank over Q, and the same count
gives (y-1)^d T(1 + q/(y-1), y).  Everything is integer arithmetic.
(Ardila, Pacific J. Math. 230 (2007), the finite-field method;
D'Adderio-Moci, Adv. Math. 232 (2013).)
"""

import itertools
import math
from collections import Counter


def point_count(cols, modulus) -> list:
    """sum_t y^h(t) over t in (Z/modulus)^d, as coefficients in y."""
    n, d = len(cols), len(cols[0])
    weights = Counter(map(tuple, cols)).items()
    out = [0] * (n + 1)
    for t in itertools.product(range(modulus), repeat=d):
        out[sum(m for c, m in weights
                if not sum(a * b for a, b in zip(t, c)) % modulus)] += 1
    return out


def tutte_side(poly, d, modulus, n) -> list:
    """(y-1)^d P(1 + N/(y-1), y) for the Tutte polynomial P = sum c a^i b^j
    and N = modulus, as coefficients in y: the sum of
    c (y-1)^(d-i) (y-1+N)^i y^j, whose degree is at most n."""
    out = [0] * (n + 1)
    for (i, j), c in poly.terms.items():
        term = [0] * j + [c]
        for _ in range(d - i):
            term = _times_linear(term, -1)
        for _ in range(i):
            term = _times_linear(term, modulus - 1)
        for k, v in enumerate(term):
            out[k] += v
    return out


def _times_linear(p, c) -> list:
    """p(y) (y + c)."""
    return [a * c + b for a, b in zip(p + [0], [0] + p)]


def basis_lcm(cols) -> int:
    """lcm |det B| over the bases B of the columns; 0 if they do not span."""
    d = len(cols[0])
    dets = {abs(_det(b)) for b in itertools.combinations(set(map(tuple, cols)),
                                                         d)}
    dets.discard(0)
    return math.lcm(*dets) if dets else 0


def good_primes(modulus, d, limit) -> list:
    """Up to d + 1 primes q that do not divide modulus, with q^d <= limit."""
    out = []
    for q in range(2, limit + 1):
        if q ** d > limit or len(out) > d:
            break
        if all(q % p for p in range(2, q)) and modulus % q:
            out.append(q)
    return out


def _det(rows) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))
