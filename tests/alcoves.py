"""Alcove geometry shared by the spline tests: the sample point that
`brionvergne._alcove_polynomial` takes, the room around it, and B_X as the
alternating sum of translates of T_X.

Plain functions with no test-framework imports, so `test_geometry` and
`test_acceptance` read the same alcove sample.
"""
import itertools
import math
from fractions import Fraction as F

from zonotopal.geometry import hyperplane_normals, tx_value


def alcove_sample(x, point, w):
    """point + 2 eps0 w, the alcove sample of `_alcove_polynomial`."""
    bound = max(abs(sum(F(e) * F(c) for e, c in zip(eta, w)))
                for eta in hyperplane_normals(x))
    eps0 = F(1, 4 * (int(bound) + 1))
    return tuple(F(v) + 2 * eps0 * F(c) for v, c in zip(point, w))


def alcove_room(x, p0):
    """r > 0 such that every point within r of p0 in the max norm lies in
    the alcove of p0."""
    room = []
    for eta in hyperplane_normals(x):
        val = sum(F(e) * c for e, c in zip(eta, p0))
        frac = val - math.floor(val)
        if not frac:
            raise ValueError(f"{list(p0)} lies on the affine hyperplane "
                             f"eta.y = {val} of the normal {list(eta)}")
        room.append(min(frac, 1 - frac) / sum(abs(e) for e in eta))
    return min(room) / 2


def bx_by_alternating_sum(x, u):
    """B_X(u) = sum over subsets A of (-1)^|A| T_X(u - sum A), one
    `tx_value` per subset."""
    n = len(x)
    total = F(0)
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            shift = [F(v) for v in u]
            for i in comb:
                shift = [s - f for s, f in zip(shift, x.elems[i].free)]
            t = tx_value(x, shift)
            total += t if size % 2 == 0 else -t
    return total
