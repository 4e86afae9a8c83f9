"""Alcove geometry shared by the spline tests: the sample point that
`brionvergne._alcove_polynomial` takes and the room around it.

Plain functions with no test-framework imports, so `test_geometry` and
`test_acceptance` read the same alcove sample.
"""
import math
from fractions import Fraction as F

from zonotopal.geometry import hyperplane_normals


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
        assert frac
        room.append(min(frac, 1 - frac) / sum(abs(e) for e in eta))
    return min(room) / 2
