"""Views of package values that only the tests read.

Plain functions over the public attributes of `MPoly`, `BivarPoly` and
`GList`; this module imports no test framework.
"""

from zonotopal.scalar import MPoly


def is_constant(p) -> bool:
    """p is a constant polynomial (zero included)."""
    return all(not any(e) for e in p.terms)


def homogeneous_slice(p, k: int):
    """The terms of p of total degree k, as an `MPoly`."""
    return MPoly(p.vars, {e: c for e, c in p.terms.items() if sum(e) == k})


def coefficients_reversed(p, shift: int, alpha) -> list:
    """Coefficient list of q^shift * P(alpha, 1/q) in increasing q-degree,
    for a `BivarPoly` P: the Hilbert-series identities q^(N-d) * T(a, q^-1).
    """
    out = [0] * (shift + 1)
    for (i, j), c in p.terms.items():
        out[shift - j] += c * alpha ** i
    return out


def free_columns(x) -> list:
    """Free parts of the list's elements as integer tuples, in list order."""
    return [e.free for e in x.elems]
