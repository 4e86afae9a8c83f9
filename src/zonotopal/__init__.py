"""Exact zonotopal algebra for lattice and finite-abelian-group vector lists.

Computes P/D/DM and periodic P-spaces, arithmetic Tutte polynomials, toric
arrangement vertices, Todd-operator projections, exact spline and partition
function values, and the operator identities tying them together.  All
arithmetic is exact (rationals and cyclotomic numbers); there is no floating
point anywhere.

Every value type is an immutable snapshot and every operation is a pure
function, so objects can be shared freely across threads or processes; any
parallel evaluation reduces in a fixed deterministic order.
"""

kernel_impl = "pure"  # kept for callers that record it; there is no compiled variant

__version__ = "0.1.0"

__all__ = ["kernel_impl", "__version__"]
