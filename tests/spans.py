"""Row spans, ranks and the psi projection as plain functions: the oracles
that tests of spaces and of external activity compare against.

No test-framework imports, as in `alcoves`.
"""
from zonotopal.linalg import rank, rref
from zonotopal.polyspace import PsiProjector


def span_contains(basis_rows, v) -> bool:
    """Is v in the row span of basis_rows?"""
    if not basis_rows:
        return not any(v)
    return rank(basis_rows) == rank(basis_rows + [v])


def span_equal(rows_a, rows_b) -> bool:
    """Do two row lists span the same subspace?  (Canonical RREF compare.)"""
    a = [r for r in rows_a if any(r)]
    b = [r for r in rows_b if any(r)]
    if not a or not b:
        return not a and not b
    ra = [r for r in rref(a)[0] if any(r)]
    rb = [r for r in rref(b)[0] if any(r)]
    return ra == rb


def psi_project(x, f):
    """psi_X(f) from a fresh projector."""
    return PsiProjector(x)(f)


def stacked_rank(elems) -> int:
    """Rank of periodic polynomials: one coefficient row per element, one
    column per (character, monomial), over every character at once."""
    chars = sorted({c for p in elems for c, _ in p.terms})
    monos = sorted({e for p in elems for _, poly in p.terms
                    for e in poly.terms})
    return rank([[p.component(c).coefficient(e)
                  for c in chars for e in monos] for p in elems])
