"""Row-span membership, the oracle that tests of spaces and of external
activity compare against.

A plain function with no test-framework imports, as in `alcoves`.
"""
from zonotopal.linalg import rank


def span_contains(basis_rows, v) -> bool:
    """Is v in the row span of basis_rows?"""
    if not basis_rows:
        return not any(v)
    return rank(basis_rows) == rank(basis_rows + [v])
