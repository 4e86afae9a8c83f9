"""The package validates without `assert`: `python -O` strips assert
statements, so a check written as one does not run there.

The table records the most `assert` statements each module under
``src/zonotopal/`` may hold; a module it does not name may hold none.  When
an assert goes, lower its entry.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zonotopal"

ASSERT_CEILING = {}


def assert_counts() -> dict:
    """{module name: number of assert statements} over the package."""
    return {path.stem: sum(isinstance(node, ast.Assert) for node in
                           ast.walk(ast.parse(path.read_text("utf-8"))))
            for path in sorted(SRC.glob("*.py"))}


def test_assert_counts_within_table():
    counts = assert_counts()
    assert "brionvergne" in counts and "scalar" in counts
    over = {name: n for name, n in counts.items()
            if n > ASSERT_CEILING.get(name, 0)}
    assert over == {}
