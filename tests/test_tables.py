"""Every cache table under ``src/zonotopal/`` and its bound.

A `functools.lru_cache` table keeps its values for the life of the
process, so its maxsize is part of what the program may hold in memory.
The table below names each one, as module.function, with its maxsize
(None: unbounded; `functools.cache` is such a table).  Adding, removing or
resizing a cache changes this table too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zonotopal"

CACHE_TABLES = {
    "abelian._shared_element": 1024,
    "abelian.list_facts": 4,
    "brionvergne._applied": 64,
    "cli.build_parser": None,
    "scalar._embed_powers": None,
    "scalar._linear_powers": 256,
    "scalar._reduction_table": None,
    "scalar._todd_coefficients": 256,
    "scalar._todd_logs": 256,
    "scalar.bernoulli": None,
    "scalar.cyclotomic_polynomial": None,
}

_LRU_DEFAULT = 128      # lru_cache's maxsize when it is given none


def _maxsize(decorator):
    """(is a cache, maxsize) for one decorator node."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) \
        else getattr(target, "id", None)
    if name == "cache":
        return True, None
    if name != "lru_cache":
        return False, None
    args = list(call.args) + [k.value for k in call.keywords
                              if k.arg == "maxsize"] if call else []
    return True, ast.literal_eval(args[0]) if args else _LRU_DEFAULT


def cache_tables() -> dict:
    """{module.function: maxsize} over the cache decorators of the
    package."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    is_cache, size = _maxsize(dec)
                    if is_cache:
                        out[f"{path.stem}.{node.name}"] = size
    return out


def test_cache_tables_match_the_table():
    assert cache_tables() == CACHE_TABLES
