"""Deterministic randomized corpus of test lists.

Uses a tiny explicit xorshift PRNG rather than the stdlib generator so that
identical seeds produce byte-identical corpora on any interpreter version.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgGroup, GList, rank_of


class _XorShift:
    """xorshift64*; deterministic across platforms."""

    def __init__(self, seed: int):
        self.state = (seed * 2685821657736338717 + 1) & (2 ** 64 - 1)

    def next(self) -> int:
        s = self.state
        s ^= (s >> 12) & (2 ** 64 - 1)
        s ^= (s << 25) & (2 ** 64 - 1)
        s ^= (s >> 27) & (2 ** 64 - 1)
        self.state = s
        return (s * 2685821657736338717) & (2 ** 64 - 1)

    def below(self, n: int) -> int:
        return self.next() % n

    def pick(self, seq):
        return seq[self.below(len(seq))]


@dataclass
class CorpusLimits:
    max_dim: int = 3
    max_len: int = 7
    max_entry: int = 3
    torsion_choices: tuple = (2, 3, 4)
    allow_torsion: bool = True
    require_pointed: bool = False
    max_volume: int | None = None
    # coloop-free lists: the box spline vanishes on the zonotope boundary,
    # which the partition-of-unity identity implicitly needs
    no_coloops: bool = False


def corpus(seed: int, limits: CorpusLimits | None = None, count: int = 50):
    """Deterministic full-rank (optionally pointed) lists."""
    from .geometry import is_pointed
    from .matroid import arithmetic_tutte

    limits = limits or CorpusLimits()
    rng = _XorShift(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        d = 1 + rng.below(limits.max_dim)
        torsion = ()
        if limits.allow_torsion and rng.below(4) == 0:
            k = rng.pick(limits.torsion_choices)
            torsion = (k,)
        group = FgGroup(d, torsion)
        n = d + rng.below(limits.max_len - d + 1)
        cols = []
        for _ in range(n):
            free = [rng.below(2 * limits.max_entry + 1) - limits.max_entry
                    for _ in range(d)]
            tors = [rng.below(k) for k in torsion]
            cols.append(free + tors)
        x = GList.from_columns(cols, group)
        if rank_of(x, range(len(x))) != d:
            continue
        if limits.require_pointed and not is_pointed(x):
            continue
        if limits.no_coloops:
            from .matroid import is_coloop
            if any(is_coloop(x, i) for i in range(len(x))):
                continue
        if limits.max_volume is not None:
            if arithmetic_tutte(x).evaluate(1, 1) > limits.max_volume:
                continue
        out.append(x)
    return out
