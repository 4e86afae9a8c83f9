"""The four benchmark workloads: seeded inputs, jobs and oracle checks.

Every workload is a closed loop of single-process jobs, produced in whole
cycles so that each run has the same mix of job kinds.  Inputs come from
the benchmark's own RNG, never from `zonotopal.corpus`.  Jobs call the
package through module attributes (`matroid.tutte`, not a bound name), so
the tracer's patches see them.  Oracle checks (`Job.check`) run after the
timed loop and use `oracles`, which is independent of the package.
"""

from contextlib import redirect_stderr, redirect_stdout
import io
import itertools
import json
import random

from zonotopal import brionvergne, cli, geometry, matroid, periodic
from zonotopal.abelian import FgGroup, GList
from zonotopal.scalar import Cyclotomic, MPoly, t_vars

import oracles


class Job:
    """One closed-loop request: `run` returns a result, `check` returns an
    error message or None, `digest` gives a value comparable across runs."""

    def __init__(self, kind, run, check, digest=lambda r: r):
        self.kind, self.run, self.check, self.digest = kind, run, check, digest


def _glist(cols, k=None):
    if k is None:
        return GList.from_columns([list(c) for c in cols])
    return GList.from_columns([list(c) for c in cols], FgGroup(len(cols[0]) - 1, (k,)))


def _rows(cols):
    return json.dumps([[c[i] for c in cols] for i in range(len(cols[0]))])


class _Source:
    """Draws lists that have not been used before in this run."""

    def __init__(self, name, seed):
        self.rng = random.Random(f"{name}/{seed}")
        self.seen = set()

    def planar(self, n, ok):
        """n nonzero columns in [0, 2]^2 of rank 2 (hence pointed)."""
        for attempt in itertools.count():
            cols = tuple((self.rng.randint(0, 2), self.rng.randint(0, 2))
                         for _ in range(n))
            if not all(any(c) for c in cols) or not oracles.basis_dets(cols, 2):
                continue
            if not ok(cols) or (cols in self.seen and attempt < 200):
                continue
            self.seen.add(cols)
            return cols


# ---------------------------------------------------------------------------
# tutte: matroid -> abelian -> linalg, no cyclotomic arithmetic
# ---------------------------------------------------------------------------

class Tutte:
    """arithmetic_tutte and tutte on distinct d=3 lists, n = 9..11.  Time
    doubles with each step in n.  Each cycle has five jobs below the n=10
    class and five above it, so the median sits in the middle of that class,
    and the tail (the eleventh-slowest job) inside the n=11 class for any
    run of three cycles or more.  One n=9 and one n=11 list carry a Z/k
    summand, which adds about 10%; the n=10 lists carry none, so the median
    class has one mode.  n=12 is left out: one job takes about 3 s, and the
    few that fit in a run made the tail unsteady."""

    MIX = ((9, False), (9, True)) + ((9, False),) * 3 + ((10, False),) * 3 \
        + ((11, False),) * 4 + ((11, True),)

    def __init__(self, seed):
        self.src = _Source("tutte", seed)
        self.lists = 0

    def cycle(self):
        return [self._job(n, torsion) for n, torsion in self.MIX]

    def _job(self, n, torsion):
        rng = self.src.rng
        while True:
            cols = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(n))
            if (all(any(c) for c in cols) and cols not in self.src.seen
                    and oracles.basis_dets(cols, 3)):
                break
        self.src.seen.add(cols)
        k = rng.randint(2, 4) if torsion else None
        if k:
            cols = tuple(c + (rng.randrange(k),) for c in cols)
        self.lists += 1
        x = _glist(cols, k)
        return Job("tutte", lambda: (matroid.arithmetic_tutte(x), matroid.tutte(x)),
                   lambda r: _check_tutte(cols, k, r))

    def info(self):
        return {"lists": self.lists}


def _check_tutte(cols, k, result):
    arith, plain = result
    dets = oracles.basis_dets([c[:3] for c in cols], 3)
    if plain.evaluate(1, 1) != len(dets):
        return f"T(1,1) = {plain.evaluate(1, 1)}, bases = {len(dets)}"
    if plain.evaluate(2, 2) != 2 ** len(cols):
        return f"T(2,2) = {plain.evaluate(2, 2)} != 2^{len(cols)}"
    if k is None:
        mult = sum(abs(v) for v in dets.values())
    else:
        mult = sum(oracles.snf_order([[cols[j][i] for j in b] + [k if i == 3 else 0]
                                      for i in range(4)])
                   for b in dets)
    if arith.evaluate(1, 1) != mult:
        return f"M(1,1) = {arith.evaluate(1, 1)}, sum of m(B) = {mult}"
    return None


def warm_tutte():
    x = _glist(((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 0), (1, -1, 0, 1)), 2)
    matroid.arithmetic_tutte(x)
    matroid.tutte(x)


# ---------------------------------------------------------------------------
# todd and count: the counting identity i(u - z) = f~_z(D) T_X (u)
# ---------------------------------------------------------------------------

def _piece_poly(cols, sample):
    piece = oracles.spline_piece(cols, sample)
    return MPoly(t_vars(2), {e: Cyclotomic.from_rational(c) for e, c in piece.items()})


def _check_counts(cols, z, ft):
    """f~_z against brute-force counts at small u inside every chamber."""
    rays = oracles.chamber_rays(cols)
    probes = []
    for r1, r2 in zip(rays, rays[1:]):
        piece = _piece_poly(cols, (r1[0] + r2[0], r1[1] + r2[1]))
        for a, b in ((1, 1), (2, 1), (1, 2)):
            probes.append((piece, (a * r1[0] + b * r2[0], a * r1[1] + b * r2[1])))
    top = tuple(max(u[i] for _, u in probes) for i in range(2))
    table = oracles.count_table(cols, top)
    for piece, u in probes:
        got = brionvergne.apply_periodic(ft, piece, u)
        want = oracles.count_at(table, (u[0] - z[0], u[1] - z[1]))
        if not got.is_rational() or got.to_rational() != want:
            return f"f~_z(D)T_X at u={u}, z={z} gives {got}, count is {want}"
    return None


class Todd:
    """One f_tilde(x, z) per job on a distinct pointed d=2 list, n = 5..7,
    z an interior lattice point of the zonotope.  No list repeats, so a
    per-list cache gets no hits.  Every list has four toric vertices: the
    vertex count multiplies the series work, and fixing it keeps the three
    size classes apart in time."""

    SIZES = (5, 6, 7)
    VERTICES = 4

    def __init__(self, seed):
        self.src = _Source("todd", seed)
        self.lists = 0

    def cycle(self):
        return [self._job(n) for n in self.SIZES]

    def _job(self, n):
        cols = self.src.planar(n, lambda c: oracles.torus_vertices(c) == self.VERTICES
                               and oracles.zonotope_interior(c))
        z = self.src.rng.choice(oracles.zonotope_interior(cols))
        self.lists += 1
        x = _glist(cols)
        zel = x.group.element(z)
        return Job("f_tilde", lambda: periodic.f_tilde(x, zel),
                   lambda ft: _check_counts(cols, z, ft))

    def info(self):
        return {"lists": self.lists, "distinct_lists": len(self.src.seen)}


def warm_todd():
    x = _glist(((1, 0), (0, 1), (1, 1), (1, 2)))
    periodic.f_tilde(x, x.group.element((1, 1)))


class Count:
    """Per list: one `prepare` job (big_cells and local_piece), then
    bv_count queries for 6 interior z and 16 values of |u| from 10 to 400.
    The cost of a query should not depend on |u|.  With 96 queries a list,
    fewer than ten prepare jobs fit in a run, so the tail is a query."""

    ZS = 6
    LADDER = tuple(round(10 * 40 ** (i / 15)) for i in range(16))

    def __init__(self, seed):
        self.src = _Source("count", seed)
        self.lists = 0

    def profile(self, cols):
        """Query cost follows the number of toric vertices (the f~_z
        components), of chambers and the volume, so all three are fixed."""
        return (_volume(cols) == 18 and oracles.torus_vertices(cols) == 4
                and len(oracles.chamber_rays(cols)) == 4
                and len(oracles.zonotope_interior(cols)) >= self.ZS)

    def cycle(self):
        rng = self.src.rng
        cols = self.src.planar(5, self.profile)
        self.lists += 1
        x = _glist(cols)
        rays = oracles.chamber_rays(cols)
        lo, hi = rays[0], rays[-1]
        ctx = {}

        def prepare():
            cells = geometry.big_cells(x)
            pieces = [geometry.local_piece(x, c) for c in cells]
            ctx["cells"], ctx["pieces"] = cells, {id(c): p for c, p in zip(cells, pieces)}
            return cells, pieces

        jobs = [Job("prepare", prepare, lambda r: _check_pieces(cols, r),
                    lambda r: [(c.sample, p) for c, p in zip(*r)])]
        queries = []
        for z in rng.sample(oracles.zonotope_interior(cols), self.ZS):
            alpha, beta = rng.randint(1, 2), rng.randint(1, 2)
            v = tuple(alpha * a + beta * b for a, b in zip(lo, hi))
            for size in self.LADDER:
                m = max(1, round(size / max(v)))
                # off every wall, so each query evaluates one chamber's piece
                u = next(u for e in rng.sample(_STEPS, len(_STEPS))
                         if _off_walls(rays, u := (m * v[0] + e[0], m * v[1] + e[1])))
                queries.append((z, u))

        def query(z, u):
            return lambda: brionvergne.bv_count(x, z, u, cells=ctx["cells"],
                                                pieces=ctx["pieces"])

        table = {}

        def check(z, u):
            def verify(r):
                if "t" not in table:
                    top = tuple(max(q[1][i] for q in queries) for i in range(2))
                    table["t"] = oracles.count_table(cols, top)
                want = oracles.count_at(table["t"], (u[0] - z[0], u[1] - z[1]))
                return None if r == want else f"bv_count{z, u} = {r}, count is {want}"
            return verify

        jobs += [Job("bv_count", query(z, u), check(z, u)) for z, u in queries]
        return jobs

    def info(self):
        return {"lists": self.lists, "queries_per_list": self.ZS * len(self.LADDER),
                "z_per_list": self.ZS, "u_ladder": list(self.LADDER)}


_STEPS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def _off_walls(rays, u):
    """u strictly inside one chamber: strictly between the extreme rays and
    on no ray."""
    cross = [r[0] * u[1] - r[1] * u[0] for r in rays]
    return cross[0] > 0 and cross[-1] < 0 and all(cross)


def _check_pieces(cols, result):
    cells, pieces = result
    rays = oracles.chamber_rays(cols)
    if len(cells) != len(rays) - 1:
        return f"{len(cells)} big cells, expected {len(rays) - 1}"
    for cell, piece in zip(cells, pieces):
        want = _piece_poly(cols, cell.sample)
        if piece != want:
            return f"local piece on {cell.sample} is {piece}, expected {want}"
    return None


def warm_count():
    x = _glist(((1, 0), (0, 1), (1, 1), (1, 2)))
    cells = geometry.big_cells(x)
    pieces = {id(c): geometry.local_piece(x, c) for c in cells}
    brionvergne.bv_count(x, (1, 1), (10, 12), cells=cells, pieces=pieces)


# ---------------------------------------------------------------------------
# identities: the CLI and the exact-volume engine
# ---------------------------------------------------------------------------

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(result):
    code, out = result
    if code != 0:
        return f"exit code {code}"
    status = json.loads(out).get("status")
    return None if status == "pass" else f"status {status!r}"


def _volume(cols):
    return sum(abs(v) for v in oracles.basis_dets(cols, 2).values())


def _unimodular(cols):
    return all(abs(v) == 1 for v in oracles.basis_dets(cols, 2).values())


class Identities:
    """`cli.main([..., "--json"])` in process: check-unity on coloop-free
    lists and check-delta on unimodular lists.  Each job class fixes n and
    the zonotope volume (the sum of |det| over bases), which sets the job's
    cost.  The delta n=4 class is the least variable, so it holds the
    median and the tail.  n = 6 unity and n = 5 delta jobs take 5-30 s each
    and are left out."""

    CYCLE = (("check-delta", 3, 3), ("check-unity", 4, 9), ("check-unity", 5, 12)) \
        + (("check-delta", 4, 4),) * 5

    def __init__(self, seed):
        self.src = _Source("identities", seed)
        self.lists = 0

    def cycle(self):
        jobs = []
        for cmd, n, vol in self.CYCLE:
            ok = _unimodular if cmd == "check-delta" else (lambda c: not oracles.has_coloop(c))
            cols = self.src.planar(n, lambda c: _volume(c) == vol and ok(c))
            argv = [cmd, "--x", _rows(cols), "--json"]
            self.lists += 1
            jobs.append(Job(cmd, lambda argv=argv: _cli(argv), _check_cli))
        return jobs

    def info(self):
        return {"lists": self.lists, "distinct_lists": len(self.src.seen)}


def warm_identities():
    _cli(["check-unity", "--x", "[[1,0,1],[0,1,1]]", "--json"])
    _cli(["check-delta", "--x", "[[1,0,1],[0,1,1]]", "--json"])


WORKLOADS = {"tutte": (Tutte, warm_tutte), "todd": (Todd, warm_todd),
             "count": (Count, warm_count), "identities": (Identities, warm_identities)}
