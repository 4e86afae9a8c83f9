"""Self-test of the benchmark's tracer, oracles and statistics.

    python3 perfbench/selftest.py

Run from the root of a source checkout, like `run.py`.
"""

import itertools
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.pin_environment()

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from zonotopal import abelian, brionvergne, geometry, linalg, periodic, toric  # noqa: E402
from zonotopal.abelian import GList  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def leaf():
            clock.now += 1.0

        def middle():
            clock.now += 2.0
            leaf_w()
            clock.now += 3.0

        def outer():
            clock.now += 4.0
            middle_w()
            leaf_w()
            clock.now += 5.0

        leaf_w = tr.wrap("linalg.leaf", leaf)
        middle_w = tr.wrap("abelian.middle", middle)
        outer_w = tr.wrap("matroid.outer", outer)
        outer_w()
        clock.now += 100.0       # time outside any span is not recorded
        self.assertEqual(tr.calls, {"linalg.leaf": 2, "abelian.middle": 1,
                                    "matroid.outer": 1})
        self.assertEqual(tr.self_s["linalg.leaf"], 2.0)
        self.assertEqual(tr.self_s["abelian.middle"], 5.0)
        self.assertEqual(tr.self_s["matroid.outer"], 9.0)
        self.assertEqual(tr.top_s, 16.0)

    def test_error_counts_per_module_and_closes_span(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def boom():
            clock.now += 1.0
            raise ValueError("x")

        boom_w = tr.wrap("geometry.boom", boom)
        with self.assertRaises(ValueError):
            boom_w()
        self.assertEqual(tr.errors["geometry"], 1)
        self.assertEqual(tr.self_s["geometry.boom"], 1.0)
        self.assertEqual(tr.top_s, 1.0)


class TestPatching(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        tr = tracer.Tracer()
        orig_rank, orig_bx = linalg.rank, geometry.bx_value
        tr.enable()
        try:
            tr.check_complete()
            self.assertIsNot(linalg.rank, orig_rank)
            self.assertIs(abelian.qrank, linalg.rank)
            self.assertIs(periodic.rank_of, abelian.rank_of)
            self.assertIs(brionvergne.f_tilde, periodic.f_tilde)
            self.assertIs(brionvergne.vertices, periodic.vertices)
            self.assertIn(geometry.bx_value,
                          brionvergne._alcove_polynomial.__defaults__)
        finally:
            tr.disable()
        self.assertIs(linalg.rank, orig_rank)
        self.assertIs(abelian.qrank, orig_rank)
        self.assertIn(orig_bx, brionvergne._alcove_polynomial.__defaults__)

    def test_traced_and_untraced_jobs_agree(self):
        tr = tracer.Tracer()
        for name, (cls, _) in workloads.WORKLOADS.items():
            jobs = cls(7).cycle()[:2]
            for job in jobs:
                plain = job.digest(job.run())
                tr.enable()
                try:
                    traced = job.digest(job.run())
                finally:
                    tr.disable()
                self.assertEqual(plain, traced, name)
                self.assertIsNone(job.check(job.run()), name)
            self.assertTrue(tr.calls, name)


class TestOracles(unittest.TestCase):
    LISTS = (((1, 0), (0, 1), (1, 1), (1, 2)),
             ((2, 1), (0, 1), (1, 2), (2, 2), (1, 0)),
             ((1, 1), (2, 1), (2, 2), (0, 2), (2, 1), (1, 2)))

    def test_spline_piece_matches_local_piece(self):
        for cols in self.LISTS:
            x = GList.from_columns([list(c) for c in cols])
            for cell in geometry.big_cells(x):
                want = geometry.local_piece(x, cell)
                got = workloads._piece_poly(cols, cell.sample)
                self.assertEqual(got, want, cols)

    def test_counts_and_interior_points(self):
        for cols in self.LISTS:
            x = GList.from_columns([list(c) for c in cols])
            self.assertEqual(sorted(oracles.zonotope_interior(cols)),
                             geometry.lattice_points(x, "interior"))
            self.assertEqual(oracles.torus_vertices(cols), len(toric.vertices(x)))
            table = oracles.count_table(cols, (6, 5))
            for u in itertools.product(range(7), range(6)):
                self.assertEqual(oracles.count_at(table, u), geometry.vpf_count(x, list(u)))

    def test_determinants(self):
        m = [[2, -1, 0, 3], [1, 3, 1, 0], [0, 1, 4, -2], [5, 0, 1, 1]]
        self.assertEqual(oracles.det(m), linalg.det([[Fraction(v) for v in r] for r in m]))
        self.assertEqual(oracles.snf_order(m), abs(oracles.det(m)))


class TestTail(unittest.TestCase):
    def test_eleventh_slowest(self):
        self.assertEqual(run.tail(list(range(100))), (90.0, 89))
        self.assertEqual(run.tail(list(range(40, 0, -1))), (75.0, 30))
        self.assertEqual(run.tail([3, 1, 2]), (50.0, 2))


class TestSpeed(unittest.TestCase):
    def test_rescales_to_reference_time(self):
        self.assertEqual(run.speed(run.REF_S, run.REF_S), 1.0)
        self.assertEqual(run.speed(run.REF_S, 3 * run.REF_S), 0.5)


if __name__ == "__main__":
    unittest.main()
