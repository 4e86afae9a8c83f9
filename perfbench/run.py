"""Benchmark for `zonotopal`: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload tutte --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  With `--trace 0` the last line of stdout is one JSON object with
the end-to-end metrics, measured untraced.  With `--trace 1` every job runs
untraced and traced, in alternating order, and the object holds the
per-layer metrics instead.  End-to-end times are wall times rescaled to a
host of fixed speed (see `REF_S`).  The line before it is a record of the
environment and the run.  Every job result is checked by an oracle after
the timed loop; a failed or wrong job stays in the timing sample and
counts in `failed`.
"""

import argparse
from fractions import Fraction
import gc
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
MIN_COVERAGE = 0.9
# A shared host's speed drifts (by up to 1.7x within a minute on a 2-CPU
# cloud VM), alike for every pure-Python loop.  So every time metric is a wall time
# multiplied by REF_S over the time of `reference_s` measured next to it:
# the time the work would take on a host where that loop takes REF_S.
REF_S = 0.001
_REF_MATRIX = [[Fraction(1 + (i * j) % 5, 2 + (i + j) % 3) + (8 if i == j else 0)
                for j in range(7)] for i in range(7)]

# Functions each workload is meant to exercise: a traced run in which one
# of them records no call fails.
REQUIRED = {
    "tutte": ("matroid.arithmetic_tutte", "matroid.tutte", "abelian.rank_of",
              "abelian.multiplicity", "abelian.snf", "linalg.rank", "linalg.rref"),
    "todd": ("periodic.f_tilde", "periodic.periodic_todd", "scalar.MPoly.mul_capped",
             "scalar.TruncatedSeries.inverse", "scalar.todd_factor", "scalar.exp_series",
             "scalar.divide_by_linear", "toric.vertices", "polyspace.PsiProjector.__init__",
             "polyspace.PsiProjector.project_poly", "polyspace.p_basis", "matroid.bases",
             "matroid.cocircuits", "matroid.corank_one_flats", "matroid.external_activity",
             "linalg.solve"),
    "count": ("brionvergne.bv_count", "brionvergne.apply_periodic", "geometry.big_cells",
              "geometry.local_piece", "geometry.in_cone", "geometry.tx_value",
              "geometry.polytope_volume", "periodic.f_tilde", "toric.vertices",
              "polyspace.PsiProjector.__init__", "scalar.MPoly.mul_capped"),
    "identities": ("cli.main", "brionvergne.partition_of_unity",
                   "brionvergne.box_delta_check", "geometry.bx_value",
                   "geometry.lattice_points", "geometry.polytope_volume", "linalg.det",
                   "linalg.nullspace", "linalg.rref", "periodic.f_tilde"),
}


def pin_environment():
    os.environ["ZONOTOPAL_THREADS"] = "1"
    os.environ.pop("ZONOTOPAL_PURE", None)
    sys.path[:0] = [str(SRC), str(HERE)]


def reference_s():
    """Median wall time of five runs of a fixed loop of Fraction elimination
    and dict updates, the kinds of work the package does, written without
    the package.  The median and the paused collector keep an interrupt or
    a collection owed by the job before out of it."""
    times = []
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            m = [row[:] for row in _REF_MATRIX]
            for k in range(len(m)):
                for i in range(k + 1, len(m)):
                    f = m[i][k] / m[k][k]
                    m[i] = [a - f * b for a, b in zip(m[i], m[k])]
            acc = {}
            for i in range(300):
                key = (i % 13, i % 7)
                acc[key] = acc.get(key, 0) + i * i
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def speed(ref_before, ref_after):
    """The factor that rescales a wall time measured between two timings
    of `reference_s` to a host where it takes REF_S."""
    return 2 * REF_S / (ref_before + ref_after)


def measure_setup(workload):
    """Median rescaled wall time of a fresh interpreter that imports the
    package and runs the workload's warm-up job."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.WORKLOADS[%r][1]()" % (str(SRC), str(HERE), workload))
    times = []
    ref = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        dt = time.perf_counter() - t0
        ref_after = reference_s()
        times.append(dt * speed(ref, ref_after))
        ref = ref_after
    return statistics.median(times)


def tail(samples):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-slowest sample, at percentile 100 * (n - 10) / n.  With whole
    cycles of a fixed job mix it stays inside one job class as n grows."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 50.0, statistics.median(xs)
    return 100 * (n - 10) / n, xs[n - 11]


def run_job(job):
    t0 = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception as exc:  # a failed job is counted and stays in the sample
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def timed_loop(wl, seconds, tracer=None):
    """Whole cycles until `seconds` have passed.  Returns per-job
    (duration, speed, result, error, job); with a tracer, also the untraced
    and traced busy time, the traced outcomes being compared with the
    untraced.  Untraced, `reference_s` runs after each job to give its
    speed factor; traced, the factor is None."""
    done, plain_s, traced_s = [], 0.0, 0.0
    ref = reference_s()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for job in wl.cycle():
            if tracer is None:
                dt, result, error = run_job(job)
                ref_after = reference_s()
                done.append((dt, speed(ref, ref_after), result, error, job))
                ref = ref_after
                continue
            runs = {}
            for traced in ((False, True) if len(done) % 2 == 0 else (True, False)):
                if traced:
                    tracer.enable()
                try:
                    runs[traced] = run_job(job)
                finally:
                    if traced:
                        tracer.disable()
            (dt, result, error), (tdt, tresult, terror) = runs[False], runs[True]
            plain_s += dt
            traced_s += tdt
            if error is None and (terror is not None
                                  or job.digest(result) != job.digest(tresult)):
                error = f"traced run differs: {terror or 'other result'}"
            done.append((dt, None, result, error, job))
    return done, plain_s, traced_s


def check_results(done):
    failures = []
    for _, _, result, error, job in done:
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:  # counted, so a bad result cannot crash the check
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{job.kind}: {error}")
    return failures


def environment():
    import zonotopal

    digest = hashlib.sha256()
    for path in sorted((SRC / "zonotopal").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "kernel_impl": zonotopal.kernel_impl,
            "ZONOTOPAL_THREADS": os.environ["ZONOTOPAL_THREADS"]}


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("tutte", "todd", "count", "identities"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zonotopal" / "__init__.py").is_file():
        print(f"no zonotopal sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    setup_s = None if args.trace else measure_setup(args.workload)

    import workloads

    cls, warmup = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed)
    warmup()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.enable()
        try:
            tracer.check_complete()
        finally:
            tracer.disable()
    gc.collect()
    done, plain_s, traced_s = timed_loop(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_results(done)

    walls = [d[0] for d in done]
    times = walls if tracer is not None else [dt * s for dt, s, *_ in done]
    p, tail_s = tail(times)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "jobs": len(times),
              "job_kinds": sorted({d[4].kind for d in done}),
              "tail_percentile": p, "tail_samples": len(times),
              "failed_frac": len(failures) / len(times), "failures": failures[:10],
              "wall_job_p50_ms": statistics.median(walls) * 1e3,
              **wl.info()}
    if tracer is None:
        record["host_speed_p50"] = statistics.median(d[1] for d in done)
        metrics = {"job_p50_ms": (statistics.median(times) * 1e3, "ms"),
                   "job_tail_ms": (tail_s * 1e3, "ms"),
                   "jobs_per_s": (len(times) / sum(times), "1/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
        metrics["trace.coverage"] = (tracer.top_s / traced_s, "ratio")
        missing = [f for f in REQUIRED[args.workload] if not tracer.calls[f]]
        if missing or metrics["trace.coverage"][0] < MIN_COVERAGE:
            print(json.dumps({"record": record, "unreached": missing,
                              "coverage": metrics["trace.coverage"][0]}))
            print("traced run did not reach its layers", file=sys.stderr)
            return 1
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": len(times),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
