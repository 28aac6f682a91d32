"""One workload in one fresh process: set-up, a warm-up pass, timed passes.

Started by run.py; prints one JSON object on its last stdout line. The
set-up time runs from the parent's spawn (a CLOCK_MONOTONIC reading passed
in ``--spawned-at``) to the start of the first job: interpreter start,
``import taskinfo`` and writing the generated configs and input files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time


def _blas_threads() -> int:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


def _reference_s(a, x) -> float:
    """Time of a fixed computation: interpreter work, small numpy calls and a
    GEMM, the kinds of work the workloads do. It tracks how fast the shared
    machine runs at the moment, which drifts by tens of percent."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for j in range(300_000):
        acc += j * j
    for j in range(40_000):
        np.add(x, j)
    for _ in range(120):
        a @ a
    return time.perf_counter() - t0


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _close(a, b, tol) -> bool:
    """Within the Monte-Carlo tolerance stated in expected.json."""
    if a is None or len(a) != len(b):
        return False
    return all(abs(x - y) <= tol["abs"] + tol["rel"] * abs(y)
               or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--expected", required=True)
    args = ap.parse_args()

    import taskinfo  # noqa: F401  (import time is part of set-up)
    import tracer
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.work)
    setup_s = time.monotonic() - args.spawned_at

    import numpy as np

    ref_a = np.random.default_rng(0).random((200, 200))
    ref_x = np.arange(64.0)
    refs: list[float] = []

    def reference():
        refs.append(_reference_s(ref_a, ref_x))

    reference()                     # the machine's speed right after set-up
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": refs[0]}))
        return 0

    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    shipped = expected["records"].get(args.workload, {}).get(str(args.seed))

    out_dir = os.path.join(args.work, "out")
    first: dict[str, object] = {}
    problems: list[str] = []
    state = {"attempted": 0, "failed": 0}
    job_walls: dict[str, list[float]] = {}

    def run_pass(tr=None, pass_id=0, timed=False):
        """One pass over the jobs; a timed pass samples the machine's speed
        before every job, outside the jobs' wall time."""
        results = []
        if tr is not None:
            tr.install()
            tr.begin_pass(pass_id)
        wall = cpu = 0.0
        pass_jobs = []
        for job in jobs:
            if timed:
                reference()
            c0, j0 = _cpu_s(), time.perf_counter()
            results.append(job.run())
            job_wall = time.perf_counter() - j0
            cpu += _cpu_s() - c0
            wall += job_wall
            pass_jobs.append(job_wall)
            job_walls.setdefault(job.name, []).append(job_wall)
        if tr is not None:
            wall = tr.end_pass()
            tr.uninstall()
        for job, result in zip(jobs, results):
            failed, probs, record = job.check(result)
            if not failed and job.name in first and record != first[job.name]:
                failed, probs = job.ops, [f"{job.name}: rerun output differs"]
            if not failed and shipped is not None and job.name in shipped:
                want = shipped[job.name]
                same = (record == want if job.exact
                        else _close(record, want, expected["mc_tolerance"]))
                if not same:
                    failed, probs = job.ops, [
                        f"{job.name}: output differs from the recorded expectation"]
            first.setdefault(job.name, record)
            state["attempted"] += job.ops
            state["failed"] += failed
            problems.extend(probs)
        out_bytes = sum(os.path.getsize(os.path.join(d, f))
                        for d, _, files in os.walk(out_dir) for f in files)
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, cpu, out_bytes, pass_jobs

    run_pass()                                       # warm-up
    walls, cpus, traced_walls, layer, timed_jobs = [], [], [], [], []
    tr = tracer.Tracer() if args.trace else None
    start = time.perf_counter()
    pass_id = 0
    while True:
        wall, cpu, _, pass_jobs = run_pass(timed=True)
        walls.append(wall)
        timed_jobs.append(pass_jobs)
        cpus.append(cpu)
        if tr is not None:
            pass_id += 1
            wall, _, out_bytes, _ = run_pass(tr, pass_id)
            traced_walls.append(wall)
            layer.append(dict(tracer.pass_metrics(tr, pass_id),
                              **{"cli.output_bytes": out_bytes}))
        if time.perf_counter() - start >= args.seconds:
            break
    reference()
    # each job's wall time in units of the reference computation timed just
    # before and just after it: the pass time at a fixed machine speed
    scaled = []
    for k, pass_jobs in enumerate(timed_jobs):
        at = 1 + k * len(jobs)
        scaled.append(sum(w / (0.5 * (refs[at + j] + refs[at + j + 1]))
                          for j, w in enumerate(pass_jobs)))

    result = {
        "setup_s": setup_s,
        "setup_ref_s": refs[0],
        "walls": walls,
        "refs": refs[1:],
        "scaled_walls": scaled,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "problems": problems[:20],
        "blas_threads": _blas_threads(),
        "records": first,
        "job_walls": job_walls,
        "checked_against_expectations": shipped is not None,
    }
    if tr is not None:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["process.cpu_s"] = statistics.median(cpus)
        metrics["process.blas_threads"] = result["blas_threads"]
        result["layer"] = metrics
        result["traced_walls"] = traced_walls
        tr.write_spans(os.path.join(args.work, "spans.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
