"""taskinfo benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Each run starts the workload in a
fresh child process, which writes the configs and inputs made from
``--seed``, runs one warm-up pass and then timed passes of the workload's
jobs, one job at a time, for ``--seconds`` seconds. Every output is checked.
With ``--trace 0`` the run also starts set-up-only children, so that
``setup_s`` is a median, and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. Each workload prints human-readable lines and then one
JSON object on a line of its own, the last line of its report. Results, environment and spans are kept under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import COMPUTED  # noqa: E402
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_SAMPLES = 5          # spawns per trace-0 run that give setup_s
BLAS_THREADS = "1"         # same on every commit, <= nproc
RUN_TIMEOUT_S = 170.0      # all children of one workload run together
# The reference computation of child.py takes this long on the machine the
# benchmark was calibrated on (2 cores, Python 3.11, numpy 2.4, OpenBLAS
# 0.3.31, one BLAS thread). The speed of that shared machine drifts by tens
# of percent within minutes, so times are reported at the calibrated speed:
# wall_s is the median over passes of the pass time with each job's wall
# time divided by the reference time measured around it, and setup_s the
# median over spawns of the set-up time divided by the reference time
# measured right after it, both times REFERENCE_S. The unscaled times are
# kept in result.json.
REFERENCE_S = 0.1


def _git_sha(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, else ''."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return ""


def _src_digest(src: str) -> str:
    h = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def child_env(src: str) -> dict:
    """Environment of a workload process: the checkout's sources, pinned BLAS."""
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                MKL_NUM_THREADS=BLAS_THREADS)


def spawn(workload: str, seed: int, seconds: float, trace: int, work: str,
          env: dict, setup_only: bool = False, expected: str = EXPECTED,
          timeout: float = RUN_TIMEOUT_S) -> dict:
    """Run child.py to completion and return the JSON object it printed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work, "--expected", expected]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: child timed out") from None
    except BaseException:           # interrupted: stop the child, then leave
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}\n"
                           f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exit, so spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS} or 'all'",
              file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "taskinfo", "__init__.py")):
        print("run from the root of a taskinfo checkout: src/taskinfo is missing",
              file=sys.stderr)
        return 2
    for name in names:
        code = run_workload(name, args.seed, args.seconds, args.trace, root, src)
        if code:
            return code
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 root: str, src: str) -> int:
    """Run one workload, print its report and its JSON line; 0 on success."""
    env = child_env(src)
    base = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-"
                                            f"trace{trace}")
    shutil.rmtree(base, ignore_errors=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        spawns = []
        if not trace:
            for k in range(SETUP_SAMPLES - 1):
                work = os.path.join(base, f"setup{k}")
                spawns.append(spawn(workload, seed, seconds, 0, work, env,
                                    setup_only=True,
                                    timeout=deadline - time.monotonic()))
                shutil.rmtree(work, ignore_errors=True)
        res = spawn(workload, seed, seconds, trace, os.path.join(base, "run"),
                    env, timeout=deadline - time.monotonic())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    spawns.append(res)
    setups = [s["setup_s"] for s in spawns]
    setups_scaled = [REFERENCE_S * s["setup_s"] / s["setup_ref_s"] for s in spawns]

    import numpy
    env_info = {
        "git_sha": _git_sha(root), "src_sha1": _src_digest(src),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]
                         ["blas"].get("version", ""),
        "blas_threads": res["blas_threads"], "nproc": os.cpu_count(),
    }
    correct = res["failed"] == 0 and not res["problems"]
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(res["layer"].items())}
    else:
        metrics = {
            "wall_s": {"value": REFERENCE_S * statistics.median(res["scaled_walls"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"],
                        "unit": "fraction"},
        }
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "env": env_info, "passes": res["walls"], "references": res["refs"],
               "traced_passes": res.get("traced_walls", []),
               "setup_samples": setups,
               "setup_references": [s["setup_ref_s"] for s in spawns],
               "job_walls": res["job_walls"],
               "problems": res["problems"],
               "checked_against_expectations": res["checked_against_expectations"],
               "metrics": metrics}
    with open(os.path.join(base, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"perfbench {workload} seed={seed} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"  passes: {len(res['walls'])} timed after 1 warm-up, median "
          f"{statistics.median(res['walls']):.4g} s unscaled, reference median "
          f"{statistics.median(res['refs']):.4g} s; "
          f"{res['attempted']} operations, {res['failed']} failed "
          f"(failed_frac {res['failed'] / res['attempted']:.4g}), expectations "
          f"{'checked' if res['checked_against_expectations'] else 'not shipped for this seed'}")
    print(f"  set-up: median {statistics.median(setups):.4g} s unscaled over "
          f"{len(setups)} spawns")
    print("  median job walls: " + ", ".join(
        f"{k} {statistics.median(v):.3f} s" for k, v in res["job_walls"].items()))
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        tag = " (computed)" if name in COMPUTED else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{tag}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("gflops_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
