"""Record the expectations in expected.json for a range of seeds.

    python3 perfbench/record.py <first seed> <last seed> [workload,...]

Run from the root of a source checkout. Every workload (or each one named)
runs once per seed
(a warm-up and one checked pass, the same jobs and checks as a benchmark
run) and its records replace those in expected.json. Oracle, annealing and
file outputs are kept as SHA-1 digests of their output lines and must later
match bit for bit; variational outputs are kept as numbers that must later
match within ``mc_tolerance``. Record only from a commit whose outputs are
known to be right.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import run
from workloads import WORKLOADS

WORKERS = 2


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3].split(",") if len(sys.argv) > 3 else WORKLOADS
    root = os.getcwd()
    env = run.child_env(os.path.join(root, "src"))
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    base = os.path.join(root, ".perfbench", "record")
    os.makedirs(base, exist_ok=True)
    blank = os.path.join(base, "blank.json")
    with open(blank, "w", encoding="utf-8") as fh:
        json.dump({"mc_tolerance": expected["mc_tolerance"], "records": {}}, fh)

    def one(job):
        workload, seed = job
        res = run.spawn(workload, seed, 0, 0, os.path.join(base, f"{workload}-{seed}"),
                        env, expected=blank)
        if res["failed"] or res["problems"]:
            raise RuntimeError(f"{workload} seed {seed}: {res['problems']}")
        print(f"recorded {workload} seed {seed}", flush=True)
        return workload, seed, res["records"]

    jobs = [(w, s) for s in range(first, last + 1) for w in names]
    with ThreadPoolExecutor(WORKERS) as pool:
        for workload, seed, records in pool.map(one, jobs):
            expected["records"].setdefault(workload, {})[str(seed)] = records
    for workload in expected["records"]:
        expected["records"][workload] = dict(sorted(
            expected["records"][workload].items(), key=lambda kv: int(kv[0])))
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
