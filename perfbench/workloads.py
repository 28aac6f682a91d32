"""The benchmark's workloads: inputs made from a seed, jobs, and output checks.

Every workload is a list of jobs run one after another, as a CLI user or a
library script would run them. A job is one CLI command (run in-process
through ``taskinfo.cli.main``) or one library call. ``build`` writes every
config and input file a workload needs; the program sees only those files.

A job's ``check`` reads its result after the timed pass and returns
``(failed_ops, problems, record)``. ``record`` is what the expectations in
``expected.json`` hold for a shipped seed: a SHA-1 of the exact output lines
(oracle, annealing, file round trip) or a list of floats that must agree
within the stated Monte-Carlo tolerance (variational engine).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("oracle-union", "vi-wide", "vi-narrow", "anneal-grid")

# Sizes. A pass of each workload takes a few seconds on a 2-core machine.
# oracle-union: union of a planted task (16 inputs, 32 samples) and a random
# task (8 inputs, 8 samples); the distance goes from a planted task on all
# 32 inputs to a random task on 32 inputs, whose union family is the
# 93,899-rule one
ORACLE = dict(m_planted=16, n_planted=32, m_random=8, n_random=8,
              t_grid=[3.0 * i for i in range(1, 13)],
              betas=[2.0 ** e for e in range(3, -7, -1)], dist_m=32, dist_n=32)
VI_WIDE = dict(n=200, dim=512, betas=[2.0 ** e for e in range(5, -8, -1)],
               opt={"steps": 250, "learning_rate": 1.0, "mc_samples": 4,
                    "report_mc": 256})
PAC = dict(domain=64, rule="bit0", noise=0.1, n_train=100, n_test=100,
           trials=16, beta=1.0, delta=0.05,
           opt={"steps": 150, "learning_rate": 0.5, "mc_samples": 4,
                "report_mc": 128})
DIST = dict(m=256, n=120, noise=0.15, beta=0.5, replicates=2,
            opt={"steps": 100, "learning_rate": 1.0, "logvar_learning_rate": 2.0,
                 "mc_samples": 4, "report_mc": 256, "grad_clip": 10.0})
GRID = dict(side=30, betas=200, gen_n=1000, gen_dim=16)


@dataclass
class Job:
    name: str
    ops: int                                   # operations the job attempts
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str], object]]
    exact: bool                                # record compared bit for bit


# ---------------------------------------------------------------------------
# Helpers


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _sha(lines) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def _csv_rows(text: str) -> list[list[str]]:
    return [ln.split(",") for ln in _data_lines(text)[1:]]   # skip column names


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_job(name: str, command: str, cfg: dict, work: str, check, ops=1,
             exact=True) -> Job:
    """A CLI command on a config written now; check gets {filename: text}."""
    cfg_path = _write(os.path.join(work, "configs", f"{name}.json"),
                      json.dumps(cfg, indent=1, sort_keys=True))
    out = os.path.join(work, "out", name)

    def run():
        cli = importlib.import_module("taskinfo.cli")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", cfg_path, "--out", out])
        return code, err.getvalue()

    def checked(result):
        code, err = result
        if code != 0:
            return ops, [f"{name}: exit {code}: {err.strip()[-300:]}"], None
        files = {f: _read(os.path.join(out, f)) for f in sorted(os.listdir(out))}
        return check(files)

    return Job(name, ops, run, checked, exact)


def _lib_job(name: str, fn, check, exact=True) -> Job:
    def checked(result):
        if isinstance(result, BaseException):
            return 1, [f"{name}: {type(result).__name__}: {result}"], None
        return check(result)

    def run():
        try:
            return fn()
        except Exception as exc:      # a failed library call is a failed op
            return exc

    return Job(name, 1, run, checked, exact)


def _ok(record, problems=()):
    problems = list(problems)
    return (1 if problems else 0), problems, record


# ---------------------------------------------------------------------------
# oracle-union: exact oracle on the union of a planted and a random task


def _oracle_union(seed: int, work: str) -> list[Job]:
    from taskinfo import finite_oracle as fo, tasks

    o = ORACLE
    plant_spec = {"type": "planted", "n": o["n_planted"], "k": 2,
                  "domain_size": o["m_planted"], "rule": "parity011", "noise": 0.0,
                  "seed": 10 * seed + 1}
    rand_spec = {"type": "random_labels", "n": o["n_random"], "k": 2,
                 "domain": {"kind": "discrete", "size": o["m_random"]},
                 "seed": 10 * seed + 2}
    union = {"type": "union", "left": plant_spec, "right": rand_spec}

    def check_structure_fn(files):
        rows = [[float(v) for v in r] for r in _csv_rows(files["structure_fn.csv"])]
        problems = []
        if [r[0] for r in rows] != o["t_grid"]:
            problems.append("structure-fn: t grid differs from the config")
        losses = [r[1] for r in rows]
        if any(b > a for a, b in zip(losses, losses[1:])):
            problems.append("structure-fn: S(t) increases with t")
        if any(math.isfinite(c) and c > t + 1e-9 for t, _, c in rows):
            problems.append("structure-fn: a statistic costs more than t")
        return _ok(_sha(_data_lines(files["structure_fn.csv"])), problems)

    def check_beta_sweep(files):
        rows = _csv_rows(files["beta_sweep.csv"])
        problems = []
        if len(rows) != len(o["betas"]):
            problems.append("beta-sweep: one row per beta expected")
        loss = [float(r[2]) for r in rows]
        cost = [float(r[4]) for r in rows]
        # betas run downwards: the minimizer's loss cannot grow, its code
        # length cannot shrink
        if any(b > a + 1e-9 for a, b in zip(loss, loss[1:])) or \
                any(b < a - 1e-9 for a, b in zip(cost, cost[1:])):
            problems.append("beta-sweep: loss/complexity not monotone in beta")
        return _ok(_sha(_data_lines(files["beta_sweep.csv"])), problems)

    def critical():
        d = tasks.disjoint_union(
            tasks.generate_planted_task(
                o["n_planted"], fo.HypothesisFamily.for_space(
                    tasks.DiscreteSpace(o["m_planted"]), 2).hypothesis("parity011"),
                0.0, plant_spec["seed"]),
            tasks.generate_random_label_task(
                o["n_random"], tasks.DiscreteSpace(o["m_random"]), 2,
                rand_spec["seed"]))
        return fo.critical_beta(d, fo.HypothesisFamily.for_space(d.space, 2))

    def check_critical(beta):
        # random labels in the union: some beta > 0 makes memorizing pay
        problems = [] if 0.0 < beta < 2.0 ** 40 else [
            f"critical_beta: no crossing beta (got {beta!r})"]
        return _ok(repr(beta), problems)

    def distance():
        space = tasks.DiscreteSpace(o["dist_m"])
        fam = fo.HypothesisFamily.for_space(space, 2)
        # every input once, so the union's tables (and the peak RSS) have
        # the same size for every seed; the order is the seed's
        xs = np.random.default_rng((10 * seed + 3) % 2 ** 63).permutation(o["dist_m"])
        plant = tasks.Dataset(xs, fam.hypothesis("parity011").table[xs].argmax(axis=1),
                              2, space)
        rand = tasks.generate_random_label_task(o["dist_n"], space, 2, 10 * seed + 4)
        return fo.oracle_distance(plant, rand, fam, 1.0)

    def check_distance(value):
        problems = [] if math.isfinite(value) and value >= 0.0 else [
            f"oracle_distance: undefined or negative ({value!r})"]
        return _ok(repr(value), problems)

    return [
        _cli_job("structure-fn", "structure-fn",
                 {"version": 1, "seed": seed, "engine": "oracle", "task": union,
                  "oracle": {"t_grid": o["t_grid"]}}, work, check_structure_fn),
        _cli_job("beta-sweep", "beta-sweep",
                 {"version": 1, "seed": seed, "engine": "oracle",
                  "tasks": [{"name": "union", "task": union}],
                  "betas": o["betas"]}, work, check_beta_sweep),
        _lib_job("critical_beta", critical, check_critical),
        _lib_job("oracle_distance", distance, check_distance),
    ]


# ---------------------------------------------------------------------------
# vi-wide: variational beta sweep of a wide linear network on random labels


def _vi_wide(seed: int, work: str) -> list[Job]:
    from taskinfo import models, tasks, variational as vi

    w = VI_WIDE
    spec = {"type": "random_labels", "n": w["n"], "k": 2,
            "domain": {"kind": "real", "dim": w["dim"]}, "seed": 10 * seed + 1}
    level = 0.5 * math.log(2.0)

    def check_sweep(files):
        rows = _csv_rows(files["beta_sweep.csv"])
        problems = []
        if len(rows) != len(w["betas"]):
            problems.append("beta-sweep: one row per beta expected")
        values = [float(v) for r in rows for v in (r[2], r[4])]
        per_sample = [float(r[3]) for r in rows]
        if not all(math.isfinite(v) for v in values):
            problems.append("beta-sweep: non-finite loss or KL")
        elif not min(per_sample) < level < max(per_sample):
            problems.append("beta-sweep: random-label loss never crosses ln2/2")
        return _ok(values, problems)

    def fisher():
        d = tasks.generate_random_label_task(
            w["n"], tasks.RealSpace(w["dim"]), 2, spec["seed"])
        arch = models.Architecture((w["dim"], 2))
        res = vi.optimize_posterior(d, arch, w["betas"][-1], vi.IsotropicPrior(1.0),
                                    vi.VariationalConfig(**w["opt"]), seed=seed)
        f = vi.fisher_diagonal(models.unflatten_params(res.posterior.mean, arch), d)
        return res.expected_loss, res.kl, f.entries

    def check_fisher(result):
        loss, kl, entries = result
        problems = []
        if not (np.isfinite(entries).all() and (entries >= 0).all()):
            problems.append("fisher_diagonal: entries not finite and >= 0")
        return _ok([loss, kl, float(entries.sum())], problems)

    return [
        _cli_job("beta-sweep", "beta-sweep",
                 {"version": 1, "seed": seed, "engine": "variational",
                  "tasks": [{"name": "random", "task": spec}], "betas": w["betas"],
                  "variational": {"arch_hidden": [], "prior_scale": 1.0,
                                  "opt": w["opt"]}},
                 work, check_sweep, exact=False),
        _lib_job("fisher_diagonal", fisher, check_fisher, exact=False),
    ]


# ---------------------------------------------------------------------------
# vi-narrow: many small optimizations (PAC-Bayes trials, a distance matrix)


def _four_class_task(seed: int, path: str) -> None:
    """Labels are bits 0 and 1 of the input, flipped with DIST['noise']."""
    d = DIST
    rng = np.random.default_rng(seed % 2 ** 63)
    xs = rng.integers(0, d["m"], size=d["n"])
    ys = (xs & 1) + 2 * ((xs >> 1) & 1)
    flip = rng.random(d["n"]) < d["noise"]
    ys = np.where(flip, (ys + rng.integers(1, 4, size=d["n"])) % 4, ys)
    lines = [f"# taskinfo-dataset v1, K=4, input=discrete:{d['m']}"]
    lines += [f"{x},{y}" for x, y in zip(xs.tolist(), ys.tolist())]
    _write(path, "\n".join(lines) + "\n")


def _vi_narrow(seed: int, work: str) -> list[Job]:
    p, d = PAC, DIST

    def check_pac(files):
        rows = _csv_rows(files["pac_bayes.csv"])
        values = [float(v) for r in rows for v in r[1:5]]
        dropped = sum(1 for r in rows if any(math.isnan(float(v)) for v in r[1:5]))
        covered = sum(int(r[5]) for r in rows)
        problems = []
        if len(rows) != p["trials"]:
            problems.append("pac-bayes: one row per trial expected")
        if dropped:
            problems.append(f"pac-bayes: {dropped} trials diverged")
        if covered < (1.0 - p["delta"]) * p["trials"]:
            problems.append(f"pac-bayes: coverage {covered}/{p['trials']} "
                            f"below 1 - delta")
            return p["trials"], problems, values
        return dropped, problems, values

    full_path = os.path.join(work, "inputs", "full.csv")
    _four_class_task(10 * seed + 1, full_path)
    full = {"type": "file", "path": full_path}
    named = [{"name": "full", "task": full},
             {"name": "subset", "task": {"type": "subset_classes", "base": full,
                                         "labels": [0, 1]}},
             {"name": "random", "task": {"type": "random_labels", "n": d["n"],
                                         "k": 4, "seed": 10 * seed + 2,
                                         "domain": {"kind": "discrete",
                                                    "size": d["m"]}}}]
    cells = len(named) ** 2

    def check_matrix(files):
        side = json.loads(files["distance_matrix.json"])
        vals = np.array([[float(v) for v in r[1:]]
                         for r in _csv_rows(files["distance_matrix.csv"])])
        nan = int(np.isnan(vals).sum())
        problems = []
        if vals.shape != (len(named), len(named)):
            return cells, ["distance-matrix: wrong shape"], None
        if nan:
            problems.append(f"distance-matrix: {nan} undefined cells")
        tau = np.array([[math.nan if v is None else v for v in r]
                        for r in side["tau"]])
        bad = [i for i in range(len(named)) if not vals[i, i] <= tau[i, i]]
        if bad:
            problems.append(f"distance-matrix: self-distance above tau at {bad}")
        record = [float(v) for key in ("kl_union", "kl_source")
                  for r in side[key] for v in r if v is not None]
        record += vals.ravel().tolist()
        return nan + len(bad), problems, record

    return [
        _cli_job("pac-bayes", "pac-bayes",
                 {"version": 1, "seed": seed, "mode": "trials",
                  "task": {"type": "planted", "k": 2, "domain_size": p["domain"],
                           "rule": p["rule"], "noise": p["noise"]},
                  "n_train": p["n_train"], "n_test": p["n_test"],
                  "trials": p["trials"], "beta": p["beta"], "delta": p["delta"],
                  "arch_hidden": [], "prior_scale": 1.0, "opt": p["opt"]},
                 work, check_pac, ops=p["trials"], exact=False),
        _cli_job("distance-matrix", "distance-matrix",
                 {"version": 1, "seed": seed, "beta": d["beta"], "tasks": named,
                  "arch_hidden": [], "prior_scale": 1.0,
                  "replicates": d["replicates"], "opt": d["opt"]},
                 work, check_matrix, ops=cells, exact=False),
    ]


# ---------------------------------------------------------------------------
# anneal-grid: file-backed posterior grid and a dataset file round trip


def _lattice(seed: int, work: str):
    """Jittered (mu, log sigma) lattice of Gaussian statistics, metric files."""
    g = GRID
    rng = np.random.default_rng(seed % 2 ** 63)
    side = g["side"]
    mu, ls = np.meshgrid(np.linspace(-2.0, 2.0, side), np.linspace(-3.0, 1.0, side),
                         indexing="ij")
    spacing = 4.0 / (side - 1)
    coords = np.stack([mu.ravel(), ls.ravel()], axis=1)
    coords += rng.uniform(-0.2, 0.2, coords.shape) * spacing
    h = 0.5 + rng.random()
    var = np.exp(2.0 * coords[:, 1])
    losses = h * (coords[:, 0] ** 2 + var)
    kls = 0.5 * (coords[:, 0] ** 2 + var - 2.0 * coords[:, 1] - 1.0)
    metric = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    ids = [f"q{i}" for i in range(len(coords))]
    grid_path = _write(os.path.join(work, "inputs", "grid.csv"), "\n".join(
        ["# taskinfo-grid v1", "node_id,loss_nats,kl_nats"]
        + [f"{i},{a!r},{b!r}" for i, a, b in zip(ids, losses.tolist(), kls.tolist())]
    ) + "\n")
    metric_path = _write(os.path.join(work, "inputs", "metric.csv"), "\n".join(
        ["# taskinfo-grid-metric v1"]
        + [",".join(map(repr, row)) for row in metric.tolist()]) + "\n")
    return grid_path, metric_path, ids, losses, kls, metric, 1.5 * spacing


def _anneal_grid(seed: int, work: str) -> list[Job]:
    g = GRID
    grid_path, metric_path, ids, losses, kls, metric, eps = _lattice(10 * seed + 1, work)
    betas = np.geomspace(50.0, 0.05, g["betas"]).tolist()
    index = {node: i for i, node in enumerate(ids)}

    def check_anneal(files):
        rows = _csv_rows(files["anneal_trajectory.csv"])
        problems = []
        if len(rows) != len(betas) + 1:
            problems.append("anneal: one row per schedule beta expected")
        nodes = [index.get(r[2], -1) for r in rows]
        if min(nodes) < 0:
            return 1, ["anneal: unknown node id in trajectory"], None
        if any(metric[a, b] > eps for a, b in zip(nodes, nodes[1:])):
            problems.append("anneal: a step is longer than epsilon")
        if any(float(r[3]) != losses[q] + float(r[1]) * kls[q]
               for r, q in zip(rows, nodes)):
            problems.append("anneal: Lagrangian column differs from the grid")
        return _ok(_sha(_data_lines(files["anneal_trajectory.csv"])), problems)

    gen_dir = os.path.join(work, "out", "gen-task")

    def check_gen(files):
        rows = _data_lines(files["task.csv"])
        problems = [] if len(rows) == g["gen_n"] else [
            "gen-task: one row per sample expected"]
        return _ok(_sha(rows), problems)

    def check_back(files):
        back = _data_lines(files["task.csv"])
        there = _data_lines(_read(os.path.join(gen_dir, "task.csv")))
        problems = [] if back == there else ["gen-task: file round trip changed rows"]
        return _ok(_sha(back), problems)

    return [
        _cli_job("anneal", "anneal",
                 {"version": 1, "seed": seed,
                  "grid": {"path": grid_path, "metric_path": metric_path},
                  "schedule": {"betas": betas, "epsilon": eps},
                  "start": ids[-1]}, work, check_anneal),
        _cli_job("gen-task", "gen-task",
                 {"version": 1, "seed": seed,
                  "task": {"type": "random_labels", "n": g["gen_n"], "k": 3,
                           "domain": {"kind": "real", "dim": g["gen_dim"]},
                           "seed": 10 * seed + 2}}, work, check_gen),
        _cli_job("file-task", "gen-task",
                 {"version": 1, "seed": seed,
                  "task": {"type": "file",
                           "path": os.path.join(gen_dir, "task.csv")}},
                 work, check_back),
    ]


_JOBS_OF = {"oracle-union": _oracle_union, "vi-wide": _vi_wide,
             "vi-narrow": _vi_narrow, "anneal-grid": _anneal_grid}


def build(name: str, seed: int, work: str) -> list[Job]:
    """Write the workload's configs and input files under ``work``."""
    return _JOBS_OF[name](seed, work)
