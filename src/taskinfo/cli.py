"""Batch front-end: tasks, sweeps, matrices, bounds and annealing runs.

Commands (all driven by a versioned JSON config):

    taskinfo structure-fn     --config cfg.json --out dir
    taskinfo beta-sweep       --config cfg.json --out dir
    taskinfo distance-matrix  --config cfg.json --out dir [--jobs N]
    taskinfo pac-bayes        --config cfg.json --out dir
    taskinfo anneal           --config cfg.json --out dir
    taskinfo gen-task         --config cfg.json --out dir

Common flags: --seed-override replaces the config's top-level seed; --jobs
is accepted and ignored, since distance-matrix fits every statistic once in
one lockstep batch and starts no worker processes. Every output embeds the
effective config hash and tool version in a comment header; writes are
atomic (temp file + rename) and nothing is written if the run fails.
Unknown config keys are rejected, and all randomness flows from explicit
config seeds through named counter-based (Philox) streams.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import annealing as anneal_mod
from . import bounds as bounds_mod
from . import distance as distance_mod
from . import finite_oracle as oracle
from . import svg
from . import tasks as tasks_mod
from . import variational as vi
from .models import Architecture

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    pass


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _config_hash(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _stamp(hash_: str) -> str:
    return f"config={hash_}, tool=taskinfo-{__version__}"


# ---------------------------------------------------------------------------
# Task specs


def _build_domain(spec, path) -> tasks_mod.DiscreteSpace | tasks_mod.RealSpace:
    _check_keys(spec, path, ("kind",), ("size", "dim"))
    if spec["kind"] == "discrete":
        return tasks_mod.DiscreteSpace(int(spec["size"]))
    if spec["kind"] == "real":
        return tasks_mod.RealSpace(int(spec["dim"]))
    raise ConfigError(f"{path}.kind: unknown domain kind {spec['kind']!r}")


def build_task(spec, path="task") -> tasks_mod.Dataset:
    """Recursive task builder shared by every command."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{path}: expected a task object with a 'type'")
    t = spec["type"]
    if t == "random_labels":
        _check_keys(spec, path, ("type", "n", "k", "domain", "seed"))
        return tasks_mod.generate_random_label_task(
            int(spec["n"]), _build_domain(spec["domain"], f"{path}.domain"),
            int(spec["k"]), int(spec["seed"]))
    if t == "planted":
        _check_keys(spec, path, ("type", "n", "k", "domain_size", "rule", "seed"),
                    ("noise", "noise_grid"))
        fam = oracle.HypothesisFamily.for_space(
            tasks_mod.DiscreteSpace(int(spec["domain_size"])), int(spec["k"]),
            tuple(spec.get("noise_grid", (0.05, 0.1, 0.2))))
        try:
            rule = fam.hypothesis(spec["rule"])
        except KeyError:
            raise ConfigError(f"{path}.rule: no family rule {spec['rule']!r}")
        return tasks_mod.generate_planted_task(
            int(spec["n"]), rule, float(spec.get("noise", 0.0)),
            int(spec["seed"]))
    if t == "union":
        _check_keys(spec, path, ("type", "left", "right"))
        return tasks_mod.disjoint_union(
            build_task(spec["left"], f"{path}.left"),
            build_task(spec["right"], f"{path}.right"))
    if t == "transform":
        _check_keys(spec, path, ("type", "base", "transform"))
        tspec = dict(spec["transform"])
        kind = tspec.pop("kind", None)
        try:
            tr = tasks_mod.TaskTransform(kind=kind, **tspec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.transform: {exc}") from None
        return tasks_mod.apply_transform(
            build_task(spec["base"], f"{path}.base"), tr)
    if t == "as_real":
        _check_keys(spec, path, ("type", "base"))
        return tasks_mod.as_real_vectors(build_task(spec["base"], f"{path}.base"))
    if t == "subset_classes":
        _check_keys(spec, path, ("type", "base", "labels"))
        base = build_task(spec["base"], f"{path}.base")
        keep = np.isin(base.labels, np.asarray(spec["labels"], dtype=np.int64))
        return tasks_mod.Dataset(base.inputs[keep], base.labels[keep],
                                 base.num_labels, base.space)
    if t == "file":
        _check_keys(spec, path, ("type", "path"))
        if not os.path.exists(spec["path"]):
            raise ConfigError(f"{path}.path: no such task file {spec['path']!r}")
        return tasks_mod.load_dataset_csv(spec["path"])
    raise ConfigError(f"{path}.type: unknown task type {t!r}")


def _variational_config(spec, path) -> vi.VariationalConfig:
    _check_keys(spec, path, (), ("steps", "learning_rate", "logvar_learning_rate",
                                 "mc_samples", "report_mc", "grad_clip",
                                 "trace_every"))
    return vi.VariationalConfig(**{k: v for k, v in spec.items()})


def _arch(hidden, input_dim: int, k: int) -> Architecture:
    return Architecture((input_dim, *[int(h) for h in hidden], k))


# ---------------------------------------------------------------------------
# Commands: each returns {filename: content}; caller writes atomically.


def cmd_gen_task(cfg, hash_) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "task"), ("filename",))
    d = build_task(cfg["task"])
    name = cfg.get("filename", "task.csv")
    tmp = tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False)
    try:
        tmp.close()
        tasks_mod.save_dataset_csv(d, tmp.name)
        with open(tmp.name, encoding="utf-8") as fh:
            body = fh.read()
    finally:
        os.unlink(tmp.name)
    lines = body.splitlines()
    lines.insert(1, f"# {_stamp(hash_)}")
    return {name: "\n".join(lines) + "\n"}


def _curve_csv(curve: oracle.Curve, hash_) -> str:
    lines = [f"# taskinfo-curve v1, {_stamp(hash_)}",
             "t_or_beta,loss_nats,complexity_nats"]
    for a, l, c in zip(curve.abscissa, curve.loss, curve.complexity):
        lines.append(f"{float(a)!r},{float(l)!r},{float(c)!r}")
    return "\n".join(lines) + "\n"


def cmd_structure_fn(cfg, hash_) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "engine", "task"),
                ("oracle", "variational"))
    d = build_task(cfg["task"])
    out = {}
    if cfg["engine"] == "oracle":
        ocfg = cfg.get("oracle", {})
        _check_keys(ocfg, "oracle", ("t_grid",), ("noise_grid",))
        t_grid = [float(t) for t in ocfg["t_grid"]]
        if not t_grid:
            raise ConfigError("oracle.t_grid: must be a nonempty increasing list")
        fam = oracle.HypothesisFamily.for_space(
            d.space, d.num_labels, tuple(ocfg.get("noise_grid", (0.05, 0.1, 0.2))))
        curve = oracle.structure_function(d, fam, t_grid)
        xlabel = "code length budget t (NATS)"
    elif cfg["engine"] == "variational":
        vcfg = cfg.get("variational", {})
        _check_keys(vcfg, "variational", ("betas", "arch_hidden", "prior_scale"),
                    ("opt",))
        betas = [float(b) for b in vcfg["betas"]]
        if not betas:
            raise ConfigError("variational.betas: must be nonempty")
        dd = tasks_mod.as_real_vectors(d)
        arch = _arch(vcfg["arch_hidden"], dd.space.dim, dd.num_labels)
        sweep = vi.structure_sweep(
            dd, arch, betas, vi.IsotropicPrior(float(vcfg["prior_scale"])),
            _variational_config(vcfg.get("opt", {}), "variational.opt"),
            seed=int(cfg["seed"]))
        pts = []
        for kl, loss in sweep.tradeoff_points():
            if not pts or kl > pts[-1][0]:     # Curve wants strict increase
                pts.append((kl, loss))
        curve = oracle.Curve(
            np.array([p[0] for p in pts]), np.array([p[1] for p in pts]),
            np.array([p[0] for p in pts]))
        out["sweep.csv"] = _sweep_csv(sweep, hash_)
        xlabel = "information in the parameters t = KL (NATS)"
    else:
        raise ConfigError(f"engine: unknown engine {cfg['engine']!r}")
    out["structure_fn.csv"] = _curve_csv(curve, hash_)
    out["structure_fn.svg"] = svg.line_plot(
        [("S(t)", curve.abscissa.tolist(), curve.loss.tolist())],
        "structure function", xlabel, "loss (NATS)", comment=_stamp(hash_))
    return out


def _sweep_csv(sweep: vi.SweepResult, hash_) -> str:
    lines = [f"# taskinfo-sweep v1, {_stamp(hash_)}",
             "beta,expected_loss_nats,kl_nats,loss_per_sample_nats"]
    order = np.argsort(sweep.betas)
    for i in order:
        lines.append(
            f"{float(sweep.betas[i])!r},{float(sweep.losses[i])!r},"
            f"{float(sweep.kls[i])!r},"
            f"{float(sweep.losses[i] / max(sweep.n, 1))!r}")
    return "\n".join(lines) + "\n"


def cmd_beta_sweep(cfg, hash_) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "engine", "tasks", "betas"),
                ("variational", "oracle"))
    betas = [float(b) for b in cfg["betas"]]
    if not betas:
        raise ConfigError("betas: must be nonempty")
    named = []
    for i, entry in enumerate(cfg["tasks"]):
        _check_keys(entry, f"tasks[{i}]", ("name", "task"))
        named.append((entry["name"], build_task(entry["task"], f"tasks[{i}].task")))
    rows = []
    series = []
    if cfg["engine"] == "variational":
        vcfg = cfg.get("variational", {})
        _check_keys(vcfg, "variational", ("arch_hidden", "prior_scale"), ("opt",))
        for name, d in named:
            dd = tasks_mod.as_real_vectors(d)
            arch = _arch(vcfg["arch_hidden"], dd.space.dim, dd.num_labels)
            sweep = vi.structure_sweep(
                dd, arch, betas, vi.IsotropicPrior(float(vcfg["prior_scale"])),
                _variational_config(vcfg.get("opt", {}), "variational.opt"),
                seed=int(cfg["seed"]))
            for b, lo, kl in zip(sweep.betas, sweep.losses, sweep.kls):
                rows.append((name, b, lo, lo / max(d.n, 1), kl))
            series.append((name, list(sweep.betas),
                           list(sweep.losses / max(d.n, 1))))
    elif cfg["engine"] == "oracle":
        ocfg = cfg.get("oracle", {})
        _check_keys(ocfg, "oracle", (), ("noise_grid",))
        for name, d in named:
            fam = oracle.HypothesisFamily.for_space(
                d.space, d.num_labels,
                tuple(ocfg.get("noise_grid", (0.05, 0.1, 0.2))))
            per_loss, per_beta = [], []
            for b, (_, h) in zip(betas, oracle.lagrangian_sweep(d, fam, betas)):
                loss = oracle.empirical_loss(h, d)
                rows.append((name, b, loss, loss / max(d.n, 1), h.code_length))
                per_beta.append(b)
                per_loss.append(loss / max(d.n, 1))
            series.append((name, per_beta, per_loss))
    else:
        raise ConfigError(f"engine: unknown engine {cfg['engine']!r}")
    lines = [f"# taskinfo-beta-sweep v1, {_stamp(hash_)}",
             "task,beta,loss_nats,loss_per_sample_nats,complexity_nats"]
    for name, b, lo, lps, c in rows:
        lines.append(f"{name},{float(b)!r},{float(lo)!r},{float(lps)!r},"
                     f"{float(c)!r}")
    return {
        "beta_sweep.csv": "\n".join(lines) + "\n",
        "beta_sweep.svg": svg.line_plot(
            series, "loss vs beta", "beta", "loss per sample (NATS)",
            logx=True, comment=_stamp(hash_)),
    }


def cmd_distance_matrix(cfg, hash_) -> dict:
    _check_keys(cfg, "config",
                ("version", "seed", "beta", "tasks", "arch_hidden",
                 "prior_scale"),
                ("replicates", "opt", "lagrangian_slack", "tau_fraction"))
    named = []
    for i, entry in enumerate(cfg["tasks"]):
        _check_keys(entry, f"tasks[{i}]", ("name", "task"))
        named.append((entry["name"],
                      tasks_mod.as_real_vectors(
                          build_task(entry["task"], f"tasks[{i}].task"))))
    if len(named) < 2:
        raise ConfigError("tasks: distance matrix needs at least two tasks")
    dims = {d.space.dim for _, d in named}
    ks = {d.num_labels for _, d in named}
    if len(dims) != 1:
        raise ConfigError("tasks: distance-matrix tasks must share input dim")
    beta = float(cfg["beta"])
    dcfg = distance_mod.DistanceConfig(
        replicates=int(cfg.get("replicates", 2)),
        opt=_variational_config(cfg.get("opt", {}), "opt"),
        prior=vi.IsotropicPrior(float(cfg["prior_scale"])),
        lagrangian_slack=float(cfg.get("lagrangian_slack", 0.05)),
        tau_fraction=float(cfg.get("tau_fraction", 0.05)),
    )
    arch = _arch(cfg["arch_hidden"], dims.pop() + 2, max(ks))
    seeds = [int(cfg["seed"]) * 131 + r for r in range(dcfg.replicates)]
    matrix = distance_mod.distance_matrix(named, beta, arch, dcfg, seeds)

    names = matrix.names
    lines = [f"# taskinfo-distance-matrix v1, {_stamp(hash_)}, beta={beta!r}",
             "target\\source," + ",".join(names)]
    for i, name in enumerate(names):
        cells = ",".join(repr(float(v)) for v in matrix.values[i])
        lines.append(f"{name},{cells}")
    sidecar = {
        "beta": beta,
        "config_hash": hash_,
        "tool": f"taskinfo-{__version__}",
        "names": list(names),
        "tau": [[None if math.isnan(v) else v for v in row]
                for row in matrix.tau.tolist()],
        "pre_floor": [[None if math.isnan(v) else v for v in row]
                      for row in matrix.pre_floor.tolist()],
        "kl_union": [[None if math.isnan(v) else v for v in row]
                     for row in matrix.kl_union.tolist()],
        "kl_source": [[None if math.isnan(v) else v for v in row]
                      for row in matrix.kl_source.tolist()],
    }
    return {
        "distance_matrix.csv": "\n".join(lines) + "\n",
        "distance_matrix.json": json.dumps(sidecar, indent=2, sort_keys=True)
        + "\n",
        "distance_matrix.svg": svg.heatmap(
            matrix.values.tolist(), names, names,
            f"asymmetric task distance (beta={beta:g})", comment=_stamp(hash_)),
    }


def cmd_pac_bayes(cfg, hash_) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "mode"),
                ("train_loss_total", "kl", "n", "beta", "delta", "task",
                 "n_train", "n_test", "trials", "arch_hidden", "prior_scale",
                 "opt"))
    lines = [f"# taskinfo-pac-bayes v1, {_stamp(hash_)}",
             "trial,train_term,kl_nats,bound,test_loss,covered"]
    if cfg["mode"] == "bound":
        rep = bounds_mod.pac_bayes_bound(
            float(cfg["train_loss_total"]), float(cfg["kl"]), int(cfg["n"]),
            float(cfg["beta"]), float(cfg["delta"]))
        lines.append(f"0,{rep.train_term!r},{rep.kl!r},{rep.bound_value!r},,")
    elif cfg["mode"] == "trials":
        spec = cfg["task"]
        n_train, n_test = int(cfg["n_train"]), int(cfg["n_test"])

        def generator(trial_seed):
            full_spec = dict(spec)
            full_spec["n"] = n_train + n_test
            full_spec["seed"] = trial_seed
            d = tasks_mod.as_real_vectors(build_task(full_spec))
            return tasks_mod.subset_split(d, n_train / (n_train + n_test),
                                          seed=trial_seed)

        probe = generator(0)[0]
        arch = _arch(cfg.get("arch_hidden", ()), probe.space.dim,
                     probe.num_labels)
        report = bounds_mod.bound_validation_trial(
            generator, arch, float(cfg["beta"]), float(cfg["delta"]),
            int(cfg["trials"]), int(cfg["seed"]),
            prior=vi.IsotropicPrior(float(cfg.get("prior_scale", 1.0))),
            cfg=_variational_config(cfg.get("opt", {}), "opt"))
        for row in report.rows:
            trial, train_term, kl, bound, test_loss, covered = row
            lines.append(f"{trial},{train_term!r},{kl!r},{bound!r},"
                         f"{test_loss!r},{int(covered)}")
        lines.append(f"# coverage={report.coverage!r}")
    else:
        raise ConfigError(f"mode: unknown mode {cfg['mode']!r}")
    return {"pac_bayes.csv": "\n".join(lines) + "\n"}


def cmd_anneal(cfg, hash_) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "grid", "schedule", "start"))
    gspec = cfg["grid"]
    _check_keys(gspec, "grid", (), ("path", "metric_path", "losses", "kls",
                                    "metric"))
    if "path" in gspec:
        try:
            grid = anneal_mod.load_grid(gspec["path"], gspec["metric_path"])
        except FileNotFoundError as exc:
            raise ConfigError(f"grid: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
    else:
        grid = anneal_mod.PosteriorGrid(
            np.asarray(gspec["losses"], dtype=float),
            np.asarray(gspec["kls"], dtype=float),
            np.asarray(gspec["metric"], dtype=float))
    sspec = cfg["schedule"]
    _check_keys(sspec, "schedule", ("betas", "epsilon"))
    schedule = anneal_mod.AnnealSchedule(tuple(float(b) for b in sspec["betas"]),
                                         float(sspec["epsilon"]))
    start = cfg["start"]
    if isinstance(start, str):
        if start not in grid.node_ids:
            raise ConfigError(f"start: unknown node id {start!r}")
        start = grid.node_ids.index(start)
    result = anneal_mod.anneal(grid, schedule, int(start))
    lines = [f"# taskinfo-anneal v1, {_stamp(hash_)}",
             "step,beta,node_id,lagrangian_nats"]
    for step, (beta, node, lagr) in enumerate(result.trajectory):
        lines.append(f"{step},{beta!r},{grid.node_ids[node]},{lagr!r}")
    return {"anneal_trajectory.csv": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------


_COMMANDS = {
    "structure-fn": cmd_structure_fn,
    "beta-sweep": cmd_beta_sweep,
    "distance-matrix": cmd_distance_matrix,
    "pac-bayes": cmd_pac_bayes,
    "anneal": cmd_anneal,
    "gen-task": cmd_gen_task,
}


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".taskinfo-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="taskinfo",
        description="task complexity and distance experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1, help="ignored; "
                       "distance-matrix starts no worker processes")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        if not isinstance(cfg, dict) or cfg.get("version") != 1:
            raise ConfigError("config must be an object with version = 1")
        if "seed" not in cfg:
            raise ConfigError("config must carry an explicit top-level seed")
        if args.seed_override is not None:
            cfg = dict(cfg, seed=int(args.seed_override))
        hash_ = _config_hash(cfg)
        outputs = _COMMANDS[args.command](cfg, hash_)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failures: nothing written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    for filename, content in sorted(outputs.items()):
        _write_atomic(os.path.join(args.out, filename), content)
        print(os.path.join(args.out, filename))
    return 0


if __name__ == "__main__":
    sys.exit(main())
