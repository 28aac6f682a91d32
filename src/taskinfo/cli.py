"""Batch front-end: tasks, sweeps, matrices, bounds and annealing runs.

Commands (all driven by a versioned JSON config):

    taskinfo structure-fn     --config cfg.json --out dir
    taskinfo beta-sweep       --config cfg.json --out dir
    taskinfo distance-matrix  --config cfg.json --out dir
    taskinfo pac-bayes        --config cfg.json --out dir
    taskinfo anneal           --config cfg.json --out dir
    taskinfo gen-task         --config cfg.json --out dir

Common flag: --seed-override replaces the config's top-level seed. Every
output embeds the effective config hash and tool version in a comment
header. Every output goes to a temporary file before any is renamed over
its target (`textio.write`), so a run that fails before the renames writes
nothing. Exit codes: 0 success, 2 config error (a ConfigError, which names
the config field at fault, or a config file that cannot be read as JSON), 1
any other error, an ``--out`` that cannot take the outputs included. A
library ValueError about a value the config gave is reported as a
ConfigError naming that value's field. Unknown config keys are rejected;
every config number, alone or in a list, is read by `_number`, and a
boolean, string or non-finite one is an error naming the field
(``oracle.t_grid[0]``); a file name is read by `_file_name`, and must be a
string. A generated task's size is checked by `_task_size` before it is
drawn. All randomness flows from explicit seeds through named Philox
streams. A command imports only the engine modules it runs, in the
functions that call them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import numbers
import os
import sys

import numpy as np

from . import __version__
from . import svg
from . import tasks as tasks_mod
from . import textio

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _blame(path: str):
    """Report a library ValueError raised in the block as a ConfigError
    naming ``path``, the config field whose values the block checks."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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


def _number(spec: dict, key: str, path: str, kind=int, default=None):
    """spec[key], a JSON integer (kind int) or finite number (kind float),
    as ``kind``, or ``default`` if given and the key is absent; anything
    else is a ConfigError naming the field."""
    if key not in spec:
        if default is not None:
            return default
        raise ConfigError(f"{path}: missing keys {[key]}")
    value = spec[key]
    if not isinstance(value, bool) and isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        try:
            number = kind(value)
        except OverflowError:
            pass
        else:
            if kind is int or math.isfinite(number):
                return number
            raise ConfigError(f"{path}.{key}: {number!r} is not a finite number")
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"{path}.{key}: expected {what}")


def _list(spec: dict, key: str, path: str) -> list:
    """spec[key], which must be a JSON list; else a ConfigError naming it."""
    if not isinstance(spec[key], list):
        raise ConfigError(f"{path}.{key}: expected a list")
    return spec[key]


def _numbers(spec: dict, key: str, path: str, kind=float) -> list:
    """spec[key], a JSON list, each entry read by `_number` as ``kind``."""
    entries = {f"{key}[{i}]": v for i, v in enumerate(_list(spec, key, path))}
    return [_number(entries, at, path, kind) for at in entries]


def _file_name(spec: dict, key: str, path: str) -> str:
    """spec[key], which must be a JSON string; else a ConfigError naming it."""
    if not isinstance(spec[key], str):
        raise ConfigError(f"{path}.{key}: expected a file name")
    return spec[key]


def _build_domain(spec, path) -> tasks_mod.DiscreteSpace | tasks_mod.RealSpace:
    _check_keys(spec, path, ("kind",), ("size", "dim"))
    with _blame(path):
        if spec["kind"] == "discrete":
            return tasks_mod.DiscreteSpace(_number(spec, "size", path))
        if spec["kind"] == "real":
            return tasks_mod.RealSpace(_number(spec, "dim", path))
    raise ConfigError(f"{path}.kind: unknown domain kind {spec['kind']!r}")


def _noise_grid(obj, path) -> tuple:
    """The checked ``noise_grid`` of ``obj``, a family's noise levels; the
    default grid if it has none."""
    from . import rules as rules_mod
    noise_grid = (tuple(_numbers(obj, "noise_grid", path)) if "noise_grid" in obj
                  else (0.05, 0.1, 0.2))
    with _blame(f"{path}.noise_grid"):
        rules_mod.check_noise_grid(noise_grid)
    return noise_grid


def _family(space, k, obj, path, families, task="task") -> oracle.HypothesisFamily:
    """The oracle family for ``space``, the domain of the config's ``task``,
    at the noise grid of ``obj``. ``families``, one dict per command, maps
    (space, K, noise grid) to a family: the family of the space, and of each
    part of a union, is taken from it or built and put into it."""
    from . import finite_oracle as oracle
    if not isinstance(space, tasks_mod.DiscreteSpace):
        raise ConfigError(f"{task}: the oracle engine needs a discrete domain, "
                          "not real vectors")
    noise_grid = _noise_grid(obj, path)
    with _blame(task):
        return oracle.HypothesisFamily._for_space(space, k, noise_grid, families)


_MAX_TASK_CELLS = 2 ** 27      # n x input width of one generated task: 1 GiB of float64


def _task_size(n: int, width: int, path: str) -> int:
    """n, the sample count of a generated task whose inputs are ``width``
    numbers each (1 for a discrete domain); a ConfigError naming
    ``path.n`` when n x width exceeds _MAX_TASK_CELLS, before the
    generator allocates anything."""
    if n * width > _MAX_TASK_CELLS:
        raise ConfigError(f"{path}.n: {n} samples x {width} input values exceed "
                          f"the task bound of 2^27 = {_MAX_TASK_CELLS} cells")
    return n


_TRANSFORM_FIELDS = {"fraction": float, "seed": int, "width": float,
                     "permutation": tuple}          # a list of integers


def build_task(spec, path="task") -> tasks_mod.Dataset:
    """Recursive task builder shared by every command. A planted rule is
    taken from `rules.flat_rule`, by name or index into the oracle family
    of its domain, without building that family."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{path}: expected a task object with a 'type'")
    t = spec["type"]
    if t == "random_labels":
        _check_keys(spec, path, ("type", "n", "k", "domain", "seed"))
        with _blame(path):
            n = _number(spec, "n", path)
            domain = _build_domain(spec["domain"], f"{path}.domain")
            return tasks_mod.generate_random_label_task(
                _task_size(n, domain.dim if isinstance(domain, tasks_mod.RealSpace)
                           else 1, path), domain,
                _number(spec, "k", path), _number(spec, "seed", path))
    if t == "planted":
        _check_keys(spec, path, ("type", "n", "k", "domain_size", "rule", "seed"),
                    ("noise", "noise_grid"))
        from . import rules as rules_mod
        n = _task_size(_number(spec, "n", path), 1, path)
        with _blame(path):
            space = tasks_mod.DiscreteSpace(_number(spec, "domain_size", path))
            k = _number(spec, "k", path)
            noise_grid = _noise_grid(spec, path)
            rules_mod.check_family(space, k, noise_grid)
        key = spec["rule"]
        if isinstance(key, numbers.Number):     # an index, read as every integer is
            key = _number(spec, "rule", path)
        try:
            rule = rules_mod.flat_rule(space, k, key, noise_grid)
        except (KeyError, IndexError):
            raise ConfigError(f"{path}.rule: no family rule {spec['rule']!r}") from None
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.rule: expected a rule name") from None
        with _blame(path):
            return tasks_mod.generate_planted_task(
                n, rule,
                _number(spec, "noise", path, float, 0.0),
                _number(spec, "seed", path))
    if t == "union":
        _check_keys(spec, path, ("type", "left", "right"))
        with _blame(path):
            return tasks_mod.disjoint_union(
                build_task(spec["left"], f"{path}.left"),
                build_task(spec["right"], f"{path}.right"))
    if t == "transform":
        _check_keys(spec, path, ("type", "base", "transform"))
        tspec, tpath = spec["transform"], f"{path}.transform"
        _check_keys(tspec, tpath, ("kind",), tuple(_TRANSFORM_FIELDS))
        base = build_task(spec["base"], f"{path}.base")
        fields = {key: tuple(_numbers(tspec, key, tpath, int)) if kind is tuple
                  else _number(tspec, key, tpath, kind)
                  for key, kind in _TRANSFORM_FIELDS.items() if key in tspec}
        with _blame(tpath):
            return tasks_mod.apply_transform(
                base, tasks_mod.TaskTransform(kind=tspec["kind"], **fields))
    if t == "as_real":
        _check_keys(spec, path, ("type", "base"))
        return tasks_mod.as_real_vectors(
            build_task(spec["base"], f"{path}.base"))
    if t == "subset_classes":
        _check_keys(spec, path, ("type", "base", "labels"))
        labels = _numbers(spec, "labels", path, int)
        base = build_task(spec["base"], f"{path}.base")
        for i, c in enumerate(labels):
            if not 0 <= c < base.num_labels:
                raise ConfigError(f"{path}.labels[{i}]: label {c} is outside "
                                  f"0..{base.num_labels - 1}")
        keep = np.isin(base.labels, labels)
        return tasks_mod.Dataset(base.inputs[keep], base.labels[keep],
                                 base.num_labels, base.space)
    if t == "file":
        _check_keys(spec, path, ("type", "path"))
        name = _file_name(spec, "path", path)
        if not os.path.exists(name):
            raise ConfigError(f"{path}.path: no such task file {name!r}")
        with _blame(f"{path}.path"):      # "path:line: ..." from the loader
            return tasks_mod.load_dataset_csv(name)
    raise ConfigError(f"{path}.type: unknown task type {t!r}")


_OPT_FIELDS = {"steps": int, "learning_rate": float, "logvar_learning_rate": float,
               "mc_samples": int, "report_mc": int, "grad_clip": float,
               "trace_every": int}


def _variational_config(spec, path) -> vi.VariationalConfig:
    """The optimizer fields at ``path``, each read by `_number`; grad_clip
    and logvar_learning_rate also take null (no clip; the learning rate)."""
    from . import variational as vi
    _check_keys(spec, path, (), tuple(_OPT_FIELDS))
    with _blame(path):
        return vi.VariationalConfig(**{
            key: None if spec[key] is None and key in ("grad_clip", "logvar_learning_rate")
            else _number(spec, key, path, kind)
            for key, kind in _OPT_FIELDS.items() if key in spec})


def _arch(spec, path, input_dim: int, k: int) -> Architecture:
    """input_dim, the widths listed in spec["arch_hidden"] (JSON integers), k."""
    from .models import Architecture
    hidden = _numbers(spec, "arch_hidden", path, int) if "arch_hidden" in spec else ()
    with _blame(f"{path}.arch_hidden"):
        return Architecture((input_dim, *hidden, k))


def _prior(spec, path, default=None) -> vi.IsotropicPrior:
    """The isotropic prior of scale spec["prior_scale"]."""
    from . import variational as vi
    with _blame(f"{path}.prior_scale"):
        return vi.IsotropicPrior(_number(spec, "prior_scale", path, float, default))


def _named_tasks(cfg) -> list:
    """(name, task) for every entry of the config's ``tasks`` list. A name
    is a string that the CSV outputs can carry as one cell: no comma, no
    line break, no leading '#'."""
    named = []
    for i, entry in enumerate(_list(cfg, "tasks", "config")):
        _check_keys(entry, f"tasks[{i}]", ("name", "task"))
        name = entry["name"]
        if not (isinstance(name, str) and textio.is_cell(name)):
            raise ConfigError(f"tasks[{i}].name: {name!r} must be a string with no "
                              "comma, no line break and no leading '#'")
        named.append((name, build_task(entry["task"], f"tasks[{i}].task")))
    return named


def _betas(spec, path, name) -> list:
    """spec["betas"], read by `_numbers`: nonempty, else a ConfigError naming
    ``name``, and each beta >= 0, else one naming that entry."""
    betas = _numbers(spec, "betas", path)
    if not betas:
        raise ConfigError(f"{name}: must be nonempty")
    for i, beta in enumerate(betas):
        if beta < 0:
            raise ConfigError(f"{path}.betas[{i}]: beta must be >= 0, got {beta!r}")
    return betas


def _variational_sweep(d, betas, vcfg, seed: int) -> vi.SweepResult:
    """structure_sweep of d as real vectors under the ``variational``
    config's architecture, prior and optimizer."""
    from . import variational as vi
    dd = tasks_mod.as_real_vectors(d)
    arch = _arch(vcfg, "variational", dd.space.dim, dd.num_labels)
    return vi.structure_sweep(
        dd, arch, betas, _prior(vcfg, "variational"),
        _variational_config(vcfg.get("opt", {}), "variational.opt"), seed=seed)


# ---------------------------------------------------------------------------
# Commands: each returns {filename: content}; caller writes atomically.


def cmd_gen_task(cfg, hash_, seed: int) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "task"))
    lines = tasks_mod._dataset_lines(build_task(cfg["task"]))
    lines.insert(1, f"# {_stamp(hash_)}")
    return {"task.csv": textio.join(lines)}


def _csv(kind: str, hash_, columns: str, rows, *fields: str) -> str:
    """A CLI table: the stamped taskinfo-<kind> header, the column names,
    then the rows."""
    return textio.join([textio.header(kind, _stamp(hash_), *fields), columns, *rows])


def cmd_structure_fn(cfg, hash_, seed: int) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "engine", "task"),
                ("oracle", "variational"))
    d = build_task(cfg["task"])
    out = {}
    if cfg["engine"] == "oracle":
        from . import finite_oracle as oracle
        ocfg = cfg.get("oracle", {})
        _check_keys(ocfg, "oracle", ("t_grid",), ("noise_grid",))
        t_grid = _numbers(ocfg, "t_grid", "oracle")
        if not t_grid or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ConfigError("oracle.t_grid: must be strictly increasing and nonempty")
        fam = _family(d.space, d.num_labels, ocfg, "oracle", {})
        curve = oracle.structure_function(d, fam, t_grid)
        columns = curve.abscissa, curve.loss, curve.complexity
        xlabel = "code length budget t (NATS)"
    elif cfg["engine"] == "variational":
        vcfg = cfg.get("variational", {})
        _check_keys(vcfg, "variational", ("betas", "arch_hidden", "prior_scale"),
                    ("opt",))
        betas = _betas(vcfg, "variational", "variational.betas")
        sweep = _variational_sweep(d, betas, vcfg, seed)
        pts = []
        for kl, loss in sweep.tradeoff_points():
            if not pts or kl > pts[-1][0]:     # t = KL strictly increasing
                pts.append((kl, loss))
        kls, losses = (np.array(column) for column in zip(*pts))
        columns = kls, losses, kls
        out["sweep.csv"] = _csv(
            "sweep", hash_, "beta,expected_loss_nats,kl_nats,loss_per_sample_nats",
            (f"{float(sweep.betas[i])!r},{float(sweep.losses[i])!r},"
             f"{float(sweep.kls[i])!r},{float(sweep.losses[i] / max(sweep.n, 1))!r}"
             for i in np.argsort(sweep.betas)))
        xlabel = "information in the parameters t = KL (NATS)"
    else:
        raise ConfigError(f"engine: unknown engine {cfg['engine']!r}")
    out["structure_fn.csv"] = _csv(
        "curve", hash_, "t_or_beta,loss_nats,complexity_nats",
        (f"{float(a)!r},{float(l)!r},{float(c)!r}"
         for a, l, c in zip(*columns)))
    out["structure_fn.svg"] = svg.line_plot(
        [("S(t)", columns[0].tolist(), columns[1].tolist())],
        "structure function", xlabel, "loss (NATS)", comment=_stamp(hash_))
    return out


def cmd_beta_sweep(cfg, hash_, seed: int) -> dict:
    _check_keys(cfg, "config", ("version", "seed", "engine", "tasks", "betas"),
                ("variational", "oracle"))
    betas = _betas(cfg, "config", "betas")
    named = _named_tasks(cfg)
    rows = []
    series = []
    if cfg["engine"] == "variational":
        vcfg = cfg.get("variational", {})
        _check_keys(vcfg, "variational", ("arch_hidden", "prior_scale"), ("opt",))
        for name, d in named:
            sweep = _variational_sweep(d, betas, vcfg, seed)
            for b, lo, kl in zip(sweep.betas, sweep.losses, sweep.kls):
                rows.append((name, b, lo, lo / max(d.n, 1), kl))
            series.append((name, list(sweep.betas),
                           list(sweep.losses / max(d.n, 1))))
    elif cfg["engine"] == "oracle":
        from . import finite_oracle as oracle
        ocfg = cfg.get("oracle", {})
        _check_keys(ocfg, "oracle", (), ("noise_grid",))
        families = {}
        for i, (name, d) in enumerate(named):
            fam = _family(d.space, d.num_labels, ocfg, "oracle", families,
                          f"tasks[{i}].task")
            per_loss, per_beta = [], []
            for b, (_, h) in zip(betas, oracle.lagrangian_sweep(d, fam, betas)):
                loss = oracle.empirical_loss(h, d)
                rows.append((name, b, loss, loss / max(d.n, 1), h.code_length))
                per_beta.append(b)
                per_loss.append(loss / max(d.n, 1))
            series.append((name, per_beta, per_loss))
    else:
        raise ConfigError(f"engine: unknown engine {cfg['engine']!r}")
    return {
        "beta_sweep.csv": _csv(
            "beta-sweep", hash_,
            "task,beta,loss_nats,loss_per_sample_nats,complexity_nats",
            (f"{name},{float(b)!r},{float(lo)!r},{float(lps)!r},{float(c)!r}"
             for name, b, lo, lps, c in rows)),
        "beta_sweep.svg": svg.line_plot(
            series, "loss vs beta", "beta", "loss per sample (NATS)",
            logx=True, comment=_stamp(hash_)),
    }


def cmd_distance_matrix(cfg, hash_, seed: int) -> dict:
    from . import distance as distance_mod
    _check_keys(cfg, "config",
                ("version", "seed", "beta", "tasks", "arch_hidden",
                 "prior_scale"),
                ("replicates", "opt", "lagrangian_slack", "tau_fraction"))
    beta = _number(cfg, "beta", "config", float)
    if beta < 0:
        raise ConfigError(f"config.beta: beta must be >= 0, got {beta!r}")
    named = [(name, tasks_mod.as_real_vectors(d)) for name, d in _named_tasks(cfg)]
    if len(named) < 2:
        raise ConfigError("tasks: distance matrix needs at least two tasks")
    dims = {d.space.dim for _, d in named}
    ks = {d.num_labels for _, d in named}
    if len(dims) != 1:
        raise ConfigError("tasks: distance-matrix tasks must share input dim")
    with _blame("config"):
        dcfg = distance_mod.DistanceConfig(
            replicates=_number(cfg, "replicates", "config", int, 2),
            opt=_variational_config(cfg.get("opt", {}), "opt"),
            prior=_prior(cfg, "config"),
            lagrangian_slack=_number(cfg, "lagrangian_slack", "config", float, 0.05),
            tau_fraction=_number(cfg, "tau_fraction", "config", float, 0.05),
        )
    arch = _arch(cfg, "config", dims.pop() + 2, max(ks))
    seeds = [seed * 131 + r for r in range(dcfg.replicates)]
    matrix = distance_mod.distance_matrix(named, beta, arch, dcfg, seeds)

    names = matrix.names
    sidecar = {
        "beta": beta,
        "config_hash": hash_,
        "tool": f"taskinfo-{__version__}",
        "names": list(names),
    }
    for key in ("tau", "pre_floor", "kl_union", "kl_source"):    # NaN -> null
        sidecar[key] = [[None if math.isnan(v) else v for v in row]
                        for row in getattr(matrix, key).tolist()]
    return {
        "distance_matrix.csv": _csv(
            "distance-matrix", hash_, "target\\source," + ",".join(names),
            (f"{name}," + ",".join(repr(float(v)) for v in matrix.values[i])
             for i, name in enumerate(names)), f"beta={beta!r}"),
        "distance_matrix.json": json.dumps(sidecar, indent=2, sort_keys=True)
        + "\n",
        "distance_matrix.svg": svg.heatmap(
            matrix.values.tolist(), names, names,
            f"asymmetric task distance (beta={beta:g})", comment=_stamp(hash_)),
    }


def _redrawn(spec, n: int, seed: int, path="task"):
    """``spec`` with its generator leaf drawing ``n`` samples from ``seed``,
    through any wrappers; a transform keeps its own seed."""
    t = spec.get("type") if isinstance(spec, dict) else None
    if t in ("random_labels", "planted"):
        return dict(spec, n=n, seed=seed)
    if t in ("as_real", "transform", "subset_classes") and "base" in spec:
        return dict(spec, base=_redrawn(spec["base"], n, seed, f"{path}.base"))
    if t in ("union", "file"):
        raise ConfigError(f"{path}: a {t} task cannot be redrawn for each trial")
    return spec                     # build_task names what is wrong with it


def cmd_pac_bayes(cfg, hash_, seed: int) -> dict:
    from . import bounds as bounds_mod
    _check_keys(cfg, "config", ("version", "seed", "mode"),
                ("train_loss_total", "kl", "n", "beta", "delta", "task",
                 "n_train", "n_test", "trials", "arch_hidden", "prior_scale",
                 "opt"))
    rows = []

    def num(key, kind=float, default=None):
        return _number(cfg, key, "config", kind, default)

    def bound(train_loss_total, kl, n):     # its checks name beta, delta and n
        with _blame("config"):
            return bounds_mod.pac_bayes_bound(train_loss_total, kl, n, num("beta"),
                                              num("delta"))

    if cfg["mode"] == "bound":
        rep = bound(num("train_loss_total"), num("kl"), num("n", int))
        rows.append(f"0,{rep.train_term!r},{rep.kl!r},{rep.bound_value!r},,")
    elif cfg["mode"] == "trials":
        spec = cfg.get("task")
        n_train, n_test = num("n_train", int), num("n_test", int)
        trials = num("trials", int)
        bound(0.0, 0.0, n_train)                # before any fit
        if trials < 1:
            raise ConfigError(f"config.trials: need at least one trial, got {trials}")

        def generator(trial_seed):
            full_spec = _redrawn(spec, n_train + n_test, trial_seed)
            d = tasks_mod.as_real_vectors(build_task(full_spec))
            return tasks_mod.subset_split(d, n_train / (n_train + n_test),
                                          seed=trial_seed)

        probe = generator(0)[0]
        arch = _arch(cfg, "config", probe.space.dim, probe.num_labels)
        report = bounds_mod.bound_validation_trial(
            generator, arch, num("beta"), num("delta"), trials,
            seed, prior=_prior(cfg, "config", 1.0),
            cfg=_variational_config(cfg.get("opt", {}), "opt"))
        for row in report.rows:
            trial, train_term, kl, bound, test_loss, covered = row
            rows.append(f"{trial},{train_term!r},{kl!r},{bound!r},"
                        f"{test_loss!r},{int(covered)}")
        rows.append(f"# coverage={report.coverage!r}")
    else:
        raise ConfigError(f"mode: unknown mode {cfg['mode']!r}")
    return {"pac_bayes.csv": _csv(
        "pac-bayes", hash_, "trial,train_term,kl_nats,bound,test_loss,covered", rows)}


def cmd_anneal(cfg, hash_, seed: int) -> dict:
    from . import annealing as anneal_mod
    _check_keys(cfg, "config", ("version", "seed", "grid", "schedule", "start"))
    gspec = cfg["grid"]
    files = isinstance(gspec, dict) and "path" in gspec
    _check_keys(gspec, "grid", ("path", "metric_path") if files
                else ("losses", "kls", "metric"),
                ("path", "metric_path", "losses", "kls", "metric"))
    if files:
        names = [_file_name(gspec, key, "grid") for key in ("path", "metric_path")]
        try:
            grid = anneal_mod.load_grid(*names)
        except (FileNotFoundError, ValueError) as exc:
            raise ConfigError(f"grid: {exc}") from None
    else:
        rows = {f"metric[{i}]": r for i, r in enumerate(_list(gspec, "metric", "grid"))}
        with _blame("grid"):
            grid = anneal_mod.PosteriorGrid(
                np.array(_numbers(gspec, "losses", "grid")),
                np.array(_numbers(gspec, "kls", "grid")),
                np.array([_numbers(rows, at, "grid") for at in rows]))
    sspec = cfg["schedule"]
    _check_keys(sspec, "schedule", ("betas", "epsilon"))
    with _blame("schedule"):
        schedule = anneal_mod.AnnealSchedule(
            tuple(_numbers(sspec, "betas", "schedule")),
            _number(sspec, "epsilon", "schedule", float))
    start = cfg["start"]
    if isinstance(start, str):
        if start not in grid.node_ids:
            raise ConfigError(f"start: unknown node id {start!r}")
        start = grid.node_ids.index(start)
    else:
        start = _number(cfg, "start", "config")
    with _blame("start"):
        result = anneal_mod.anneal(grid, schedule, start)
    return {"anneal_trajectory.csv": _csv(
        "anneal", hash_, "step,beta,node_id,lagrangian_nats",
        (f"{step},{beta!r},{grid.node_ids[node]},{lagr!r}"
         for step, (beta, node, lagr) in enumerate(result.trajectory)))}


# ---------------------------------------------------------------------------


_COMMANDS = {
    "structure-fn": cmd_structure_fn,
    "beta-sweep": cmd_beta_sweep,
    "distance-matrix": cmd_distance_matrix,
    "pac-bayes": cmd_pac_bayes,
    "anneal": cmd_anneal,
    "gen-task": cmd_gen_task,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="taskinfo",
        description="task complexity and distance experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed-override", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # a directory, a file that is not UTF-8, JSON nested past the decoder
        print(f"error: cannot read config {args.config}: {type(exc).__name__}: "
              f"{exc.strerror if isinstance(exc, OSError) else exc}", file=sys.stderr)
        return 2

    try:
        if not isinstance(cfg, dict) or _number(cfg, "version", "config") != 1:
            raise ConfigError("config must be an object with version = 1")
        seed = _number(cfg, "seed", "config")     # the config's own, even if overridden
        if args.seed_override is not None:
            cfg, seed = dict(cfg, seed=args.seed_override), args.seed_override
        hash_ = _config_hash(cfg)
        outputs = _COMMANDS[args.command](cfg, hash_, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failures: nothing written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    files = {os.path.join(args.out, name): text
             for name, text in sorted(outputs.items())}
    try:
        os.makedirs(args.out, exist_ok=True)
        textio.write(files)
    except (FileExistsError, NotADirectoryError, IsADirectoryError) as exc:
        # --out or one of its output names is not a place for the file
        print(f"error: cannot write to --out {args.out}: {type(exc).__name__}: "
              f"{exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
