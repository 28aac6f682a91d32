"""Spans around the calls into each taskinfo module, and the metrics they give.

The tracer patches, for the length of one traced pass, every public function
that a taskinfo module exposes (including names one module re-imports from
another, such as ``distance.optimize_posterior`` or ``variational.stream``)
plus a few methods that carry the hot work. Each call records a span
``[name, start, end, parent, pass_id, note]`` in memory; ``write_spans``
dumps them when the benchmark ends. Self time is a span's duration minus the
time its child spans cover, so the self times of all spans of a pass, the
pass root included, add up to the pass wall time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time

LAYERS = ("tasks", "finite_oracle", "models", "variational", "bounds",
          "distance", "annealing", "cli", "svg", "rng")

# (module, class, attribute, span name): methods that carry the hot work.
# A missing class or attribute is skipped, so the tracer survives refactors.
METHODS = (
    ("variational", "MlpLossModel", "loss_and_grad", "loss_and_grad"),
    ("finite_oracle", "HypothesisFamily", "for_space", "family_build"),
    ("finite_oracle", "_Candidates", "__init__", "candidates"),
    ("annealing", "PosteriorGrid", "__post_init__", "grid_validate"),
)

# finite_oracle entry points that answer one question about a dataset
ORACLE_QUERIES = {"lagrangian_complexity", "complexity", "structure_function",
                  "critical_beta", "oracle_distance", "deterministic_complexity",
                  "beta_sufficient_statistics", "expected_complexity_trial"}

ROOT = ("harness", "pass", "harness")

# Metrics computed from arguments and results rather than timed; each
# repeats exactly from run to run, so a change can cite it as a count.
COMPUTED = {"variational.gflop", "finite_oracle.family_table_mb",
            "annealing.metric_mb", "distance.unique_statistic_ratio",
            "rng.streams", "models.params_built"}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _note_for(layer, func, site):
    """What a span keeps besides its times; evaluated after the call ends."""
    if (layer, func) == ("finite_oracle", "family_build"):
        return lambda args, kwargs, result: (len(result), result.tables.nbytes)
    if (layer, func) == ("variational", "loss_and_grad"):
        return lambda args, kwargs, result: args[0]      # the loss model
    if (layer, func) == ("variational", "optimize_gaussian"):
        return lambda args, kwargs, result: (
            args[0], _arg(args, kwargs, 3, "cfg"))
    if (layer, func) == ("variational", "optimize_posterior") and site == "distance":
        return lambda args, kwargs, result: (
            args[0], args[1], args[2], args[3], args[4], kwargs.get("seed", 0))
    if (layer, func) == ("annealing", "load_grid"):
        return lambda args, kwargs, result: (
            len(result), os.path.getsize(_arg(args, kwargs, 1, "metric_path")))
    if (layer, func) in (("tasks", "save_dataset_csv"), ("tasks", "load_dataset_csv")):
        path_pos = 1 if func.startswith("save") else 0
        return lambda args, kwargs, result: os.path.getsize(
            _arg(args, kwargs, path_pos, "path"))
    return None


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str, str]] = [ROOT]   # (layer, func, site)
        self._ids: dict[tuple[str, str, str], int] = {ROOT: 0}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pass_id = -1

    # -- spans -------------------------------------------------------------

    def _name_id(self, key) -> int:
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _wrap(self, fn, layer, func, site):
        nid = self._name_id((layer, func, site))
        note = _note_for(layer, func, site)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, clock(), 0.0, stack[-1] if stack else -1,
                    self.pass_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[5] = ("raised", type(exc).__name__)
                raise
            span[2] = clock()
            stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans.append([0, time.perf_counter(), 0.0, -1, pass_id, None])
        self._stack.append(len(self.spans) - 1)

    def end_pass(self) -> float:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for site in LAYERS:
            mod = importlib.import_module(f"taskinfo.{site}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("taskinfo."):
                    continue
                layer = home.rsplit(".", 1)[1]
                self._patch(mod, attr, self._wrap(obj, layer, obj.__name__, site))
        for layer, cls_name, attr, func in METHODS:
            cls = getattr(importlib.import_module(f"taskinfo.{layer}"), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, func, layer))
            else:
                wrapped = self._wrap(raw, layer, func, layer)
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: pass, index, parent, layer, function, site,
        start and end in seconds (perf_counter)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tindex\tparent\tlayer\tfunction\tsite\tstart\tend\n")
            for idx, (nid, t0, t1, parent, pass_id, _) in enumerate(self.spans):
                layer, func, site = self.names[nid]
                fh.write(f"{pass_id}\t{idx}\t{parent}\t{layer}\t{func}\t{site}"
                         f"\t{t0!r}\t{t1!r}\n")


# ---------------------------------------------------------------------------
# Metrics of one traced pass


def _mlp_flop(model) -> int:
    """Multiply-adds x2 of one loss_and_grad call: forward, weight gradient,
    and the delta back-propagated through every layer but the first."""
    widths = model.arch.layer_widths
    macs = [a * b for a, b in zip(widths[:-1], widths[1:])]
    return 2 * model.n * (2 * sum(macs) + sum(macs[1:]))


def _digest(d) -> str:
    h = hashlib.sha1()
    h.update(d.inputs.tobytes())
    h.update(d.labels.tobytes())
    h.update(repr((d.num_labels, d.space)).encode())
    return h.hexdigest()


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    idxs = [i for i, s in enumerate(tracer.spans) if s[4] == pass_id]
    dur = {i: tracer.spans[i][2] - tracer.spans[i][1] for i in idxs}
    child = dict.fromkeys(idxs, 0.0)
    for i in idxs:
        parent = tracer.spans[i][3]
        if parent in child:
            child[parent] += dur[i]

    layer_self = dict.fromkeys(LAYERS + ("harness",), 0.0)
    calls, incl, self_t = {}, {}, {}
    by_fn: dict[tuple[str, str], list[int]] = {}
    root = None
    for i in idxs:
        layer, func, _ = tracer.names[tracer.spans[i][0]]
        if (layer, func) == ROOT[:2]:
            root = i
        s = dur[i] - child[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
        key = (layer, func)
        calls[key] = calls.get(key, 0) + 1
        incl[key] = incl.get(key, 0.0) + dur[i]
        self_t[key] = self_t.get(key, 0.0) + s
        by_fn.setdefault(key, []).append(i)

    def spans_of(layer, func, site=None):
        return [i for i in by_fn.get((layer, func), ())
                if site is None or tracer.names[tracer.spans[i][0]][2] == site]

    def notes(layer, func, site=None):
        return [tracer.spans[i][5] for i in spans_of(layer, func, site)]

    def raised(note):
        return isinstance(note, tuple) and note[:1] == ("raised",)

    def top_level(layer, funcs):
        """Calls to funcs not nested inside another call to funcs."""
        out = []
        for func in funcs:
            for i in by_fn.get((layer, func), ()):
                p = tracer.spans[i][3]
                nested = False
                while p >= 0:
                    pl, pf, _ = tracer.names[tracer.spans[p][0]]
                    if pl == layer and pf in funcs:
                        nested = True
                        break
                    p = tracer.spans[p][3]
                if not nested:
                    out.append(i)
        return out

    m: dict[str, float] = {}
    # rng.stream and the svg renderers call nothing traced, so the self
    # times of those layers are rng.stream_s and svg.render_s below
    for layer in LAYERS + ("harness",):
        if layer not in ("rng", "svg"):
            m[f"{layer}.self_s"] = layer_self[layer]

    fam = [n for n in notes("finite_oracle", "family_build") if not raised(n)]
    m["finite_oracle.family_builds"] = calls.get(("finite_oracle", "family_build"), 0)
    m["finite_oracle.family_build_s"] = self_t.get(("finite_oracle", "family_build"), 0.0)
    m["finite_oracle.family_rules"] = max((n[0] for n in fam), default=0)
    m["finite_oracle.family_table_mb"] = max((n[1] for n in fam), default=0) / 1e6
    m["finite_oracle.candidate_builds"] = calls.get(("finite_oracle", "candidates"), 0)
    m["finite_oracle.candidate_build_s"] = self_t.get(("finite_oracle", "candidates"), 0.0)
    m["finite_oracle.queries"] = len(top_level("finite_oracle", ORACLE_QUERIES))
    for func, name in (("lagrangian_complexity", "lagrangian_s"),
                       ("structure_function", "structure_function_s"),
                       ("critical_beta", "critical_beta_s"),
                       ("oracle_distance", "oracle_distance_s")):
        m[f"finite_oracle.{name}"] = self_t.get(("finite_oracle", func), 0.0)

    lg = ("variational", "loss_and_grad")
    m["variational.loss_and_grad_calls"] = calls.get(lg, 0)
    m["variational.loss_and_grad_s"] = incl.get(lg, 0.0)
    m["variational.loss_and_grad_us"] = (
        1e6 * incl[lg] / calls[lg] if calls.get(lg) else 0.0)
    gflop = sum(_mlp_flop(model) for model in notes(*lg) if not raised(model)) / 1e9
    m["variational.gflop"] = gflop
    m["variational.gflops_per_s"] = gflop / incl[lg] if incl.get(lg) else 0.0
    og = ("variational", "optimize_gaussian")
    runs = [n for n in notes(*og) if n is not None and not raised(n)]
    m["variational.optimize_calls"] = calls.get(og, 0)
    m["variational.optimize_self_s"] = (
        self_t.get(og, 0.0) + self_t.get(("variational", "optimize_posterior"), 0.0))
    m["variational.steps"] = sum(cfg.steps for _, cfg in runs if cfg is not None)
    m["variational.report_draws"] = sum(
        cfg.report_mc for model, cfg in runs
        if cfg is not None and not getattr(model, "exact_gaussian", False))
    m["variational.fisher_s"] = incl.get(("variational", "fisher_diagonal"), 0.0)
    m["models.params_built"] = calls.get(("models", "unflatten_params"), 0)
    m["rng.streams"] = calls.get(("rng", "stream"), 0)
    m["rng.stream_s"] = incl.get(("rng", "stream"), 0.0)

    m["bounds.clipped_loss_calls"] = calls.get(("bounds", "clipped_expected_loss"), 0)
    m["bounds.clipped_loss_s"] = incl.get(("bounds", "clipped_expected_loss"), 0.0)
    m["bounds.trial_self_s"] = self_t.get(("bounds", "bound_validation_trial"), 0.0)
    m["bounds.trials_dropped"] = sum(
        raised(n) for n in notes("variational", "optimize_posterior", "bounds"))

    m["distance.task_distance_calls"] = calls.get(("distance", "task_distance"), 0)
    opt = notes("variational", "optimize_posterior", "distance")
    keys = {(_digest(d), arch.layer_widths, beta, repr(prior), repr(cfg), seed)
            for d, arch, beta, prior, cfg, seed in
            (n for n in opt if n is not None and not raised(n))}
    m["distance.optimizations"] = len(opt)
    m["distance.unique_statistic_ratio"] = len(keys) / len(opt) if opt else 0.0
    m["distance.replicates_dropped"] = sum(raised(n) for n in opt)

    grids = [n for n in notes("annealing", "load_grid") if not raised(n)]
    m["annealing.grid_load_s"] = self_t.get(("annealing", "load_grid"), 0.0)
    m["annealing.grid_validate_s"] = self_t.get(("annealing", "grid_validate"), 0.0)
    m["annealing.grid_nodes"] = max((n[0] for n in grids), default=0)
    m["annealing.metric_mb"] = sum(n[1] for n in grids) / 1e6
    m["annealing.anneal_s"] = incl.get(("annealing", "anneal"), 0.0)

    io = [("tasks", "save_dataset_csv"), ("tasks", "load_dataset_csv")]
    m["tasks.calls"] = sum(v for (layer, _), v in calls.items() if layer == "tasks")
    m["tasks.io_s"] = sum(incl.get(k, 0.0) for k in io)
    m["tasks.io_bytes"] = sum(n for k in io for n in notes(*k)
                              if n is not None and not raised(n))

    m["cli.build_task_s"] = sum(dur[i] for i in top_level("cli", {"build_task"}))
    m["cli.command_self_s"] = layer_self["cli"] - self_t.get(("cli", "build_task"), 0.0)
    m["svg.render_s"] = incl.get(("svg", "line_plot"), 0.0) + incl.get(("svg", "heatmap"), 0.0)

    m["trace.spans"] = len(idxs)
    m["trace.pass_wall_s"] = dur[root] if root is not None else 0.0
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m
