"""Asymmetric task distance computed with the variational engine.

d_beta(D1 -> D2) is the extra information a network needs to solve
D1 u D2 once it solves D1: the max over near-optimal posteriors for D1 of
the min over near-optimal posteriors for D1 u D2 of KL(Q_12||P) -
KL(Q_1||P), floored at zero. Posterior sets are approximated by seed
replicates, filtered to those whose Lagrangian is within a slack of the
best replicate (a stand-in for "sufficient"), with the raw pre-floor
difference kept for diagnostics.

All replicates of a call are fitted by one lockstep optimizer run
(variational._optimize_many), each with its own seed, so a replicate gets
the posterior it would get alone. distance_matrix fits each distinct
(statistic dataset, seed) once for all its cells, within the call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .models import Architecture, SgdConfig, TrainingDiverged, sgd_train, dataset_loss
from .tasks import Dataset, RealSpace, disjoint_union, subset_split
from .variational import (
    IsotropicPrior,
    MlpLossModel,
    VariationalConfig,
    _optimize_many,
)

__all__ = [
    "DistanceConfig",
    "DistanceUndefined",
    "TaskDistanceResult",
    "DistanceMatrix",
    "task_distance",
    "distance_matrix",
    "FinetuneConfig",
    "finetune_correlate",
]


class DistanceUndefined(RuntimeError):
    """All replicates diverged; no distance estimate is available."""


@dataclass(frozen=True)
class DistanceConfig:
    replicates: int = 3
    opt: VariationalConfig = field(default_factory=VariationalConfig)
    prior: IsotropicPrior = field(default_factory=lambda: IsotropicPrior(1.0))
    lagrangian_slack: float = 0.05   # replicate joins the statistic set if
                                     # within slack*|best| of the best Lagrangian
    tau_fraction: float = 0.05       # tau_d = fraction of the larger KL

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")


@dataclass(frozen=True)
class TaskDistanceResult:
    value: float          # floored distance in NATS
    pre_floor: float      # raw max-min KL difference
    kl_union: float       # min KL among union-statistic replicates
    kl_source: float      # min KL among source-statistic replicates
    tau: float            # reported tolerance for ~0 comparisons
    spread_union: float   # KL spread across kept union replicates
    spread_source: float


def _statistics(d1: Dataset, d2: Dataset) -> tuple[Dataset, Dataset]:
    """The source and union datasets of d_beta(d1 -> d2).

    The source statistic is computed on d1 u d1, zero-padded to the union
    input width: that presentation carries exactly d1's information while
    matching the union's origin-tag convention and sample scale, so the KL
    difference isolates the new information in d2 instead of presentation
    artifacts.
    """
    if not (isinstance(d1.space, RealSpace) and isinstance(d2.space, RealSpace)):
        raise ValueError("variational distances need real-vector tasks "
                         "(see tasks.as_real_vectors)")
    du, source = disjoint_union(d1, d2), disjoint_union(d1, d1)
    if source.space.dim < du.space.dim:
        inputs = np.zeros((source.n, du.space.dim))
        inputs[:, : source.space.dim] = source.inputs
        source = Dataset(inputs, source.labels, source.num_labels,
                         RealSpace(du.space.dim))
    return source, du


def _fit(datasets, arch: Architecture, beta: float, cfg: DistanceConfig,
         seeds) -> list[list]:
    """Per dataset, its replicate fits (VariationalResult or TrainingDiverged).

    Datasets of equal content share their fits: each distinct (content,
    seed) is fitted once, and all of them in one lockstep optimizer call.
    """
    index, unique, rows = {}, [], []
    for d in datasets:
        key = (d.inputs.shape, d.inputs.tobytes(), d.labels.tobytes(), d.num_labels)
        if key not in index:
            index[key] = len(unique)
            unique.append(d)
        rows.append(index[key] * len(seeds))
    fits = _optimize_many([MlpLossModel(arch, d) for d in unique for _ in seeds],
                          [beta] * (len(unique) * len(seeds)), cfg.prior,
                          cfg.opt, [seed for _ in unique for seed in seeds])
    return [fits[row:row + len(seeds)] for row in rows]


def _kept_kls(fits, seeds, beta: float, cfg: DistanceConfig) -> list[float]:
    """KLs of replicates kept as approximate beta-sufficient statistics."""
    for seed, res in zip(seeds, fits):
        if isinstance(res, TrainingDiverged):
            warnings.warn(f"distance replicate (seed {seed}) diverged; dropped")
    results = [res for res in fits if not isinstance(res, TrainingDiverged)]
    if not results:
        raise DistanceUndefined("all replicates diverged")
    best = min(r.lagrangian_value(beta) for r in results)
    slack = abs(best) * cfg.lagrangian_slack + 1e-9
    return [r.kl for r in results if r.lagrangian_value(beta) <= best + slack]


def _distance(source_fits, union_fits, seeds, beta: float,
              cfg: DistanceConfig) -> TaskDistanceResult:
    kls_source = _kept_kls(source_fits, seeds, beta, cfg)
    kls_union = _kept_kls(union_fits, seeds, beta, cfg)
    # max over source statistics of min over union statistics of the
    # difference = min(kl_union) - min(kl_source)
    kl_u = min(kls_union)
    kl_s = min(kls_source)
    pre = kl_u - kl_s
    tau = cfg.tau_fraction * max(kl_u, kl_s, 1e-12)
    return TaskDistanceResult(
        value=max(0.0, pre), pre_floor=pre, kl_union=kl_u, kl_source=kl_s,
        tau=tau,
        spread_union=max(kls_union) - min(kls_union),
        spread_source=max(kls_source) - min(kls_source),
    )


def task_distance(d1: Dataset, d2: Dataset, beta: float, arch: Architecture,
                  cfg: DistanceConfig, seeds) -> TaskDistanceResult:
    """d_beta(d1 -> d2) via posteriors for d1 and for d1 u d2.

    ``arch`` is the architecture used on the union task; the source
    statistic is fitted on d1 u d1 (see _statistics). The source and union
    replicates are fitted together in one lockstep call (once if d1 u d1
    and d1 u d2 are the same dataset).
    """
    seeds = [int(seed) for seed in seeds]
    source_fits, union_fits = _fit(_statistics(d1, d2), arch, beta, cfg, seeds)
    return _distance(source_fits, union_fits, seeds, beta, cfg)


@dataclass(frozen=True)
class DistanceMatrix:
    """entries[i][j] = d_beta(task_j -> task_i): row = target, col = source."""

    names: tuple[str, ...]
    values: np.ndarray
    pre_floor: np.ndarray
    kl_union: np.ndarray
    kl_source: np.ndarray
    tau: np.ndarray
    beta: float


def distance_matrix(named_tasks, beta: float, arch: Architecture,
                    cfg: DistanceConfig, seeds) -> DistanceMatrix:
    """All ordered pairs of distances (diagonal included).

    Each cell equals task_distance for its pair, but a statistic shared by
    several cells is fitted once: the cells' source and union datasets are
    collected first, and every distinct one is fitted for every seed in one
    lockstep call. Three tasks need 9 distinct statistics where the cells
    name 18. A cell whose replicates all diverge is NaN.
    """
    named_tasks = list(named_tasks)
    if len(named_tasks) < 2:
        raise ValueError("distance matrix needs at least two tasks")
    seeds = [int(seed) for seed in seeds]
    n = len(named_tasks)
    fits = _fit([d for _, target in named_tasks for _, source in named_tasks
                 for d in _statistics(source, target)], arch, beta, cfg, seeds)
    out = np.full((5, n, n), math.nan)
    for cell in range(n * n):
        try:
            res = _distance(fits[2 * cell], fits[2 * cell + 1], seeds, beta, cfg)
        except DistanceUndefined:
            continue
        out[:, cell // n, cell % n] = (res.value, res.pre_floor, res.kl_union,
                                       res.kl_source, res.tau)
    return DistanceMatrix(tuple(name for name, _ in named_tasks), *out, beta=beta)


# ---------------------------------------------------------------------------
# Fine-tuning correlate


@dataclass(frozen=True)
class FinetuneConfig:
    pretrain: SgdConfig
    finetune: SgdConfig        # typically a reduced learning rate
    holdout_fraction: float = 0.25
    split_seed: int = 0
    init_seed: int = 0


def finetune_correlate(d1: Dataset, d2: Dataset, arch: Architecture,
                       cfg: FinetuneConfig) -> tuple[float, float]:
    """(pretrain-then-finetune test loss on d2, scratch test loss on d2).

    Pretrains on d1, fine-tunes on d2's train split, and compares against
    training from scratch on d2 for the combined number of epochs. Zero
    fine-tune epochs return the pretrained model's evaluation as-is.
    """
    if d1.space != d2.space:
        raise ValueError("finetune_correlate needs tasks on a shared space")
    d2_train, d2_test = subset_split(d2, 1.0 - cfg.holdout_fraction,
                                     cfg.split_seed)
    pre = sgd_train(d1, arch, cfg.pretrain, init=cfg.init_seed)
    fine = sgd_train(d2_train, arch, cfg.finetune, init=pre.params)
    scratch_cfg = SgdConfig(
        learning_rate=cfg.pretrain.learning_rate,
        batch_size=cfg.pretrain.batch_size,
        epochs=cfg.pretrain.epochs + cfg.finetune.epochs,
        weight_decay=cfg.pretrain.weight_decay,
        decay_epochs=cfg.pretrain.decay_epochs,
        decay_factor=cfg.pretrain.decay_factor,
        seed=cfg.pretrain.seed,
    )
    scratch = sgd_train(d2_train, arch, scratch_cfg, init=cfg.init_seed)
    n = max(d2_test.n, 1)
    return (dataset_loss(fine.params, d2_test) / n,
            dataset_loss(scratch.params, d2_test) / n)
