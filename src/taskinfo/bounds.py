"""PAC-Bayes test-error bound and its empirical validation harness.

For per-sample losses bounded in [0, 1] (cross-entropy clipped at
L_max = ln K and rescaled), any beta > 1/2, prior P and posterior Q satisfy,
with probability at least 1 - delta over the draw of the n training samples,

    L_test(Q) <= [ E_Q[L_train] + beta KL(Q||P) + beta ln(1/delta) ]
                 / ( n (1 - 1/(2 beta)) ),

where L_train is the total clipped train loss and L_test the expected
per-sample clipped test loss. The validation harness draws every trial's
planted task first, fits all the trial posteriors in one lockstep run of
the variational optimizer (each with its own seed, so a trial's posterior
is the one it would get alone), and reports how often the bound covers the
held-out loss. The fits skip the optimizer's own expected-loss report,
which the bound does not read: it scores each posterior on its clipped
train and test losses. A trial whose fit diverges gets a NaN row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import Architecture, TrainingDiverged
from .tasks import Dataset
from .variational import (
    GaussianPosterior,
    IsotropicPrior,
    MlpLossModel,
    VariationalConfig,
    _fit_many,
    _mc_losses,
    kl_gaussian,
)

__all__ = [
    "BoundReport",
    "pac_bayes_bound",
    "clipped_expected_loss",
    "bound_validation_trial",
    "ValidationReport",
]


@dataclass(frozen=True)
class BoundReport:
    train_term: float    # expected clipped-rescaled train loss, total
    kl: float
    n: int
    beta: float
    delta: float
    bound_value: float   # upper bound on per-sample clipped test loss


def pac_bayes_bound(train_loss_total: float, kl: float, n: int, beta: float,
                    delta: float) -> BoundReport:
    """Evaluate the bound; losses must already be clipped-rescaled to [0, 1]."""
    if not beta > 0.5:
        raise ValueError(f"invalid beta: bound needs beta > 1/2, got {beta}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"invalid confidence: delta must be in (0, 1], got {delta}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kl < 0:
        raise ValueError("kl must be >= 0")
    value = (train_loss_total + beta * kl + beta * math.log(1.0 / delta)) / (
        n * (1.0 - 1.0 / (2.0 * beta)))
    return BoundReport(train_term=train_loss_total, kl=kl, n=n, beta=beta,
                       delta=delta, bound_value=value)


def clipped_expected_loss(q: GaussianPosterior, d: Dataset, mc: int,
                          seed: int) -> float:
    """E_Q of the total loss with per-sample CE clipped at ln K, rescaled to [0,1]."""
    if mc < 1:
        raise ValueError("mc must be >= 1")
    if d.n == 0:
        return 0.0
    return _clipped_loss(MlpLossModel(q.arch, d), q, d, mc, seed)


def _clipped_loss(model: MlpLossModel, q: GaussianPosterior, d: Dataset, mc: int,
                  seed: int) -> float:
    """clipped_expected_loss on the loss model of a nonempty d."""
    lmax = math.log(d.num_labels)
    totals = _mc_losses([model], [q], mc, seed, "clipped-loss", lmax)[0]
    return float((totals / lmax).mean())


@dataclass(frozen=True)
class ValidationReport:
    coverage: float
    rows: tuple[tuple, ...]   # (trial, train_term, kl, bound, test_loss, covered)


def bound_validation_trial(task_generator, arch: Architecture, beta: float,
                           delta: float, trials: int, seed: int,
                           prior: IsotropicPrior | None = None,
                           cfg: VariationalConfig | None = None,
                           mc_eval: int = 256) -> ValidationReport:
    """Fit a posterior per trial and check the bound against held-out loss.

    ``task_generator(trial_seed)`` must yield an i.i.d. (train, test) pair
    from a fixed distribution. Reports the fraction of trials whose
    per-sample clipped test loss stayed below the bound.
    """
    if trials < 1:
        raise ValueError("empty trial set: trials must be >= 1")
    if mc_eval < 1:
        raise ValueError("mc must be >= 1")
    prior = prior or IsotropicPrior(1.0)
    cfg = cfg or VariationalConfig(steps=200, learning_rate=0.05, mc_samples=4)
    splits = [task_generator(seed * 7919 + trial) for trial in range(trials)]
    models = [MlpLossModel(arch, train) for train, _ in splits]
    fits = _fit_many(models, [beta] * trials, prior, cfg,
                     [seed * 31 + trial for trial in range(trials)])
    rows = []
    for trial, ((train, test), model, res) in enumerate(zip(splits, models, fits)):
        if isinstance(res, TrainingDiverged):
            rows.append((trial, math.nan, math.nan, math.nan, math.nan, False))
            continue
        q, _ = res
        kl = kl_gaussian(q, prior)
        # scored on the fit's own loss model, not on a second copy of the inputs
        train_term = (_clipped_loss(model, q, train, mc_eval, seed * 17 + trial)
                      if train.n else 0.0)
        report = pac_bayes_bound(train_term, kl, train.n, beta, delta)
        test_total = clipped_expected_loss(q, test, mc_eval, seed * 23 + trial)
        test_per_sample = test_total / max(test.n, 1)
        rows.append((trial, train_term, kl, report.bound_value,
                     test_per_sample, bool(test_per_sample <= report.bound_value)))
    covered = sum(row[5] for row in rows)
    return ValidationReport(coverage=covered / trials, rows=tuple(rows))
