import math
from unittest import mock

import numpy as np
import pytest

from taskinfo import bounds, tasks, variational
from taskinfo.bounds import (
    bound_validation_trial,
    clipped_expected_loss,
    pac_bayes_bound,
)
from taskinfo.models import Architecture
from taskinfo.variational import (
    GaussianPosterior,
    IsotropicPrior,
    MlpLossModel,
    VariationalConfig,
    _optimize_many,
    prior_matched_posterior,
)


def test_bound_hand_value():
    # beta=1, n=100, train=10, kl=5, delta=0.05:
    # (10 + 5 + ln 20) / (100 * 1/2) = 0.35991464547107983
    rep = pac_bayes_bound(10.0, 5.0, 100, 1.0, 0.05)
    assert rep.bound_value == pytest.approx(0.35991464547107983, abs=1e-12)


def test_bound_zero_case():
    assert pac_bayes_bound(0.0, 0.0, 50, 1.0, 1.0).bound_value == 0.0


def test_bound_requires_beta_above_half():
    with pytest.raises(ValueError, match="invalid beta"):
        pac_bayes_bound(1.0, 1.0, 10, 0.5, 0.1)


def test_bound_requires_valid_delta():
    for delta in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="invalid confidence"):
            pac_bayes_bound(1.0, 1.0, 10, 1.0, delta)


def test_bound_monotonicity_signs():
    base = pac_bayes_bound(5.0, 2.0, 100, 1.0, 0.1).bound_value
    assert pac_bayes_bound(5.0, 2.0 + 1e-3, 100, 1.0, 0.1).bound_value > base
    assert pac_bayes_bound(5.0, 2.0, 100, 1.0, 0.1 - 1e-3).bound_value > base
    assert pac_bayes_bound(5.0, 2.0, 101, 1.0, 0.1).bound_value < base


def test_bound_kl_zero_delta_one_is_scaled_train_term():
    for beta in (0.75, 1.0, 3.0):
        rep = pac_bayes_bound(7.0, 0.0, 40, beta, 1.0)
        assert rep.bound_value == pytest.approx(
            7.0 / (40 * (1 - 1 / (2 * beta))), rel=1e-12)


def test_clipped_expected_loss_bounded():
    d = tasks.generate_random_label_task(15, tasks.RealSpace(3), 2, seed=1)
    arch = Architecture((3, 2))
    q = prior_matched_posterior(arch, IsotropicPrior(1.0))
    total = clipped_expected_loss(q, d, mc=64, seed=0)
    assert 0.0 <= total <= d.n   # per-sample values rescaled into [0, 1]


def test_clipped_expected_loss_rejects_no_draws():
    d = tasks.generate_random_label_task(15, tasks.RealSpace(3), 2, seed=1)
    q = prior_matched_posterior(Architecture((3, 2)), IsotropicPrior(1.0))
    for mc in (0, -1):
        with pytest.raises(ValueError, match="mc"):
            clipped_expected_loss(q, d, mc, 0)


def _generator(trial_seed):
    d = tasks.generate_random_label_task(60, tasks.RealSpace(24), 2,
                                         seed=trial_seed)
    # separable-ish planted labels: sign of the first coordinate
    labels = (d.inputs[:, 0] > 0).astype(np.int64)
    d = tasks.Dataset(d.inputs, labels, 2, d.space)
    return tasks.subset_split(d, 0.5, seed=trial_seed)


def test_bound_validation_smoke():
    report = bound_validation_trial(
        _generator, Architecture((24, 2)), beta=1.0, delta=0.5, trials=3,
        seed=0, cfg=VariationalConfig(steps=100, learning_rate=0.5,
                                      mc_samples=4, report_mc=64))
    assert len(report.rows) == 3
    assert 0.0 <= report.coverage <= 1.0
    for row in report.rows:
        trial, train_term, kl, bound, test_loss, covered = row
        assert bound >= 0.0 and kl >= 0.0


def test_bound_validation_rejects_empty_trials():
    with pytest.raises(ValueError, match="empty trial set"):
        bound_validation_trial(_generator, Architecture((24, 2)), 1.0, 0.1,
                               trials=0, seed=0)


def test_bound_validation_diverged_trials_give_nan_rows():
    # an exploding step size diverges every trial: each row is NaN and
    # uncovered, and the coverage counts them as misses
    report = bound_validation_trial(
        _generator, Architecture((24, 2)), beta=1.0, delta=0.5, trials=2,
        seed=0, cfg=VariationalConfig(steps=50, learning_rate=1e12, mc_samples=2,
                                      report_mc=8, grad_clip=None))
    assert report.coverage == 0.0
    for trial, row in enumerate(report.rows):
        assert row[0] == trial and row[5] is False
        assert all(math.isnan(v) for v in row[1:5])


def test_bound_validation_scores_the_train_term_on_the_fit_model():
    # one loss model per trial's train split (the fit's) and one per test
    # split; the rows are those of separate clipped_expected_loss calls
    arch, beta, delta, trials, seed = Architecture((24, 2)), 1.0, 0.5, 3, 4
    cfg = VariationalConfig(steps=20, learning_rate=0.5, mc_samples=2, report_mc=8)
    built = []

    class Counted(MlpLossModel):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    with mock.patch.object(bounds, "MlpLossModel", Counted):
        report = bound_validation_trial(_generator, arch, beta, delta, trials,
                                        seed, cfg=cfg, mc_eval=16)
    assert len(built) == 2 * trials
    splits = [_generator(seed * 7919 + t) for t in range(trials)]
    fits = _optimize_many([MlpLossModel(arch, train) for train, _ in splits],
                          [beta] * trials, IsotropicPrior(1.0), cfg,
                          [seed * 31 + t for t in range(trials)])
    for t, ((train, test), res, row) in enumerate(zip(splits, fits, report.rows)):
        q = res.posterior
        train_term = clipped_expected_loss(q, train, 16, seed * 17 + t)
        bound = pac_bayes_bound(train_term, res.kl, train.n, beta, delta).bound_value
        test_loss = clipped_expected_loss(q, test, 16, seed * 23 + t) / test.n
        assert row == (t, train_term, res.kl, bound, test_loss, test_loss <= bound)


def test_bound_validation_draws_no_report_stream():
    # the bound reads each fit's posterior and KL, never the optimizer's
    # expected-loss report, so no trial draws the "vi-report" stream
    cfg = VariationalConfig(steps=5, learning_rate=0.5, mc_samples=2, report_mc=8)
    labels, draw = [], variational._normal_into

    def spy(out, seed, *names):
        labels.append(names[0])
        return draw(out, seed, *names)

    with mock.patch.object(variational, "_normal_into", spy):
        report = bound_validation_trial(_generator, Architecture((24, 2)), 1.0,
                                        0.5, trials=3, seed=2, cfg=cfg, mc_eval=16)
    assert len(report.rows) == 3
    assert labels.count("vi-step") == 3 * cfg.steps
    assert labels.count("clipped-loss") == 2 * 3      # train and test terms
    assert len(labels) == 3 * cfg.steps + 2 * 3


def test_bound_validation_rejects_no_eval_draws_before_fitting():
    with mock.patch.object(bounds, "_fit_many", side_effect=AssertionError), \
            pytest.raises(ValueError, match="mc"):
        bound_validation_trial(_generator, Architecture((24, 2)), 1.0, 0.5,
                               trials=2, seed=0, mc_eval=0)
