"""The lockstep optimizer, its draw helper and the distance statistic cache,
against per-run references."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import distance, tasks, variational
from taskinfo.distance import DistanceConfig, distance_matrix, task_distance
from taskinfo.models import Architecture, TrainingDiverged
from taskinfo.rng import _key_from, _normal_into, stream
from taskinfo.variational import (
    GaussianPosterior,
    IsotropicPrior,
    MlpLossModel,
    QuadraticLossModel,
    VariationalConfig,
    _optimize_many,
    optimize_gaussian,
)

from .reference import reference_optimize

RTOL = 1e-12


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool((np.abs(a - b) <= RTOL * np.abs(b)).all())


def _assert_same_fit(got, want):
    """Means, log_vars, losses, standard errors and traces within RTOL."""
    assert _close(got.posterior.mean, want.posterior.mean)
    assert _close(got.posterior.log_var, want.posterior.log_var)
    assert got.posterior.arch == want.posterior.arch
    assert _close(got.expected_loss, want.expected_loss)
    assert _close(got.kl, want.kl)
    assert _close(got.expected_loss_se, want.expected_loss_se)
    assert _close(got.trace, want.trace)


def _solo(model, beta, prior, cfg, seed, init=None):
    try:
        return reference_optimize(model, beta, prior, cfg, init=init, seed=seed)
    except TrainingDiverged as exc:
        return exc


def _task(rng, n, d, k, scale=1.0):
    return tasks.Dataset(rng.normal(size=(n, d)) * scale,
                         rng.integers(0, k, size=n), k, tasks.RealSpace(d))


# ---------------------------------------------------------------------------
# lockstep runner against the per-run loop


@settings(max_examples=40, deadline=None)
@given(hidden=st.lists(st.integers(1, 4), min_size=0, max_size=2),
       d_in=st.integers(1, 4), k=st.integers(2, 4),
       data=st.sampled_from(["shared", "distinct", "unequal-n"]),
       size=st.sampled_from(["1", "2", "block-1", "block+1"]),
       mc=st.integers(1, 3), block=st.integers(1, 7),
       clip=st.sampled_from([None, 0.5]), trace_every=st.integers(1, 4),
       lockstep_cells=st.sampled_from([None, 20]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_optimize_many_matches_per_run_loop(hidden, d_in, k, data, size, mc,
                                            block, clip, trace_every,
                                            lockstep_cells, seed):
    rng = np.random.default_rng(seed)
    arch = Architecture((d_in, *hidden, k))
    per = max(1, block // mc)              # whole runs per kernel call
    r = {"1": 1, "2": 2, "block-1": max(1, per - 1), "block+1": per + 1}[size]
    if data == "shared":
        ds = [_task(rng, 6, d_in, k)] * r
    else:
        ns = [6] * r if data == "distinct" else rng.integers(0, 8, size=r)
        ds = [_task(rng, int(n), d_in, k) for n in ns]
    models = []
    for d in ds:
        models.append(MlpLossModel(arch, d))
        models[-1].block = block
    betas = rng.uniform(0.0, 2.0, size=r).tolist()
    seeds = rng.integers(0, 1000, size=r).tolist()
    prior = IsotropicPrior(float(rng.uniform(0.5, 2.0)))
    cfg = VariationalConfig(steps=int(rng.integers(0, 9)), learning_rate=0.3,
                            logvar_learning_rate=0.2, mc_samples=mc,
                            report_mc=int(rng.integers(2, 9)), grad_clip=clip,
                            trace_every=trace_every)
    cells = variational._LOCKSTEP_CELLS if lockstep_cells is None else lockstep_cells
    calls, kernel = [], variational._block_loss_and_grad

    def spy(widths, x, y, ws, grads=None, clip=None):
        calls.append(ws.shape[0])
        return kernel(widths, x, y, ws, grads, clip)

    with mock.patch.object(variational, "_LOCKSTEP_CELLS", cells), \
            mock.patch.object(variational, "_block_loss_and_grad", spy):
        got = _optimize_many(models, betas, prior, cfg, seeds)
    assert len(got) == r and max(calls, default=0) <= block
    for model, beta, s, res in zip(models, betas, seeds, got):
        _assert_same_fit(res, _solo(model, beta, prior, cfg, s))


def test_optimize_many_warm_starts_and_mixed_models():
    rng = np.random.default_rng(4)
    arch = Architecture((3, 2, 2))
    prior = IsotropicPrior(1.0)
    cfg = VariationalConfig(steps=12, learning_rate=0.2, mc_samples=2, report_mc=8)
    quad = QuadraticLossModel(rng.random(5), rng.normal(size=5))
    nets = [MlpLossModel(arch, _task(rng, 9, 3, 2)) for _ in range(2)]
    init = GaussianPosterior(rng.normal(size=arch.num_params),
                             rng.normal(size=arch.num_params) - 1.0, arch)
    models = [nets[0], quad, nets[1]]
    inits = [init,
             variational.prior_matched_posterior(variational.vector_architecture(5), prior),
             variational.prior_matched_posterior(arch, prior)]
    got = _optimize_many(models, [1.0, 0.5, 0.1], prior, cfg, [3, 0, 5], inits)
    for model, beta, s, q, res in zip(models, [1.0, 0.5, 0.1], [3, 0, 5],
                                      inits, got):
        _assert_same_fit(res, _solo(model, beta, prior, cfg, s, init=q))


def test_one_diverging_run_leaves_the_others_as_solo_runs():
    rng = np.random.default_rng(7)
    arch = Architecture((3, 4, 2))
    prior = IsotropicPrior(1.0)
    cfg = VariationalConfig(steps=25, learning_rate=2.0, mc_samples=2,
                            report_mc=16, grad_clip=None, trace_every=3)
    ds = [_task(rng, 10, 3, 2) for _ in range(3)]
    ds.insert(1, _task(rng, 10, 3, 2, scale=1e150))     # overflows at once
    models = [MlpLossModel(arch, d) for d in ds]
    got = _optimize_many(models, [0.5] * 4, prior, cfg, [0, 1, 2, 3])
    assert isinstance(got[1], TrainingDiverged)
    want = _solo(models[1], 0.5, prior, cfg, 1)
    assert isinstance(want, TrainingDiverged)
    assert str(got[1]) == str(want)
    assert got[1].trace == want.trace
    assert np.array_equal(got[1].last_params.mean, want.last_params.mean)
    assert np.array_equal(got[1].last_params.log_var, want.last_params.log_var)
    for row in (0, 2, 3):
        assert not isinstance(got[row], TrainingDiverged)
        _assert_same_fit(got[row], _solo(models[row], 0.5, prior, cfg, row))


def test_optimize_gaussian_raises_what_the_runner_reports():
    d = _task(np.random.default_rng(1), 8, 3, 2)
    cfg = VariationalConfig(steps=50, learning_rate=1e12, mc_samples=2,
                            report_mc=4, grad_clip=None)
    model = MlpLossModel(Architecture((3, 4, 2)), d)
    with pytest.raises(TrainingDiverged) as info:
        optimize_gaussian(model, 0.1, IsotropicPrior(1.0), cfg, seed=0)
    want = _solo(model, 0.1, IsotropicPrior(1.0), cfg, 0)
    assert isinstance(want, TrainingDiverged) and str(info.value) == str(want)
    with pytest.raises(ValueError, match="beta"):
        _optimize_many([MlpLossModel(Architecture((3, 2)), d)], [-1.0],
                       IsotropicPrior(1.0), cfg, [0])


def test_caller_arrays_stay_writeable_and_unchanged():
    rng = np.random.default_rng(2)
    arch = Architecture((3, 2))
    x, y = rng.normal(size=(7, 3)), rng.integers(0, 2, size=7)
    mean, log_var = rng.normal(size=arch.num_params), rng.normal(size=arch.num_params)
    copies = [a.copy() for a in (x, y, mean, log_var)]
    d = tasks.Dataset(x, y, 2, tasks.RealSpace(3))
    init = GaussianPosterior(mean, log_var, arch)
    cfg = VariationalConfig(steps=6, learning_rate=0.5, mc_samples=2, report_mc=4)
    _optimize_many([MlpLossModel(arch, d)] * 2, [1.0, 1.0], IsotropicPrior(1.0),
                   cfg, [0, 1], [init, init])
    for a, c in zip((x, y, mean, log_var), copies):
        assert a.flags.writeable and np.array_equal(a, c)


# ---------------------------------------------------------------------------
# draws from a reused bit generator


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2 ** 40, 2 ** 63),
       labels=st.lists(st.one_of(st.text(max_size=8), st.integers(-10 ** 6, 10 ** 6)),
                       max_size=3),
       shape=st.lists(st.integers(0, 9), min_size=1, max_size=3))
def test_normal_into_equals_a_fresh_philox_stream(seed, labels, shape):
    fresh = np.random.Generator(np.random.Philox(key=_key_from(seed, tuple(labels))))
    live = stream(seed, *labels)            # an open stream is not disturbed
    first = live.standard_normal(3)
    got = _normal_into(np.empty(shape), seed, *labels)
    assert np.array_equal(got, fresh.standard_normal(shape))
    assert np.array_equal(np.concatenate([first, live.standard_normal(3)]),
                          stream(seed, *labels).standard_normal(6))


# ---------------------------------------------------------------------------
# distance_matrix fits each statistic once


def _four_class(seed, n):
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 256, size=n)
    return tasks.as_real_vectors(tasks.Dataset(
        xs, (xs & 1) + 2 * ((xs >> 1) & 1), 4, tasks.DiscreteSpace(256)))


def _small_cfg(**opt):
    return DistanceConfig(replicates=2, opt=VariationalConfig(
        **{"steps": 30, "learning_rate": 1.0, "logvar_learning_rate": 2.0,
           "mc_samples": 2, "report_mc": 16, **opt}))


def test_distance_matrix_fits_each_statistic_once():
    a, b = _four_class(1, 24), _four_class(2, 18)
    a_dup = tasks.Dataset(a.inputs.copy(), a.labels.copy(), 4, a.space)
    named = [("a", a), ("b", b), ("a again", a_dup)]
    arch, cfg, seeds = Architecture((10, 4)), _small_cfg(), [3, 4]
    fits = []
    real = distance._optimize_many

    def counting(models, betas, prior, cfg_, seeds_, inits=None):
        fits.extend((m.x.tobytes(), m.y.tobytes(), s) for m, s in zip(models, seeds_))
        return real(models, betas, prior, cfg_, seeds_, inits)

    with mock.patch.object(distance, "_optimize_many", counting):
        matrix = distance_matrix(named, 0.5, arch, cfg, seeds)
    # statistics a u a, b u b, a u b and b u a, each once per seed
    assert len(fits) == len(set(fits)) == 4 * len(seeds)
    for i, (_, target) in enumerate(named):
        for j, (_, source) in enumerate(named):
            want = task_distance(source, target, 0.5, arch, cfg, seeds)
            got = (matrix.values[i, j], matrix.pre_floor[i, j],
                   matrix.kl_union[i, j], matrix.kl_source[i, j], matrix.tau[i, j])
            assert got == (want.value, want.pre_floor, want.kl_union,
                           want.kl_source, want.tau)


def test_distance_matrix_cells_are_nan_when_all_replicates_diverge():
    named = [("a", _four_class(1, 12)), ("b", _four_class(2, 12))]
    cfg = _small_cfg(learning_rate=1e12, grad_clip=None, steps=50)
    with pytest.warns(UserWarning, match="diverged; dropped"):
        matrix = distance_matrix(named, 0.5, Architecture((10, 4)), cfg, [0, 1])
    assert np.isnan(matrix.values).all() and np.isnan(matrix.tau).all()
    assert math.isnan(matrix.kl_source[0, 1])
