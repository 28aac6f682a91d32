"""The lockstep optimizer, its draw helper and the distance statistic cache,
against per-run references."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import distance, models as models_mod, tasks, variational
from taskinfo.distance import DistanceConfig, distance_matrix, task_distance
from taskinfo.models import Architecture, TrainingDiverged
from taskinfo.rng import _key_from, _normal_into, stream
from taskinfo.variational import (
    GaussianPosterior,
    IsotropicPrior,
    MlpLossModel,
    QuadraticLossModel,
    VariationalConfig,
    _finite_rows,
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
    calls, kernel = [], models_mod._block_loss_and_grad

    def spy(widths, x, y, ws, *args, **kwargs):
        calls.append(ws.shape[0])
        return kernel(widths, x, y, ws, *args, **kwargs)

    with mock.patch.object(variational, "_LOCKSTEP_CELLS", cells), \
            mock.patch.object(models_mod, "_block_loss_and_grad", spy):
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


def test_a_run_diverging_mid_fit_stays_in_place_with_no_rebind():
    # three runs of one n form one span: its kernel calls are bound once,
    # and the two runs that go on still equal their solo runs
    rng = np.random.default_rng(3)
    arch = Architecture((3, 4, 2))
    ds = [_task(rng, 10, 3, 2), _task(rng, 10, 3, 2, scale=1e4), _task(rng, 10, 3, 2)]
    models = [MlpLossModel(arch, d) for d in ds]
    prior = IsotropicPrior(1.0)
    cfg = VariationalConfig(steps=50, learning_rate=3.0, mc_samples=2, report_mc=16,
                            grad_clip=None, trace_every=3)
    bound, bind = [], variational._run_blocks

    def spy(widths, x, xt, y, ws, *args, **kwargs):
        bound.append(len(ws))
        return bind(widths, x, xt, y, ws, *args, **kwargs)

    with mock.patch.object(variational, "_run_blocks", spy):
        got = _optimize_many(models, [0.5] * 3, prior, cfg, [0, 1, 2])
    assert isinstance(got[1], TrainingDiverged)
    assert 0 < int(str(got[1]).rsplit(" ", 1)[1]) < cfg.steps - 5     # mid-fit
    assert bound == [3 * cfg.mc_samples] + [cfg.report_mc] * 2   # one span, two reports
    _assert_same_outcome(got[1], _solo(models[1], 0.5, prior, cfg, 1))
    for row in (0, 2):
        _assert_same_fit(got[row], _solo(models[row], 0.5, prior, cfg, row))


def _spied_draws(fn, *args):
    """fn(*args) and the (seed, labels) of every variational draw it made."""
    draws, draw = [], variational._normal_into

    def spy(out, seed, *labels):
        draws.append((seed, labels))
        return draw(out, seed, *labels)

    with mock.patch.object(variational, "_normal_into", spy):
        return fn(*args), draws


def _assert_bit_equal(got, want):
    if isinstance(want, TrainingDiverged):
        _assert_same_outcome(got, want)
        return
    assert np.array_equal(got.posterior.mean, want.posterior.mean)
    assert np.array_equal(got.posterior.log_var, want.posterior.log_var)
    assert (got.expected_loss, got.kl, got.trace) == (want.expected_loss, want.kl,
                                                      want.trace)
    assert got.expected_loss_se == want.expected_loss_se


def _diverged_at(res):
    return (int(str(res).rsplit(" ", 1)[1]) if isinstance(res, TrainingDiverged)
            else math.inf)


@pytest.mark.parametrize("scales, seeds", [
    ([1.0, 1.0, 1.0, 1.0, 1.0], [7, 7, 8, 7, 8]),      # two seeds, none diverges
    ([1e4, 1.0, 1.0, 1.0], [5, 5, 6, 5]),             # a shared seed's first run
    ([1e4, 1e4, 1.0], [5, 5, 6]),                     # every run of a seed
])
def test_runs_that_share_a_seed_share_its_draws(scales, seeds):
    # each step draws each live seed's "vi-step" stream once and each seed's
    # "vi-report" stream once; the runs that share a seed copy its draw, so
    # every run ends bit for bit as it does alone
    rng = np.random.default_rng(3)
    arch = Architecture((3, 4, 2))
    ns = [10, 10, 7, 10, 10][:len(scales)]
    models = [MlpLossModel(arch, _task(rng, n, 3, 2, scale))
              for n, scale in zip(ns, scales)]
    betas = rng.uniform(0.2, 1.0, size=len(models)).tolist()
    prior = IsotropicPrior(1.0)
    cfg = VariationalConfig(steps=50, learning_rate=3.0, mc_samples=2, report_mc=16,
                            grad_clip=None, trace_every=3)
    got, draws = _spied_draws(_optimize_many, models, betas, prior, cfg, seeds)
    alone = [_optimize_many([m], [b], prior, cfg, [s])[0]
             for m, b, s in zip(models, betas, seeds)]
    for res, want in zip(got, alone):
        _assert_bit_equal(res, want)
    dead = [_diverged_at(res) for res in got]
    assert [math.isfinite(t) for t in dead] == [s > 1 for s in scales]
    assert all(0 < t < cfg.steps - 5 for t in dead if math.isfinite(t))  # mid-fit
    # a run that diverges at step t drew at step t
    for step in range(cfg.steps):
        want = sorted({s for s, t in zip(seeds, dead) if t >= step})
        assert sorted(s for s, labels in draws if labels == ("vi-step", step)) == want
    kept = sorted({s for s, t in zip(seeds, dead) if math.isinf(t)})
    assert sorted(s for s, labels in draws if labels == ("vi-report",)) == kept
    assert len(draws) == sum(1 for _, labels in draws
                             if labels[0] in ("vi-step", "vi-report"))


def test_optimize_many_rejects_a_model_with_no_kernel_and_no_exact_gaussian():
    class Sampled(QuadraticLossModel):
        exact_gaussian = False

    with pytest.raises(ValueError, match="cannot optimize a Sampled"):
        _optimize_many([Sampled(np.ones(3))], [1.0], IsotropicPrior(1.0),
                       VariationalConfig(steps=2), [0],
                       [variational.prior_matched_posterior(
                           variational.vector_architecture(3), IsotropicPrior(1.0))])


def _assert_same_outcome(got, want):
    """The same fit, or the same divergence (message, trace, last state)."""
    if not isinstance(want, TrainingDiverged):
        _assert_same_fit(got, want)
        return
    assert isinstance(got, TrainingDiverged) and str(got) == str(want)
    assert got.trace == want.trace
    assert np.array_equal(got.last_params.mean, want.last_params.mean)
    assert np.array_equal(got.last_params.log_var, want.last_params.log_var)


@pytest.mark.parametrize("clip, scales", [
    (None, [1.0, 30.0, 1e155, 1.0, 1e307]),   # diverge at steps 1 and 0
    (2.0, [1.0, 30.0, 1e3, 1.0, 1e307]),      # two clipped runs, one diverges
])
def test_optimize_many_matches_per_run_loop_at_a_wide_first_layer(clip, scales):
    # at 512 inputs the contiguous and the strided first-layer operand round
    # differently, so this checks that every run reads the same operand alone
    # and in a span: five runs share n = 200, one more has n = 150
    rng = np.random.default_rng(17)
    arch = Architecture((512, 2))
    ds = [_task(rng, 200, 512, 2, scale) for scale in scales] + [_task(rng, 150, 512, 2)]
    models = [MlpLossModel(arch, d) for d in ds]
    betas, seeds = [1.0, 0.5, 0.5, 0.1, 1.0, 2.0], [0, 1, 2, 3, 4, 5]
    prior = IsotropicPrior(1.0)
    cfg = VariationalConfig(steps=6, learning_rate=1.0, mc_samples=2, report_mc=8,
                            grad_clip=clip, trace_every=2)
    got = _optimize_many(models, betas, prior, cfg, seeds)
    want = [_solo(m, b, prior, cfg, s) for m, b, s in zip(models, betas, seeds)]
    assert isinstance(want[4], TrainingDiverged)
    assert isinstance(want[2], TrainingDiverged) == (clip is None)
    for res, ref in zip(got, want):
        _assert_same_outcome(res, ref)
    if clip is not None:                   # runs 1 and 2 were clipped, run 0 not
        free = dataclasses.replace(cfg, grad_clip=None)
        for row, clipped in ((0, False), (1, True), (2, True)):
            res = _solo(models[row], betas[row], prior, free, seeds[row])
            assert _close(got[row].posterior.mean, res.posterior.mean) != clipped


def test_finite_rows_sums_once_and_checks_runs_only_when_the_sum_is_not():
    big = np.full((3, 2, 4), 1e308)        # finite, but the sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(big.sum())
        assert _finite_rows(big, np.zeros(3)) is None
        assert _finite_rows(np.zeros((3, 2, 4)), np.full(3, 1e308)) is None
        nan = big.copy()
        nan[1, 1, 2] = np.nan
        assert _finite_rows(nan, np.zeros(3)).tolist() == [True, False, True]
        signed = np.zeros((3, 2, 4))
        signed[0, 0, 0], signed[2, 1, 3] = np.inf, -np.inf    # sum is NaN
        assert _finite_rows(signed, np.zeros(3)).tolist() == [False, True, False]
        loss = np.array([0.0, 0.0, np.inf])
        assert _finite_rows(np.zeros((3, 2, 4)), loss).tolist() == [True, True, False]


def test_lockstep_results_own_their_arrays():
    # a kept posterior must not hold the batch's (R, 2, P) state alive
    rng = np.random.default_rng(2)
    models = [MlpLossModel(Architecture((3, 2)), _task(rng, 10, 3, 2)) for _ in range(4)]
    cfg = VariationalConfig(steps=3, learning_rate=0.1, mc_samples=2, report_mc=4)
    fits = _optimize_many(models, [0.5] * 4, IsotropicPrior(1.0), cfg, [1, 2, 3, 4])

    def owner(a):
        while a.base is not None:
            a = a.base
        return a
    arrays = [a for res in fits for a in (res.posterior.mean, res.posterior.log_var)]
    for i, a in enumerate(arrays):
        assert owner(a).nbytes == a.nbytes
        for b in arrays[i + 1:]:
            assert not np.shares_memory(owner(a), owner(b))


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


def test_optimize_many_starts_an_exact_gaussian_run_at_the_prior():
    # with no inits, each run starts at the prior over its model's own
    # architecture: a quadratic model's too, bit for bit as optimize_gaussian
    rng = np.random.default_rng(6)
    model = QuadraticLossModel(rng.random(4), rng.normal(size=4))
    prior, cfg = IsotropicPrior(1.5), VariationalConfig(steps=3)
    got = _optimize_many([model], [1.0], prior, cfg, [0])[0]
    want = optimize_gaussian(model, 1.0, prior, cfg, seed=0)
    assert got.posterior.arch == want.posterior.arch == model.arch
    assert np.array_equal(got.posterior.mean, want.posterior.mean)
    assert np.array_equal(got.posterior.log_var, want.posterior.log_var)
    assert (got.expected_loss, got.kl, got.expected_loss_se, got.trace) == (
        want.expected_loss, want.kl, want.expected_loss_se, want.trace)


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


def test_distance_matrix_draws_each_seed_once_per_step():
    # 3 tasks name 18 statistics, 9 of them distinct, fitted for 2 seeds:
    # one step draw per seed and step, and one report draw per seed
    named = [("a", _four_class(1, 12)), ("b", _four_class(2, 10)),
             ("c", _four_class(3, 12))]
    cfg, seeds = _small_cfg(steps=6), [3, 4]
    _, draws = _spied_draws(distance_matrix, named, 0.5, Architecture((10, 4)),
                            cfg, seeds)
    assert sorted(draws) == sorted(
        [(s, ("vi-step", step)) for s in seeds for step in range(6)]
        + [(s, ("vi-report",)) for s in seeds])


def test_distance_matrix_cells_are_nan_when_all_replicates_diverge():
    named = [("a", _four_class(1, 12)), ("b", _four_class(2, 12))]
    cfg = _small_cfg(learning_rate=1e12, grad_clip=None, steps=50)
    with pytest.warns(UserWarning, match="diverged; dropped"):
        matrix = distance_matrix(named, 0.5, Architecture((10, 4)), cfg, [0, 1])
    assert np.isnan(matrix.values).all() and np.isnan(matrix.tau).all()
    assert math.isnan(matrix.kl_source[0, 1])
