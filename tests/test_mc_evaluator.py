"""The blocked Monte-Carlo evaluator against the per-draw reference loop."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import models as models_mod, tasks, variational
from taskinfo.bounds import clipped_expected_loss
from taskinfo.models import (
    Architecture,
    flatten_params,
    gradient,
    init_params,
    unflatten_params,
)
from taskinfo.variational import (
    GaussianPosterior,
    IsotropicPrior,
    MlpLossModel,
    QuadraticLossModel,
    VariationalConfig,
    _mc_losses,
    _optimize_many,
    fisher_diagonal,
    optimize_posterior,
)

from .reference import (
    naive_clipped_expected_loss,
    naive_loss_and_grad,
    reference_mc_losses,
    reference_report,
)

RTOL = 1e-12


def _task(rng, n, d, k):
    return tasks.Dataset(rng.normal(size=(n, d)), rng.integers(0, k, size=n), k,
                         tasks.RealSpace(d))


def _assert_matches_reference(model, d, ws, clip):
    """Per draw: |loss - ref| and max |grad - ref| within RTOL of the
    reference's magnitude; loss-only mode gives the same losses bit for bit."""
    before = ws.copy()
    losses, grads = model.loss_and_grad(ws, clip=clip)
    only, none = model.loss_and_grad(ws, grad=False, clip=clip)
    assert none is None and np.array_equal(only, losses)
    assert losses.shape == (ws.shape[0],) and grads.shape == ws.shape
    assert np.array_equal(ws, before) and ws.flags.writeable
    for s, w in enumerate(ws):
        loss, grad = naive_loss_and_grad(model.arch, d.inputs, d.labels, w, clip)
        assert abs(losses[s] - loss) <= RTOL * abs(loss)
        assert np.abs(grads[s] - grad).max() <= RTOL * np.abs(grad).max()


@settings(max_examples=60, deadline=None)
@given(hidden=st.lists(st.integers(1, 5), min_size=0, max_size=2),
       d_in=st.integers(1, 5), k=st.integers(2, 4),
       n=st.sampled_from([0, 1, 7]), cells=st.sampled_from([1, 40, 300]),
       offset=st.sampled_from(["1", "block-1", "block", "block+1"]),
       scale=st.sampled_from([0.1, 1.0, 3.0]),
       clip=st.sampled_from([None, 0.5, "lnK"]), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_evaluator_matches_per_draw_loop(hidden, d_in, k, n, cells, offset,
                                                 scale, clip, seed):
    rng = np.random.default_rng(seed)
    arch = Architecture((d_in, *hidden, k))
    d = _task(rng, n, d_in, k)
    with mock.patch.object(variational, "_BLOCK_CELLS", cells):
        model = MlpLossModel(arch, d)
    block = model.block
    assert block == max(1, cells // (max(n, 1) * max(arch.layer_widths[1:])))
    s = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[offset]
    if s < 1:
        return
    ws = rng.normal(size=(s, arch.num_params)) * scale
    _assert_matches_reference(model, d, ws, math.log(k) if clip == "lnK" else clip)
    if n:     # the one-draw case: models.gradient on a single weight vector
        g = flatten_params(gradient(unflatten_params(ws[0], arch), (d.inputs, d.labels)))
        ref = naive_loss_and_grad(arch, d.inputs, d.labels, ws[0])[1]
        assert np.abs(g - ref).max() <= RTOL * np.abs(ref).max()


@pytest.mark.parametrize("widths", [(4, 3), (5, 6, 3), (512, 2)])
def test_blocked_evaluator_at_the_default_budget(widths):
    rng = np.random.default_rng(7)
    arch = Architecture(widths)
    d = _task(rng, 7, widths[0], widths[-1])
    model = MlpLossModel(arch, d)
    assert model.block == variational._BLOCK_CELLS // (7 * max(widths[1:]))
    for s in (1, model.block - 1, model.block, model.block + 1):
        _assert_matches_reference(model, d, rng.normal(size=(s, arch.num_params)),
                                  None)


def test_wide_hidden_layer_gets_few_draws_per_block():
    d = _task(np.random.default_rng(0), 500, 512, 2)
    assert MlpLossModel(Architecture((512, 32, 2)), d).block == 1
    assert MlpLossModel(Architecture((512, 2)), d).block == 16


def test_evaluator_rejects_wrong_draw_shape():
    arch = Architecture((3, 2))
    model = MlpLossModel(arch, _task(np.random.default_rng(0), 4, 3, 2))
    for bad in (np.zeros(arch.num_params), np.zeros((2, arch.num_params + 1))):
        with pytest.raises(ValueError, match="shape"):
            model.loss_and_grad(bad)


def test_evaluator_with_no_draws():
    arch = Architecture((3, 2))
    model = MlpLossModel(arch, _task(np.random.default_rng(0), 4, 3, 2))
    losses, grads = model.loss_and_grad(np.zeros((0, arch.num_params)))
    assert losses.shape == (0,) and grads.shape == (0, arch.num_params)


def test_quadratic_model_takes_a_block_of_draws():
    rng = np.random.default_rng(1)
    h, w0 = rng.random(5), rng.normal(size=5)
    model = QuadraticLossModel(h, w0)
    ws = rng.normal(size=(3, 5))
    losses, grads = model.loss_and_grad(ws)
    for s, w in enumerate(ws):
        assert losses[s] == pytest.approx(float(h @ (w - w0) ** 2), rel=RTOL)
        assert np.allclose(grads[s], 2.0 * h * (w - w0), rtol=RTOL, atol=0.0)
    assert np.array_equal(model.loss_and_grad(ws, grad=False)[0], losses)
    assert model.loss_and_grad(ws, grad=False)[1] is None


@pytest.mark.parametrize("widths,k,n,mc", [((4, 2), 2, 9, 33), ((3, 5, 4), 4, 7, 70),
                                           ((6, 3), 3, 0, 5)])
def test_clipped_expected_loss_matches_per_draw_loop(widths, k, n, mc):
    rng = np.random.default_rng(n + mc)
    arch = Architecture(widths)
    d = _task(rng, n, widths[0], k)
    q = GaussianPosterior(rng.normal(size=arch.num_params) * 2.0,
                          rng.normal(size=arch.num_params) - 1.0, arch)
    got = clipped_expected_loss(q, d, mc, 5)
    want = naive_clipped_expected_loss(q, d, mc, 5)
    assert abs(got - want) <= RTOL * abs(want)


# ---------------------------------------------------------------------------
# loss-only passes stream their draws in blocks of whole kernel blocks

# With _BLOCK_CELLS = 900 and Architecture((5, 3)) (P = 18), a model on n =
# 30 samples has kernel blocks of 10 draws and streams 5 of them, 50 draws,
# at a time; on n = 45, blocks of 6 draws, streamed 8 at a time (48 draws).
CELLS, ARCH = 900, Architecture((5, 3))


def _posterior(rng, arch, scale=1.0):
    return GaussianPosterior(rng.normal(size=arch.num_params) * scale,
                             rng.normal(size=arch.num_params) - 1.0, arch)


def _kernel_calls(fn, *args):
    """fn(*args) and the number of draws of each kernel call it made."""
    calls, kernel = [], models_mod._block_loss_and_grad

    def spy(widths, x, y, ws, *rest, **kwargs):
        calls.append(len(ws))
        return kernel(widths, x, y, ws, *rest, **kwargs)

    with mock.patch.object(models_mod, "_block_loss_and_grad", spy):
        return fn(*args), calls


@pytest.mark.parametrize("mc", [7, 10, 50, 100, 123])
def test_a_streamed_pass_makes_the_whole_draws_kernel_calls(mc):
    # below a kernel block, one kernel block, one streamed block, two, and
    # two and a tail of two kernel blocks and three draws
    rng = np.random.default_rng(mc)
    with mock.patch.object(variational, "_BLOCK_CELLS", CELLS):
        model = MlpLossModel(ARCH, _task(rng, 30, 5, 3))
        assert (model.block, variational._stream_rows(model, 10 ** 6)) == (10, 50)
        q = _posterior(rng, ARCH)
        got, calls = _kernel_calls(_mc_losses, [model], [q], mc, 4, "vi-mc")
        want, whole = _kernel_calls(reference_mc_losses, model, q, mc, 4, "vi-mc")
    assert got.shape == (1, mc) and got[0].tobytes() == want.tobytes()
    assert calls == whole


@pytest.mark.parametrize("mc, draws", [
    (20, [(2, "whole"), (9, "whole")]),                       # every pass fits
    (123, [(2, "blocks")] * 2 + [(9, "blocks")] * 2),        # blocks of 50 and 48
])
def test_reports_of_runs_sharing_seeds_over_unequal_n(mc, draws):
    # distance replicates share their seeds across tasks of different n: runs
    # of one seed share one draw of its report stream wherever their blocks
    # of draws agree, and each report is that of the whole draw
    rng = np.random.default_rng(5)
    ns, seeds = [30, 45, 30, 45, 30], [2, 2, 2, 9, 9]
    cfg = VariationalConfig(steps=3, learning_rate=0.3, mc_samples=2, report_mc=mc)
    made, into, blocks = [], variational._normal_into, variational._normal_blocks

    def spy_into(out, seed, *labels):
        if labels == ("vi-report",):
            made.append((seed, "whole"))
        return into(out, seed, *labels)

    def spy_blocks(out, rows, seed, *labels):
        made.append((seed, "blocks"))
        return blocks(out, rows, seed, *labels)

    with mock.patch.object(variational, "_BLOCK_CELLS", CELLS):
        models = [MlpLossModel(ARCH, _task(rng, n, 5, 3)) for n in ns]
        with mock.patch.object(variational, "_normal_into", spy_into), \
                mock.patch.object(variational, "_normal_blocks", spy_blocks):
            got = _optimize_many(models, [0.5] * len(ns), IsotropicPrior(1.0), cfg, seeds)
        for model, seed, res in zip(models, seeds, got):
            assert (res.expected_loss, res.expected_loss_se) == reference_report(
                model, res.posterior, mc, seed)
    assert sorted(made) == draws


@pytest.mark.parametrize("mc", [7, 123])
def test_a_clipped_loss_streams_as_the_whole_draw(mc):
    rng = np.random.default_rng(mc + 1)
    lmax = math.log(3)
    with mock.patch.object(variational, "_BLOCK_CELLS", CELLS):
        d = _task(rng, 30, 5, 3)
        q = _posterior(rng, ARCH, 2.0)
        got = clipped_expected_loss(q, d, mc, 6)
        totals = reference_mc_losses(MlpLossModel(ARCH, d), q, mc, 6, "clipped-loss", lmax)
    assert got == float((totals / lmax).mean())


def test_a_wide_network_streams_at_the_default_budget():
    # P = 32,962: kernel blocks of 12 draws at n = 20, one to a streamed block
    rng = np.random.default_rng(8)
    arch = Architecture((512, 64, 2))
    model = MlpLossModel(arch, _task(rng, 20, 512, 2))
    assert (model.block, variational._stream_rows(model, 30)) == (12, 12)
    q = _posterior(rng, arch, 0.1)
    got = _mc_losses([model], [q], 30, 1, "vi-report")[0]
    assert got.tobytes() == reference_mc_losses(model, q, 30, 1, "vi-report").tobytes()


def _peak_bytes(fn, *args, **kwargs):
    """The tracemalloc peak of fn(*args, **kwargs), from a fresh start."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_report_on_a_wide_network_holds_no_whole_draw():
    # a (report_mc, P) draw at P = 32,962 and report_mc = 1024 is 270 MB
    arch = Architecture((512, 64, 2))
    d = _task(np.random.default_rng(9), 200, 512, 2)
    cfg = VariationalConfig(steps=1, mc_samples=2, report_mc=1024)
    peak = _peak_bytes(optimize_posterior, d, arch, 1.0, IsotropicPrior(1.0), cfg)
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_fisher_diagonal_squares_its_inputs_once(mode):
    # beside the model's xa and xt, one square of xa, whichever the number of
    # label runs, and a quarter of one for the kernel's own arrays
    d = _task(np.random.default_rng(10), 200, 512, 2)
    p = init_params(Architecture((512, 2)), 0)
    inputs = 200 * 513 * 8                    # bytes of one (n, d0 + 1) array
    assert _peak_bytes(fisher_diagonal, p, d, mode=mode) <= 2 * inputs + inputs * 5 // 4
