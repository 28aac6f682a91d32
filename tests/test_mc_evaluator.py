"""The blocked Monte-Carlo evaluator against the per-draw reference loop."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import tasks, variational
from taskinfo.bounds import clipped_expected_loss
from taskinfo.models import Architecture, flatten_params, gradient, unflatten_params
from taskinfo.variational import (
    GaussianPosterior,
    MlpLossModel,
    QuadraticLossModel,
)

from .reference import naive_clipped_expected_loss, naive_loss_and_grad

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
