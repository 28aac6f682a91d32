"""The Fisher diagonal, SGD, gradient and forward_batch all run on the one
blocked kernel (models._block_loss_and_grad); each is checked here against
its own per-layer implementation in reference.py."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import models, tasks, variational
from taskinfo.models import (
    Architecture,
    MlpParams,
    SgdConfig,
    TrainingDiverged,
    _augment,
    _block_constants,
    _block_loss_and_grad,
    dataset_loss,
    flatten_params,
    forward_batch,
    gradient,
    init_params,
    sgd_train,
    unflatten_params,
)
from taskinfo.variational import fisher_diagonal

from .reference import (
    _gradient_arrays,
    _log_softmax,
    _logits,
    reference_fisher_diagonal,
    reference_sgd_train,
)

RTOL = 1e-12


def _close(a, b):
    return a.shape == b.shape and bool((np.abs(a - b) <= RTOL * np.abs(b)).all())


def _same(a: MlpParams, b: MlpParams):
    return all(np.array_equal(u, v) for u, v in
               zip(a.weights + a.biases, b.weights + b.biases))


def _setup(hidden, d_in, k, n, scale, seed):
    """A network scaled by ``scale`` and a random task; also the caller's
    arrays, with copies to check them against after the calls."""
    rng = np.random.default_rng(seed)
    arch = Architecture((d_in, *hidden, k))
    p0 = init_params(arch, seed)
    arrays = ([w * scale for w in p0.weights]
              + [rng.normal(size=b.shape) for b in p0.biases])
    arrays += [rng.normal(size=(n, d_in)), rng.integers(0, k, size=n)]
    layers = len(p0.weights)
    p = MlpParams(tuple(arrays[:layers]), tuple(arrays[layers:2 * layers]))
    d = tasks.Dataset(arrays[-2], arrays[-1], k, tasks.RealSpace(d_in))
    return arch, p, d, arrays, [a.copy() for a in arrays]


_nets = dict(hidden=st.lists(st.integers(1, 5), min_size=0, max_size=2),
             d_in=st.integers(1, 5), k=st.integers(2, 4),
             n=st.sampled_from([0, 1, 7, 40]),
             scale=st.sampled_from([0.1, 1.0, 4.0]),
             seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(**_nets)
def test_fisher_forward_and_gradient_match_per_layer_reference(
        hidden, d_in, k, n, scale, seed):
    arch, p, d, arrays, before = _setup(hidden, d_in, k, n, scale, seed)
    for mode in ("exact", "sampled"):
        got = fisher_diagonal(p, d, mode=mode, seed=seed)
        want = reference_fisher_diagonal(p, d, mode=mode, seed=seed)
        assert got.n == want.n == n
        assert _close(got.entries, want.entries), mode
    assert _close(forward_batch(p, d.inputs),
                  np.exp(_log_softmax(_logits(p, d.inputs)[0])))
    if n:
        g = gradient(p, d)
        gws, gbs = _gradient_arrays(p, d.inputs, d.labels)
        assert _same(g, MlpParams(gws, gbs))
    for a, b in zip(arrays, before):
        assert a.flags.writeable and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(**_nets, batch=st.integers(1, 50), epochs=st.integers(0, 3),
       lr=st.sampled_from([0.01, 0.3, 1e200]), wd=st.sampled_from([0.0, 0.1]),
       decay=st.sampled_from([(), (1,)]), init_seed=st.booleans())
def test_sgd_train_matches_per_layer_loop_bit_for_bit(
        hidden, d_in, k, n, scale, seed, batch, epochs, lr, wd, decay, init_seed):
    arch, p, d, arrays, before = _setup(hidden, d_in, k, n, scale, seed)
    cfg = SgdConfig(learning_rate=lr, batch_size=batch, epochs=epochs,
                    weight_decay=wd, decay_epochs=decay, decay_factor=0.5,
                    seed=seed % 1000)
    init = seed % 7 if init_seed else p
    try:
        want = reference_sgd_train(d, arch, cfg, init=init)
    except TrainingDiverged as exc:
        want = exc
    if isinstance(want, TrainingDiverged):
        with pytest.raises(TrainingDiverged) as info:
            sgd_train(d, arch, cfg, init=init)
        assert str(info.value) == str(want)
        assert _same(info.value.last_params, want.last_params)
        assert info.value.trace == want.trace
    else:
        got = sgd_train(d, arch, cfg, init=init)
        assert _same(got.params, want[0]) and got.loss_trace == want[1]
    for a, b in zip(arrays, before):
        assert a.flags.writeable and np.array_equal(a, b)


@pytest.mark.parametrize("batch, wd", [(40, 0.0), (7, 0.1)])
def test_sgd_diverging_runs_keep_the_last_finite_state(batch, wd):
    # one step per epoch: the loss overflows first; several steps with weight
    # decay: a step overflows first
    arch, p, d, _, _ = _setup([4], 3, 2, 40, 1.0, 5)
    cfg = SgdConfig(learning_rate=1e200, batch_size=batch, epochs=3,
                    weight_decay=wd, seed=0)
    with pytest.raises(TrainingDiverged) as got:
        sgd_train(d, arch, cfg, init=p)
    with pytest.raises(TrainingDiverged) as want:
        reference_sgd_train(d, arch, cfg, init=p)
    assert str(got.value) == str(want.value)
    assert _same(got.value.last_params, want.value.last_params)
    assert got.value.trace == want.value.trace


def _bits(a):
    return None if a is None else a.tobytes()


@pytest.mark.parametrize("d0", [1, 7, 512])
@pytest.mark.parametrize("hidden", [(), (3, 5)])
def test_plain_and_augmented_inputs_give_identical_kernel_outputs(d0, hidden):
    # dataset_loss and gradient take plain inputs, the kernel _augment's
    rng = np.random.default_rng(d0 + len(hidden))
    widths, r, n = (d0, *hidden, 3), 2, 11
    arch = Architecture(widths)
    x, y = rng.normal(size=(r, n, d0)), rng.integers(0, 3, size=(r, n))
    ws = rng.normal(size=(r, arch.num_params))
    xa, xt = _augment(x)
    assert xa.shape == (r, n, d0 + 1) and xt.shape == (r, d0 + 1, n)
    assert np.array_equal(xa[..., -1], np.ones((r, n)))
    assert np.array_equal(xt, xa.transpose(0, 2, 1)) and xt.flags.c_contiguous
    before = [a.copy() for a in (x, y, ws)]
    for i in range(r):
        run, w, grads = slice(i, i + 1), ws[i:i + 1], np.empty((1, arch.num_params))
        args = (widths, xa[run], y[run], w, xt[run])
        losses = _block_loss_and_grad(*args, _block_constants(widths, y[run], w))
        _block_loss_and_grad(*args, _block_constants(widths, y[run], w, grads))
        p = unflatten_params(ws[i], arch)
        d = tasks.Dataset(x[i], y[i], 3, tasks.RealSpace(d0))
        assert _bits(np.array([dataset_loss(p, d)])) == _bits(losses)
        assert _bits(flatten_params(gradient(p, (x[i], y[i])))) == _bits(grads[0])
    for a, b in zip((x, y, ws), before):
        assert a.flags.writeable and np.array_equal(a, b)


def test_fisher_diagonal_augments_its_inputs_once():
    _, p, d, _, _ = _setup([4], 3, 2, 40, 1.0, 5)
    shapes = []

    def spy(x):
        shapes.append(x.shape)
        return _augment(x)

    with mock.patch.object(models, "_augment", spy), \
            mock.patch.object(variational, "_augment", spy):
        for mode in ("exact", "sampled"):
            fisher_diagonal(p, d, mode=mode)
    assert shapes == [(40, 3), (40, 3)]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 5), r=st.integers(1, 3), s=st.integers(1, 3),
       n=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_one_hot_subtraction_gives_the_scatters_delta_bits(k, r, s, n, seed):
    rng = np.random.default_rng(seed)
    widths = (2, k)
    y = rng.integers(0, k, size=(r, n))
    ws = np.empty((r * s, Architecture(widths).num_params))
    at, onehot, _, _ = _block_constants(widths, y, ws, np.empty(ws.shape))
    z = rng.normal(size=(r * s, k, n)) * rng.choice([1e-3, 1.0, 30.0])
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    scatter = np.exp(z)
    scatter.reshape(-1)[at] -= 1.0
    assert np.subtract(np.exp(z), onehot).tobytes() == scatter.tobytes()
    assert _block_constants(widths, y, ws)[1] is None      # loss-only: no one-hot
