import math

import numpy as np
import pytest

from taskinfo import tasks
from taskinfo.models import (
    Architecture,
    MlpParams,
    SgdConfig,
    TrainingDiverged,
    dataset_loss,
    flatten_params,
    forward,
    gradient,
    init_params,
    sgd_train,
    unflatten_params,
)

from .reference import finite_difference_gradient, relative_errors


def zero_params(arch):
    return MlpParams(
        tuple(np.zeros((a, b)) for a, b in zip(arch.layer_widths[:-1],
                                               arch.layer_widths[1:])),
        tuple(np.zeros(b) for b in arch.layer_widths[1:]),
    )


def test_forward_zero_net_uniform():
    arch = Architecture((3, 5, 4))
    p = zero_params(arch)
    out = forward(p, np.array([0.3, -1.0, 2.0]))
    assert np.allclose(out, 0.25, atol=1e-15)


def test_forward_hand_softmax():
    # single linear layer, logits (0, ln 3) -> (0.25, 0.75)
    p = MlpParams((np.array([[0.0, math.log(3.0)]]),), (np.zeros(2),))
    out = forward(p, np.array([1.0]))
    assert out == pytest.approx([0.25, 0.75], abs=1e-12)


def test_forward_normalized_and_shift_invariant():
    arch = Architecture((4, 6, 3))
    p = init_params(arch, seed=3)
    x = np.array([0.1, -2.0, 0.5, 1.5])
    out = forward(p, x)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    shifted = MlpParams(p.weights, (p.biases[0], p.biases[1] + 7.0))
    assert np.abs(forward(shifted, x) - out).max() < 1e-12


def test_forward_rejects_nonfinite():
    p = init_params(Architecture((2, 2)), seed=0)
    with pytest.raises(ValueError, match="invalid input"):
        forward(p, np.array([1.0, np.nan]))


def test_dataset_loss_zero_net_n_lnk():
    d = tasks.generate_random_label_task(9, tasks.RealSpace(3), 4, seed=0)
    p = zero_params(Architecture((3, 4)))
    assert dataset_loss(p, d) == pytest.approx(9 * math.log(4), rel=1e-12)


def test_dataset_loss_matches_manual_recomputation():
    d = tasks.generate_random_label_task(11, tasks.RealSpace(3), 3, seed=2)
    p = init_params(Architecture((3, 5, 3)), seed=4)
    manual = math.fsum(
        -math.log(forward(p, x)[y]) for x, y in zip(d.inputs, d.labels))
    assert dataset_loss(p, d) == pytest.approx(manual, rel=1e-10)


def test_dataset_loss_saturated_near_zero():
    d = tasks.Dataset(np.array([[5.0], [-5.0]]), np.array([1, 0]), 2,
                      tasks.RealSpace(1))
    p = MlpParams((np.array([[-20.0, 20.0]]),), (np.zeros(2),))
    assert dataset_loss(p, d) < 1e-8


@pytest.mark.parametrize("widths,seed", [
    ((3, 4, 2), 0), ((4, 5, 3), 1), ((2, 3, 3, 2), 3), ((5, 2), 3),
])
def test_gradient_matches_finite_differences(widths, seed):
    arch = Architecture(widths)
    p = init_params(arch, seed=seed)
    d = tasks.generate_random_label_task(8, tasks.RealSpace(widths[0]),
                                         widths[-1], seed=seed + 10)
    g = flatten_params(gradient(p, d))
    fd = finite_difference_gradient(
        lambda v: dataset_loss(unflatten_params(v, arch), d),
        flatten_params(p))
    assert relative_errors(g, fd).max() < 1e-6


def test_gradient_zero_for_unused_inputs():
    # inputs are all zero, so first-layer weight gradients vanish while the
    # weight-decay update still contracts their norm
    arch = Architecture((3, 4, 2))
    p = init_params(arch, seed=1)
    d = tasks.Dataset(np.zeros((6, 3)), np.array([0, 1] * 3), 2,
                      tasks.RealSpace(3))
    g = gradient(p, d)
    assert np.abs(g.weights[0]).max() == 0.0
    cfg = SgdConfig(learning_rate=0.1, batch_size=6, epochs=3,
                    weight_decay=0.1, seed=0)
    trained = sgd_train(d, arch, cfg, init=p).params
    assert np.linalg.norm(trained.weights[0]) < np.linalg.norm(p.weights[0])


def test_gradient_dead_relu_path():
    # a hidden unit that never activates passes no gradient to its weights
    arch = Architecture((2, 2, 2))
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([-100.0, 0.0])   # unit 0 always dead on bounded inputs
    w2 = np.ones((2, 2))
    p = MlpParams((w1, w2), (b1, np.zeros(2)))
    d = tasks.Dataset(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([0, 1]),
                      2, tasks.RealSpace(2))
    g = gradient(p, d)
    assert np.abs(g.weights[0][:, 0]).max() == 0.0
    assert np.abs(g.biases[0][0]) == 0.0


def test_gradient_linearity_over_samples():
    arch = Architecture((3, 4, 2))
    p = init_params(arch, seed=5)
    d = tasks.generate_random_label_task(6, tasks.RealSpace(3), 2, seed=6)
    total = flatten_params(gradient(p, d))
    per_sample = sum(
        flatten_params(gradient(p, (d.inputs[i:i + 1], d.labels[i:i + 1])))
        for i in range(d.n))
    assert np.abs(total - per_sample).max() < 1e-9


def test_gradient_empty_batch_rejected():
    p = init_params(Architecture((2, 2)), seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        gradient(p, (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)))


def test_gradient_overflow_names_the_gradient_not_the_parameters():
    # finite parameters whose gradient overflows: the error is about the
    # gradient, not a complaint that the (finite) parameters are not finite
    p = MlpParams((np.full((1, 2), 1e300),), (np.zeros(2),))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="gradient is not finite"):
            gradient(p, (np.array([[1e10]]), np.array([0])))


def test_sgd_zero_epochs_returns_init():
    arch = Architecture((3, 2))
    p = init_params(arch, seed=1)
    d = tasks.generate_random_label_task(5, tasks.RealSpace(3), 2, seed=0)
    res = sgd_train(d, arch, SgdConfig(learning_rate=0.1, batch_size=5,
                                       epochs=0, seed=0), init=p)
    assert all(np.array_equal(a, b)
               for a, b in zip(res.params.weights, p.weights))
    assert res.loss_trace == ()


def test_sgd_rejects_init_of_another_architecture():
    d = tasks.generate_random_label_task(5, tasks.RealSpace(3), 2, seed=0)
    init = init_params(Architecture((3, 5, 2)), seed=0)
    with pytest.raises(ValueError, match=r"\(3, 5, 2\), not \(3, 2\)"):
        sgd_train(d, Architecture((3, 2)),
                  SgdConfig(learning_rate=0.1, batch_size=5, epochs=1), init=init)


def test_sgd_descends_on_logistic_regression():
    d = tasks.generate_random_label_task(40, tasks.RealSpace(4), 2, seed=3)
    arch = Architecture((4, 2))
    init = init_params(arch, seed=2)
    res = sgd_train(d, arch, SgdConfig(learning_rate=0.01, batch_size=40,
                                       epochs=50, seed=0), init=init)
    assert res.loss_trace[-1] < dataset_loss(init, d)
    assert (np.diff(res.loss_trace) <= 1e-9).all()  # full batch, small lr


def test_sgd_seed_replay_bitwise():
    d = tasks.generate_random_label_task(30, tasks.RealSpace(4), 2, seed=3)
    arch = Architecture((4, 6, 2))
    cfg = SgdConfig(learning_rate=0.05, batch_size=8, epochs=5, seed=12)
    a = sgd_train(d, arch, cfg, init=7)
    b = sgd_train(d, arch, cfg, init=7)
    assert a.loss_trace == b.loss_trace
    assert all(np.array_equal(x, y)
               for x, y in zip(a.params.weights, b.params.weights))


def test_sgd_lr_schedule_applies():
    d = tasks.generate_random_label_task(10, tasks.RealSpace(2), 2, seed=3)
    arch = Architecture((2, 2))
    cfg = SgdConfig(learning_rate=0.1, batch_size=10, epochs=4,
                    decay_epochs=(2,), decay_factor=0.0, seed=0)
    res = sgd_train(d, arch, cfg, init=1)
    # lr hits zero at epoch 2: the last two epochs change nothing
    assert res.loss_trace[1] == res.loss_trace[2] == res.loss_trace[3]


def test_sgd_divergence_carries_last_state():
    d = tasks.generate_random_label_task(20, tasks.RealSpace(3), 2, seed=1)
    arch = Architecture((3, 8, 2))
    with pytest.raises(TrainingDiverged) as info:
        sgd_train(d, arch, SgdConfig(learning_rate=1e9, batch_size=20,
                                     epochs=50, seed=0), init=2)
    assert info.value.last_params is not None


def test_flatten_unflatten_roundtrip():
    arch = Architecture((4, 3, 2))
    p = init_params(arch, seed=0)
    v = flatten_params(p)
    assert v.size == arch.num_params
    q = unflatten_params(v, arch)
    assert all(np.array_equal(a, b) for a, b in zip(q.weights, p.weights))


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture((3,))
    with pytest.raises(ValueError):
        Architecture((3, 0, 2))
