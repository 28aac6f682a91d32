"""Every validated value type keeps a private, C-ordered, read-only copy of
the arrays it is given: a later write to the caller's array does not reach
the object, and the caller's array stays writeable."""

import numpy as np
import pytest

from taskinfo.annealing import PosteriorGrid
from taskinfo.finite_oracle import Curve, Hypothesis
from taskinfo.models import Architecture, MlpParams
from taskinfo.tasks import Dataset, DiscreteSpace
from taskinfo.variational import FisherDiagonal, GaussianPosterior


def _dataset():
    inputs, labels = np.array([0, 1, 2]), np.array([0, 1, 0])
    d = Dataset(inputs, labels, 2, DiscreteSpace(4))
    return [(inputs, d.inputs), (labels, d.labels)]


def _hypothesis():
    table = np.asfortranarray([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    return [(table, Hypothesis(table, 1.0).table)]


def _curve():
    arrays = np.array([1.0, 2.0]), np.array([3.0, 1.0]), np.array([0.0, 2.0])
    c = Curve(*arrays)
    return list(zip(arrays, (c.abscissa, c.loss, c.complexity)))


def _grid():
    arrays = (np.array([1.0, 2.0]), np.array([0.5, 0.0]),
              np.asfortranarray([[0.0, 1.0], [1.0, 0.0]]))
    g = PosteriorGrid(*arrays)
    return list(zip(arrays, (g.losses, g.kls, g.metric)))


def _posterior():
    mean, log_var = np.linspace(-1.0, 1.0, 6), np.full(6, -2.0)
    q = GaussianPosterior(mean, log_var, Architecture((2, 2)))
    return [(mean, q.mean), (log_var, q.log_var)]


def _fisher():
    entries = np.array([0.0, 1.5, 2.0])
    return [(entries, FisherDiagonal(entries, n=4).entries)]


def _params():
    w0, b0 = np.asfortranarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.zeros(3)
    w1, b1 = np.ones((3, 2)), np.array([0.5, -0.5])
    p = MlpParams((w0, w1), (b0, b1))
    return list(zip((w0, w1, b0, b1), p.weights + p.biases))


@pytest.mark.parametrize("make", [_dataset, _hypothesis, _curve, _grid, _posterior,
                                  _fisher, _params],
                         ids=lambda f: f.__name__.strip("_"))
def test_value_type_keeps_a_private_read_only_copy(make):
    pairs = make()
    kept = [own.copy() for _, own in pairs]
    for caller, own in pairs:
        assert caller.flags.writeable
        assert not own.flags.writeable and own.flags.c_contiguous
        caller += 1
    for (_, own), before in zip(pairs, kept):
        assert np.array_equal(own, before)
