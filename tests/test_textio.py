"""Every library writer goes through the atomic writer: a failed write
leaves the target's old bytes and no temporary file."""

import os

import numpy as np
import pytest

from taskinfo import annealing, finite_oracle, models, tasks, variational

ARCH = models.Architecture((2, 2))
PARAMS = models.init_params(ARCH, seed=0)

WRITERS = {
    "save_dataset_csv": lambda path: tasks.save_dataset_csv(
        tasks.generate_random_label_task(4, tasks.DiscreteSpace(4), 2, seed=0),
        path),
    "save_family": lambda path: finite_oracle.save_family(
        finite_oracle.HypothesisFamily.for_space(tasks.DiscreteSpace(2), 2), path),
    "save_params": lambda path: models.save_params(PARAMS, path),
    "save_posterior": lambda path: variational.save_posterior(
        variational.GaussianPosterior(models.flatten_params(PARAMS),
                                      np.zeros(ARCH.num_params), ARCH), path),
    "save_loss_trace_csv": lambda path: models.save_loss_trace_csv([1.0, 0.5], path),
    "save_grid": lambda path: annealing.save_grid(
        annealing.gaussian_lattice_grid(1.0, 1.0, [0.0, 1.0], [0.0]),
        path, path.with_name("metric.csv")),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_library_writer_is_atomic(tmp_path, monkeypatch, writer):
    target = tmp_path / "target.txt"
    targets = [target, tmp_path / "metric.csv"]
    for path in targets:
        path.write_bytes(b"old bytes\n")

    def fail_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        WRITERS[writer](target)
    assert [path.read_bytes() for path in targets] == [b"old bytes\n"] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metric.csv", "target.txt"]
