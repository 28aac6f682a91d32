import math

import numpy as np
import pytest

from taskinfo import tasks
from taskinfo.distance import (
    DistanceConfig,
    FinetuneConfig,
    distance_matrix,
    finetune_correlate,
    task_distance,
)
from taskinfo.models import Architecture, SgdConfig
from taskinfo.variational import IsotropicPrior, VariationalConfig


def planted_pair(seed):
    """A 4-class planted task over 8-bit inputs and its 2-class subtask."""
    m = 256
    xs = np.arange(m)
    table = np.zeros((m, 4))
    table[xs, (xs & 1) + 2 * ((xs >> 1) & 1)] = 1.0
    rule = type("Rule", (), {"table": table})()
    full = tasks.as_real_vectors(
        tasks.generate_planted_task(160, rule, 0.15, seed=seed))
    keep = full.labels < 2
    sub = tasks.Dataset(full.inputs[keep], full.labels[keep], 4, full.space)
    return full, sub


def fast_cfg(replicates=2):
    return DistanceConfig(
        replicates=replicates,
        opt=VariationalConfig(steps=400, learning_rate=1.0,
                              logvar_learning_rate=2.0, mc_samples=4,
                              report_mc=256),
        prior=IsotropicPrior(1.0),
    )


ARCH = Architecture((10, 4))


def test_self_distance_below_tau():
    full, _ = planted_pair(11)
    res = task_distance(full, full, 0.5, ARCH, fast_cfg(), seeds=[0, 1])
    assert res.value <= res.tau
    assert res.pre_floor >= -res.tau


def test_subset_asymmetry():
    full, sub = planted_pair(11)
    d_fs = task_distance(full, sub, 0.5, ARCH, fast_cfg(), seeds=[0, 1])
    d_sf = task_distance(sub, full, 0.5, ARCH, fast_cfg(), seeds=[0, 1])
    assert d_fs.value < d_sf.value
    assert d_sf.value > d_sf.tau


def test_union_to_part_below_tau():
    full, sub = planted_pair(11)
    du = tasks.disjoint_union(full, sub)
    arch = Architecture((12, 4))
    res = task_distance(du, full, 0.5, arch, fast_cfg(), seeds=[0, 1])
    assert res.value <= res.tau


def test_distance_floor_and_metadata():
    full, sub = planted_pair(13)
    res = task_distance(full, sub, 0.5, ARCH, fast_cfg(), seeds=[0, 1])
    assert res.value >= 0.0
    assert res.value == max(0.0, res.pre_floor)
    assert res.kl_union >= 0 and res.kl_source >= 0
    assert res.spread_union >= 0 and res.spread_source >= 0


def test_replicate_stability():
    full, sub = planted_pair(11)
    r2 = task_distance(sub, full, 0.5, ARCH, fast_cfg(2), seeds=[0, 1])
    r4 = task_distance(sub, full, 0.5, ARCH, fast_cfg(4), seeds=[0, 1, 2, 3])
    spread = max(r4.spread_union, r4.spread_source, 0.5)
    assert abs(r2.value - r4.value) <= spread


def test_matrix_consistency_with_entries():
    full, sub = planted_pair(11)
    named = [("full", full), ("sub", sub)]
    seeds = [0, 1]
    matrix = distance_matrix(named, 0.5, ARCH, fast_cfg(), seeds)
    # entries equal individually computed distances with the same seeds
    direct = task_distance(sub, full, 0.5, ARCH, fast_cfg(), seeds)
    assert matrix.values[0, 1] == pytest.approx(direct.value, abs=1e-9)
    assert matrix.values.shape == (2, 2)
    assert (np.diag(matrix.values) <= np.diag(matrix.tau)).all()


def test_matrix_requires_two_tasks():
    full, _ = planted_pair(11)
    with pytest.raises(ValueError, match="two tasks"):
        distance_matrix([("only", full)], 0.5, ARCH, fast_cfg(), [0])


def test_distance_undefined_when_all_replicates_diverge():
    from taskinfo.distance import DistanceUndefined
    full, sub = planted_pair(11)
    bad = DistanceConfig(
        replicates=2,
        opt=VariationalConfig(steps=50, learning_rate=1e12, mc_samples=2,
                              report_mc=8, grad_clip=None),
        prior=IsotropicPrior(1.0),
    )
    with pytest.warns(UserWarning, match="diverged"):
        with pytest.raises(DistanceUndefined):
            task_distance(full, sub, 0.5, ARCH, bad, seeds=[0, 1])



def test_narrower_source_is_zero_padded_to_the_union_width():
    # d(d1 -> d2) with d1 on 3 inputs and d2 on 5: the source statistic
    # d1 u d1 has 5 columns and is padded with zeros to the union's 7
    from taskinfo.distance import _statistics
    d1 = tasks.generate_random_label_task(12, tasks.RealSpace(3), 2, seed=1)
    d2 = tasks.generate_random_label_task(12, tasks.RealSpace(5), 2, seed=2)
    source, du = _statistics(d1, d2)
    plain = tasks.disjoint_union(d1, d1)
    assert source.space.dim == du.space.dim == 7
    assert np.array_equal(source.inputs[:, :5], plain.inputs)
    assert not source.inputs[:, 5:].any()
    assert np.array_equal(source.labels, plain.labels)
    cfg = DistanceConfig(replicates=1, prior=IsotropicPrior(1.0),
                         opt=VariationalConfig(steps=20, learning_rate=0.5,
                                               mc_samples=2, report_mc=16))
    res = task_distance(d1, d2, 0.5, Architecture((7, 2)), cfg, seeds=[0])
    assert math.isfinite(res.value) and res.value >= 0.0

# ---------------------------------------------------------------------------
# fine-tuning correlate


def bit_task(bit, n, seed, flip=False):
    m = 256
    xs = np.arange(m)
    table = np.zeros((m, 2))
    labels = ((xs >> bit) & 1) ^ int(flip)
    table[xs, labels] = 1.0
    rule = type("Rule", (), {"table": table})()
    return tasks.as_real_vectors(
        tasks.generate_planted_task(n, rule, 0.05, seed=seed))


def test_finetune_warm_start_not_worse_on_same_task():
    d = bit_task(0, 120, seed=3)
    cfg = FinetuneConfig(
        pretrain=SgdConfig(learning_rate=0.01, batch_size=30, epochs=60,
                           seed=0),
        finetune=SgdConfig(learning_rate=0.002, batch_size=30, epochs=20,
                           seed=1),
        holdout_fraction=0.25, split_seed=5, init_seed=7,
    )
    fine, scratch = finetune_correlate(d, d, Architecture((8, 16, 2)), cfg)
    assert fine <= scratch + 0.05


def test_finetune_zero_steps_returns_pretrain_eval():
    d1 = bit_task(0, 100, seed=3)
    d2 = bit_task(1, 100, seed=4)
    cfg = FinetuneConfig(
        pretrain=SgdConfig(learning_rate=0.01, batch_size=25, epochs=30,
                           seed=0),
        finetune=SgdConfig(learning_rate=0.002, batch_size=25, epochs=0,
                           seed=1),
        holdout_fraction=0.25, split_seed=5, init_seed=7,
    )
    arch = Architecture((8, 16, 2))
    fine, _ = finetune_correlate(d1, d2, arch, cfg)
    # reproduce by hand: pretrain on d1, evaluate on d2's holdout
    from taskinfo.models import dataset_loss, sgd_train
    d2_train, d2_test = tasks.subset_split(d2, 0.75, seed=5)
    pre = sgd_train(d1, arch, cfg.pretrain, init=7)
    assert fine == pytest.approx(dataset_loss(pre.params, d2_test) / d2_test.n,
                                 rel=1e-12)


def test_finetune_near_source_beats_far_source():
    target = bit_task(0, 120, seed=3)
    near = bit_task(0, 120, seed=8)          # same rule, fresh sample
    far = tasks.as_real_vectors(tasks.generate_random_label_task(
        120, tasks.DiscreteSpace(256), 2, seed=9))
    cfg = FinetuneConfig(
        pretrain=SgdConfig(learning_rate=0.01, batch_size=30, epochs=80,
                           seed=0),
        finetune=SgdConfig(learning_rate=0.002, batch_size=30, epochs=10,
                           seed=1),
        holdout_fraction=0.25, split_seed=5, init_seed=7,
    )
    arch = Architecture((8, 16, 2))
    fine_near, _ = finetune_correlate(near, target, arch, cfg)
    fine_far, _ = finetune_correlate(far, target, arch, cfg)
    assert fine_near < fine_far


def test_finetune_requires_shared_space():
    d1 = bit_task(0, 50, seed=1)
    d2 = tasks.generate_random_label_task(50, tasks.RealSpace(5), 2, seed=2)
    cfg = FinetuneConfig(
        pretrain=SgdConfig(learning_rate=0.01, batch_size=10, epochs=1, seed=0),
        finetune=SgdConfig(learning_rate=0.01, batch_size=10, epochs=1, seed=0),
    )
    with pytest.raises(ValueError, match="shared space"):
        finetune_correlate(d1, d2, Architecture((8, 2)), cfg)
