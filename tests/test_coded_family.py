"""The coded table of a hypothesis family against dense float references.

Every family keeps its flat rules as ``_values``, the sorted distinct
table values, and ``_flat``, one integer code per (rule, input, label)
cell. ``tables``, ``_cells`` and ``_neg_log_at`` must give, bit for bit,
what a dense float64 table gives: ``reference._naive_flat`` for a family
from ``for_space``, the input tables for one from ``from_rules``. -0.0 and
0.0 share one code, which reads 0.0.
"""

import gc
import math
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskinfo import finite_oracle as fo
from taskinfo.tasks import DiscreteSpace

from .reference import _naive_flat

# q = 0.5 at K = 2: 1/K, q/(K-1) and 1-q are one value, so one code
_GRIDS = [(), (0.5,), (0.05, 0.1, 0.2), (0.0, 1.0), (0.5, 0.25, 0.5)]


def _dense_flat(m, k, noise_grid):
    return np.stack([r[2] for r in _naive_flat(m, k, noise_grid)])


def _check_coded(fam, dense, data):
    """fam's coded table reads as the dense (F, M, K) float table."""
    values, codes = fam._values, fam._flat
    assert (np.diff(values) > 0).all() and not np.signbit(values).any()
    assert codes.dtype == np.min_scalar_type(len(values))
    assert not codes.flags.writeable and codes.shape == dense.shape
    assert "tables" not in vars(fam)             # built on first read
    assert fam.tables.tobytes() == dense.tobytes()
    assert not fam.tables.flags.writeable
    f, m, k = dense.shape
    n = data.draw(st.integers(0, 12))
    rules = np.array(data.draw(st.lists(st.integers(0, f - 1), min_size=1, max_size=6)))
    xs = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
                  dtype=np.int64)
    ys = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                  dtype=np.int64)
    assert (fam._cells(rules, xs, ys).tobytes()
            == dense[rules[:, None], xs, ys].tobytes())
    at = np.unique(xs)
    assert fam._neg_log_at(at).tobytes() == fo._neg_log(dense[:, at, :]).tobytes()
    assert fam._peak() == dense.max()
    assert np.array_equal(fam.is_constant, (dense == dense[:, :1, :]).all(axis=(1, 2)))
    assert np.array_equal(fam.is_deterministic,
                          ((dense == 0.0) | (dense == 1.0)).all(axis=(1, 2)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 20), st.sampled_from([2, 3, 5]),
       st.one_of(st.sampled_from(_GRIDS),
                 st.lists(st.floats(0.0, 1.0), max_size=4).map(tuple)),
       st.data())
def test_for_space_codes_read_as_the_dense_table(m, k, noise_grid, data):
    fam = fo.HypothesisFamily.for_space(DiscreteSpace(m), k, noise_grid)
    _check_coded(fam, _dense_flat(m, k, noise_grid), data)


@st.composite
def _custom_tables(draw):
    """(R, M, K) tables of rows that sum to 1: a few shared values or
    many distinct ones."""
    r, m, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.sampled_from([2, 3]))
    pool = draw(st.sampled_from([[0.0, 0.25, 0.5, 1.0],
                                 None]))          # None: any float in [0, 1]
    head = st.sampled_from(pool) if pool else st.floats(0.0, 1.0)
    p = np.array(draw(st.lists(head, min_size=r * m, max_size=r * m))).reshape(r, m, 1)
    rest = np.full((r, m, k - 1), 1.0 / (k - 1)) * (1.0 - p)
    return np.concatenate([p, rest], axis=2)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_custom_tables(), st.data())
def test_from_rules_codes_read_as_the_input_tables(tables, data):
    cost = math.log(len(tables))           # a full Kraft budget
    fam = fo.HypothesisFamily.from_rules(
        [fo.Hypothesis(t, cost) for t in tables])
    _check_coded(fam, tables, data)


def test_more_than_255_values_take_a_wider_code():
    # a for_space noise grid of 200 levels and a custom family of 1,200
    # distinct values: a uint8 code would wrap past 255
    grid = tuple(np.linspace(0.001, 0.999, 200).tolist())
    fam = fo.HypothesisFamily.for_space(DiscreteSpace(2), 3, grid)
    assert len(fam._values) > 255 and fam._flat.dtype == np.uint16
    assert fam.tables.tobytes() == _dense_flat(2, 3, grid).tobytes()

    p = np.random.default_rng(0).random((200, 3, 1))
    tables = np.concatenate([p, 1.0 - p], axis=2)
    custom = fo.HypothesisFamily.from_rules(
        [fo.Hypothesis(t, math.log(200)) for t in tables])
    assert len(custom._values) > 255 and custom._flat.dtype == np.uint16
    assert custom.tables.tobytes() == tables.tobytes()
    xs = np.arange(3)
    assert (custom._neg_log_at(xs).tobytes()
            == fo._neg_log(tables[:, xs, :]).tobytes())


def test_negative_zero_shares_the_code_of_zero():
    table = np.array([[-0.0, 1.0], [0.5, 0.5]])
    fam = fo.HypothesisFamily.from_rules(
        [fo.Hypothesis(table, math.log(2)), fo.Hypothesis(table[::-1], math.log(2))])
    assert fam._values.tolist() == [0.0, 0.5, 1.0]
    assert not np.signbit(fam.tables).any()
    assert fam.tables[0, 0, 0] == 0.0 and fam._flat[0, 0, 0] == fam._flat[1, 1, 0]
    grid = fo.HypothesisFamily.for_space(DiscreteSpace(4), 2, (-0.0,))
    assert not np.signbit(grid.tables).any()
    assert grid.tables.tobytes() == _dense_flat(4, 2, (0.0,)).tobytes()


def test_coded_build_memory_guard():
    # the 512-input family: 4,177 rules; its float64 table alone is 34 MB,
    # and its build peaked at 39 MB before the codes
    gc.collect()
    tracemalloc.start()
    try:
        fam = fo.HypothesisFamily.for_space(DiscreteSpace(512), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fam) == 4177 and fam._flat.dtype == np.uint8
    assert peak <= 15e6, f"peak {peak / 1e6:.1f} MB"

