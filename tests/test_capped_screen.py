"""The capped screen of S(t): a cap-aware pair floor and the zero cap.

`_Candidates.capped_minima` bounds each pair rule under each cap by its
children's rows at the largest pin count that the cap admits, and at
beta = 0 caps every t at c*, the cost of the cheapest rule with a table and
a pin count whose approximate loss is exactly 0.0. These tests check every
t against `reference_minimize`, which screens every candidate under t on
its own: on grids that cross c* and the all-pinned prices, that land on a
candidate's cost, on noisy unions whose mixed groups leave no zero
candidate, and on families that put a candidate at either edge of the zero
rule. They also pin the mechanism: each floor bounds the candidates its cap
admits, and the screen builds rows for few pairs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskinfo import finite_oracle as fo
from taskinfo import tasks
from taskinfo.finite_oracle import HypothesisFamily, structure_function
from taskinfo.tasks import Dataset, DiscreteSpace, disjoint_union

from .reference import (
    approx_loss,
    candidate_costs,
    reference_minimize,
    screens,
    zero_cost,
)


@st.composite
def _union_tasks(draw):
    """A union of two tiny tasks and its family. Each part's labels are
    random, come from a deterministic rule of the part's family (a zero
    candidate), or come from one with some labels flipped on repeated
    inputs (mixed groups, so no candidate has approximate loss 0)."""
    k = draw(st.sampled_from([2, 3]))

    def part(m):
        n = draw(st.integers(1, 7))
        xs = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
        kind = draw(st.sampled_from(["random", "planted", "noisy"]))
        if kind == "random":
            ys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        else:
            fam = HypothesisFamily.for_space(DiscreteSpace(m), k, ())
            rule = draw(st.sampled_from(np.flatnonzero(fam.is_deterministic).tolist()))
            ys = fam.tables[rule][xs].argmax(axis=1)
            if kind == "noisy":
                xs, ys = np.append(xs, xs[0]), np.append(ys, (ys[0] + 1) % k)
        return Dataset(xs, np.array(ys, dtype=np.int64), k, DiscreteSpace(m))

    d = disjoint_union(part(draw(st.integers(1, 3))), part(draw(st.integers(1, 3))))
    noise_grid = draw(st.sampled_from([(), (0.1,), (0.05, 0.2)]))
    return d, HypothesisFamily.for_space(d.space, k, noise_grid)


def _crossing_grid(cand, data):
    """A t grid that crosses c* and the all-pinned prices: c* and the
    floats next to it, the all-pinned price of a drawn rule, drawn
    candidate costs exactly, one below every cost and +inf."""
    costs = candidate_costs(cand)
    c_zero = zero_cost(cand)
    rule = data.draw(st.integers(0, len(costs) - 1))
    picks = [costs.min() / 2, np.inf, costs[rule, -1]]
    if np.isfinite(c_zero):
        picks += [c_zero, np.nextafter(c_zero, -np.inf), np.nextafter(c_zero, np.inf)]
    flat = np.unique(costs)
    picks += data.draw(st.lists(st.sampled_from(flat.tolist()), max_size=4))
    return np.unique(picks)


def _references(cand, beta, t_grid):
    return [reference_minimize(cand, beta, cost_cap=t) for t in t_grid]


def _curve_rows(curve):
    return list(zip(curve.loss.tolist(), curve.complexity.tolist()))


def _reference_rows(refs):
    return [(np.inf, np.inf) if where is None else (fo._report(value), where[0])
            for value, where in refs]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_union_tasks(), st.data())
def test_capped_minima_match_per_t_references(task, data):
    d, fam = task
    cand = fo._Candidates(d, fam)
    t_grid = _crossing_grid(cand, data)
    for beta in (0.0, data.draw(st.sampled_from([0.3, 1.0]))):
        want = _references(cand, beta, t_grid)
        assert cand.capped_minima([beta], t_grid)[0] == want
        if beta == 0.0:
            assert _curve_rows(structure_function(d, fam, t_grid)) == \
                _reference_rows(want)


def _check_capped_floor(cand, beta, caps):
    """Under each cap, a pair's floor less its slack is at most the value of
    every candidate the cap admits, whatever pin counts those are, and is
    NaN exactly when the cap admits none."""
    nf = len(cand.fam._flat)
    costs = candidate_costs(cand)[nf:]
    values = np.concatenate([v for _, v in screens(cand, beta)])[nf:]
    floor = cand._pair_floor(beta, slice(None), caps)
    for j, cap in enumerate(caps):
        least = np.where(costs <= cap, values, np.inf).min(axis=1)
        some = np.isfinite(least)
        assert (np.isnan(floor[:, j]) == ~some).all()
        assert (floor[some, j] - fo._pair_slack(floor[some, j]) <= least[some]).all()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_union_tasks(), st.data(), st.sampled_from([0.0, 0.4, 1.0]))
def test_capped_floor_bounds_the_candidates_each_cap_admits(task, data, beta):
    d, fam = task
    cand = fo._Candidates(d, fam)
    costs = np.unique(candidate_costs(cand)[len(fam._flat):])
    caps = data.draw(st.lists(st.sampled_from(costs.tolist()), min_size=1, max_size=5))
    _check_capped_floor(cand, beta, np.unique(caps + [np.inf]))


def test_capped_floor_past_a_gap_in_the_admitted_pin_counts():
    # three pure inputs: pinning all three costs less than pinning two, so
    # a cap can admit s = 0, 1 and 3 but not 2, and a pair's floor must
    # reach its rows at s = 3, past the gap
    d = disjoint_union(Dataset(np.array([0]), np.array([0]), 2, DiscreteSpace(1)),
                       Dataset(np.array([0, 1]), np.array([0, 0]), 2, DiscreteSpace(2)))
    fam = HypothesisFamily.for_space(d.space, 2, ())
    cand = fo._Candidates(d, fam)
    ext = cand.ext
    assert cand.n_pure == 3 and ext[1] < ext[3] < ext[2]
    costs = candidate_costs(cand)[len(fam._flat):]
    gap = (costs[:, 3] <= costs[:, 2]) & (costs[:, 3] > costs[:, 1])
    caps = np.unique(costs[gap, 3])
    for beta in (0.0, 0.4):
        _check_capped_floor(cand, beta, caps)


def _union_of(left, right, noise_grid):
    d = disjoint_union(*(Dataset(np.array(xs), np.array(ys), 3, DiscreteSpace(m))
                         for m, xs, ys in (left, right)))
    return d, HypothesisFamily.for_space(d.space, 3, noise_grid)


def test_pair_candidate_priced_at_the_zero_cap():
    # a pair rule pinning nothing costs exactly c*, the zero cap: it is
    # admitted (cost <= cap) and loses the tie-break on rule index
    d, fam = _union_of((3, [1, 1, 2, 1, 0], [0, 0, 1, 0, 1]),
                       (1, [0, 0, 0, 0], [0, 0, 0, 0]), (0.1,))
    cand = fo._Candidates(d, fam)
    c_zero = zero_cost(cand)
    nf = len(fam._flat)
    assert (candidate_costs(cand)[nf:] == c_zero).any()
    t_grid = [np.nextafter(c_zero, -np.inf), c_zero, np.nextafter(c_zero, np.inf),
              c_zero + 1.0]
    for beta in (0.0, 0.5):
        assert cand.capped_minima([beta], t_grid)[0] == _references(cand, beta, t_grid)
    assert _curve_rows(structure_function(d, fam, t_grid)) == \
        _reference_rows(_references(cand, 0.0, t_grid))


def _custom(rules, n):
    """A one-input custom family and n samples of label 0 at that input."""
    fam = HypothesisFamily.from_rules(
        [fo.Hypothesis(np.array([row]), cost, name) for name, cost, row in rules])
    return Dataset(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 2,
                   DiscreteSpace(1)), fam


def test_zero_cap_needs_table_values_at_most_one():
    # "over" gives label 0 a probability above 1 (row sums may miss 1 by
    # 1e-12), so its loss is -2e-9, below the 0 of the cheaper one-hot
    # rule by more than TIE_ATOL: without the zero rule, c* caps nothing
    d, fam = _custom([("one", 1.0, [1.0, 0.0]), ("over", 2.0, [1.0 + 4e-13, 0.0])],
                     5000)
    cand = fo._Candidates(d, fam)
    assert not cand.unit_bounded and zero_cost(cand) == 1.0 + cand.ext[0]
    t_grid = [1.0 + cand.ext[0], 2.0 + cand.ext[0]]
    got = cand.capped_minima([0.0], t_grid)[0]
    assert got == _references(cand, 0.0, t_grid)
    assert got[1][0] < -fo.TIE_ATOL and got[1][1][1] == 1


def test_zero_cap_takes_exact_zeros_only():
    # "near" is cheap and its approximate loss, 5e-9, is inside the screen
    # margin but above TIE_ATOL; "one" is dearer and loses nothing. c* is
    # one's cost: a cap at near's would leave near as the minimum
    d, fam = _custom([("near", 1.0, [1.0 - 1e-12, 1e-12]), ("one", 1.5, [1.0, 0.0])],
                     5000)
    cand = fo._Candidates(d, fam)
    loss = approx_loss(cand)[0, 0]
    assert fo.TIE_ATOL < loss <= fo._screen_margin(0.0)
    assert cand.unit_bounded and zero_cost(cand) == 1.5 + cand.ext[0]
    t_grid = [1.0 + cand.ext[0], 1.5 + cand.ext[0], np.inf]
    got = cand.capped_minima([0.0], t_grid)[0]
    assert got == _references(cand, 0.0, t_grid)
    assert [where[1] for _, where in got] == [0, 1, 1]


def test_zero_cap_only_at_beta_zero():
    # at beta > 0 a rule 1e-7 dearer than the zero-loss one is within the
    # screen margin and is re-checked, as in the full screen
    d, fam = _custom([("one", 1.0, [1.0, 0.0]), ("dear", 1.0 + 1e-7, [1.0, 0.0])], 3)
    cand = fo._Candidates(d, fam)
    checked = []
    exact_losses = cand.exact_losses

    def spy(rules, counts):
        checked.append(sorted(zip(rules.tolist(), counts.tolist())))
        return exact_losses(rules, counts)

    cand.exact_losses = spy
    for beta, want in ((0.0, [(0, 0)]), (0.4, [(0, 0), (1, 0)])):
        checked.clear()
        assert cand.minimize(beta) == reference_minimize(cand, beta)
        assert checked == [want]


def _pair_rows_counted(monkeypatch):
    """Counts the pair rules whose approximate rows a query builds."""
    built = []
    approx_rows = fo._Candidates._approx_rows

    def spy(self, rules):
        built.append(int((rules >= self._n_flat).sum()))
        return approx_rows(self, rules)

    monkeypatch.setattr(fo._Candidates, "_approx_rows", spy)
    return built


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_workload_union_structure_function_screens_few_pairs(seed, monkeypatch):
    # perfbench oracle-union's structure-fn union (16,393 pair rules): once
    # t pays for pinning every input, the zero cap leaves no pair to screen
    rule = HypothesisFamily.for_space(DiscreteSpace(16), 2).hypothesis("parity011")
    d = disjoint_union(
        tasks.generate_planted_task(32, rule, 0.0, 10 * seed + 1),
        tasks.generate_random_label_task(8, DiscreteSpace(8), 2, 10 * seed + 2))
    fam = HypothesisFamily.for_space(d.space, 2)
    t_grid = [3.0 * i for i in range(1, 13)]
    built = _pair_rows_counted(monkeypatch)
    curve = structure_function(d, fam, t_grid)
    assert sum(built) <= 100
    cand = fo._Candidates(d, fam)
    assert math.isfinite(zero_cost(cand)) and zero_cost(cand) <= t_grid[-1]
    assert _curve_rows(curve) == _reference_rows(_references(cand, 0.0, t_grid))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e31, 1e31), max_size=20),
       st.one_of(st.floats(-1e31, 1e31), st.sampled_from([np.inf, -np.inf, 0.0])))
def test_loose_bound_keeps_every_floor_the_slack_test_keeps(floors, bound):
    # the pair screen gives a floor its slack only where it lies within the
    # loose bound: it must keep exactly the floors the slack test keeps,
    # those a few ulps either side of the threshold and NaN (no admitted
    # pin count) included
    near = [bound + 1e-9 * (1.0 + abs(bound)) if np.isfinite(bound) else 0.0]
    for _ in range(3):
        near = [np.nextafter(near[0], -np.inf), *near, np.nextafter(near[-1], np.inf)]
    x = np.array(floors + near + [np.nan])
    want = np.flatnonzero(x - fo._pair_slack(x) <= bound)
    (at,), kept = fo._within(x, fo._loose(np.full(1, bound)), np.full(1, bound))
    assert at.tolist() == want.tolist()
    assert kept.tobytes() == (x[want] - fo._pair_slack(x[want])).tobytes()
