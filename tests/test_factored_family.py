"""Factored union families against the dense screen they replace.

A union family from ``HypothesisFamily.for_space`` keeps each pair rule as
its two children. Its group losses, pin orders, approximate losses, tables
and rule facts must equal, bit for bit, what the dense (R, M, K) tables of
``reference.naive_family`` give, and the array-built flat rules those of
``reference.loop_flat_rules``. Every query builds rows only for the pair
rules that a bound from their children cannot rule out; it must still
return what a full screen returns.
"""

import collections
import functools
import gc
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskinfo import finite_oracle as fo
from taskinfo import tasks
from taskinfo.tasks import Dataset, DiscreteSpace

from .reference import (
    approx_loss,
    candidate_costs,
    dense_screening,
    frontier_critical_beta,
    group_loss,
    loop_flat_rules,
    naive_family,
    reference_minimize,
    screen_margin,
    screened_beta_sufficient_statistics,
    screens,
    unbeaten,
)


def _union(left, right):
    return DiscreteSpace(2 * max(left.size, right.size),
                         parts=(tasks.UnionPart(left, 2), tasks.UnionPart(right, 2)))


@st.composite
def _factored_tasks(draw):
    """A union task with its family: unequal parts (padded rows), equal
    parts (pair(a|=)), a union as the left part (pair(a|<w]) references)
    or as the right part. Inputs fall anywhere in the union's domain, so
    some land in padded rows."""
    kind = draw(st.sampled_from(["pair", "same", "left-union", "right-union"]))
    flat = kind in ("pair", "same")
    # unions of unions grow fast: smaller parts and no noise grid
    a, b = (DiscreteSpace(draw(st.integers(1, 4 if flat else 2))) for _ in range(2))
    space = {"pair": lambda: _union(a, b),
             "same": lambda: _union(a, a),
             "left-union": lambda: _union(_union(a, b), draw(st.sampled_from([a, b]))),
             "right-union": lambda: _union(a, _union(b, DiscreteSpace(1)))}[kind]()
    k = draw(st.sampled_from([2, 3]))
    noise_grid = draw(st.sampled_from([(), (0.1,), (0.05, 0.2)])) if flat else ()
    n = draw(st.integers(0, 9))
    xs = draw(st.lists(st.integers(0, space.size - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    d = Dataset(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64), k, space)
    return d, fo.HypothesisFamily.for_space(space, k, noise_grid), noise_grid


def _dense_twin(d, fam, tables):
    """Candidates of ``fam`` whose screen is today's dense one."""
    cand = fo._Candidates(d, fam)
    cand.group_loss, cand.pin_order, cand.approx_loss = dense_screening(d, tables)
    return cand


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_factored_tasks(), st.data())
def test_factored_union_screen_matches_dense(task, data):
    d, fam, noise_grid = task
    names, costs, tables = naive_family(d.space, fam.num_labels, noise_grid)
    assert "names" not in vars(fam)      # built on first read ...
    assert [fam._name(i) for i in range(len(fam))] == names  # ... or alone
    assert fam.names == names
    assert fam.costs.tobytes() == costs.tobytes()
    assert "tables" not in vars(fam)      # nothing dense built so far

    cand = fo._Candidates(d, fam)
    dense = _dense_twin(d, fam, tables)
    assert group_loss(cand).tobytes() == group_loss(dense).tobytes()
    assert approx_loss(cand).tobytes() == approx_loss(dense).tobytes()
    rules = np.arange(len(fam))
    assert np.array_equal(cand.pin_order[rules], dense.pin_order)
    r = data.draw(st.integers(0, len(fam) - 1))
    s = data.draw(st.integers(0, cand.n_pure))
    assert np.array_equal(cand.pin_order[r, :s], dense.pin_order[r, :s])

    custom = fo._Candidates(d, fo.HypothesisFamily.from_rules(
        [fo.Hypothesis(t, c, nm) for nm, c, t in zip(names, costs, tables)],
        d.space, fam.num_labels))
    cost = np.sort(candidate_costs(cand).ravel())
    caps = [np.inf, cost[0] / 2, cost[0], cost[len(cost) // 3], cost[-1]]
    for beta in (0.0, 0.4, 1.0, 3.0):
        for cap in caps:
            # the full screen over the dense tables
            want = reference_minimize(dense, beta, cap)
            assert dense.capped_minima([beta], [cap])[0] == [want]
            assert cand.capped_minima([beta], [cap])[0] == [want]
            assert custom.capped_minima([beta], [cap])[0] == [want]
    assert "tables" not in vars(fam)

    assert fam.tables.tobytes() == tables.tobytes()
    assert np.array_equal(fam.is_constant,
                          (tables == tables[:, :1, :]).all(axis=(1, 2)))
    assert np.array_equal(fam.is_deterministic,
                          ((tables == 0.0) | (tables == 1.0)).all(axis=(1, 2)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_factored_tasks(), st.data())
def test_pair_floor_bounds_every_pair_and_pruning_keeps_the_minimum(task, data):
    d, fam, _ = task
    cand = fo._Candidates(d, fam)
    betas = (0.0, 0.4, 1.0, 3.0)
    checked = []

    def exact_spy(rules, counts):
        checked.append(sorted(zip(rules.tolist(), counts.tolist())))
        return fo._Candidates.exact_losses(cand, rules, counts)

    cand.exact_losses = exact_spy
    got = [cand.minimize(beta) for beta in betas]
    assert "approx_loss" not in vars(cand)       # no R-wide rows built
    assert "group_loss" not in vars(cand)
    assert got == [reference_minimize(cand, beta) for beta in betas]
    nf = len(fam._flat)
    for beta, shortlist in zip(betas, checked):
        values = np.concatenate([v for _, v in screens(cand, beta)])
        # the pruned screen re-checks exactly the full screen's shortlist,
        # at beta = 0 less the candidates that a zero-loss one beats on cost
        vmin = float(values.min())
        r, s = np.nonzero(values <= vmin + screen_margin(vmin))
        assert shortlist == sorted(unbeaten(cand, beta, zip(r.tolist(), s.tolist())))
        # and the floor bounds each pair's minimum over its pin counts
        floor = cand._pair_floor(beta)[:, 0]
        assert (floor - fo._pair_slack(floor) <= values[nf:].min(axis=1)).all()
    # rows built for a subset of rules are the full table's rows
    some = np.sort(data.draw(st.lists(st.integers(0, len(fam) - 1),
                                      min_size=1, max_size=12)))
    assert (cand._approx_rows(some).tobytes()
            == approx_loss(cand)[some].tobytes())
    assert (cand._group_rows(some).tobytes()
            == group_loss(cand)[some].tobytes())


@pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 64])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("noise_grid", [(), (0.1,), (0.05, 0.1, 0.2), (0.0, 1.0)])
def test_flat_rules_match_the_rule_by_rule_builder(m, k, noise_grid):
    rules = fo.HypothesisFamily._flat_rules(DiscreteSpace(m), k, noise_grid)
    names, costs, tables = loop_flat_rules(DiscreteSpace(m), k, noise_grid)
    assert rules.names == names
    assert rules.costs.tobytes() == costs.tobytes()
    assert rules.tables.tobytes() == tables.tobytes()


def test_flat_rules_build_their_table_in_place():
    # the 512-input table is 34 MB; built from full-size temporaries and
    # then concatenated, it once peaked at 75 MB
    tracemalloc.start()
    try:
        rules = fo.HypothesisFamily._flat_rules(DiscreteSpace(512), 2, (0.05, 0.1, 0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = rules.tables.nbytes
    assert peak < 1.3 * table, f"peak {peak / 1e6:.1f} MB, table {table / 1e6:.1f} MB"


def test_union_of_equal_parts_builds_the_part_family_once():
    space = _union(DiscreteSpace(4), DiscreteSpace(4))
    fam = fo.HypothesisFamily.for_space(space, 2)
    left, right = fam._parts
    assert left is right
    names, costs, tables = naive_family(space, 2)
    assert fam.names == names and fam.costs.tobytes() == costs.tobytes()
    assert fam.tables.tobytes() == tables.tobytes()


def test_many_caps_keep_the_pairs_a_small_cap_needs():
    # under the cap t the minimum is a pair rule whose child floor lies
    # above the threshold under +inf: pruning by the threshold of the largest
    # cap rather than the smallest would lose it
    space = _union(DiscreteSpace(2), DiscreteSpace(3))
    d = Dataset(np.array([1, 5, 3, 1, 1, 2, 4, 1, 1, 0]),
                np.array([1, 0, 1, 0, 0, 0, 1, 1, 0, 0]), 2, space)
    fam = fo.HypothesisFamily.for_space(space, 2, ())
    cand = fo._Candidates(d, fam)
    t = float(candidate_costs(cand)[31, 0])
    want = [reference_minimize(cand, 0.4, cap) for cap in (t, np.inf)]
    assert want[0][1][1:] == (31, 0) and 31 >= len(fam._flat)
    assert cand.capped_minima([0.4], [t, np.inf])[0] == want


def test_union_queries_build_no_dense_tables():
    a, b = DiscreteSpace(3), DiscreteSpace(2)
    d = tasks.disjoint_union(
        tasks.generate_random_label_task(3, a, 2, seed=0),
        tasks.generate_random_label_task(2, b, 2, seed=1))
    fam = fo.HypothesisFamily.for_space(d.space, 2)
    fo.complexity(d, fam)
    fo.structure_function(d, fam, [5.0, 10.0, 20.0])
    fo.critical_beta(d, fam)
    fo.beta_sufficient_statistics(d, fam, 1.0, tol=0.0)
    fo.deterministic_complexity(d, fam)
    fam.hypothesis("pair(bit0|const1)")
    assert "tables" not in vars(fam)


def _distance_tasks(seed=3):
    """perfbench oracle-union's oracle_distance tasks at ``seed`` and their
    family: parity011 on all 32 inputs, random labels on 32 inputs."""
    space = DiscreteSpace(32)
    fam = fo.HypothesisFamily.for_space(space, 2)
    xs = np.random.default_rng(10 * seed + 3).permutation(32)
    plant = Dataset(xs, fam.hypothesis("parity011").table[xs].argmax(axis=1),
                    2, space)
    rand = tasks.generate_random_label_task(32, space, 2, seed=10 * seed + 4)
    return plant, rand, fam


def test_union_distance_memory_guard():
    # the 93,899-rule union of two 32-input tasks: a dense (R, M, K) table
    # alone is 96 MB, and the dense screen peaked near 700 MB
    plant, rand, fam = _distance_tasks()
    tracemalloc.start()
    try:
        value = fo.oracle_distance(plant, rand, fam, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value >= 0.0
    assert peak <= 350e6, f"peak {peak / 1e6:.0f} MB"


def test_queries_leave_no_reference_cycles():
    # a _Candidates in a reference cycle keeps its union family and rows
    # alive until the cyclic collector runs, several MB per oracle_distance
    plant, rand, fam = _distance_tasks()
    gc.collect()
    gc.disable()
    try:
        fo.oracle_distance(plant, rand, fam, 1.0)
        fo.structure_function(plant, fam, [5.0, 20.0])
        fo.critical_beta(plant, fam)
        fo.beta_sufficient_statistics(plant, fam, 1.0, tol=0.0)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_union_distance_builds_rows_only_for_unpruned_pairs(monkeypatch):
    # perfbench oracle-union's oracle_distance at seed 3: the union family has
    # 93,899 rules, of which 93,330 are pairs
    built, rows = [], []
    init, group_rows = fo._Candidates.__init__, fo._Candidates._group_rows

    def init_spy(self, d, fam):
        built.append(self)
        init(self, d, fam)

    def rows_spy(self, rules):
        rows.append((self, len(rules)))
        return group_rows(self, rules)

    monkeypatch.setattr(fo._Candidates, "__init__", init_spy)
    monkeypatch.setattr(fo._Candidates, "_group_rows", rows_spy)
    plant, rand, fam = _distance_tasks()
    value = fo.oracle_distance(plant, rand, fam, 1.0)
    assert repr(value) == "3.8559335387771014"
    union = [c for c in built if len(c.fam) == 93_899]
    assert len(union) == 1
    cand = union[0]
    assert "approx_loss" not in vars(cand) and "group_loss" not in vars(cand)
    assert "names" not in vars(cand.fam)
    assert sum(n for c, n in rows if c is cand) < len(cand.fam) // 20


@pytest.mark.parametrize("seed", [3, 7, 40])
def test_union_distance_screens_the_lowest_pair_floors_first(seed, monkeypatch):
    # the pairs a child floor keeps go by the height of their floor above
    # the least, in doubling blocks, each re-tested under the bounds that
    # the blocks before it lowered: 64 of the 938 approximate-loss rows the
    # distance builds are pair rules'. Re-testing the kept pairs once, in
    # index order, built 969 pair rows
    pair_rows = []
    approx_rows = fo._Candidates._approx_rows

    def rows_spy(self, rules):
        pair_rows.append(int((rules >= self._n_flat).sum()))
        return approx_rows(self, rules)

    monkeypatch.setattr(fo._Candidates, "_approx_rows", rows_spy)
    plant, rand, fam = _distance_tasks(seed)
    fo.oracle_distance(plant, rand, fam, 1.0)
    assert sum(pair_rows) <= 128


def test_union_structure_function_memory_guard(union2x32, monkeypatch):
    # the same 93,899-rule union, 64 samples, under the workload's 12-point
    # t grid: one screen serves every t, and each t's cap-aware pair floor
    # leaves few of the 93,330 pair rules to screen; the R-wide approximate
    # losses alone would be 49 MB
    d, fam = union2x32
    t_grid = [3.0 * i for i in range(1, 13)]
    built = []
    approx_rows = fo._Candidates._approx_rows

    def rows_spy(self, rules):
        built.append(int((rules >= self._n_flat).sum()))
        return approx_rows(self, rules)

    monkeypatch.setattr(fo._Candidates, "_approx_rows", rows_spy)
    curve, peak = _traced(lambda: fo.structure_function(d, fam, t_grid))
    monkeypatch.undo()
    assert peak <= 23e6, f"peak {peak / 1e6:.1f} MB"
    assert sum(built) <= 10_000
    # and it takes at most five complexity calls: the best of five
    # alternating calls each, in up to three rounds, as the machine's load
    # moves single timings
    calls = (lambda: fo.structure_function(d, fam, t_grid),
             lambda: fo.complexity(d, fam))
    for _ in range(3):
        best = np.min([[timeit.timeit(fn, number=1) for fn in calls]
                       for _ in range(5)], axis=0)
        if best[0] <= 5 * best[1]:
            break
    assert best[0] <= 5 * best[1], best
    cand = fo._Candidates(d, fam)
    for j in (0, 2, len(t_grid) - 1):       # nothing fits, the first fit, the last
        value, where = reference_minimize(cand, 0.0, cost_cap=t_grid[j])
        assert (curve.loss[j], curve.complexity[j]) == (
            (np.inf, np.inf) if where is None else (fo._report(value), where[0]))
    assert np.isinf(curve.loss[0]) and np.isfinite(curve.loss[2])


@pytest.fixture(scope="module")
def union2x32():
    """The 93,899-rule union of oracle_distance's two 32-input tasks, 64
    samples, and its family."""
    plant, rand, _ = _distance_tasks()
    d = tasks.disjoint_union(plant, rand)
    return d, fo.HypothesisFamily.for_space(d.space, 2)


def _traced(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_union_critical_beta_and_statistics_build_no_r_wide_rows(union2x32,
                                                                  monkeypatch):
    # both queries screen the rules with tables and the pairs their child
    # floor keeps: the R-wide approximate losses alone would be 49 MB
    d, fam = union2x32
    built, kept = [], []
    approx_rows = fo._Candidates._approx_rows
    pairs_within = fo._Candidates._pairs_within

    def rows_spy(self, rules):
        built.append(len(rules))
        return approx_rows(self, rules)

    def pairs_spy(self, beta, caps, bounds):
        for pairs in pairs_within(self, beta, caps, bounds):
            kept.append(len(pairs))
            yield pairs

    monkeypatch.setattr(fo._Candidates, "_approx_rows", rows_spy)
    monkeypatch.setattr(fo._Candidates, "_pairs_within", pairs_spy)
    n_flat = len(fam._flat)
    queries = [lambda: fo.critical_beta(d, fam),
               lambda: fo.beta_sufficient_statistics(d, fam, 1.0, tol=0.0)]
    for query in queries:
        built.clear()
        kept.clear()
        _, peak = _traced(query)
        assert peak <= 10e6, f"peak {peak / 1e6:.1f} MB"
        assert sum(built) == n_flat + sum(kept)
        assert sum(kept) < len(fam) // 50


def test_union_sweep_matches_each_beta_alone(union2x32):
    # eight of perfbench oracle-union's ten betas reach the pairs here, so
    # the sweep takes their least floors in chunks of pairs, a lone beta in
    # one; the sweep keeps within twice the 3.3 MB peak of one screen per beta
    d, fam = union2x32
    betas = [2.0 ** e for e in range(3, -7, -1)]
    got, peak = _traced(lambda: fo.lagrangian_sweep(d, fam, betas))
    assert peak <= 6.6e6, f"peak {peak / 1e6:.1f} MB"
    assert [(value, h.identity()) for value, h in got] == [
        (value, h.identity()) for value, h in
        (fo.lagrangian_complexity(d, fam, beta) for beta in betas)]


def test_union_critical_beta_and_statistics_match_the_r_wide_screen(union2x32):
    d, fam = union2x32
    assert fo.critical_beta(d, fam) == frontier_critical_beta(d, fam)
    stats = fo.beta_sufficient_statistics(d, fam, 1.0, tol=0.0)
    want = screened_beta_sufficient_statistics(d, fam, 1.0, tol=0.0)
    assert [(x.hypothesis.identity(), x.value, x.is_minimal) for x in stats] == \
        [(x.hypothesis.identity(), x.value, x.is_minimal) for x in want]


def _arrays(fam, seen=None):
    """Every array that a family and its part families hold, in attributes,
    tuples or lists, each family walked once."""
    seen = set() if seen is None else seen
    if id(fam) in seen:
        return []
    seen.add(id(fam))
    out, stack = [], list(vars(fam).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            out.append(value)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, fo.HypothesisFamily):
            out += _arrays(value, seen)
    return out


def test_union_build_keeps_nothing_per_pair():
    # the 2x32 union's 93,330 pair rules come from its parts: no array holds
    # an entry per pair, and the build peaks at a fraction of the 6.4 MB it
    # took when it stored each pair's children, cost group and facts
    plant, rand, _ = _distance_tasks()
    space = tasks.disjoint_union(plant, rand).space
    fam, peak = _traced(lambda: fo.HypothesisFamily.for_space(space, 2))
    pairs = len(fam) - len(fam._flat)
    assert (len(fam), pairs) == (93_899, 93_330)
    assert max(a.size for a in _arrays(fam)) < pairs
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("space", [
    _union(_union(DiscreteSpace(2), DiscreteSpace(3)), DiscreteSpace(3)),
    _union(DiscreteSpace(3), _union(DiscreteSpace(2), DiscreteSpace(1))),
    _union(DiscreteSpace(4), DiscreteSpace(4)),
    _union(DiscreteSpace(4), DiscreteSpace(2)),
], ids=["left-union", "right-union", "same", "padded"])
@pytest.mark.parametrize("k", [2, 3])
def test_union_rule_arrays_are_built_on_first_read(space, k):
    fam = fo.HypothesisFamily.for_space(space, k, (0.1,))
    lazy = {"costs", "is_constant", "is_deterministic", "names", "tables"}
    assert not lazy & set(vars(fam))
    names, costs, tables = naive_family(space, k, (0.1,))
    assert fam.costs.tobytes() == costs.tobytes()
    assert np.array_equal(fam.is_constant,
                          (tables == tables[:, :1, :]).all(axis=(1, 2)))
    assert np.array_equal(fam.is_deterministic,
                          ((tables == 0.0) | (tables == 1.0)).all(axis=(1, 2)))
    assert fam.names == names
    assert fam.tables.tobytes() == tables.tobytes()
    assert lazy <= set(vars(fam))
    if space.parts[0].space.parts:          # pair(a|<w]) back-references
        assert any("<" in name for name in names)


def test_oracle_distance_takes_both_parts_from_the_given_family(monkeypatch):
    # both tasks lie in the family's space: the union builds its own flat
    # rules and nothing else, and measures what a fresh union family does
    plant, rand, fam = _distance_tasks()
    d = tasks.disjoint_union(plant, rand)
    c12 = fo._Candidates(d, fo.HypothesisFamily.for_space(d.space, 2)).minimize(1.0)
    want = max(0.0, c12[1][0] - fo._Candidates(plant, fam).minimize(1.0)[1][0])
    built = []
    build = fo.HypothesisFamily._build.__func__

    def spy(cls, space, *args):
        built.append(space.size)
        return build(cls, space, *args)

    monkeypatch.setattr(fo.HypothesisFamily, "_build", classmethod(spy))
    assert fo.oracle_distance(plant, rand, fam, 1.0) == want
    assert built == [64]


def test_oracle_distance_takes_a_custom_family_as_its_own_parts(monkeypatch):
    # a from_rules family is the part of its own space in the union, so
    # d(D -> D) prices both parts with the family's own two rules; the
    # standard rules of DiscreteSpace(4) gave 4.4398. A family with more
    # labels (3 columns) than its two-label tasks is still the union's part
    space = DiscreteSpace(4)
    xs = np.tile(np.arange(4), 3)
    d = Dataset(xs, np.array([0, 1, 1, 0])[xs], 2, space)
    families = []
    init = fo._Candidates.__init__

    def init_spy(self, d, fam):
        families.append(fam)
        init(self, d, fam)

    monkeypatch.setattr(fo._Candidates, "__init__", init_spy)
    for k in (2, 3):
        fam = fo.HypothesisFamily.from_rules(
            [fo.Hypothesis(np.full((4, k), 1 / k), 1.0, "uniform"),
             fo.Hypothesis(np.eye(k)[[0, 1, 1, 0]], 1.0, "xor")], space)
        assert fo.oracle_distance(d, d, fam, 1.0) == pytest.approx(
            2.3795461341, abs=1e-9)
        union = families[-1]
        assert union.num_labels == k
        assert union._parts[0] is fam and union._parts[1] is fam


def test_two_critical_beta_calls_find_the_facts_once(monkeypatch):
    # the constant rules of a union, and of each part, are found on the
    # first read and kept; every bisection step and every later call
    # reads them
    calls = collections.Counter()
    facts = fo.HypothesisFamily._facts.func

    def facts_spy(self):
        calls[id(self)] += 1
        return facts(self)

    spy = functools.cached_property(facts_spy)
    spy.__set_name__(fo.HypothesisFamily, "_facts")
    monkeypatch.setattr(fo.HypothesisFamily, "_facts", spy)
    rule = fo.HypothesisFamily.for_space(DiscreteSpace(16), 2).hypothesis("parity011")
    d = tasks.disjoint_union(
        tasks.generate_planted_task(32, rule, 0.0, seed=31),
        tasks.generate_random_label_task(8, DiscreteSpace(8), 2, seed=32))
    fam = fo.HypothesisFamily.for_space(d.space, 2)
    assert fo.critical_beta(d, fam) == fo.critical_beta(d, fam) > 0.0
    left, right = fam._parts
    assert calls == {id(fam): 1, id(left): 1, id(right): 1}
