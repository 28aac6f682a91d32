"""The exact oracle's shortcuts give the outputs of the exhaustive paths.

`critical_beta` decides most bisection midpoints from the rules with
tables and the pairs' least child floor, `beta_sufficient_statistics`
shortlists from the pruned screen, `structure_function` serves its whole
t grid from one screen and one exact re-check, which at beta = 0 skips
every candidate dearer than the cheapest zero-loss one, and
`lagrangian_sweep` serves every beta from one screen and one exact
re-check. The references in `reference.py` re-check every shortlisted
row, run an exact minimum at every midpoint, scan the R-wide screen and
its Pareto frontier, and screen every t and every beta on its own.
"""

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskinfo import finite_oracle as fo
from taskinfo import tasks
from taskinfo.finite_oracle import (
    HypothesisFamily,
    beta_sufficient_statistics,
    critical_beta,
    lagrangian_complexity,
    lagrangian_sweep,
    structure_function,
)
from taskinfo.tasks import Dataset, DiscreteSpace, disjoint_union

from .reference import (
    approx_loss,
    candidate_costs,
    frontier,
    frontier_critical_beta,
    reference_critical_beta,
    reference_exact_losses,
    reference_minimize,
    screen_margin,
    screened_beta_sufficient_statistics,
    screens,
    unbeaten,
)


@st.composite
def _oracle_tasks(draw):
    """A tiny flat or union task and its family. Each part's labels are
    random or come noiselessly from a deterministic rule of the part's
    family, which makes large zero-loss tie sets."""
    k = draw(st.sampled_from([2, 3]))

    def part(m):
        n = draw(st.integers(0, 6))
        xs = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
        if draw(st.booleans()):
            fam = HypothesisFamily.for_space(DiscreteSpace(m), k, ())
            rule = draw(st.sampled_from(np.flatnonzero(fam.is_deterministic).tolist()))
            ys = fam.tables[rule][xs].argmax(axis=1)
        else:
            ys = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                        max_size=n)), dtype=np.int64)
        return Dataset(xs, ys, k, DiscreteSpace(m))

    if draw(st.booleans()):
        d = part(draw(st.integers(2, 4)))
    else:
        d = disjoint_union(part(draw(st.integers(1, 2))), part(draw(st.integers(1, 2))))
    noise_grid = draw(st.sampled_from([(), (0.1,), (0.05, 0.2)]))
    return d, HypothesisFamily.for_space(d.space, k, noise_grid)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_tasks(), st.sampled_from([0.3, 1.0, 2.5]))
def test_shortcuts_match_exhaustive_references(task, beta):
    d, fam = task
    cand = fo._Candidates(d, fam)
    for b in (0.0, beta):
        assert cand.minimize(b) == reference_minimize(cand, b)
    costs = np.unique(candidate_costs(cand))
    # below every code length, at a middle one, at the all-pinned price of
    # the dearest rule and above it
    t_grid = [costs[0] / 2, costs[len(costs) // 2], costs[-1], costs[-1] + 1.0]
    curve = structure_function(d, fam, t_grid)
    for t, loss, cost in zip(t_grid, curve.loss, curve.complexity):
        value, where = reference_minimize(cand, 0.0, cost_cap=t)
        assert cand.capped_minima([0.0], [t])[0] == [(value, where)]
        assert (loss, cost) == ((np.inf, np.inf) if where is None
                                else (fo._report(value), where[0]))
    assert critical_beta(d, fam) == reference_critical_beta(d, fam)


def _first_breakpoint(cand):
    """The least beta > 0 at which the least approx + beta * cost over the
    Pareto frontier moves to a cheaper candidate; 1.0 when it never does."""
    cost, approx = frontier(cand)
    finite = approx < fo._INF_REPORT
    cost, approx = cost[finite], approx[finite]
    if not len(cost):
        return 1.0
    i = np.lexsort((cost, approx))[0]
    cheaper = cost < cost[i]
    beta = (approx[cheaper] - approx[i]) / (cost[i] - cost[cheaper])
    return float(beta.min()) if len(beta) else 1.0


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_tasks(), st.data())
def test_sweep_matches_each_beta_alone_and_the_reference(task, data):
    # unsorted and repeated betas, 0 and a breakpoint of the envelope among
    # them: one screen and one exact re-check for every beta give, bit for
    # bit, each beta's own query and the R-wide reference
    d, fam = task
    cand = fo._Candidates(d, fam)
    bstar = _first_breakpoint(cand)
    betas = data.draw(st.permutations([0.0, bstar, 0.3, 2.5, 0.0, bstar]))
    got = [(value, h.identity()) for value, h in lagrangian_sweep(d, fam, betas)]
    assert got == [(value, h.identity()) for value, h in
                   (lagrangian_complexity(d, fam, b) for b in betas)]
    assert got == [(fo._report(value), (r, frozenset(cand.pins_for(r, s))))
                   for value, (_, r, s) in (reference_minimize(cand, b) for b in betas)]


def _statistics(stats):
    return [(x.hypothesis.identity(), x.hypothesis.name, x.hypothesis.code_length,
             x.value, x.is_minimal) for x in stats]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_tasks(), st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.2]))
def test_pruned_queries_match_the_r_wide_screen(task, beta, tol):
    # critical_beta and beta_sufficient_statistics screen the rules with
    # tables and the pairs their child floor keeps; the references scan the
    # R-wide approximate losses
    d, fam = task
    assert critical_beta(d, fam) == frontier_critical_beta(d, fam)
    assert _statistics(beta_sufficient_statistics(d, fam, beta, tol)) == \
        _statistics(screened_beta_sufficient_statistics(d, fam, beta, tol))


def _capped_references(cand, beta, t_grid):
    return [reference_minimize(cand, beta, cost_cap=t) for t in t_grid]


def _curve_rows(curve):
    return list(zip(curve.loss.tolist(), curve.complexity.tolist()))


def _reference_rows(refs):
    return [(np.inf, np.inf) if where is None else (fo._report(value), where[0])
            for value, where in refs]


def _shortlists(cand, beta, t_grid):
    """The union over t in t_grid of the full screen's shortlists under
    cost <= t: the candidates whose value is within the screen margin of
    the approximate minimum."""
    values = np.concatenate([v for _, v in screens(cand, beta)])
    out = set()
    for t in t_grid:
        capped = np.where(candidate_costs(cand) <= t, values, np.inf)
        vmin = float(capped.min())
        if np.isfinite(vmin):
            r, s = np.nonzero(capped <= vmin + screen_margin(vmin))
            out |= set(zip(r.tolist(), s.tolist()))
    return out


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_tasks(), st.data())
def test_grid_screen_matches_per_t_references(task, data):
    d, fam = task
    cand = fo._Candidates(d, fam)
    checked = []

    def exact_spy(rules, counts):
        checked.append(list(zip(rules.tolist(), counts.tolist())))
        return fo._Candidates.exact_losses(cand, rules, counts)

    cand.exact_losses = exact_spy
    costs = np.unique(candidate_costs(cand))
    # code lengths exactly at t (the cost <= t boundary) or one ulp to
    # either side of it, a t below every code length, and +inf
    at = data.draw(st.lists(st.integers(0, len(costs) - 1), min_size=1, max_size=6))
    ulps = data.draw(st.lists(st.sampled_from([-np.inf, 0.0, np.inf]),
                              min_size=len(at), max_size=len(at)))
    picks = [c if u == 0.0 else np.nextafter(c, u) for c, u in zip(costs[at], ulps)]
    t_grid = np.unique(np.concatenate([[costs[0] / 2], picks, [np.inf]]))
    for beta in (0.0, 0.4):
        want = _capped_references(cand, beta, t_grid)
        checked.clear()
        assert cand.capped_minima([beta], t_grid)[0] == want
        # one exact re-check, of the union of the shortlists, each row once;
        # at beta = 0, none that a zero-loss candidate beats on cost
        assert len(checked) == 1 and len(set(checked[0])) == len(checked[0])
        assert set(checked[0]) == unbeaten(cand, beta, _shortlists(cand, beta, t_grid))
        assert [cand.capped_minima([beta], [t])[0][0] for t in t_grid] == want
        if beta == 0.0:
            assert _curve_rows(structure_function(d, fam, t_grid)) == \
                _reference_rows(want)


def _oracle_union(seed):
    """The union of a noiseless parity011 task (16 inputs, 32 samples) and a
    random-label task (8 inputs, 8 samples), with its 16,698-rule family."""
    rule = HypothesisFamily.for_space(DiscreteSpace(16), 2).hypothesis("parity011")
    d = disjoint_union(
        tasks.generate_planted_task(32, rule, 0.0, 10 * seed + 1),
        tasks.generate_random_label_task(8, DiscreteSpace(8), 2, 10 * seed + 2))
    return d, HypothesisFamily.for_space(d.space, 2)


@pytest.fixture(scope="module")
def union3():
    return _oracle_union(3)


def test_critical_beta_matches_reference_on_planted_random_union(union3):
    d, fam = union3
    assert critical_beta(d, fam) == reference_critical_beta(d, fam)


def test_pruned_queries_match_the_r_wide_screen_on_workload_unions():
    # perfbench oracle-union's critical_beta task at seeds 0-31
    for seed in range(32):
        d, fam = _oracle_union(seed)
        assert critical_beta(d, fam) == frontier_critical_beta(d, fam), seed
        assert _statistics(beta_sufficient_statistics(d, fam, 1.0, 0.0)) == \
            _statistics(screened_beta_sufficient_statistics(d, fam, 1.0, 0.0)), seed


@pytest.fixture
def spy(monkeypatch):
    """Records the rows of every exact_losses call and of every fsum
    re-check."""
    calls, fsum_rows = [], []
    exact_losses, fsum_kept = fo._Candidates.exact_losses, fo._Candidates._fsum_kept

    def exact_spy(self, rules, counts):
        calls.append(len(rules))
        return exact_losses(self, rules, counts)

    def fsum_spy(self, ur, ri, pinned):
        fsum_rows.append(len(ri))
        return fsum_kept(self, ur, ri, pinned)

    monkeypatch.setattr(fo._Candidates, "exact_losses", exact_spy)
    monkeypatch.setattr(fo._Candidates, "_fsum_kept", fsum_spy)
    return calls, fsum_rows


def test_critical_beta_probes_few_exact_minima(union3, spy):
    calls, _ = spy
    critical_beta(*union3)
    # one call prices the constant rules; each other is an exact probe
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("t", [33.0, 36.0])
def test_structure_function_skips_zero_loss_ties(union3, spy, t):
    calls, fsum_rows = spy
    d, fam = union3
    curve = structure_function(d, fam, [t])
    rows, fsums = sum(calls), sum(fsum_rows)
    cand = fo._Candidates(d, fam)
    assert _curve_rows(curve) == _reference_rows(
        [reference_minimize(cand, 0.0, cost_cap=t)])
    ties = {(r, s) for r, s in _shortlists(cand, 0.0, [t])
            if approx_loss(cand)[r, s] == 0.0}
    assert len(ties) > 10_000              # the tie set is there ...
    # ... only its members no dearer than the cheapest zero-loss rule with
    # a table are re-checked, each by fsum
    assert rows == len(unbeaten(cand, 0.0, _shortlists(cand, 0.0, [t]))) < 100
    assert fsums == rows


def test_zero_rule_off_when_a_table_value_exceeds_one():
    # row sums within 1e-12 of 1 admit a value above 1, whose -ln p < 0
    # could cancel a positive term in the approximate sum
    over = np.array([[1.0 + 4e-13, 0.0], [1.0, 0.0]])
    fam = HypothesisFamily.from_rules([
        fo.Hypothesis(np.full((2, 2), 0.5), 1.0, "uniform"),
        fo.Hypothesis(over, 1.0, "over")])
    d = Dataset(np.array([0, 1, 1]), np.array([0, 0, 0]), 2, DiscreteSpace(2))
    cand = fo._Candidates(d, fam)
    assert not cand.unit_bounded
    r, s = np.nonzero(np.ones(candidate_costs(cand).shape, dtype=bool))
    assert (cand.exact_losses(r, s) == reference_exact_losses(cand, r, s)).all()
    assert fo._Candidates(d, HypothesisFamily.for_space(DiscreteSpace(2), 2)
                          ).unit_bounded


WORKLOAD_T_GRID = [3.0 * i for i in range(1, 13)]    # perfbench oracle-union
WORKLOAD_BETAS = [2.0 ** e for e in range(3, -7, -1)]


@pytest.mark.parametrize("per_screen", [len(WORKLOAD_BETAS), 3])
def test_sweep_builds_its_candidates_once_and_rechecks_once(union3, monkeypatch,
                                                            per_screen):
    # all ten betas in one screen, or three to a screen under a smaller
    # _BLOCK: one candidate build, one exact re-check, each beta's answer
    d, fam = union3
    want = [(value, h.identity()) for value, h in
            (lagrangian_complexity(d, fam, beta) for beta in WORKLOAD_BETAS)]
    monkeypatch.setattr(fo, "_BLOCK", per_screen * (len(fam) - len(fam._flat)))
    calls = collections.Counter()

    def count(name):
        real = getattr(fo._Candidates, name)

        def spy(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(fo._Candidates, name, spy)

    for name in ("__init__", "exact_losses", "hypothesis_for"):
        count(name)
    out = lagrangian_sweep(d, fam, WORKLOAD_BETAS)
    assert [(value, h.identity()) for value, h in out] == want
    assert calls["__init__"] == 1 and calls["exact_losses"] == 1
    # one Hypothesis per distinct minimizer, shared by the betas it wins
    assert calls["hypothesis_for"] == len({h.identity() for _, h in out}) < len(out)


def test_grid_screen_matches_references_on_planted_random_union(union3):
    d, fam = union3
    cand = fo._Candidates(d, fam)
    want = _capped_references(cand, 0.0, WORKLOAD_T_GRID)
    assert _curve_rows(structure_function(d, fam, WORKLOAD_T_GRID)) == \
        _reference_rows(want)
    assert cand.capped_minima([0.4], WORKLOAD_T_GRID)[0] == \
        _capped_references(cand, 0.4, WORKLOAD_T_GRID)


def test_structure_function_rechecks_each_shortlisted_candidate_once(
        union3, monkeypatch):
    checked = []
    exact_losses = fo._Candidates.exact_losses

    def exact_spy(self, rules, counts):
        checked.append(list(zip(rules.tolist(), counts.tolist())))
        return exact_losses(self, rules, counts)

    monkeypatch.setattr(fo._Candidates, "exact_losses", exact_spy)
    structure_function(*union3, WORKLOAD_T_GRID)
    assert len(checked) == 1
    assert len(set(checked[0])) == len(checked[0])
    # and what it re-checks is the union of the full screens' shortlists,
    # less the candidates that a zero-loss candidate beats on cost
    cand = fo._Candidates(*union3)
    assert set(checked[0]) == unbeaten(cand, 0.0,
                                       _shortlists(cand, 0.0, WORKLOAD_T_GRID))
