"""Planted float near-ties against the screens' three tolerances.

The oracle's screens are exact because of three tolerances: the screen
margin (1e-6 relative plus TIE_ATOL above an approximate minimum), the
TIE_ATOL window of exact ties, and the slack of the pair floor. A random
task puts no candidate near the edge of any of them, so these tests plant
candidates there. Two candidates that meet at a breakpoint of the
Lagrangian envelope differ at beta by a gap that beta sets: choosing beta
puts the gap inside the tie window, inside the margin, or within an ulp of
the margin's edge. A custom family with losses near 1.7e7 nats, where one
float rounding is worth more than TIE_ATOL, lets the approximate losses
misorder two candidates.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskinfo import finite_oracle as fo
from taskinfo.finite_oracle import HypothesisFamily
from taskinfo.tasks import Dataset, DiscreteSpace, disjoint_union

from .reference import (
    SCREEN_REL,
    approx_loss,
    candidate_costs,
    naive_candidates,
    naive_min,
    reference_critical_beta,
    reference_minimize,
    screen_margin,
    screened_beta_sufficient_statistics,
    screens,
    unbeaten,
)


def _values(cand, beta):
    return np.concatenate([v for _, v in screens(cand, beta)])


def _shortlist(values, under=None):
    """The (rule, count) pairs within the screen margin of the minimum."""
    if under is not None:
        values = np.where(under, values, np.inf)
    vmin = float(values.min())
    if not math.isfinite(vmin):
        return set()
    r, s = np.nonzero(values <= vmin + screen_margin(vmin))
    return set(zip(r.tolist(), s.tolist()))


def _breakpoints(cost, approx):
    """[(beta, i, j)]: the breakpoints beta > 0 of the lower envelope of
    approx + beta * cost over the candidates with finite losses, i the
    costlier vertex (the lower one below beta), j the cheaper; flat
    candidate indices."""
    c, a = cost.ravel(), approx.ravel()
    finite = a < fo._INF_REPORT
    if not finite.any():
        return []
    i = min(np.flatnonzero(finite), key=lambda x: (a[x], c[x]))
    out = []
    while True:
        cheaper = np.flatnonzero(finite & (c < c[i]))
        if not len(cheaper):
            return out
        beta = (a[cheaper] - a[i]) / (c[i] - c[cheaper])
        best = beta.min()
        j = cheaper[beta == best][np.argmin(c[cheaper[beta == best]])]
        if best > 0:
            out.append((float(best), int(i), int(j)))
        i = j


def _step(x, n, toward):
    for _ in range(n):
        x = float(np.nextafter(x, toward))
    return x


def _plant_beta(cand, kind, side, frac, ulps, brk):
    """A beta next to the breakpoint ``brk`` where the lower of its two
    candidates (the costlier one on side "below") is the screen's minimum
    and the other lies ``kind`` above it: within the tie window, within
    the screen margin, a few ulps above it, or on either side of the
    margin's edge by one float step of beta."""
    bstar, i, j = brk
    c, a = candidate_costs(cand).ravel(), approx_loss(cand).ravel()
    lo, hi = (i, j) if side == "below" else (j, i)
    away = 0.0 if side == "below" else math.inf
    slope = c[i] - c[j]

    def value(x, beta):
        return c[x] * beta + a[x]

    if kind == "ulps":
        return _step(bstar, ulps, away)
    if kind in ("tie", "margin"):
        width = fo.TIE_ATOL if kind == "tie" else screen_margin(value(lo, bstar))
        gap = frac * width / slope
        return bstar - gap if side == "below" and gap < bstar else bstar + gap

    def inside(beta):          # the other candidate is on the shortlist
        values = c * beta + a
        vmin = float(values.min())
        return value(hi, beta) <= vmin + screen_margin(vmin)

    near = bstar
    far = bstar + (-1.0 if side == "below" else 1.0) * 4 * screen_margin(
        value(lo, bstar)) / slope
    if far < 0 or not inside(near) or inside(far):
        return near
    for _ in range(200):
        mid = 0.5 * (near + far)
        if mid in (near, far):
            break
        if inside(mid):
            near = mid
        else:
            far = mid
    return near if kind == "edge-in" else far


@st.composite
def _planted_tasks(draw):
    """A tiny task, its family and a beta that plants a near-tie.

    The family is a flat or union `for_space` family, or a custom
    `from_rules` one with chosen table values; its noise grids include
    pairs of levels 1e-11 apart, whose rules tie within TIE_ATOL at equal
    cost. On a union, the planted breakpoint joins a flat rule and a pair
    rule when the envelope has one.
    """
    k = draw(st.sampled_from([2, 3]))

    def part(m, n_max=6):
        n = draw(st.integers(1, n_max))
        xs = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        ys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        return Dataset(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64),
                       k, DiscreteSpace(m))

    noise_grid = draw(st.sampled_from(
        [(), (0.1,), (0.05, 0.2), (0.1, 0.1 + 1e-11), (0.2 - 3e-11, 0.2)]))
    shape = draw(st.sampled_from(["flat", "union", "custom"]))
    if shape == "flat":
        d = part(draw(st.integers(2, 4)))
        fam = HypothesisFamily.for_space(d.space, k, noise_grid)
    elif shape == "union":
        d = disjoint_union(part(draw(st.integers(1, 2))), part(draw(st.integers(1, 2))))
        fam = HypothesisFamily.for_space(d.space, k, noise_grid)
    else:
        m = draw(st.integers(1, 3))
        d = part(m, 8)
        levels = [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9]
        rules = []
        for r in range(draw(st.integers(2, 6))):
            rows = [draw(st.lists(st.sampled_from(levels), min_size=k - 1,
                                  max_size=k - 1)) for _ in range(m)]
            table = np.array([row + [0.0] for row in rows])
            table[:, -1] = 1.0 - table.sum(axis=1)
            table[table[:, -1] < 0] = 1.0 / k
            cost = math.log(6) + draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
            rules.append(fo.Hypothesis(table, cost, f"r{r}"))
        fam = HypothesisFamily.from_rules(rules, d.space, k)
    cand = fo._Candidates(d, fam)
    brks = _breakpoints(candidate_costs(cand), approx_loss(cand))
    if not brks:
        return d, fam, draw(st.sampled_from([0.0, 0.5])), None
    nf = len(fam._flat) if fam._flat is not None else len(fam)
    n_s = cand.n_pure + 1
    mixed = [b for b in brks if (b[1] // n_s < nf) != (b[2] // n_s < nf)]
    brk = draw(st.sampled_from(mixed or brks))
    kind = draw(st.sampled_from(["tie", "margin", "ulps", "edge-in", "edge-out"]))
    beta = _plant_beta(cand, kind, draw(st.sampled_from(["below", "above"])),
                       draw(st.floats(0.05, 0.95)), draw(st.integers(0, 4)), brk)
    return d, fam, beta, brk


def _spy(cand, log):
    exact_losses = fo._Candidates.exact_losses

    def spy(rules, counts):
        log.append(list(zip(rules.tolist(), counts.tolist())))
        return exact_losses(cand, rules, counts)

    cand.exact_losses = spy


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_planted_tasks())
def test_planted_near_ties_match_references(task):
    d, fam, beta, brk = task
    cand = fo._Candidates(d, fam)
    checked = []
    _spy(cand, checked)
    got = cand.minimize(beta)
    # the exact re-check covers the full screen's shortlist, no more, less
    # at beta = 0 the candidates that a zero-loss candidate beats on cost
    assert set(checked[0]) == unbeaten(cand, beta, _shortlist(_values(cand, beta)))
    assert got == reference_minimize(cand, beta)
    value, ties = naive_min(d, fam, beta)
    assert got[0] == value
    assert (got[1][1], frozenset(cand.pins_for(got[1][1], got[1][2]))) in ties
    # the breakpoint's code lengths on the t grid: cost == t admits it
    costs = candidate_costs(cand).ravel()
    t_grid = np.unique([costs[x] for x in brk[1:]] if brk else [1.0]).tolist()
    t_grid.append(math.inf)
    checked.clear()
    want = [reference_minimize(cand, beta, t) for t in t_grid]
    assert cand.capped_minima([beta], t_grid)[0] == want
    values = _values(cand, beta)
    assert set(checked[0]) == unbeaten(cand, beta, set().union(
        *(_shortlist(values, candidate_costs(cand) <= t) for t in t_grid)))
    stats = fo.beta_sufficient_statistics(d, fam, beta, tol=0.0)
    assert {x.hypothesis.identity() for x in stats} == ties


def _flat_pair_union():
    """A union whose Lagrangian envelope turns from a pair rule to the flat
    uniform rule at beta near 0.225. Every input group is mixed, so each
    candidate is a rule (no pins)."""
    d = disjoint_union(
        Dataset(np.zeros(4, dtype=np.int64), np.array([1, 0, 1, 0]), 2,
                DiscreteSpace(1)),
        Dataset(np.zeros(5, dtype=np.int64), np.array([0, 0, 0, 0, 1]), 2,
                DiscreteSpace(1)))
    fam = HypothesisFamily.for_space(d.space, 2, (0.05, 0.2))
    cand = fo._Candidates(d, fam)
    brk = next(b for b in _breakpoints(candidate_costs(cand), approx_loss(cand))
               if b[2] == 0)
    assert cand.n_pure == 0 and brk[1] >= len(fam._flat)
    return d, fam, cand, brk


def _check_screen(cand, beta):
    checked = []
    _spy(cand, checked)
    got = cand.minimize(beta)
    assert set(checked[0]) == _shortlist(_values(cand, beta))
    assert got == reference_minimize(cand, beta)
    return got


def test_pair_within_the_margin_above_a_flat_minimum_is_rechecked():
    # the pair's child floor lies above the flat minimum by more than its
    # slack, and within the margin: pruning pairs at the minimum itself,
    # without the margin, would drop it from the exact re-check
    d, fam, cand, brk = _flat_pair_union()
    beta = _plant_beta(cand, "margin", "above", 0.5, 0, brk)
    values = _values(cand, beta)
    vmin = float(values.min())
    pair = brk[1]
    floor = cand._pair_floor(beta)[pair - len(fam._flat)]
    assert values.argmin() == 0 and floor - fo._pair_slack(floor) > vmin
    assert (pair, 0) in _shortlist(values)
    _check_screen(cand, beta)


def test_tie_window_prefers_the_cheaper_of_two_near_equal_values():
    # the pair rule is the exact minimum; the flat uniform rule lies less
    # than TIE_ATOL above it and costs less, so the tie-break picks it
    d, fam, cand, brk = _flat_pair_union()
    beta = _plant_beta(cand, "tie", "below", 0.5, 0, brk)
    exact = cand.exact_losses(np.array(brk[1:]), np.zeros(2, dtype=np.int64))
    value = exact + beta * candidate_costs(cand).ravel()[list(brk[1:])]
    assert 0 < value[1] - value[0] <= fo.TIE_ATOL
    got = _check_screen(cand, beta)
    assert got == (value[0], (candidate_costs(cand)[0, 0], 0, 0))
    naive_value, ties = naive_min(d, fam, beta)
    assert naive_value == value[0] and {(0, frozenset()), (brk[1], frozenset())} <= ties


@pytest.mark.parametrize("edge", ["edge-in", "edge-out"])
def test_candidate_on_the_margin_edge(edge):
    # the pair's value is the last float under the screen's threshold, or
    # the first above it: a threshold moved by 1e-12, or a narrower margin,
    # re-checks a different set
    d, fam, cand, brk = _flat_pair_union()
    beta = _plant_beta(cand, edge, "above", 0.5, 0, brk)
    values = _values(cand, beta)
    vmin = float(values.min())
    gap = values[brk[1], 0] - (vmin + screen_margin(vmin))
    assert (-1e-13 < gap <= 0.0) if edge == "edge-in" else (0.0 < gap < 1e-13)
    _check_screen(cand, beta)


def _misordered(counts, ulps):
    """A constant rule C (cost 1) and a rule Y (cost 4e4) on three inputs.
    Input x has counts[x] samples of label 0, which both rules give about
    1e-300 (690.8 nats each), and one of label 1, at 1.0. Y's probability
    at input x is C's moved by ulps[x] ulps, which moves its loss by a few
    TIE_ATOL; above 1.6e7 nats one rounding of the approximate sum is worth
    more than TIE_ATOL. Y's cost puts every bisection midpoint of
    critical_beta but beta = 0 far outside the screen margin."""
    xs = np.repeat(np.arange(3), np.asarray(counts) + 1)
    ys = np.concatenate([np.repeat([0, 1], [c, 1]) for c in counts])
    d = Dataset(xs, ys, 2, DiscreteSpace(3))
    p = 1e-300 * (1.0 + np.array(ulps) * 2.0 ** -52)
    fam = HypothesisFamily.from_rules([
        fo.Hypothesis(np.tile([1e-300, 1.0], (3, 1)), 1.0, "C"),
        fo.Hypothesis(np.stack([p, 1.0 - p], axis=1), 4e4, "Y")])
    cand = fo._Candidates(d, fam)
    (ay, ec, ey) = (approx_loss(cand)[1, 0], *cand.exact_losses(
        np.array([0, 1]), np.zeros(2, dtype=np.int64)))
    assert cand.n_pure == 0
    return d, fam, cand, ay, ec, ey


def test_approximation_error_above_tie_atol_stays_in_the_margin():
    # Y is the exact minimum at beta = 0, by more than TIE_ATOL, yet its
    # approximate loss is not below C's exact loss: critical_beta must find
    # the constant not realized at beta = 0 (a "realized" test without the
    # margin would stop there), and Y must be in the tol = 0 set (a window
    # without the margin would leave it out)
    d, fam, cand, ay, ec, ey = _misordered([2782, 9050, 13418], [1179, 1179, -54])
    assert ay >= ec > ey + fo.TIE_ATOL
    assert cand.minimize(0.0) == (ey, (4e4 + cand.ext[0], 1, 0))
    # realized at every midpoint past 0: hi halves from 1 to 2^-10
    assert fo.critical_beta(d, fam) == 2.0 ** -11
    stats = fo.beta_sufficient_statistics(d, fam, 0.0, tol=0.0)
    assert [x.hypothesis.name for x in stats] == ["Y"]


def test_approximation_error_below_tie_atol_stays_in_the_margin():
    # Y's approximate loss lies more than TIE_ATOL below C's exact loss,
    # yet exactly the two tie within TIE_ATOL, so the constant realizes the
    # beta = 0 minimum: a "not realized" test without the margin would
    # bisect instead
    d, fam, cand, ay, ec, ey = _misordered([2782, 9050, 13418], [1970, -2708, 1761])
    assert ay + fo.TIE_ATOL < ec <= ey + fo.TIE_ATOL
    assert fo.critical_beta(d, fam) == 0.0


def test_tol_window_edge_of_beta_sufficient_statistics(monkeypatch):
    # tol puts a candidate's approximate value on the last float under the
    # window limit + 1e-6 (1 + |limit|): it must be shortlisted, and the
    # statistics must be those of the R-wide screen and of enumeration
    d, fam, cand, brk = _flat_pair_union()
    beta = 0.5 * brk[0]
    values = _values(cand, beta)
    vmin = cand.minimize(beta)[0]
    target = float(np.sort(np.unique(values))[3])

    def inside(tol):
        limit = vmin + tol + fo.TIE_ATOL
        return target <= limit + SCREEN_REL * (1.0 + abs(limit))

    lo, hi = 0.0, target - vmin
    assert not inside(lo) and inside(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    limit = vmin + hi + fo.TIE_ATOL
    window = {(int(r), int(s)) for r, s in
              np.argwhere(values <= limit + SCREEN_REL * (1.0 + abs(limit)))}
    shortlisted = []
    pin_sets_within = fo._pin_sets_within

    def spy(cand, r, s, *args):
        shortlisted.append((r, s))
        return pin_sets_within(cand, r, s, *args)

    monkeypatch.setattr(fo, "_pin_sets_within", spy)
    stats = fo.beta_sufficient_statistics(d, fam, beta, tol=hi)
    assert set(shortlisted) == window
    assert any(values[r, s] == target for r, s in window)
    want = screened_beta_sufficient_statistics(d, fam, beta, tol=hi)
    assert [(x.hypothesis.identity(), x.value, x.is_minimal) for x in stats] == \
        [(x.hypothesis.identity(), x.value, x.is_minimal) for x in want]
    naive = {(r, pins) for v, _, r, pins in naive_candidates(d, fam, beta)
             if v <= limit}
    assert {x.hypothesis.identity() for x in stats} == naive


@pytest.mark.parametrize("beta", [2592480341136260.5, 6.241523437322818e24])
def test_statistics_at_a_beta_where_the_cost_term_swamps_the_loss(beta):
    # loss + beta * cost rounds the loss away, and limit - beta * cost left
    # no budget for the minimizer's own pin set
    d = Dataset(np.array([0, 1]), np.array([0, 0]), 2, DiscreteSpace(2))
    for noise_grid in [(), (0.05, 0.1, 0.2)]:
        fam = HypothesisFamily.for_space(DiscreteSpace(2), 2, noise_grid)
        stats = fo.beta_sufficient_statistics(d, fam, beta, tol=0.0)
        assert {x.hypothesis.identity() for x in stats} == naive_min(d, fam, beta)[1]


def test_realized_shortcut_keeps_the_slack_of_the_least_pair_floor(monkeypatch):
    # A pair's least floor may lie a few ulps above the pair's screened
    # value, which `_pair_slack` covers. critical_beta's "realized" shortcut
    # may skip the exact minimum only where the floor less that slack clears
    # the best constant by the screen margin. The margin is 1000 times the
    # slack, so no result tells a shortcut without the slack apart; the
    # midpoints it skips do. At each midpoint, plant as the least floor the
    # least float F with F - margin(F) >= v_const, where that lies at or
    # below the real least floor (a lower floor is still a floor): F less
    # its slack is short of the edge, so the exact minimum must run.
    d = disjoint_union(
        Dataset(np.array([0, 1, 1, 2, 3, 3]), np.array([0, 1, 0, 1, 1, 0]), 2,
                DiscreteSpace(4)),
        Dataset(np.array([0, 1, 2, 2]), np.array([1, 1, 0, 1]), 2, DiscreteSpace(3)))
    fam = HypothesisFamily.for_space(d.space, 2, (0.1, 0.2))
    want = reference_critical_beta(d, fam)
    least_pair_floor, minimize = fo._Candidates._least_pair_floor, fo._Candidates.minimize
    planted, exact = [], []

    def edge(vconst):
        f = (vconst + fo.TIE_ATOL + SCREEN_REL) / (1.0 - SCREEN_REL)
        while f - screen_margin(f) < vconst:
            f = _step(f, 1, math.inf)
        while _step(f, 1, 0.0) - screen_margin(_step(f, 1, 0.0)) >= vconst:
            f = _step(f, 1, 0.0)
        return f

    def planted_floor(cand, beta):
        if np.ndim(beta):       # the screen's test of every beta at once
            return least_pair_floor(cand, beta)
        const = np.flatnonzero(fam.is_constant)
        loss = cand.exact_losses(const, np.zeros_like(const)).tolist()
        cost = (fam.costs[const] + cand.ext[0]).tolist()
        floor = edge(min(a + beta * c for a, c in zip(loss, cost)))
        real = least_pair_floor(cand, beta)
        if floor > real:
            return real
        planted.append(beta)
        return floor

    def spy(cand, beta):
        exact.append(beta)
        return minimize(cand, beta)

    monkeypatch.setattr(fo._Candidates, "_least_pair_floor", planted_floor)
    monkeypatch.setattr(fo._Candidates, "minimize", spy)
    assert fo.critical_beta(d, fam) == want
    assert planted and set(planted) <= set(exact)
