import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskinfo import finite_oracle as fo
from taskinfo import tasks
from taskinfo import variational as vi
from taskinfo.bounds import pac_bayes_bound
from taskinfo.finite_oracle import (
    Hypothesis,
    HypothesisFamily,
    NoHypothesisError,
    beta_sufficient_statistics,
    complexity,
    critical_beta,
    deterministic_complexity,
    empirical_loss,
    expected_complexity_trial,
    extension_cost,
    lagrangian_complexity,
    lagrangian_sweep,
    mle,
    oracle_distance,
    structure_function,
)
from taskinfo.models import Architecture
from taskinfo.tasks import Dataset, DiscreteSpace, disjoint_union

from .reference import candidate_costs, naive_candidates, naive_family, naive_min

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def fam64():
    return HypothesisFamily.for_space(DiscreteSpace(64), 2)


@pytest.fixture(scope="module")
def fam8():
    return HypothesisFamily.for_space(DiscreteSpace(8), 2)


@pytest.fixture(scope="module")
def rand50(fam64):
    return tasks.generate_random_label_task(50, DiscreteSpace(64), 2, seed=1)


# ---------------------------------------------------------------------------
# empirical_loss / mle


def test_empirical_loss_uniform_is_n_lnk(fam8):
    d = tasks.generate_planted_task(17, fam8.hypothesis("const0"), 0.3, seed=0)
    assert empirical_loss(fam8.hypothesis("uniform"), d) == \
        pytest.approx(17 * LN2, rel=1e-12)


def test_empirical_loss_perfect_fit_zero(fam8):
    rule = fam8.hypothesis("parity003")
    d = tasks.generate_planted_task(25, rule, 0.0, seed=1)
    assert empirical_loss(rule, d) == 0.0


def test_empirical_loss_hand_value():
    # probabilities (0.5, 0.25, 1.0) -> ln2 + ln4 + 0 = 3 ln2
    table = np.array([[0.5, 0.5], [0.25, 0.75], [0.0, 1.0]])
    h = Hypothesis(table, 0.0, "hand")
    d = Dataset(np.array([0, 1, 2]), np.array([0, 0, 1]), 2, DiscreteSpace(3))
    assert empirical_loss(h, d) == pytest.approx(2.0794415416798357, abs=1e-12)


def test_empirical_loss_zero_probability_inf():
    h = Hypothesis(np.array([[1.0, 0.0]]), 0.0)
    d = Dataset(np.array([0]), np.array([1]), 2, DiscreteSpace(1))
    assert empirical_loss(h, d) == math.inf


def test_empirical_loss_domain_mismatch(fam8):
    d = tasks.generate_random_label_task(4, DiscreteSpace(16), 2, seed=0)
    with pytest.raises(ValueError, match="incompatible hypothesis"):
        empirical_loss(fam8.hypothesis("uniform"), d)


def test_mle_trivial_rows():
    d = Dataset(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 1]), 2,
                DiscreteSpace(3))
    h = mle(d)
    assert h.table[0].tolist() == [0.0, 1.0]
    assert h.table[1].tolist() == [0.5, 0.5]
    assert h.table[2].tolist() == [0.5, 0.5]   # unseen -> uniform


def test_mle_beats_dense_grid_of_tables():
    d = Dataset(np.array([0, 0, 0, 1, 1]), np.array([0, 0, 1, 1, 1]), 2,
                DiscreteSpace(2))
    best = empirical_loss(mle(d), d)
    grid = np.linspace(0.0, 1.0, 51)
    for p0 in grid:
        for p1 in grid:
            h = Hypothesis(np.array([[1 - p0, p0], [1 - p1, p1]]), 0.0)
            assert empirical_loss(h, d) >= best - 1e-12


# ---------------------------------------------------------------------------
# family construction


def test_family_kraft_budget(fam8, fam64):
    assert fam8.kraft_sum() == pytest.approx(1.0, abs=1e-12)
    assert fam64.kraft_sum() == pytest.approx(1.0, abs=1e-12)
    u = HypothesisFamily.for_space(
        disjoint_union(
            tasks.generate_random_label_task(2, DiscreteSpace(4), 2, seed=0),
            tasks.generate_random_label_task(2, DiscreteSpace(4), 2, seed=1),
        ).space, 2)
    assert u.kraft_sum() <= 1.0 + 1e-12


def _union_space(left, right):
    return DiscreteSpace(2 * max(left.size, right.size),
                         parts=(tasks.UnionPart(left, 2), tasks.UnionPart(right, 2)))


@pytest.mark.parametrize("space", [
    DiscreteSpace(64),
    _union_space(DiscreteSpace(16), DiscreteSpace(8)),
    _union_space(DiscreteSpace(8), DiscreteSpace(8)),
    _union_space(_union_space(DiscreteSpace(4), DiscreteSpace(2)), DiscreteSpace(4)),
    _union_space(DiscreteSpace(3), _union_space(DiscreteSpace(2), DiscreteSpace(1))),
], ids=["flat", "union", "equal-parts", "nested-left", "nested-right"])
def test_factored_kraft_sum_matches_rule_by_rule(space):
    # a union's fresh pairs sum as a product of their parts' sums
    fam = HypothesisFamily.for_space(space, 3, (0.1, 0.3))
    kraft, rel = fam._kraft()
    assert kraft == pytest.approx(fam.kraft_sum(), rel=1e-12, abs=0.0)
    assert abs(kraft - fam.kraft_sum()) <= 2 * rel * kraft
    assert rel < 1e-13


def test_custom_family_over_the_kraft_budget_is_rejected(fam8):
    rules = [fo.Hypothesis(fam8.hypothesis(name).table, cost, name)
             for name, cost in [("const0", math.log(2.0)), ("const1", math.log(2.0)),
                                ("bit0", math.log(4.0))]]
    with pytest.raises(ValueError, match=r"Kraft budget: 1\.250000 > 1"):
        HypothesisFamily.from_rules(rules)
    # a budget met with equality is kept
    HypothesisFamily.from_rules(rules[:2])


def test_extended_family_kraft_budget(fam8):
    # pinning any s of u inputs with any labels keeps the Kraft sum at the
    # base sum: sum_s C(u,s) K^s exp(-ext(u,s)) = 1
    for u in (1, 3, 7):
        total = math.fsum(
            math.comb(u, s) * 2 ** s * math.exp(-extension_cost(u, s, 2))
            for s in range(u + 1))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_family_contains_uniform_cheapest(fam8):
    assert fam8.names[0] == "uniform"
    assert fam8.costs.argmin() == 0


def _union_space(left, right):
    return DiscreteSpace(2 * max(left.size, right.size),
                         parts=(tasks.UnionPart(left, 2), tasks.UnionPart(right, 2)))


_D1, _D2, _D4 = DiscreteSpace(1), DiscreteSpace(2), DiscreteSpace(4)


@pytest.mark.parametrize("space, k, noise_grid", [
    # unions of unions: left pair rules have children in the right part's
    # space, which exercises the pair(a|<0]) and pair(a|<1]) back-references
    (_union_space(_union_space(_D4, _D2), _D4), 2, ()),
    (_union_space(_union_space(_D4, _D2), _D4), 3, ()),
    (_union_space(_union_space(_D2, _D2), _D2), 2, (0.1, 0.2)),
    (_union_space(_union_space(_D2, _D1), _D2), 3, (0.1, 0.2)),
    (_union_space(_union_space(_D1, _D2), _union_space(_D1, _D2)), 2, ()),
])
def test_family_builder_matches_rule_by_rule_reference(space, k, noise_grid):
    fam = HypothesisFamily.for_space(space, k, noise_grid)
    names, costs, tables = naive_family(space, k, noise_grid)
    assert [fam._name(i) for i in range(len(fam))] == names
    assert fam.names == names
    assert fam.costs.tobytes() == costs.tobytes()
    assert fam.tables.shape == tables.shape
    assert fam.tables.tobytes() == tables.tobytes()
    assert fam.kraft_sum() <= 1.0


def test_family_builder_back_references_present():
    a = DiscreteSpace(2)
    fam = HypothesisFamily.for_space(_union_space(_union_space(a, a), a), 2, ())
    assert "pair(pair(const0|bit0)|<0])" in fam.names
    assert "pair(pair(const0|bit0)|<1])" in fam.names
    assert "pair(pair(const0|=)|<1])" in fam.names


@pytest.mark.parametrize("level", [1.5, -0.1, math.nan, math.inf, -math.inf])
def test_family_rejects_noise_level_outside_unit_interval(level):
    with pytest.raises(ValueError, match=re.escape(f"noise level {level!r}")):
        HypothesisFamily.for_space(DiscreteSpace(4), 2, (0.1, level))
    space = _union_space(DiscreteSpace(2), DiscreteSpace(2))
    with pytest.raises(ValueError, match="noise level"):
        HypothesisFamily.for_space(space, 2, (level,))


def test_family_accepts_noise_levels_zero_and_one():
    fam = HypothesisFamily.for_space(DiscreteSpace(4), 3, (0.0, 1.0))
    assert fam.noise_grid == (0.0, 1.0)
    assert (fam.tables >= 0).all()
    d = Dataset(np.array([0, 1, 2]), np.array([0, 2, 1]), 3, DiscreteSpace(4))
    assert math.isfinite(complexity(d, fam)[0])


def test_empty_family_rejected():
    with pytest.raises(NoHypothesisError):
        HypothesisFamily.from_rules([])


def test_hypothesis_and_curve_leave_caller_arrays_writeable(fam8):
    table = np.array([[0.5, 0.5], [0.25, 0.75]])
    h = Hypothesis(table, 1.0)
    assert table.flags.writeable and not h.table.flags.writeable
    table[0, 0] = 0.0
    assert h.table[0, 0] == 0.5
    grid = np.array([5.0, 10.0])
    d = tasks.generate_planted_task(6, fam8.hypothesis("bit0"), 0.0, seed=0)
    curve = structure_function(d, fam8, grid)
    assert grid.flags.writeable and not curve.abscissa.flags.writeable


def test_hypothesis_invariants():
    with pytest.raises(ValueError, match="sum to 1"):
        Hypothesis(np.array([[0.5, 0.4]]), 1.0)
    with pytest.raises(ValueError, match="code_length"):
        Hypothesis(np.array([[0.5, 0.5]]), -1.0)
    with pytest.raises(ValueError, match="code_length"):
        Hypothesis(np.array([[0.5, 0.5]]), math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hypothesis_rejects_non_finite_entries(bad):
    # NaN passes both the sign and the row-sum checks, so it is refused first
    table = np.array([[bad, bad], [0.5, 0.5]])
    with pytest.raises(ValueError, match="must be finite"):
        Hypothesis(table, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        HypothesisFamily.from_rules([Hypothesis(np.full((2, 2), 0.5), 1.0),
                                     Hypothesis(table, 1.0)])


# ---------------------------------------------------------------------------
# complexity / structure function / Lagrangian


def test_complexity_all_zero_labels(fam8):
    d = tasks.generate_planted_task(30, fam8.hypothesis("const0"), 0.0, seed=3)
    value, h = complexity(d, fam8)
    assert h.name.startswith("const0")
    assert h.pins == ()
    assert value == h.code_length   # loss is exactly 0


def test_complexity_random_labels_near_n_ln2(fam64, rand50):
    value, h = complexity(rand50, fam64)
    overhead = float(fam64.costs[0]) + math.log(50 + 1)
    assert abs(value - 50 * LN2) <= overhead + 1e-9
    assert h.name == "uniform"


def test_complexity_random_labels_non_power_of_two_domain():
    # 50 distinct inputs over a 50-element domain
    fam = HypothesisFamily.for_space(DiscreteSpace(50), 2)
    d = tasks.generate_random_label_task(50, DiscreteSpace(50), 2, seed=1)
    value, _ = complexity(d, fam)
    overhead = float(fam.costs[0]) + math.log(51)
    assert abs(value - 50 * LN2) <= overhead + 1e-9


def test_complexity_beats_memorizing_bound(fam64, rand50):
    # C(D) <= N ln2 + cheapest rule cost + extension overhead, always
    value, _ = complexity(rand50, fam64)
    assert value <= 50 * LN2 + float(fam64.costs.min()) + math.log(51) + 1e-9


def test_planted_rule_recovered(fam64):
    rule = fam64.hypothesis("parity011")
    d = tasks.generate_planted_task(200, rule, 0.0, seed=2)
    value, h = complexity(d, fam64)
    assert h.name == "parity011"
    assert value == h.code_length


def test_label_randomization_raises_complexity_to_n_lnk(fam8):
    rule = fam8.hypothesis("parity003")
    d = tasks.generate_planted_task(50, rule, 0.0, seed=2)
    before, h = complexity(d, fam8)
    assert h.name == "parity003"
    scrambled = tasks.apply_transform(
        d, tasks.TaskTransform(kind="label_randomization", seed=3))
    after, _ = complexity(scrambled, fam8)
    u = len(np.unique(d.inputs))
    overhead = float(fam8.costs[0]) + math.log(u + 1)
    assert after > before
    assert abs(after - 50 * LN2) <= overhead + 1e-9


def test_structure_function_reaches_min_loss(fam8):
    d = tasks.generate_planted_task(40, fam8.hypothesis("parity003"), 0.0,
                                    seed=5)
    top = float(fam8.costs.max()) + extension_cost(8, 8, 2)
    curve = structure_function(d, fam8, [top])
    assert curve.loss[0] == 0.0


def test_structure_function_planted_zero_after_rule_cost(fam8):
    rule = fam8.hypothesis("parity003")
    d = tasks.generate_planted_task(60, rule, 0.0, seed=5)
    u = len(np.unique(d.inputs))
    t_rule = rule.code_length + extension_cost(u, 0, 2)
    curve = structure_function(d, fam8, [t_rule - 1e-9, t_rule])
    assert curve.loss[1] == 0.0
    assert curve.loss[0] > 0.0


def test_structure_function_monotone_and_infinite_below_min(fam64, rand50):
    grid = [0.1, 2.0, 6.0, 10.0, 20.0, 40.0, 60.0]
    curve = structure_function(rand50, fam64, grid)
    assert curve.loss[0] == math.inf     # nothing costs <= 0.1
    finite = curve.loss[np.isfinite(curve.loss)]
    assert (np.diff(finite) <= 1e-12).all()


def test_structure_function_requires_increasing_grid(fam8, rand50):
    with pytest.raises(ValueError, match="increasing"):
        structure_function(rand50, fam8, [2.0, 1.0])


@pytest.mark.parametrize("grid", [[math.nan], [1.0, math.nan], [math.nan, 5.0]])
def test_structure_function_rejects_nan_t(fam8, rand50, grid):
    with pytest.raises(ValueError, match="t_grid"):
        structure_function(rand50, fam8, grid)


def test_structure_function_infinite_t_is_the_unconstrained_minimum(fam8, fam64,
                                                                   rand50):
    d = tasks.generate_planted_task(40, fam8.hypothesis("parity003"), 0.0,
                                    seed=5)
    assert structure_function(d, fam8, [5.0, math.inf]).loss[1] == 0.0
    curve = structure_function(rand50, fam64, [math.inf])
    assert curve.loss[0] == lagrangian_complexity(rand50, fam64, 0.0)[0]


def test_lagrangian_beta_zero_is_min_loss(fam8):
    d = tasks.generate_planted_task(30, fam8.hypothesis("bit1"), 0.0, seed=7)
    value, h = lagrangian_complexity(d, fam8, 0.0)
    assert value == 0.0


def test_lagrangian_random_labels_beta1_argmin_uniform(fam64, rand50):
    _, h = lagrangian_complexity(rand50, fam64, 1.0)
    assert h.name == "uniform"     # tie against the memorizer breaks by cost


def test_complexity_equals_lagrangian_beta1(fam64, rand50):
    assert complexity(rand50, fam64)[0] == \
        lagrangian_complexity(rand50, fam64, 1.0)[0]


def test_lagrangian_nondecreasing_in_beta(fam8):
    d = tasks.generate_planted_task(25, fam8.hypothesis("parity003"), 0.1,
                                    seed=8)
    values = [lagrangian_complexity(d, fam8, b)[0]
              for b in np.linspace(0.0, 4.0, 15)]
    assert (np.diff(values) >= -1e-12).all()


def test_legendre_duality_on_family_grid(fam8):
    d = tasks.generate_planted_task(20, fam8.hypothesis("bit0"), 0.2, seed=4)
    u = len(np.unique(d.inputs))
    grid = sorted({float(fam8.costs[r] + extension_cost(u, s, 2))
                   for r in range(len(fam8)) for s in range(u + 1)})
    curve = structure_function(d, fam8, grid)
    for beta in np.linspace(0.05, 3.0, 12):
        lagr, _ = lagrangian_complexity(d, fam8, float(beta))
        dual = min(l + float(beta) * t
                   for l, t in zip(curve.loss, curve.abscissa))
        assert dual == lagr    # bit-exact over the family's code-length grid


def test_permutation_invariance_bit_exact(fam64, rand50):
    perm = np.random.default_rng(0).permutation(rand50.n)
    shuffled = rand50.permuted(perm)
    assert complexity(rand50, fam64)[0] == complexity(shuffled, fam64)[0]
    grid = [5.0, 10.0, 20.0, 40.0]
    a = structure_function(rand50, fam64, grid)
    b = structure_function(shuffled, fam64, grid)
    assert np.array_equal(a.loss, b.loss)
    assert critical_beta(rand50, fam64) == critical_beta(shuffled, fam64)


# ---------------------------------------------------------------------------
# brute-force equivalence


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
def test_bruteforce_equivalence_flat(beta):
    fam = HypothesisFamily.for_space(DiscreteSpace(4), 2)
    d = tasks.generate_random_label_task(4, DiscreteSpace(4), 2, seed=3)
    dup = Dataset(np.concatenate([d.inputs, d.inputs[:2]]),
                  np.concatenate([d.labels, [1 - d.labels[0], d.labels[1]]]),
                  2, d.space)
    for dd in (d, dup):
        value, ties = naive_min(dd, fam, beta)
        got_value, got_h = lagrangian_complexity(dd, fam, beta)
        assert got_value == value
        assert (got_h.rule_index, frozenset(got_h.pins)) in ties
        stats = beta_sufficient_statistics(dd, fam, beta, tol=0.0)
        got_set = {(s.hypothesis.rule_index, frozenset(s.hypothesis.pins))
                   for s in stats}
        assert got_set == ties


def test_bruteforce_equivalence_union():
    d1 = tasks.generate_random_label_task(4, DiscreteSpace(4), 2, seed=5)
    d2 = tasks.generate_random_label_task(4, DiscreteSpace(4), 2, seed=6)
    du = disjoint_union(d1, d2)
    fam = HypothesisFamily.for_space(du.space, 2, noise_grid=())
    value, ties = naive_min(du, fam, 1.0)
    got_value, got_h = lagrangian_complexity(du, fam, 1.0)
    assert got_value == value
    assert (got_h.rule_index, frozenset(got_h.pins)) in ties


@st.composite
def _tiny_tasks(draw):
    """A tiny flat or union task with its family. Inputs repeat and labels
    may disagree, so pure and mixed input groups both occur."""
    k = draw(st.sampled_from([2, 3]))

    def part(m):
        n = draw(st.integers(0, 5))
        xs = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        ys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        return Dataset(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64),
                       k, DiscreteSpace(m))

    if draw(st.booleans()):
        d = part(draw(st.integers(2, 4)))
        noise_grid = draw(st.sampled_from([(), (0.1,), (0.05, 0.2)]))
    else:
        d = disjoint_union(part(draw(st.integers(1, 2))),
                           part(draw(st.integers(1, 2))))
        noise_grid = draw(st.sampled_from([(), (0.1,)]))
    perm = np.array(draw(st.permutations(range(d.n))), dtype=np.int64)
    return d, HypothesisFamily.for_space(d.space, k, noise_grid), perm


def _naive_structure_function(d, fam, t):
    """(S(t), cost of the cheapest statistic within TIE_ATOL of it)."""
    under = [(v, c) for v, c, _, _ in naive_candidates(d, fam, 0.0) if c <= t]
    if not under:
        return math.inf, math.inf
    best = min(v for v, _ in under)
    return best, min(c for v, c in under if v <= best + fo.TIE_ATOL)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tiny_tasks(), st.sampled_from([0.3, 1.0, 2.5]))
def test_bruteforce_random_tiny_tasks(task, beta):
    # beta = 0 and a budget above the price of pinning every input both
    # make every rule that pins all inputs tie at loss 0
    d, fam, perm = task
    shuffled = d.permuted(perm)
    betas = [0.0, beta]
    for b, (value, h), (value_s, h_s) in zip(
            betas, lagrangian_sweep(d, fam, betas),
            lagrangian_sweep(shuffled, fam, betas)):
        naive_value, ties = naive_min(d, fam, b)
        assert value == naive_value
        assert h.identity() in ties
        assert (value_s, h_s.identity()) == (value, h.identity())
        assert lagrangian_complexity(d, fam, b)[1].identity() == h.identity()
        stats = beta_sufficient_statistics(d, fam, b, tol=0.0)
        assert {x.hypothesis.identity() for x in stats} == ties

    cand_costs = sorted({c for _, c, _, _ in naive_candidates(d, fam, 0.0)})
    t_grid = sorted({cand_costs[0] / 2, cand_costs[0],
                     cand_costs[len(cand_costs) // 2], cand_costs[-1],
                     cand_costs[-1] + 1.0})
    curve = structure_function(d, fam, t_grid)
    curve_s = structure_function(shuffled, fam, t_grid)
    for t, loss, cost in zip(t_grid, curve.loss, curve.complexity):
        assert (loss, cost) == _naive_structure_function(d, fam, t)
    assert curve.loss.tobytes() == curve_s.loss.tobytes()
    assert curve.complexity.tobytes() == curve_s.complexity.tobytes()
    assert critical_beta(d, fam) == critical_beta(shuffled, fam)


@st.composite
def _duality_tasks(draw):
    """A task on DiscreteSpace(4 or 8), flat or the union of two halves,
    with n <= 8 samples and K in 2-3, and its family."""
    k, m = draw(st.sampled_from([2, 3])), draw(st.sampled_from([4, 8]))

    def part(size, n_max):
        n = draw(st.integers(0, n_max))
        xs = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
        ys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        return Dataset(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64),
                       k, DiscreteSpace(size))

    if draw(st.booleans()):
        d = part(m, 8)
    else:
        d = disjoint_union(part(m // 2, 4), part(m // 2, 4))
    return d, HypothesisFamily.for_space(d.space, k)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_duality_tasks(),
       st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4))
def test_legendre_duality_of_structure_function_and_lagrangian(task, betas):
    # on a t grid holding every candidate code length, the Lagrangian is
    # the Legendre transform of the structure function:
    # L(beta) = min_t S(t) + beta t, and S(t) >= L(beta) - beta t everywhere
    d, fam = task
    u = len(np.unique(d.inputs))
    t = np.unique([c + extension_cost(u, s, fam.num_labels)
                   for c in fam.costs for s in range(u + 1)])
    s_t = structure_function(d, fam, t).loss
    for beta, (value, _) in zip(betas, lagrangian_sweep(d, fam, betas)):
        atol = fo.TIE_ATOL + 1e-12 * abs(value)
        assert abs((s_t + beta * t).min() - value) <= atol
        assert (s_t >= value - beta * t - atol).all()


@settings(max_examples=30, deadline=None)
@given(_tiny_tasks())
def test_batched_exact_losses_match_per_candidate_fsum(task):
    d, fam, _ = task
    cand = fo._Candidates(d, fam)
    r, s = np.nonzero(np.ones(candidate_costs(cand).shape, dtype=bool))
    got = cand.exact_losses(r, s)
    for j in range(len(r)):
        probs = fam.tables[r[j]][d.inputs, d.labels]
        pinned = np.isin(cand.inverse, cand.pin_order[r[j], :s[j]])
        want = math.fsum(-math.log(p) if p > 0.0 else fo.INF_NATS
                         for p, pin in zip(probs, pinned) if not pin)
        assert got[j] == want
        assert cand.exact_loss(int(r[j]), cand.pin_order[r[j], :s[j]]) == want


# ---------------------------------------------------------------------------
# beta-sufficient statistics


def test_beta_sufficient_random_labels_beta1(fam64):
    d = tasks.generate_random_label_task(20, DiscreteSpace(64), 2, seed=5)
    stats = beta_sufficient_statistics(d, fam64, 1.0, tol=1e-6)
    names = {s.hypothesis.name for s in stats}
    assert names == {"uniform", "uniform+pin20"}
    minimal = [s for s in stats if s.is_minimal]
    assert [s.hypothesis.name for s in minimal] == ["uniform"]


def test_beta_sufficient_huge_beta_constants(fam8):
    d = tasks.generate_planted_task(20, fam8.hypothesis("parity003"), 0.0,
                                    seed=1)
    stats = beta_sufficient_statistics(d, fam8, 1e6, tol=0.0)
    assert all(s.hypothesis.is_constant for s in stats)


def test_beta_sufficient_argmin_set_planted(fam8):
    rule = fam8.hypothesis("bit2")
    d = tasks.generate_planted_task(50, rule, 0.0, seed=2)
    stats = beta_sufficient_statistics(d, fam8, 0.05, tol=0.0)
    value, ties = naive_min(d, fam8, 0.05)
    got = {(s.hypothesis.rule_index, frozenset(s.hypothesis.pins))
           for s in stats}
    assert got == ties


# ---------------------------------------------------------------------------
# critical beta


def test_critical_beta_random_labels_is_one(fam64, rand50):
    assert critical_beta(rand50, fam64) == pytest.approx(1.0, abs=0.02)


def test_critical_beta_planted_above_one(fam64):
    d = tasks.generate_planted_task(200, fam64.hypothesis("parity011"), 0.0,
                                    seed=2)
    assert critical_beta(d, fam64) > 1.0


def test_critical_beta_constant_data_sentinel(fam8):
    d = tasks.generate_planted_task(30, fam8.hypothesis("const0"), 0.0, seed=3)
    assert critical_beta(d, fam8) == 0.0


def test_critical_beta_needs_constant_rules(fam8):
    fam = HypothesisFamily.from_rules([fam8.hypothesis("bit0")])
    d = tasks.generate_planted_task(5, fam8.hypothesis("bit0"), 0.0, seed=0)
    with pytest.raises(ValueError, match="constant"):
        critical_beta(d, fam)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_critical_beta_rejects_tolerance_that_never_ends(fam8, tol):
    # the bisection stops once the bracket is narrower than tol_bisect: at
    # 0 or below it never would, NaN stopped at once, inf before a step
    d = disjoint_union(
        tasks.generate_random_label_task(6, DiscreteSpace(8), 2, seed=0),
        tasks.generate_random_label_task(3, DiscreteSpace(4), 2, seed=1))
    fam = HypothesisFamily.for_space(d.space, 2)
    with pytest.raises(ValueError, match="tol_bisect"):
        critical_beta(d, fam, tol_bisect=tol)


# ---------------------------------------------------------------------------
# deterministic complexity


def test_deterministic_complexity_contradiction_none(fam8):
    d = Dataset(np.array([0, 0]), np.array([0, 1]), 2, DiscreteSpace(8))
    assert deterministic_complexity(d, fam8) is None


def test_deterministic_complexity_planted(fam8):
    rule = fam8.hypothesis("parity003")
    d = tasks.generate_planted_task(60, rule, 0.0, seed=5)
    u = len(np.unique(d.inputs))
    got = deterministic_complexity(d, fam8)
    # independent scan over deterministic rules and pin counts
    best = math.inf
    for r in range(len(fam8)):
        if not fam8.is_deterministic[r]:
            continue
        xs = np.unique(d.inputs)
        labels = np.array([d.labels[d.inputs == x][0] for x in xs])
        miss = int((fam8.tables[r][xs, labels] != 1.0).sum())
        for s in range(miss, u + 1):
            best = min(best, float(fam8.costs[r]) + extension_cost(u, s, 2))
    if u == 8:
        best = min(best, float(fam8.costs.min()) + extension_cost(u, u, 2))
    assert got == pytest.approx(best, abs=1e-12)


def test_complexity_below_deterministic_complexity(fam8):
    rule = fam8.hypothesis("bit1")
    d = tasks.generate_planted_task(40, rule, 0.0, seed=9)
    c, _ = complexity(d, fam8)
    cdet = deterministic_complexity(d, fam8)
    assert cdet is not None and c <= cdet + 1e-12


# ---------------------------------------------------------------------------
# oracle distance


@pytest.fixture(scope="module")
def plain_fam8():
    return HypothesisFamily.for_space(DiscreteSpace(8), 2, noise_grid=())


def test_oracle_distance_self_small(plain_fam8):
    d = tasks.generate_planted_task(40, plain_fam8.hypothesis("parity003"),
                                    0.0, seed=5)
    dist = oracle_distance(d, d, plain_fam8, 1.0)
    u = len(np.unique(d.inputs))
    # family tie overhead: pair flags plus the size re-pricing of the union
    overhead = fo.PAIR_FLAG + fo.PAIR_KIND + \
        math.log(2 * u + 1) - math.log(u + 1) + 1e-9
    assert 0.0 <= dist <= overhead


def test_oracle_distance_union_to_part_is_small(plain_fam8):
    d1 = tasks.generate_planted_task(40, plain_fam8.hypothesis("parity003"),
                                     0.0, seed=5)
    d2 = tasks.generate_planted_task(40, plain_fam8.hypothesis("parity005"),
                                     0.0, seed=6)
    du = disjoint_union(d1, d2)
    fam_u = HypothesisFamily.for_space(du.space, 2, noise_grid=())
    d_union_to_part = oracle_distance(du, d1, fam_u, 1.0)
    d_fresh = oracle_distance(d1, d2, plain_fam8, 1.0)
    assert d_union_to_part < d_fresh
    assert d_union_to_part <= 6.0   # flag overhead only, not rule content


def test_oracle_distance_triangle(plain_fam8):
    rules = ("parity003", "parity005", "bit2")
    ds = [tasks.generate_planted_task(40, plain_fam8.hypothesis(r), 0.0,
                                      seed=10 + i)
          for i, r in enumerate(rules)]
    d12 = oracle_distance(ds[0], ds[1], plain_fam8, 1.0)
    d23 = oracle_distance(ds[1], ds[2], plain_fam8, 1.0)
    d13 = oracle_distance(ds[0], ds[2], plain_fam8, 1.0)
    overhead = fo.PAIR_FLAG + fo.PAIR_KIND + 2.0
    assert d13 <= d12 + d23 + overhead


def test_oracle_distance_nonnegative(plain_fam8):
    d1 = tasks.generate_planted_task(30, plain_fam8.hypothesis("parity007"),
                                     0.0, seed=1)
    d2 = tasks.generate_planted_task(30, plain_fam8.hypothesis("const0"),
                                     0.0, seed=2)
    assert oracle_distance(d1, d2, plain_fam8, 1.0) >= 0.0
    assert oracle_distance(d2, d1, plain_fam8, 1.0) >= 0.0


def test_negative_beta_is_rejected(plain_fam8):
    # the Lagrangian is defined for beta >= 0, as lagrangian_sweep requires
    d = tasks.generate_planted_task(20, plain_fam8.hypothesis("bit0"), 0.0, seed=3)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        oracle_distance(d, d, plain_fam8, -0.5)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        beta_sufficient_statistics(d, plain_fam8, -0.5, tol=0.0)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        fo.lagrangian_sweep(d, plain_fam8, [1.0, -0.5])


@pytest.mark.parametrize("call", [
    "lagrangian_sweep", "lagrangian_complexity", "beta_sufficient_statistics",
    "oracle_distance", "optimize_posterior", "pac_bayes_bound"])
def test_nan_beta_is_rejected(plain_fam8, call):
    # each check is written so that NaN fails it; `beta < 0` let NaN through
    # to a TypeError, a run diverged at step 0 or a NaN bound
    d = tasks.generate_planted_task(20, plain_fam8.hypothesis("bit0"), 0.0, seed=3)
    real = tasks.generate_random_label_task(8, tasks.RealSpace(2), 2, seed=4)
    arch, prior, nan = Architecture((2, 2)), vi.IsotropicPrior(1.0), math.nan
    calls = {
        "lagrangian_sweep": lambda: lagrangian_sweep(d, plain_fam8, [1.0, nan]),
        "lagrangian_complexity": lambda: lagrangian_complexity(d, plain_fam8, nan),
        "beta_sufficient_statistics":
            lambda: beta_sufficient_statistics(d, plain_fam8, nan, tol=0.0),
        "oracle_distance": lambda: oracle_distance(d, d, plain_fam8, nan),
        "optimize_posterior": lambda: vi.optimize_posterior(
            real, arch, nan, prior, vi.VariationalConfig(steps=2)),
        "pac_bayes_bound": lambda: pac_bayes_bound(1.0, 1.0, 10, nan, 0.05),
    }
    with pytest.raises(ValueError, match="beta must be >= 0|bound needs beta > 1/2"):
        calls[call]()


# ---------------------------------------------------------------------------
# expected complexity trials


def test_expected_complexity_deterministic_rule(fam8):
    rule = fam8.hypothesis("parity003")
    trial = expected_complexity_trial(fam8, rule, n=60, trials=5, seed=11)
    assert trial.conditional_entropy == 0.0
    expected = rule.code_length + math.log(8 + 1)   # all 8 inputs observed
    assert trial.complexities == tuple([pytest.approx(expected, abs=1e-9)] * 5)


def test_expected_complexity_uniform_rule(fam8):
    rule = fam8.hypothesis("uniform")
    trial = expected_complexity_trial(fam8, rule, n=120, trials=6, seed=13)
    assert trial.conditional_entropy == pytest.approx(LN2, rel=1e-12)
    assert trial.mean_complexity / 120 == pytest.approx(LN2, rel=0.1)


def test_expected_complexity_sandwich(fam8):
    rule = fam8.hypothesis("parity003~q0.1")
    trial = expected_complexity_trial(fam8, rule, n=150, trials=20, seed=17)
    n_h = 150 * trial.conditional_entropy
    k_rule = rule.code_length + math.log(9)
    slack = 3 * trial.std_error
    assert n_h - slack <= trial.mean_complexity <= n_h + k_rule + slack
