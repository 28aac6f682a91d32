import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import annealing
from taskinfo.annealing import (
    AnnealSchedule,
    PosteriorGrid,
    anneal,
    check_epsilon_connected,
    epsilon_local_step,
    gaussian_lattice_grid,
    load_grid,
    save_grid,
    shannon_information_estimate,
)
from taskinfo.rng import stream

from .reference import first_triangle_violation, naive_triangle_ok


def line_grid(losses, kls, positions=None):
    losses = np.asarray(losses, dtype=float)
    positions = np.arange(len(losses)) if positions is None else \
        np.asarray(positions, dtype=float)
    metric = np.abs(positions[:, None] - positions[None, :])
    return PosteriorGrid(losses, np.asarray(kls, dtype=float), metric)


def staircase_grid():
    """Minimizers move one node at a time as beta decreases."""
    return line_grid([10.0, 4.0, 0.0], [0.0, 2.0, 8.0])


def test_grid_validation():
    with pytest.raises(ValueError, match="symmetric"):
        PosteriorGrid(np.zeros(2), np.zeros(2), np.array([[0.0, 1.0],
                                                          [2.0, 0.0]]))
    with pytest.raises(ValueError, match="triangle"):
        PosteriorGrid(np.zeros(3), np.zeros(3),
                      np.array([[0.0, 1.0, 9.0],
                                [1.0, 0.0, 1.0],
                                [9.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="zero diagonal|nonnegative"):
        PosteriorGrid(np.zeros(2), np.zeros(2), np.array([[0.5, 1.0],
                                                          [1.0, 0.0]]))


def test_grid_leaves_caller_arrays_writeable():
    losses, kls = np.array([1.0, 2.0]), np.array([0.5, 0.0])
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = PosteriorGrid(losses, kls, metric)
    for arr in (losses, kls, metric):
        assert arr.flags.writeable
    metric[0, 1] = 5.0
    assert g.metric[0, 1] == 1.0
    assert not g.metric.flags.writeable


def test_grid_rejects_duplicate_node_ids():
    with pytest.raises(ValueError, match="node ids must be unique"):
        PosteriorGrid(np.zeros(2), np.zeros(2),
                      np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "a"))


def _planted_metric(m, seed, symmetric, planted):
    """Euclidean metric of random points, with a violation near 1e-9.

    planted is None or the excess of M[j, i] (j > i) over its shortest
    two-step path. A metric that is not exactly symmetric gets up to 1e-12
    of noise above the diagonal, and its planted M[i, j] stays below the
    tolerance, so only (j, i) can violate.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (m, 2))
    metric = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    if not symmetric:
        metric += np.triu(rng.uniform(0.0, 1e-12, (m, m)), 1)
    if planted is not None and m >= 3:
        i, j = rng.integers(0, m // 2), rng.integers(m // 2, m)
        others = np.delete(np.arange(m), [i, j])
        shortest = (metric[j, others] + metric[others, i]).min()
        metric[j, i] = shortest + planted
        metric[i, j] = metric[j, i] if symmetric else shortest + planted - 5e-10
    return metric


def test_triangle_tolerance_edges():
    # 2e-9 - (5e-10 + 5e-10) is exactly 1e-9: allowed, and one ulp more is not
    at_tol = np.array([[0.0, 2e-9, 5e-10], [2e-9, 0.0, 5e-10],
                       [5e-10, 5e-10, 0.0]])
    PosteriorGrid(np.zeros(3), np.zeros(3), at_tol)
    over = at_tol.copy()
    over[0, 1] = over[1, 0] = np.nextafter(2e-9, 1.0)
    assert not naive_triangle_ok(over)
    with pytest.raises(ValueError, match="triangle"):
        PosteriorGrid(np.zeros(3), np.zeros(3), over)
    # the only shortcut goes through the last node
    with pytest.raises(ValueError, match="triangle"):
        PosteriorGrid(np.zeros(3), np.zeros(3),
                      np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0],
                                [1.0, 1.0, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 63, 64, 65, 130]), st.integers(0, 2 ** 32 - 1),
       st.booleans(),
       st.sampled_from([None, 0.0, 0.999e-9, 1e-9, 1.001e-9, 1e-6]))
def test_triangle_check_matches_naive_loop(m, seed, symmetric, planted):
    metric = _planted_metric(m, seed, symmetric, planted)
    assert np.array_equal(metric, metric.T) == (symmetric or m == 1)
    try:
        PosteriorGrid(np.zeros(m), np.zeros(m), metric)
        ok = True
    except ValueError as exc:
        assert "triangle" in str(exc)
        ok = False
    assert ok == naive_triangle_ok(metric)


def test_triangle_error_names_the_first_pair_and_its_shortcut():
    metric = np.array([[0.0, 1.0, 9.0, 1.0],
                       [1.0, 0.0, 1.0, 9.0],
                       [9.0, 1.0, 0.0, 1.0],
                       [1.0, 9.0, 1.0, 0.0]])
    assert first_triangle_violation(metric) == (0, 2, 1)
    with pytest.raises(ValueError, match=r"triangle inequality: d\('a', 'c'\) "
                       r"exceeds d\('a', 'b'\) \+ d\('b', 'c'\) by 7$"):
        PosteriorGrid(np.zeros(4), np.zeros(4), metric, ("a", "b", "c", "d"))


def _multi_planted_metric(m, seed, symmetric, count):
    """Euclidean metric of random points with up to ``count`` planted
    violations near 1e-9, anywhere in the matrix (see _planted_metric)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (m, 2))
    metric = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    if not symmetric:
        metric += np.triu(rng.uniform(0.0, 1e-12, (m, m)), 1)
    for _ in range(count):
        a, b = rng.choice(m, 2, replace=False)
        others = np.delete(np.arange(m), [a, b])
        excess = rng.choice([0.999e-9, 1e-9, 1.001e-9, 1e-6])
        metric[a, b] = (metric[a, others] + metric[others, b]).min() + excess
        metric[b, a] = metric[a, b] if symmetric else metric[a, b] - 5e-10
    return metric


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 20), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.integers(0, 4))
def test_triangle_check_finds_the_first_violation_for_any_worker_count(
        m, seed, symmetric, count):
    metric = _multi_planted_metric(m, seed, symmetric, count)
    exact = np.array_equal(metric, metric.T)
    expected = first_triangle_violation(metric)
    assert (expected is None) == naive_triangle_ok(metric)
    ids = tuple(f"n{i}" for i in range(m))
    for cores in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(annealing, "_TRIANGLE_BLOCK", 2)
            mp.setattr(annealing, "_cores", lambda: cores)
            hit = annealing._check_triangle(metric, exact)
            assert (hit is None if expected is None else hit[:3] == expected)
            if expected is None:
                PosteriorGrid(np.zeros(m), np.zeros(m), metric, ids)
                continue
            i, j, k = (ids[n] for n in expected)
            assert hit[3] > 1e-9
            with pytest.raises(ValueError, match=f"triangle inequality: "
                               f"d\\('{i}', '{j}'\\) exceeds d\\('{i}', '{k}'\\)"):
                PosteriorGrid(np.zeros(m), np.zeros(m), metric, ids)


def test_triangle_check_reports_the_first_block_when_a_later_one_ends_first(
        monkeypatch):
    done = []
    block = annealing._block_violation

    def slow_first_block(metric, lo, symmetric):
        if lo == 0:
            time.sleep(0.2)
        hit = block(metric, lo, symmetric)
        done.append((lo, hit))
        return hit

    monkeypatch.setattr(annealing, "_block_violation", slow_first_block)
    monkeypatch.setattr(annealing, "_TRIANGLE_BLOCK", 2)
    monkeypatch.setattr(annealing, "_cores", lambda: 3)
    metric = _multi_planted_metric(20, 5, True, 0)
    metric[1, 9] = metric[9, 1] = metric[2, 7] = metric[7, 2] = 5.0
    assert first_triangle_violation(metric)[:2] == (1, 9)
    assert annealing._check_triangle(metric, True)[:3] == \
        first_triangle_violation(metric)
    assert done[0][0] == 2 and done[0][1] is not None and done[-1][0] == 0


def test_triangle_check_stress_more_workers_than_cores(monkeypatch):
    # a lost update of the shared block queue would take a block twice or
    # skip one before the first violation
    taken = []
    block = annealing._block_violation

    def spy(metric, lo, symmetric):
        taken.append(lo)
        return block(metric, lo, symmetric)

    monkeypatch.setattr(annealing, "_block_violation", spy)
    monkeypatch.setattr(annealing, "_TRIANGLE_BLOCK", 2)
    monkeypatch.setattr(annealing, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            metric = _multi_planted_metric(30, seed, seed % 2 == 0, seed % 4)
            taken.clear()
            hit = annealing._check_triangle(metric, seed % 2 == 0)
            expected = first_triangle_violation(metric)
            assert len(taken) == len(set(taken))
            if expected is None:
                assert hit is None and sorted(taken) == list(range(0, 30, 2))
            else:
                assert hit[:3] == expected
                assert set(range(0, expected[0] + 1, 2)) <= set(taken)
    finally:
        sys.setswitchinterval(interval)


def test_triangle_check_leaves_no_thread_running(monkeypatch):
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(annealing.threading, "Thread", Spy)
    monkeypatch.setattr(annealing, "_TRIANGLE_BLOCK", 2)
    monkeypatch.setattr(annealing, "_cores", lambda: 3)
    before = threading.active_count()
    metric = _multi_planted_metric(20, 5, True, 0)
    PosteriorGrid(np.zeros(20), np.zeros(20), metric)
    assert threading.active_count() == before
    metric[3, 17] = metric[17, 3] = 5.0
    with pytest.raises(ValueError, match="triangle"):
        PosteriorGrid(np.zeros(20), np.zeros(20), metric)
    assert threading.active_count() == before
    assert len(started) == 4 and not any(t.is_alive() for t in started)


def test_triangle_check_reraises_a_worker_error(monkeypatch):
    block = annealing._block_violation

    def failing(metric, lo, symmetric):
        if lo == 6:
            raise MemoryError("block 6")
        return block(metric, lo, symmetric)

    monkeypatch.setattr(annealing, "_block_violation", failing)
    monkeypatch.setattr(annealing, "_TRIANGLE_BLOCK", 2)
    before = threading.active_count()
    metric = _multi_planted_metric(20, 5, True, 0)
    for cores in (1, 3):
        monkeypatch.setattr(annealing, "_cores", lambda: cores)
        with pytest.raises(MemoryError, match="block 6"):
            PosteriorGrid(np.zeros(20), np.zeros(20), metric)
        assert threading.active_count() == before


def test_triangle_check_takes_no_block_after_a_violation(monkeypatch):
    taken = []
    block = annealing._block_violation

    def spy(metric, lo, symmetric):
        taken.append(lo)
        return block(metric, lo, symmetric)

    monkeypatch.setattr(annealing, "_block_violation", spy)
    monkeypatch.setattr(annealing, "_TRIANGLE_BLOCK", 2)
    monkeypatch.setattr(annealing, "_cores", lambda: 1)
    metric = _multi_planted_metric(20, 5, True, 0)
    metric[5, 11] = metric[11, 5] = 5.0
    with pytest.raises(ValueError, match="triangle"):
        PosteriorGrid(np.zeros(20), np.zeros(20), metric)
    assert taken == [0, 2, 4]


def test_schedule_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        AnnealSchedule((1.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        AnnealSchedule((1.0,), 0.0)


def test_local_step_big_epsilon_reaches_global_min():
    g = staircase_grid()
    beta = 0.25
    best = int(g.global_minimizers(beta)[0])
    assert epsilon_local_step(g, 0, beta, g.diameter) == best


def test_local_step_isolated_node_stays():
    g = line_grid([5.0, 0.0], [0.0, 0.0], positions=[0.0, 10.0])
    assert epsilon_local_step(g, 0, 1.0, 0.5) == 0


def test_local_step_ties_break_by_kl_then_index():
    g = line_grid([1.0, 1.0, 1.0], [3.0, 1.0, 1.0])
    # beta = 0: all losses tie; smallest KL wins, then index
    assert epsilon_local_step(g, 1, 0.0, 10.0) == 1
    g2 = line_grid([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert epsilon_local_step(g2, 2, 0.0, 10.0) == 0


def test_local_step_never_increases_lagrangian():
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = 12
        g = line_grid(rng.uniform(0, 10, m), rng.uniform(0, 5, m),
                      positions=rng.uniform(0, 4, m))
        beta = float(rng.uniform(0, 3))
        q0 = int(rng.integers(m))
        q1 = epsilon_local_step(g, q0, beta, 1.0)
        values = g.lagrangian(beta)
        assert values[q1] <= values[q0] + 1e-12


def test_local_step_matches_bruteforce_ball_scan():
    rng = np.random.default_rng(7)
    m = 20
    g = line_grid(rng.uniform(0, 10, m), rng.uniform(0, 5, m),
                  positions=rng.uniform(0, 6, m))
    for q0 in range(m):
        for beta, eps in ((0.5, 1.0), (2.0, 0.7)):
            got = epsilon_local_step(g, q0, beta, eps)
            ball = [q for q in range(m) if g.metric[q0, q] <= eps]
            values = g.lagrangian(beta)
            best = min(ball, key=lambda q: (values[q], g.kls[q], q))
            assert got == best


def test_anneal_connected_staircase_reaches_global():
    g = staircase_grid()
    s = AnnealSchedule((10.0, 2.0, 0.25), epsilon=1.0)
    rep = check_epsilon_connected(g, s)
    assert rep.connected and rep.witness_chain == (0, 1, 2)
    res = anneal(g, s, q_init=0)
    final_beta_minimizers = g.global_minimizers(0.25)
    assert res.final_node in final_beta_minimizers
    # along the trajectory the Lagrangian at the current beta never rises
    # within a fixed-beta step
    for (b0, q0, v0), (b1, q1, v1) in zip(res.trajectory, res.trajectory[1:]):
        assert g.lagrangian(b1)[q1] <= g.lagrangian(b1)[q0] + 1e-12


def test_anneal_degenerate_schedule_single_step():
    g = staircase_grid()
    s = AnnealSchedule((0.25,), epsilon=10.0)
    res = anneal(g, s, q_init=0)
    assert res.final_node == 2
    assert len(res.trajectory) == 2


def test_anneal_disconnected_gets_stuck():
    losses = np.array([10.0, 9.5, 0.0])
    kls = np.array([0.0, 0.1, 1.0])
    positions = [0.0, 1.0, 10.0]
    g = line_grid(losses, kls, positions)
    s = AnnealSchedule((100.0, 1.0, 0.01), epsilon=2.0)
    rep = check_epsilon_connected(g, s)
    assert not rep.connected
    assert rep.failing_index is not None
    res = anneal(g, s, q_init=0)
    assert res.final_node not in g.global_minimizers(0.01)
    # exhaustive path search: no epsilon-chain reaches node 2 at all
    reachable = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for nxt in range(3):
            if g.metric[q, nxt] <= s.epsilon and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    assert 2 not in reachable


def test_check_connected_single_node():
    g = PosteriorGrid(np.array([1.0]), np.array([0.5]), np.zeros((1, 1)))
    rep = check_epsilon_connected(g, AnnealSchedule((2.0, 1.0), 0.5))
    assert rep.connected


def test_gaussian_lattice_grid_builds_valid_metric():
    g = gaussian_lattice_grid(1.0, 1.0, mu_grid=[-1, 0, 1],
                              logsigma_grid=[-1.0, 0.0])
    assert len(g) == 6
    assert g.losses.min() >= 0.0
    # the prior-matched node (mu=0, log sigma=0) has zero KL
    idx = g.node_ids.index("mu0/ls0")
    assert g.kls[idx] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Shannon information


def test_shannon_trainer_ignoring_data_gives_zero():
    def sampler(seed):
        return seed

    def trainer(_):
        return np.array([0.25, 0.25, 0.5])

    est = shannon_information_estimate(sampler, trainer, trials=20, seed=1)
    assert est.mutual_information == pytest.approx(0.0, abs=1e-12)
    assert est.prior_is_optimal


def test_shannon_bounded_by_log_nodes_and_prior_optimal():
    nodes = 5

    def sampler(seed):
        return int(stream(seed, "task").integers(0, nodes))

    def trainer(node):
        q = np.full(nodes, 0.02)
        q[node] += 1.0 - nodes * 0.02
        return q

    est = shannon_information_estimate(sampler, trainer, trials=60, seed=2)
    assert 0.0 < est.mutual_information <= math.log(nodes)
    assert est.prior_is_optimal
    assert est.mean_posterior.shape == (nodes,)


def test_shannon_rejects_bad_trainer():
    with pytest.raises(ValueError, match="distribution"):
        shannon_information_estimate(lambda s: s,
                                     lambda _: np.array([0.5, 0.6]),
                                     trials=2, seed=0)


# ---------------------------------------------------------------------------
# grid files


def test_grid_file_roundtrip(tmp_path):
    g = staircase_grid()
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    save_grid(g, p, mp)
    back = load_grid(p, mp)
    assert np.array_equal(back.losses, g.losses)
    assert np.array_equal(back.kls, g.kls)
    assert np.array_equal(back.metric, g.metric)
    assert back.node_ids == g.node_ids


def test_grid_file_parse_error_carries_line_number(tmp_path):
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    p.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\nా,oops\n")
    mp.write_text("# taskinfo-grid-metric v1\n0.0\n")
    with pytest.raises(ValueError, match=r"grid\.csv:3"):
        load_grid(p, mp)
    p.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\nn0,1.0,bad\n")
    with pytest.raises(ValueError, match=":3: bad number"):
        load_grid(p, mp)


def test_grid_file_metric_shape_errors(tmp_path):
    g = staircase_grid()
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    save_grid(g, p, mp)
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0\n1.0,0.0\n"
                  "2.0,1.0,0.0\n")
    with pytest.raises(ValueError, match=r"metric\.csv:3: expected 3 columns, got 2"):
        load_grid(p, mp)
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0\n1.0,0.0,1.0\n"
                  "2.0,1.0,0.0\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match=r"metric\.csv:5: more than 3"):
        load_grid(p, mp)
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0\n1.0,0.0,1.0\n")
    with pytest.raises(ValueError, match=r"metric shape \(2, 3\) does not match"):
        load_grid(p, mp)
    p.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\n")
    with pytest.raises(ValueError, match=r"grid\.csv: no nodes"):
        load_grid(p, mp)


def test_grid_file_validation_errors_name_the_metric_file(tmp_path):
    g = line_grid([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    g = PosteriorGrid(g.losses, g.kls, g.metric, ("a", "b", "c"))
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    save_grid(g, p, mp)
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0\n# comment\n"
                  "1.0,0.0,1.0\n\n2.0,1.0,0.0\n")
    assert load_grid(p, mp).node_ids == ("a", "b", "c")
    mp.write_text(mp.read_text().replace("2.0,1.0,0.0", "3.5,1.0,0.0")
                  .replace("0.0,1.0,2.0", "0.0,1.0,3.5"))
    # row c is on line 6; (a, c) on line 2 is the first violating pair
    with pytest.raises(ValueError, match=r"metric\.csv:2: metric violates the "
                       r"triangle inequality: d\('a', 'c'\) exceeds "
                       r"d\('a', 'b'\) \+ d\('b', 'c'\) by 1\.5$"):
        load_grid(p, mp)
    # symmetric within 1e-9, but only d(c, a) exceeds the path through b by
    # more than 1e-9: its row, c, is on line 5
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0000000006\n"
                  "1.0,0.0,1.0\n# c\n2.0000000015,1.0,0.0\n")
    with pytest.raises(ValueError, match=r"metric\.csv:5: .*triangle.*"
                       r"d\('c', 'a'\) exceeds d\('c', 'b'\) \+ d\('b', 'a'\)"):
        load_grid(p, mp)
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0\n1.0,0.0,1.0\n"
                  "2.0,1.5,0.0\n")
    with pytest.raises(ValueError, match=r"metric\.csv: metric must be symmetric"):
        load_grid(p, mp)
    mp.write_text("# taskinfo-grid-metric v1\n0.0,1.0,2.0\n1.0,0.0,1.0\n"
                  "2.0,1.0,nan\n")
    with pytest.raises(ValueError, match=r"metric\.csv: grid values must be finite"):
        load_grid(p, mp)
    p.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\n"
                 "a,1.0,0.0\nb,inf,0.0\nc,3.0,0.0\n")
    with pytest.raises(ValueError, match=r"grid\.csv:4: loss and KL must be finite"):
        load_grid(p, mp)


def test_grid_file_duplicate_node_id_carries_line_number(tmp_path):
    g = staircase_grid()
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    save_grid(g, p, mp)
    p.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\n"
                 "a,1.0,0.0\nb,2.0,0.0\na,3.0,0.0\n")
    with pytest.raises(ValueError, match=r"grid\.csv:5: node id 'a' repeats line 3"):
        load_grid(p, mp)


def test_grid_file_wrong_header(tmp_path):
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    p.write_text("junk\n")
    mp.write_text("junk\n")
    with pytest.raises(ValueError, match=":1: expected"):
        load_grid(p, mp)


@pytest.mark.parametrize("bad", ["a,b", "x\ny", "x\r", "x\r\ny", "p q", "v\x0bt",
                                 "\x1c", "#x", "node_id7", "node_id"])
def test_save_grid_rejects_ids_that_do_not_round_trip(tmp_path, bad):
    g = line_grid([1.0, 2.0], [0.0, 1.0])
    g = PosteriorGrid(g.losses, g.kls, g.metric, ("ok", bad))
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    with pytest.raises(ValueError, match="node id"):
        save_grid(g, p, mp)
    assert not p.exists() and not mp.exists()


def test_save_grid_rejects_ids_equal_as_text(tmp_path):
    g = line_grid([1.0, 2.0], [0.0, 1.0])
    g = PosteriorGrid(g.losses, g.kls, g.metric, (1, "1"))
    p, mp = tmp_path / "grid.csv", tmp_path / "metric.csv"
    with pytest.raises(ValueError, match="node id '1'"):
        save_grid(g, p, mp)
    assert not p.exists() and not mp.exists()


def _naive_round_trip(ids, losses, kls, metric, directory):
    """Writes the grid file format without any id check; True if load_grid
    reads the same ids back."""
    p, mp = directory / "naive.csv", directory / "naive_metric.csv"
    p.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\n" + "".join(
        f"{i},{float(a)!r},{float(b)!r}\n" for i, a, b in zip(ids, losses, kls)),
        encoding="utf-8")
    mp.write_text("# taskinfo-grid-metric v1\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in metric),
        encoding="utf-8")
    try:
        return load_grid(p, mp).node_ids == tuple(ids)
    except ValueError:
        return False


PIECES = ["a", "b", "#", ",", " ", "\n", "\r", "\x0c", "\x1d", "\x85", " ",
          "node_id"]


@settings(max_examples=80, deadline=None)
@given(ids=st.lists(st.lists(st.sampled_from(PIECES), max_size=3).map("".join),
                    min_size=1, max_size=4, unique=True))
def test_save_grid_round_trips_exactly_or_refuses(tmp_path_factory, ids):
    tmp = tmp_path_factory.mktemp("grid")
    m = len(ids)
    g = line_grid(np.arange(m, dtype=float), np.zeros(m))
    g = PosteriorGrid(g.losses, g.kls, g.metric, tuple(ids))
    p, mp = tmp / "grid.csv", tmp / "metric.csv"
    if _naive_round_trip(ids, g.losses, g.kls, g.metric, tmp):
        save_grid(g, p, mp)
        assert load_grid(p, mp).node_ids == tuple(ids)
    else:
        with pytest.raises(ValueError, match="node id"):
            save_grid(g, p, mp)
        assert not p.exists() and not mp.exists()
