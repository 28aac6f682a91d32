"""Epsilon-local learning with annealing on a finite posterior grid.

A PosteriorGrid is an explicit finite set of candidate statistics, each with
a precomputed loss L(Q) and complexity KL(Q||P), plus a metric between
nodes. An epsilon-local step moves to the best Lagrangian value inside the
closed epsilon-ball around the current node; annealing alternates schedule
steps (beta decreases) with one local step each. When every global
minimizer at one schedule level has a global minimizer of the next level
within epsilon (the grid is epsilon-connected along the schedule), annealing
from a global minimizer of the first level provably ends at a global
minimizer of the last.

Also estimates Shannon's mutual information between grid nodes and sampled
datasets, and checks that the dataset-averaged posterior is the prior that
minimizes the expected information.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import textio
from .rng import stream
from .tasks import _freeze

__all__ = [
    "PosteriorGrid",
    "AnnealSchedule",
    "AnnealResult",
    "ConnectivityReport",
    "epsilon_local_step",
    "anneal",
    "check_epsilon_connected",
    "shannon_information_estimate",
    "ShannonEstimate",
    "gaussian_lattice_grid",
    "save_grid",
    "load_grid",
]


@dataclass(frozen=True)
class PosteriorGrid:
    """Finite statistic set: losses, complexities and a metric, all in NATS.

    The arrays are copied, so the caller's arrays stay writeable. The metric
    must be nonnegative with a zero diagonal, symmetric within 1e-9, and meet
    the triangle inequality within 1e-9: no fl(d(i,j) - fl(d(i,k) + d(k,j)))
    exceeds 1e-9. Checking that costs O(m^3) time and O(workers * block * m)
    extra memory (see ``_check_triangle``); a violation names its first pair
    (i, j) in row-major order, its shortcut node k and the excess. Node ids
    must be unique.
    """

    losses: np.ndarray        # (m,) L(Q) per node
    kls: np.ndarray           # (m,) KL(Q||P) per node
    metric: np.ndarray        # (m, m) symmetric, zero diagonal, triangle ok
    node_ids: tuple[str, ...] = ()

    def __post_init__(self):
        losses, kls, metric = (_freeze(a, np.float64)
                               for a in (self.losses, self.kls, self.metric))
        m = losses.shape[0]
        if kls.shape != (m,) or metric.shape != (m, m):
            raise ValueError("grid arrays must be (m,), (m,), (m, m)")
        ids = self.node_ids or tuple(str(i) for i in range(m))
        if len(ids) != m:
            raise ValueError("need one node id per node")
        if len(set(ids)) != m:
            raise ValueError("node ids must be unique")
        if not (np.isfinite(losses).all() and np.isfinite(kls).all()
                and np.isfinite(metric).all()):
            raise ValueError("grid values must be finite")
        if (metric < 0).any() or np.abs(np.diag(metric)).max(initial=0) > 0:
            raise ValueError("metric must be nonnegative with zero diagonal")
        symmetric = np.array_equal(metric, metric.T)
        if not symmetric and np.abs(metric - metric.T).max() > 1e-9:
            raise ValueError("metric must be symmetric")
        hit = _check_triangle(metric, symmetric)
        if hit is not None:
            i, j, k = (ids[n] for n in hit[:3])
            raise _TriangleError(
                f"metric violates the triangle inequality: d({i!r}, {j!r}) "
                f"exceeds d({i!r}, {k!r}) + d({k!r}, {j!r}) by {hit[3]:.6g}",
                row=hit[0])
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "kls", kls)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "node_ids", tuple(ids))

    def __len__(self) -> int:
        return len(self.losses)

    def lagrangian(self, beta: float) -> np.ndarray:
        return self.losses + beta * self.kls

    def global_minimizers(self, beta: float, atol: float = 1e-12) -> np.ndarray:
        values = self.lagrangian(beta)
        return np.flatnonzero(values <= values.min() + atol)

    @property
    def diameter(self) -> float:
        return float(self.metric.max(initial=0.0))


class _TriangleError(ValueError):
    """A triangle violation; ``row`` is the metric row of its pair's first node."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


# Rows per min-plus block: a block's d and t stay in cache, and each block is
# one task for a worker thread.
_TRIANGLE_BLOCK = 64


def _cores() -> int:
    """CPUs this process may run on: the triangle check's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _block_violation(metric: np.ndarray, lo: int, symmetric: bool):
    """First violating (i, j) in row-major order among the checked cells of
    the block of rows from lo (columns from lo on when symmetric), or None."""
    m = metric.shape[0]
    hi = min(lo + _TRIANGLE_BLOCK, m)
    first = lo if symmetric else 0
    left, right = metric[lo:hi], metric[:, first:]
    d = left[:, :1] + right[0]
    t = np.empty_like(d)
    for k in range(1, m):
        np.add(left[:, k:k + 1], right[k], out=t)
        np.minimum(d, t, out=d)
    bad = np.flatnonzero(metric[lo:hi, first:] - d > 1e-9)
    if not bad.size:
        return None
    i, j = divmod(int(bad[0]), m - first)
    return lo + i, first + j


def _check_triangle(metric: np.ndarray, symmetric: bool):
    """First (i, j, k, excess) with fl(M[i,j] - fl(M[i,k] + M[k,j])) > 1e-9,
    or None when the metric meets the triangle inequality within 1e-9.

    One blocked min-plus pass: for a block of rows, d[i,j] is the minimum
    over k of fl(M[i,k] + M[k,j]). Rounding is monotone, so fl(a - s) never
    grows with s, and some k violates the tolerance exactly when
    fl(M[i,j] - d[i,j]) > 1e-9; k is the first k that attains d[i,j]. An
    exactly symmetric metric has a symmetric set of violations, so each
    block checks only the columns from its first row on, and the first
    violation in row-major order is among the checked cells.

    The blocks run on one worker per core: the calling thread and
    min(cores, blocks) - 1 threads, and numpy releases the GIL inside each add
    and minimum. The threaded check is exact. Each block has its own d and t
    and the same arithmetic whichever thread runs it, and workers take blocks
    in row order and take none after a violation is found. So every block
    before a violating one has been checked, and the first violating block,
    hence the pair reported, is the same for any number of workers. Worker
    threads call only numpy and private helpers, and all of them have ended
    when this returns or raises.
    """
    m = metric.shape[0]
    starts = range(0, m, _TRIANGLE_BLOCK)
    todo = iter(starts)
    found, errors = [], []      # (i, j) of violating blocks; worker exceptions
    lock = threading.Lock()

    def take():
        with lock:
            return None if found or errors else next(todo, None)

    def work():
        try:
            for lo in iter(take, None):
                hit = _block_violation(metric, lo, symmetric)
                if hit is not None:
                    found.append(hit)
        except BaseException as exc:     # re-raised by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work)
               for _ in range(min(_cores(), len(starts)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    if not found:
        return None
    i, j = min(found)
    sums = metric[i] + metric[:, j]
    k = int(np.argmin(sums))
    return i, j, k, float(metric[i, j] - sums[k])


@dataclass(frozen=True)
class AnnealSchedule:
    """Nonincreasing betas beta_0 >= ... >= beta_n and a step radius."""

    betas: tuple[float, ...]
    epsilon: float

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise ValueError("schedule needs at least one beta")
        if any(b2 > b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("schedule betas must be nonincreasing")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        object.__setattr__(self, "betas", betas)

    @property
    def final_beta(self) -> float:
        return self.betas[-1]


def epsilon_local_step(g: PosteriorGrid, q0: int, beta: float,
                       epsilon: float) -> int:
    """argmin of the Lagrangian over the closed epsilon-ball around q0.

    q0 itself is always a candidate; ties break by (KL, node index).
    """
    if not 0 <= q0 < len(g):
        raise ValueError("q0 outside the grid")
    ball = np.flatnonzero(g.metric[q0] <= epsilon)
    values = g.lagrangian(beta)[ball]
    keys = sorted(zip(values, g.kls[ball], ball))
    return int(keys[0][2])


@dataclass(frozen=True)
class AnnealResult:
    final_node: int
    trajectory: tuple[tuple[float, int, float], ...]  # (beta, node, lagrangian)


def anneal(g: PosteriorGrid, s: AnnealSchedule, q_init: int) -> AnnealResult:
    """One epsilon-local step at each schedule beta, starting from q_init.

    The degenerate single-beta schedule means a single local step at that
    beta. The trajectory records the initial state then every step.
    """
    if not 0 <= q_init < len(g):
        raise ValueError("q_init outside the grid")
    q = q_init
    trajectory = [(s.betas[0], q, float(g.lagrangian(s.betas[0])[q]))]
    for beta in s.betas:
        q = epsilon_local_step(g, q, beta, s.epsilon)
        trajectory.append((beta, q, float(g.lagrangian(beta)[q])))
    return AnnealResult(final_node=q, trajectory=tuple(trajectory))


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    witness_chain: tuple[int, ...] = ()   # one global minimizer per level
    failing_index: int | None = None      # first i with a stranded minimizer
    stranded_node: int | None = None


def check_epsilon_connected(g: PosteriorGrid, s: AnnealSchedule
                            ) -> ConnectivityReport:
    """Is every level-i global minimizer within epsilon of a level-(i+1) one?

    Returns a witness chain of minimizers when connected, else the first
    failing schedule index and a stranded minimizer.
    """
    levels = [g.global_minimizers(beta) for beta in s.betas]
    for i in range(len(levels) - 1):
        nxt = levels[i + 1]
        for q in levels[i]:
            if not (g.metric[q, nxt] <= s.epsilon).any():
                return ConnectivityReport(False, failing_index=i,
                                          stranded_node=int(q))
    chain = [int(levels[0][0])]
    for i in range(len(levels) - 1):
        nxt = levels[i + 1]
        reachable = nxt[g.metric[chain[-1], nxt] <= s.epsilon]
        chain.append(int(reachable[0]))
    return ConnectivityReport(True, witness_chain=tuple(chain))


@dataclass(frozen=True)
class ShannonEstimate:
    mutual_information: float
    prior_is_optimal: bool       # mean posterior beat every alternative prior
    num_alternatives: int
    mean_posterior: np.ndarray


def _kl_discrete(q: np.ndarray, p: np.ndarray) -> float:
    mask = q > 0
    if (p[mask] <= 0).any():
        return math.inf
    return float((q[mask] * np.log(q[mask] / p[mask])).sum())


def shannon_information_estimate(task_sampler, trainer, trials: int, seed: int,
                                 prior_grid: int = 50) -> ShannonEstimate:
    """I(w; D) ~= E_D[ KL(Q(.|D) || Qbar) ], Qbar = mean of Q(.|D).

    ``task_sampler(trial_seed)`` draws a dataset; ``trainer(dataset)``
    returns a normalized distribution over grid nodes. Also verifies that
    Qbar minimizes the expected information against ``prior_grid`` random
    alternative priors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    posteriors = []
    for trial in range(trials):
        q = np.asarray(trainer(task_sampler(seed * 6151 + trial)),
                       dtype=np.float64)
        if q.ndim != 1 or abs(q.sum() - 1.0) > 1e-9 or (q < 0).any():
            raise ValueError("trainer must return a distribution over nodes")
        posteriors.append(q)
    posteriors = np.stack(posteriors)
    qbar = posteriors.mean(axis=0)
    info = float(np.mean([_kl_discrete(q, qbar) for q in posteriors]))
    rng = stream(seed, "prior-grid")
    ok = True
    for _ in range(prior_grid):
        alt = rng.dirichlet(np.ones(posteriors.shape[1]))
        mean_alt = float(np.mean([_kl_discrete(q, alt) for q in posteriors]))
        if mean_alt < info - 1e-9:
            ok = False
    return ShannonEstimate(mutual_information=info, prior_is_optimal=ok,
                           num_alternatives=prior_grid, mean_posterior=qbar)


# ---------------------------------------------------------------------------
# Grid builders and files


def gaussian_lattice_grid(h_diag, prior_scale: float, mu_grid, logsigma_grid
                          ) -> PosteriorGrid:
    """Grid of 1-parameter Gaussian statistics on a quadratic loss.

    Nodes are N(mu, sigma^2) posteriors for a single parameter with
    curvature h (loss = h (w - 0)^2 ... centered at the loss minimum), laid
    out on a (mu, log sigma) lattice with the Euclidean metric.
    """
    h = float(h_diag)
    lam2 = prior_scale * prior_scale
    nodes = [(float(mu), float(ls)) for mu in mu_grid for ls in logsigma_grid]
    losses, kls = [], []
    for mu, ls in nodes:
        var = math.exp(2.0 * ls)
        losses.append(h * (mu * mu + var))
        kls.append(0.5 * (mu * mu / lam2 + var / lam2
                          + math.log(lam2) - 2.0 * ls - 1.0))
    coords = np.array(nodes)
    metric = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    ids = tuple(f"mu{mu:g}/ls{ls:g}" for mu, ls in nodes)
    return PosteriorGrid(np.array(losses), np.array(kls), metric, ids)


def save_grid(g: PosteriorGrid, path, metric_path) -> None:
    """Versioned CSV of (node_id, loss_nats, kl_nats) + dense metric file.

    Raises ValueError, before writing either file, for a node id that
    load_grid would not read back as the same string, or as a distinct one.
    Both files go through one `textio.write`: neither is renamed over its
    target until both are written.
    """
    seen = set()
    for node in map(str, g.node_ids):
        if node in seen or not textio.is_cell(node) or node.startswith("node_id"):
            raise ValueError(f"node id {node!r} does not survive a save/load "
                             "round trip (comma, line break, leading '#' or "
                             "'node_id', or a repeat as text)")
        seen.add(node)
    lines = [textio.header("grid"), "node_id,loss_nats,kl_nats"]
    rows = [textio.header("grid-metric")]
    for i in range(len(g)):
        lines.append(f"{g.node_ids[i]},{float(g.losses[i])!r},{float(g.kls[i])!r}")
        rows.append(",".join(repr(float(v)) for v in g.metric[i]))
    textio.write({path: textio.join(lines), metric_path: textio.join(rows)})


def load_grid(path, metric_path) -> PosteriorGrid:
    """Read the files that save_grid writes.

    Every error is a ValueError that names its file, and its line where one
    line is at fault; a triangle violation names the line of its first node's
    metric row.
    """
    _, _, rows = textio.read(path, "grid")
    ids, losses, kls = {}, [], []     # ids: node id -> line
    for no, ln in rows:
        if ln.startswith(("#", "node_id")):
            continue
        cells = ln.split(",")
        if len(cells) != 3:
            textio.fail(path, no, f"expected 3 columns, got {len(cells)}")
        if cells[0] in ids:
            textio.fail(path, no, f"node id {cells[0]!r} repeats line {ids[cells[0]]}")
        try:
            loss, kl = float(cells[1]), float(cells[2])
        except ValueError:
            textio.fail(path, no, "bad number")
        if not (math.isfinite(loss) and math.isfinite(kl)):
            textio.fail(path, no, "loss and KL must be finite")
        losses.append(loss)
        kls.append(kl)
        ids[cells[0]] = no
    if not ids:
        raise ValueError(f"{path}: no nodes")
    _, _, mrows = textio.read(metric_path, "grid-metric")
    m = len(ids)
    metric = np.empty((m, m))
    r, row_lines = 0, []              # row_lines: metric row -> line
    for no, ln in mrows:
        if ln.startswith("#"):
            continue
        cells = ln.split(",")
        if r == m:
            textio.fail(metric_path, no, f"more than {m} metric rows")
        if len(cells) != m:
            textio.fail(metric_path, no, f"expected {m} columns, got {len(cells)}")
        try:
            metric[r] = np.fromiter(map(float, cells), np.float64, count=m)
        except ValueError:
            textio.fail(metric_path, no, "bad number")
        r += 1
        row_lines.append(no)
    if r != m:
        raise ValueError(f"{metric_path}: metric shape ({r}, {m}) does not "
                         f"match {m} nodes")
    try:
        return PosteriorGrid(np.array(losses), np.array(kls), metric, tuple(ids))
    except _TriangleError as exc:
        textio.fail(metric_path, row_lines[exc.row], exc)
    except ValueError as exc:
        raise ValueError(f"{metric_path}: {exc}") from None
