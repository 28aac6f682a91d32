"""Independent reference oracles used by the tests.

These re-derive results by direct definition (exhaustive enumeration,
finite differences, quadrature) without touching the library's optimized
paths, so agreement is meaningful.
"""

import itertools
import math

import numpy as np

from taskinfo import finite_oracle as fo
from taskinfo.models import (
    MlpParams,
    TrainingDiverged,
    dataset_loss,
    gradient,
    init_params,
    unflatten_params,
)
from taskinfo.rng import stream
from taskinfo.rules import GROUP_TAG
from taskinfo.variational import (
    FisherDiagonal,
    GaussianPosterior,
    VariationalResult,
    kl_gaussian,
    prior_matched_posterior,
    vector_architecture,
)


def naive_candidates(d, fam, beta):
    """Every (rule, pinned-subset) variant with its exact Lagrangian value.

    Enumerates subsets of pure input groups directly and prices them with
    the public extension_cost formula. Returns (value, cost, rule, pins).
    """
    xs, inverse = np.unique(d.inputs, return_inverse=True)
    u = len(xs)
    groups = [np.flatnonzero(inverse == g) for g in range(u)]
    pure = [g for g in range(u) if len(set(d.labels[groups[g]])) == 1]
    out = []
    for r in range(len(fam)):
        table = fam.tables[r]
        nll = [(-math.log(p) if p > 0 else fo.INF_NATS)
               for p in table[d.inputs, d.labels]]
        for s in range(len(pure) + 1):
            cost = fam.costs[r] + fo.extension_cost(u, s, fam.num_labels)
            for subset in itertools.combinations(pure, s):
                pinned = set()
                for g in subset:
                    pinned.update(groups[g].tolist())
                loss = math.fsum(nll[i] for i in range(d.n) if i not in pinned)
                pins = frozenset(
                    (int(xs[g]), int(d.labels[groups[g][0]])) for g in subset)
                out.append((loss + beta * cost, cost, r, pins))
    return out


def naive_min(d, fam, beta):
    cand = naive_candidates(d, fam, beta)
    value = min(c[0] for c in cand)
    ties = {(r, pins) for v, _, r, pins in cand if v <= value + fo.TIE_ATOL}
    return value, ties


def dense_screening(d, tables):
    """The oracle's candidate screen over dense (R, M, K) tables.

    Group losses come from one einsum over the (R, u, K) slice of the
    tables, pin orders from a stable argsort of every rule's pure-group
    losses, and approximate losses from their suffix sums. Returns
    (group_loss, pin_order, approx_loss).
    """
    xs, inverse = np.unique(d.inputs, return_inverse=True)
    u, r, k = len(xs), tables.shape[0], tables.shape[2]
    counts = np.zeros((u, k))
    np.add.at(counts, (inverse, d.labels), 1.0)
    pure = (counts > 0).sum(axis=1) == 1
    if u:
        t = tables[:, xs, :]
        nl = np.where(t > 0, -np.log(np.maximum(t, 1e-300)), fo.INF_NATS)
        group_loss = np.einsum("gk,rgk->rg", counts, nl)
    else:
        group_loss = np.zeros((r, 0))
    mixed_loss = group_loss[:, ~pure].sum(axis=1)
    pure_idx = np.flatnonzero(pure)
    pure_loss = group_loss[:, pure_idx]
    order = np.argsort(-pure_loss, axis=1, kind="stable")
    sorted_desc = np.take_along_axis(pure_loss, order, axis=1)
    rev_cumsum = np.cumsum(sorted_desc[:, ::-1], axis=1)[:, ::-1]
    suffix = np.concatenate([rev_cumsum, np.zeros((r, 1))], axis=1)
    return group_loss, pure_idx[order], mixed_loss[:, None] + suffix


SCREEN_REL = 1e-6    # the screen's relative window, restated on its own


def screen_margin(vmin):
    """Width of the exact re-check window above an approximate minimum:
    1e-6 relative plus TIE_ATOL, stated here apart from the library's
    `_screen_margin` so that a change to either shows."""
    return SCREEN_REL * (1.0 + abs(vmin)) + fo.TIE_ATOL


# The R-wide screen that the oracle's pruned screens replace: one row per
# rule and one column per pin count. A value set on the candidates under
# the member's name (a dense twin's tables) is used as it stands.


def candidate_costs(cand):
    """(R, n_pure+1) code length of every candidate (r, s)."""
    return cand.fam.costs[:, None] + cand.ext[None, :]


def group_loss(cand):
    """(R, u) loss of every rule on every input group."""
    if "group_loss" not in vars(cand):
        cand.group_loss = cand._group_rows(np.arange(len(cand.fam)))
    return cand.group_loss


def approx_loss(cand):
    """(R, n_pure+1) approximate loss of every candidate (r, s)."""
    if "approx_loss" not in vars(cand):
        cand.approx_loss = cand._approx_rows(np.arange(len(cand.fam)))
    return cand.approx_loss


def zero_cost(cand):
    """c*: the least cost of a candidate with a table (not a pair rule's)
    whose approximate loss is exactly 0.0; inf when there is none."""
    fam = cand.fam
    nf = len(fam._flat if fam._flat is not None else fam)
    zero = approx_loss(cand)[:nf] == 0.0
    return candidate_costs(cand)[:nf][zero].min(initial=np.inf)


def unbeaten(cand, beta, shortlist):
    """The (r, s) of ``shortlist`` that no zero-loss candidate beats on
    cost: at beta = 0 with no table value above 1, those no dearer than c*
    (`zero_cost`), whose exact loss, 0, is the least there is."""
    shortlist = set(shortlist)
    if beta != 0.0 or cand.fam._peak() > 1.0:
        return shortlist
    costs, c_zero = candidate_costs(cand), zero_cost(cand)
    return {(r, s) for r, s in shortlist if costs[r, s] <= c_zero}


def screens(cand, beta):
    """(first rule, values) for blocks of _ROWS rules, every rule: the
    approximate loss + beta * cost of their candidates, in the float
    operations of the oracle's screen."""
    approx = approx_loss(cand)
    for lo in range(0, len(cand.fam), fo._ROWS):
        values = cand.fam.costs[lo:lo + fo._ROWS, None] + cand.ext[None, :]
        values *= beta
        values += approx[lo:lo + fo._ROWS]
        yield lo, values


def frontier(cand):
    """(cost, approx) of the candidates on the (cost, approx_loss) Pareto
    frontier, the constant rules unpinned (s = 0) left out.

    For each pin count s, the rules in stable cost order keep the points
    where the running minimum of approx_loss[:, s] strictly drops. Every
    other candidate has a frontier point of no larger cost and approx, so
    for any beta >= 0 the frontier holds the minimum of approx + beta * cost
    over all candidates but those constants.
    """
    order = np.argsort(cand.fam.costs, kind="stable")
    costs = cand.fam.costs[order]
    cost, approx = [], []
    for s in range(cand.n_pure + 1):
        col = approx_loss(cand)[order, s]
        if s == 0:
            col[cand.fam.is_constant[order]] = np.inf
        run = np.minimum.accumulate(col)
        drop = run < np.concatenate([[np.inf], run[:-1]])
        cost.append(costs[drop] + cand.ext[s])
        approx.append(run[drop])
    return np.concatenate(cost), np.concatenate(approx)


def frontier_critical_beta(d, fam, tol_bisect=1e-3):
    """critical_beta deciding each midpoint from the R-wide frontier: "not
    realized" when the best constant's exact value lies more than the
    margin plus TIE_ATOL above the frontier's minimum, "realized" when that
    minimum less the margin is not below it, the exact minimum otherwise."""
    cand = fo._Candidates(d, fam)
    const_rules = np.flatnonzero(fam.is_constant)
    const_loss = cand.exact_losses(const_rules, np.zeros_like(const_rules)).tolist()
    const_cost = (fam.costs[const_rules] + cand.ext[0]).tolist()
    f_cost, f_approx = frontier(cand)

    def constant_realized(beta):
        vconst = min(loss + beta * cost for loss, cost in zip(const_loss, const_cost))
        v_other = float((f_cost * beta + f_approx).min(initial=np.inf))
        margin = screen_margin(v_other)
        if vconst > v_other + margin + fo.TIE_ATOL:
            return False
        if v_other - margin >= vconst:
            return True
        vmin, _ = cand.minimize(beta)
        return vconst <= vmin + fo.TIE_ATOL

    return _bisect_crossing(constant_realized, tol_bisect)


def screened_beta_sufficient_statistics(d, fam, beta, tol, max_results=10_000):
    """beta_sufficient_statistics shortlisting every candidate of the R-wide
    screen within limit + 1e-6 (1 + |limit|), limit = min + tol + TIE_ATOL."""
    cand = fo._Candidates(d, fam)
    vmin, _ = cand.minimize(beta)
    limit = vmin + tol + fo.TIE_ATOL
    margin = SCREEN_REL * (1.0 + abs(limit))
    found = []
    for lo, values in screens(cand, beta):
        for r, s in np.argwhere(values <= limit + margin).tolist():
            r += lo
            cost = float(fam.costs[r] + cand.ext[s])
            for pin_groups in _pin_sets_within(cand, r, s, limit - beta * cost):
                loss = cand.exact_loss(r, pin_groups)
                if loss + beta * cost <= limit:
                    found.append((cost, r, s, tuple(int(g) for g in sorted(pin_groups)),
                                  loss + beta * cost))
                    if len(found) > max_results:
                        raise fo.NoHypothesisError(
                            "too many sufficient statistics to enumerate")
    found.sort(key=lambda e: (e[1], e[2], e[3]))
    min_cost = min(e[0] for e in found)
    return [fo.BetaStatistic(
        cand.hypothesis_for(r, s, np.array(pins, dtype=np.int64)), fo._report(value),
        is_minimal=cost <= min_cost + fo.TIE_ATOL)
        for cost, r, s, pins, value in found]


def _pin_sets_within(cand, r, s, budget):
    """s-subsets of pure groups whose variant's approximate loss is within
    the screen's window of ``budget``, by a branch-and-bound walk over the
    groups to leave unpinned, from the smallest loss up."""
    group = group_loss(cand)[r]
    order = cand.pin_order[r][::-1]
    glosses = group[order]
    leave = len(order) - s
    room = (budget + SCREEN_REL * (1.0 + abs(budget)) + fo.TIE_ATOL
            - float(approx_loss(cand)[r, -1]))
    prefix = np.concatenate([[0.0], np.cumsum(glosses)])
    results = []

    def rec(start, left, acc):
        if len(left) == leave:
            if acc <= room:
                results.append(np.delete(order, left))
            return
        remaining = leave - len(left)
        for i in range(start, len(glosses) - remaining + 1):
            if acc + (prefix[i + remaining] - prefix[i]) > room:
                break
            rec(i + 1, left + [i], acc + float(glosses[i]))

    rec(0, [], 0.0)
    return results


def _bisect_crossing(constant_realized, tol_bisect):
    """critical_beta's bracket and bisection around a realized test."""
    if constant_realized(0.0):
        return 0.0
    hi = 1.0
    while not constant_realized(hi):
        hi *= 2.0
        if hi > 2.0 ** 40:
            raise RuntimeError("failed to bracket the critical beta")
    lo = 0.0
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        if constant_realized(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_exact_losses(cand, rules, counts):
    """Exact loss of each candidate (rules[j], counts[j]) by definition: the
    rule's table (fam.hypothesis(r).table, built here for all the distinct
    rules at once), the samples of the first counts[j] groups of its pin
    order left out, and one math.fsum of the per-sample -ln p (INF_NATS
    where p = 0) over the rest."""
    distinct = np.unique(rules)
    tables = dict(zip(distinct.tolist(), cand.fam._tables_of(distinct)))
    orders = dict(zip(distinct.tolist(), cand.pin_order[distinct].tolist()))
    samples = list(zip(cand.d.inputs.tolist(), cand.d.labels.tolist(),
                       cand.inverse.tolist()))
    out = np.empty(len(rules))
    for j, (r, count) in enumerate(zip(rules.tolist(), counts.tolist())):
        pinned = set(orders[r][:count])
        terms = []
        for x, y, g in samples:
            if g not in pinned:
                p = float(tables[r][x, y])
                terms.append(-math.log(p) if p > 0.0 else fo.INF_NATS)
        out[j] = math.fsum(terms)
    return out


def reference_minimize(cand, beta, cost_cap=None):
    """_Candidates.minimize from the R-wide screen, every shortlisted row
    re-checked by fsum: (value, (cost, r, s)), or (inf, None) when nothing
    is under the cap."""
    vmin, near = math.inf, []
    for lo, values in screens(cand, beta):
        if cost_cap is not None:
            at = np.arange(lo, lo + len(values))
            over = ~(cand.fam.costs[at, None] + cand.ext[None, :] <= cost_cap)
            values[over] = np.inf
        vmin = min(vmin, float(values.min()))
        if math.isfinite(vmin):
            r, s = np.nonzero(values <= vmin + screen_margin(vmin))
            near.append((lo + r, s, values[r, s]))
    if not math.isfinite(vmin):
        return math.inf, None
    r, s, v = (np.concatenate(a) for a in zip(*near))
    close = v <= vmin + screen_margin(vmin)
    r, s = r[close], s[close]
    cost = cand.fam.costs[r] + cand.ext[s]
    exact = reference_exact_losses(cand, r, s) + beta * cost
    best = float(exact.min())
    tie = np.flatnonzero(exact <= best + fo.TIE_ATOL)
    j = tie[np.lexsort((s[tie], r[tie], cost[tie]))[0]]
    return best, (float(cost[j]), int(r[j]), int(s[j]))


def reference_critical_beta(d, fam, tol_bisect=1e-3):
    """critical_beta with an exact Lagrangian minimum at every midpoint."""
    cand = fo._Candidates(d, fam)
    const_rules = np.flatnonzero(fam.is_constant)
    const_loss = reference_exact_losses(
        cand, const_rules, np.zeros_like(const_rules)).tolist()
    const_cost = (fam.costs[const_rules] + cand.ext[0]).tolist()

    def constant_realized(beta):
        vmin, _ = reference_minimize(cand, beta)
        vconst = min(loss + beta * cost for loss, cost in zip(const_loss, const_cost))
        return vconst <= vmin + fo.TIE_ATOL

    return _bisect_crossing(constant_realized, tol_bisect)


def naive_family(space, k, noise_grid=(0.05, 0.1, 0.2)):
    """Structured family built one rule at a time: (names, costs, tables).

    Mirrors the module docstring's enumeration with a table per rule and a
    child record per pair rule, without the library's array builder.
    """
    rules = _naive_rules(space, k, tuple(noise_grid))
    return ([r[0] for r in rules], np.array([r[1] for r in rules]),
            np.stack([r[2] for r in rules]))


def _pad_rows(table, rows):
    k = table.shape[1]
    return np.vstack([table, np.full((rows - table.shape[0], k), 1.0 / k)])


def _naive_rules(space, k, noise_grid):
    """[name, cost, table, children]; children of a pair rule are
    ((left space, left rule), (right space, right rule))."""
    rules = _naive_flat(space.size, k, noise_grid)
    if space.parts is None:
        return rules
    mmax = space.size // 2
    for r in rules:
        r[0] = f"flat[{r[0]}]"
        r[1] += fo.PAIR_FLAG
    left_part, right_part = space.parts
    left = _naive_rules(left_part.space, k, noise_grid)
    right = _naive_rules(right_part.space, k, noise_grid)
    base = fo.PAIR_FLAG + fo.PAIR_KIND
    for a in left:
        for b in right:
            rules.append([f"pair({a[0]}|{b[0]})", base + a[1] + b[1],
                          np.vstack([_pad_rows(a[2], mmax), _pad_rows(b[2], mmax)]),
                          ((left_part.space, a), (right_part.space, b))])
    if left_part.space == right_part.space:
        for a in left:
            rules.append([f"pair({a[0]}|=)", base + a[1],
                          np.vstack([_pad_rows(a[2], mmax), _pad_rows(a[2], mmax)]),
                          ((left_part.space, a), (right_part.space, a))])
    for a in left:
        for which, (child_space, child) in enumerate(a[3] or ()):
            if child_space != right_part.space:
                continue
            rules.append([f"pair({a[0]}|<{which}])", base + a[1] + fo.PAIR_CHILD,
                          np.vstack([_pad_rows(a[2], mmax),
                                     _pad_rows(child[2], mmax)]),
                          ((left_part.space, a), (right_part.space, child))])
    return rules


def _naive_flat(m, k, noise_grid):
    bits = max(1, int(math.ceil(math.log2(m))) if m > 1 else 1)
    smooth_tag = math.log(1 + len(noise_grid)) if noise_grid else 0.0
    xs = np.arange(m)
    det = []
    for c in range(k):
        table = np.zeros((m, k))
        table[:, c] = 1.0
        det.append([f"const{c}", GROUP_TAG + math.log(k) + smooth_tag, table, None])
    for j in range(bits):
        for inv in (0, 1):
            table = np.zeros((m, k))
            table[xs, ((xs >> j) & 1) ^ inv] = 1.0
            det.append([f"bit{j}" + ("~inv" if inv else ""),
                        GROUP_TAG + math.log(bits) + fo.LN2 + smooth_tag,
                        table, None])
    for mask in range(2 ** bits):
        for inv in (0, 1):
            par = np.zeros(m, dtype=np.int64)
            v = xs & mask
            while v.any():
                par ^= v & 1
                v >>= 1
            table = np.zeros((m, k))
            table[xs, par ^ inv] = 1.0
            det.append([f"parity{mask:03d}" + ("~inv" if inv else ""),
                        GROUP_TAG + bits * fo.LN2 + fo.LN2 + smooth_tag,
                        table, None])
    rules = [["uniform", GROUP_TAG, np.full((m, k), 1.0 / k), None]] + det
    for name, cost, table, _ in det:
        for q in noise_grid:
            rules.append([f"{name}~q{q:g}", cost,
                          table * (1.0 - q) + (1.0 - table) * (q / (k - 1)), None])
    return rules


def loop_flat_rules(space, k, noise_grid):
    """HypothesisFamily's flat rules built one rule at a time, as before the
    array builder: (names, costs, tables)."""
    m, bits = space.size, space.bits
    nq = len(noise_grid)
    smooth_tag = math.log(1 + nq) if nq else 0.0
    xs = np.arange(m)
    names, costs, labels = [], [], []     # deterministic rules
    for c in range(k):
        names.append(f"const{c}")
        costs.append(GROUP_TAG + math.log(k) + smooth_tag)
        labels.append(np.full(m, c))
    for j in range(bits):
        for inv in (0, 1):
            names.append(f"bit{j}" + ("~inv" if inv else ""))
            costs.append(GROUP_TAG + math.log(bits) + fo.LN2 + smooth_tag)
            labels.append(((xs >> j) & 1) ^ inv)
    for mask in range(2 ** bits):
        par = np.zeros(m, dtype=np.int64)
        for j in range(bits):
            par ^= ((xs & mask) >> j) & 1
        for inv in (0, 1):
            names.append(f"parity{mask:03d}" + ("~inv" if inv else ""))
            costs.append(GROUP_TAG + bits * fo.LN2 + fo.LN2 + smooth_tag)
            labels.append(par ^ inv)
    det = np.zeros((len(names), m, k))
    det[np.arange(len(names))[:, None], xs, np.array(labels)] = 1.0
    noisy = [det * (1.0 - q) + (1.0 - det) * (q / (k - 1)) for q in noise_grid]
    tables = np.concatenate(
        [np.full((1, m, k), 1.0 / k), det]
        + ([np.stack(noisy, axis=1).reshape(-1, m, k)] if nq else []))
    return (["uniform"] + names + [f"{n}~q{q:g}" for n in names for q in noise_grid],
            np.array([GROUP_TAG] + costs + [c for c in costs for _ in noise_grid]),
            tables)


def coded_flat_rules(space, k, noise_grid):
    """HypothesisFamily's flat rules as the family built them before the rule
    table moved to ``taskinfo.rules``: (names, costs, values, codes), with
    the parity labels built by doubling and the codes filled in place."""
    m, bits = space.size, space.bits
    q = np.array(noise_grid, dtype=np.float64)
    smooth_tag = math.log(1 + len(q)) if len(q) else 0.0
    small = np.min_scalar_type(k)
    xs, inv = np.arange(m), np.array([[0], [1]], dtype=small)
    bit = (xs >> np.arange(bits)[:, None] & 1).astype(small)
    parity = np.zeros((1, m), dtype=small)
    for j in range(bits):
        parity = np.concatenate([parity, parity ^ bit[j]])
    labels = np.concatenate([
        np.repeat(np.arange(k, dtype=small)[:, None], m, axis=1),
        (bit[:, None] ^ inv).reshape(-1, m), (parity[:, None] ^ inv).reshape(-1, m)])
    names = [f"const{c}" for c in range(k)] + [
        f"{rule}{t}" for rule in [f"bit{j}" for j in range(bits)]
        + [f"parity{mask:03d}" for mask in range(2 ** bits)] for t in ("", "~inv")]
    suffixes = [f"~q{v:g}" for v in noise_grid]
    costs = np.repeat([GROUP_TAG + math.log(k) + smooth_tag,
                       GROUP_TAG + math.log(bits) + fo.LN2 + smooth_tag,
                       GROUP_TAG + bits * fo.LN2 + fo.LN2 + smooth_tag],
                      [k, 2 * bits, 2 ** (bits + 1)])
    rules = 1 + len(names) * (1 + len(q))
    slot = [1.0 / k] + [v + 0.0 for x in [0.0, *q.tolist()] for v in (x / (k - 1), 1 - x)]
    values = np.array(sorted(set(slot)))
    codes, nd = np.empty((rules, m, k), dtype=np.min_scalar_type(len(values))), len(names)
    slot = np.searchsorted(values, slot).astype(codes.dtype)
    codes[0] = slot[0]
    noisy = codes[1 + nd:].reshape(nd, len(q), m, k)
    hot = np.empty((nd, m, k), dtype=np.uint8)
    for c in range(k):
        np.equal(labels, c, out=hot[..., c], casting="unsafe")
    delta = slot[2::2] - slot[1::2]
    for j, block in enumerate([codes[1:1 + nd], *noisy.swapaxes(0, 1)]):
        np.multiply(hot, delta[j], out=block)
        block += slot[2 * j + 1]
    return (["uniform"] + names + [n + q for n in names for q in suffixes],
            np.concatenate([[GROUP_TAG], costs, costs.repeat(len(q))]), values, codes)


def finite_difference_gradient(fn, vec, step=1e-5):
    """Central differences of a scalar function of a vector."""
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2 * step)
    return grad


def relative_errors(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / scale


def gaussian_kl_quadrature(mu, var, lam, lo=-60.0, hi=60.0, points=400_001):
    """1-d KL(N(mu, var) || N(0, lam^2)) by trapezoid quadrature."""
    xs = np.linspace(lo, hi, points)
    q = np.exp(-0.5 * (xs - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)
    logq = -0.5 * (xs - mu) ** 2 / var - 0.5 * math.log(2 * math.pi * var)
    logp = -0.5 * xs ** 2 / lam ** 2 - 0.5 * math.log(2 * math.pi * lam ** 2)
    integrand = q * (logq - logp)
    return float(np.trapezoid(integrand, xs))


def naive_triangle_ok(metric):
    """Triangle inequality within 1e-9, one intermediate node k at a time.

    True unless some fl(M[i,j] - fl(M[i,k] + M[k,j])) exceeds 1e-9.
    """
    m = metric.shape[0]
    for k in range(m):
        if (metric - (metric[:, k:k + 1] + metric[k:k + 1, :]) > 1e-9).any():
            return False
    return True


def first_triangle_violation(metric):
    """(i, j, k) of the first pair (i, j) in row-major order that violates
    the triangle inequality by more than 1e-9, or None.

    k is the first node with the least fl(M[i,k] + M[k,j]), one cell at a time.
    """
    m = metric.shape[0]
    for i in range(m):
        for j in range(m):
            sums = [float(metric[i, k]) + float(metric[k, j]) for k in range(m)]
            k = sums.index(min(sums))
            if float(metric[i, j]) - sums[k] > 1e-9:
                return i, j, k
    return None


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _logits(p: MlpParams, x: np.ndarray):
    """Returns (logits, list of post-ReLU activations per hidden layer)."""
    hs, h = [x], x
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        hs.append(h)
    return h @ p.weights[-1] + p.biases[-1], hs


def naive_loss_and_grad(arch, x, y, w, clip=None):
    """Total cross-entropy of one flat weight vector and its gradient, one
    MlpParams and one backprop per draw. Per-sample losses above ``clip``
    count as ``clip`` and get zero gradient."""
    p = unflatten_params(w, arch)
    z, hs = _logits(p, x)
    logp = _log_softmax(z)
    n = x.shape[0]
    nll = -logp[np.arange(n), y]
    loss = float((nll if clip is None else np.minimum(nll, clip)).sum()) if n else 0.0
    delta = np.exp(logp)
    if n:
        delta[np.arange(n), y] -= 1.0
    if clip is not None:
        delta[nll > clip] = 0.0
    grads = []
    gws = [None] * len(p.weights)
    gbs = [None] * len(p.biases)
    for layer in range(len(p.weights) - 1, -1, -1):
        gws[layer] = hs[layer].T @ delta
        gbs[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ p.weights[layer].T) * (hs[layer] > 0)
    for gw, gb in zip(gws, gbs):
        grads.append(gw.ravel())
        grads.append(gb)
    return loss, np.concatenate(grads)


def naive_clipped_expected_loss(q, d, mc, seed):
    """bounds.clipped_expected_loss one draw at a time."""
    if d.n == 0:
        return 0.0
    lmax = math.log(d.num_labels)
    eps = stream(seed, "clipped-loss").standard_normal((mc, q.k))
    totals = np.empty(mc)
    for i, w in enumerate(q.mean[None, :] + q.sigma[None, :] * eps):
        p = unflatten_params(w, q.arch)
        logp = _log_softmax(_logits(p, d.inputs)[0])
        per_sample = -logp[np.arange(d.n), d.labels]
        totals[i] = np.minimum(per_sample, lmax).sum() / lmax
    return float(totals.mean())


def reference_optimize(model, beta, prior, cfg, init=None, seed=0, arch=None):
    """variational.optimize_gaussian as a per-run loop, one step at a time:
    the optimizer before lockstep runs. Returns a VariationalResult or
    raises TrainingDiverged."""
    if arch is None:
        arch = getattr(model, "arch", None) or vector_architecture(model.k)
    q = init if init is not None else prior_matched_posterior(arch, prior)
    mu, lv = np.array(q.mean), np.array(q.log_var)
    lam2 = prior.scale * prior.scale
    lr_lv = (cfg.learning_rate if cfg.logvar_learning_rate is None
             else cfg.logvar_learning_rate)
    denom = float(getattr(model, "n", 0) or 1)
    lv_lo, lv_hi = math.log(lam2) - 46.0, math.log(lam2) + 4.6
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            sigma = np.exp(0.5 * lv)
            var = sigma * sigma
            if model.exact_gaussian:
                eloss = model.expected_loss(mu, var)
                gmu, glv = model.expected_grads(mu, var)
            else:
                eps = stream(seed, "vi-step", step).standard_normal(
                    (cfg.mc_samples, mu.shape[0]))
                losses, grads = model.loss_and_grad(mu + sigma * eps)
                gmu = grads.mean(axis=0)
                glv = (grads * eps).mean(axis=0) * sigma * 0.5
                eloss = float(losses.mean())
            gmu = (gmu + beta * mu / lam2) / denom
            glv = (glv + beta * 0.5 * (var / lam2 - 1.0)) / denom
            norm = math.sqrt(float(gmu @ gmu + glv @ glv))
            if cfg.grad_clip is not None and norm > cfg.grad_clip:
                gmu, glv = gmu * (cfg.grad_clip / norm), glv * (cfg.grad_clip / norm)
            mu -= cfg.learning_rate * gmu
            lv = np.clip(lv - lr_lv * glv, lv_lo, lv_hi)
            if not (np.isfinite(mu).all() and np.isfinite(lv).all()
                    and math.isfinite(eloss)):
                raise TrainingDiverged(
                    f"posterior optimization diverged at step {step}",
                    last_params=GaussianPosterior(
                        np.nan_to_num(mu), np.clip(np.nan_to_num(lv), -60, 60), arch),
                    trace=trace)
            if step % cfg.trace_every == 0 or step == cfg.steps - 1:
                kl_now = kl_gaussian(GaussianPosterior(mu, lv, arch), prior)
                trace.append((float(eloss), float(kl_now)))
    out = GaussianPosterior(mu, lv, arch)
    if model.exact_gaussian:
        final, se = model.expected_loss(mu, np.exp(lv)), 0.0
    else:
        eps = stream(seed, "vi-report").standard_normal((cfg.report_mc, out.k))
        losses = model.loss_and_grad(out.mean + out.sigma * eps, grad=False)[0]
        final = float(losses.mean())
        se = (float(losses.std(ddof=1)) / math.sqrt(cfg.report_mc)
              if cfg.report_mc > 1 else math.nan)
    return VariationalResult(posterior=out, expected_loss=final,
                             kl=kl_gaussian(out, prior), trace=tuple(trace),
                             expected_loss_se=se)


def reference_fisher_diagonal(p, d, mode="exact", seed=0):
    """variational.fisher_diagonal as its own per-layer backprop over the
    (sample, unit) activations, one pass per label set: the Fisher diagonal
    before it ran through the blocked kernel."""
    x, y_data = d.inputs, d.labels
    n = d.n
    if n == 0:
        return FisherDiagonal(np.zeros(p.num_params), 0)
    z, hs = _logits(p, x)
    probs = np.exp(_log_softmax(z))
    k_out = probs.shape[1]

    if mode == "sampled":
        rng = stream(seed, "fisher-sample")
        cdf = np.cumsum(probs, axis=1)
        draws = (rng.random((n, 1)) > cdf).sum(axis=1)
        draws = np.minimum(draws, k_out - 1)
        label_sets = [(draws, np.ones(n))]
    elif mode == "exact":
        label_sets = [(np.full(n, c), probs[:, c]) for c in range(k_out)]
    else:
        raise ValueError(f"unknown fisher mode {mode!r}")

    acc = [np.zeros_like(w) for w in p.weights], \
          [np.zeros_like(b) for b in p.biases]
    for labels, weight in label_sets:
        # per-sample gradient of ln p(labels | x); delta at the logits
        delta = -probs.copy()
        delta[np.arange(n), labels] += 1.0
        for layer in range(len(p.weights) - 1, -1, -1):
            h = hs[layer]
            acc[0][layer] += np.einsum("i,ia,ib->ab", weight, h * h,
                                       delta * delta)
            acc[1][layer] += weight @ (delta * delta)
            if layer > 0:
                delta = (delta @ p.weights[layer].T) * (hs[layer] > 0)
    flat = np.concatenate([a.ravel() for pair in zip(acc[0], acc[1])
                           for a in pair])
    return FisherDiagonal(entries=flat / n, n=n)


def _gradient_arrays(p, x, y):
    """Backprop gradient of the summed cross-entropy over (x, y), as weight
    and bias arrays (models.gradient)."""
    g = gradient(p, (x, y))
    return g.weights, g.biases


def reference_sgd_train(d, arch, cfg, init=0):
    """models.sgd_train with one MlpParams per minibatch and a per-layer
    update, as before it stepped one flat vector. Returns (params, trace)
    or raises TrainingDiverged."""
    x, y = d.inputs, d.labels
    params = init if isinstance(init, MlpParams) else init_params(arch, init)
    batch = min(cfg.batch_size, max(1, d.n))
    lr = cfg.learning_rate
    trace = []
    # overflow shows up as non-finite state and is reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if epoch in cfg.decay_epochs:
                lr *= cfg.decay_factor
            order = stream(cfg.seed, "sgd-shuffle", epoch).permutation(d.n)
            for start in range(0, d.n, batch):
                idx = order[start:start + batch]
                # gradient refuses a non-finite gradient, which would make
                # the step non-finite too
                try:
                    gws, gbs = _gradient_arrays(params, x[idx], y[idx])
                except ValueError as exc:
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch}",
                        last_params=params, trace=trace) from exc
                ws = tuple(w - lr * (gw + cfg.weight_decay * w)
                           for w, gw in zip(params.weights, gws))
                bs = tuple(b - lr * (gb + cfg.weight_decay * b)
                           for b, gb in zip(params.biases, gbs))
                if any(not np.isfinite(a).all() for a in ws + bs):
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch}",
                        last_params=params, trace=trace)
                params = MlpParams(ws, bs)
            loss = dataset_loss(params, d)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}",
                    last_params=params, trace=trace)
            trace.append(loss)
    return params, tuple(trace)
