"""Independent reference oracles used by the tests.

These re-derive results by direct definition (exhaustive enumeration,
finite differences, quadrature) without touching the library's optimized
paths, so agreement is meaningful.
"""

import itertools
import math

import numpy as np

from taskinfo import finite_oracle as fo
from taskinfo.models import TrainingDiverged, _log_softmax, _logits, unflatten_params
from taskinfo.rng import stream
from taskinfo.variational import (
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
        det.append([f"const{c}", fo._GROUP_TAG + math.log(k) + smooth_tag, table, None])
    for j in range(bits):
        for inv in (0, 1):
            table = np.zeros((m, k))
            table[xs, ((xs >> j) & 1) ^ inv] = 1.0
            det.append([f"bit{j}" + ("~inv" if inv else ""),
                        fo._GROUP_TAG + math.log(bits) + fo.LN2 + smooth_tag,
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
                        fo._GROUP_TAG + bits * fo.LN2 + fo.LN2 + smooth_tag,
                        table, None])
    rules = [["uniform", fo._GROUP_TAG, np.full((m, k), 1.0 / k), None]] + det
    for name, cost, table, _ in det:
        for q in noise_grid:
            rules.append([f"{name}~q{q:g}", cost,
                          table * (1.0 - q) + (1.0 - table) * (q / (k - 1)), None])
    return rules


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
