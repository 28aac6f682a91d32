"""Information in the parameters: mean-field Gaussian posteriors.

A posterior Q(w|D) = N(mu, diag(exp(log_var))) over the weights of a small
network is scored by the Lagrangian

    C_beta = E_{w~Q}[ L_D(p_w) ] + beta * KL(Q || P),     P = N(0, lambda^2 I),

and optimized by reparameterized stochastic gradient descent on (mu,
log_var). The KL term is closed form; the expected loss is a Monte-Carlo
mean over w = mu + sigma * eps with a seeded stream, so every estimate is a
deterministic function of its seed.

Every Monte-Carlo pass (optimizer steps, reports, mc_lagrangian_and_grads,
bounds.clipped_expected_loss) draws its normals with rng._normal_into and
hands all S draws as one (S, P) array to ``loss_and_grad`` (_losses_at for
a loss-only pass, _mc_grads with gradients): one forward and one backward
pass per block of draws (reparameterized, as in Blundell et al. 2015), or
a loss-only forward pass. A loss-only pass forms its draws mu + sigma * eps
in the noise's buffer, or, when several posteriors share the noise, in one
buffer that they take in turn.
MlpLossModel keeps its inputs in the one form the kernel takes, with a
ones column that carries each first-layer bias inside the GEMM: xa (n, d0 +
1) and its contiguous transpose xt (d0 + 1, n); x is a view of xa.
models._run_blocks binds a pass's kernel calls to the caller's arrays; a
call keeps n * (widest non-input layer) * draws within _BLOCK_CELLS, so
activations and deltas take O(_BLOCK_CELLS) memory, not O(S).
fisher_diagonal reads its label probabilities off the model's own xt, then
asks the same blocks for sum_i w_i g_i^2 of the per-sample gradients, one
run of one draw per label: each label c with w_i = p_w(c|x_i) (exact), or
the labels drawn from the model with w_i = 1 (sampled).

Independent fits (distance replicates, PAC-Bayes trials) run in lockstep
through the private _fit_many: one optimizer loop steps R posteriors,
each with its own beta, start and seed, on one (R, 2, P) state array of
means and log-variances (moment updates, gradient clip, log_var clamp,
finiteness check, trace snapshots), updated in place in the order of
operations of a run alone. Network runs of one architecture form a batch,
and the runs of a batch that share n go through the kernel together: xa
stacked as (R, n, d0 + 1) and xt as (R, d0 + 1, n) (a one-run span reads
its model's own xa and xt), draws run-major as (R * S, P). Each span's
kernel calls, with their label offsets, label one-hot and layer blocks,
are bound once per batch to preallocated draw, loss and gradient buffers.
A result's posterior keeps a private copy of its run's row of the state,
as every value type does, so it does not keep the batch's state alive.
Each run's step noise is its own stream (seed, "vi-step", step), so it
ends where it would alone, bit for bit. Runs that share a seed share that
noise (common random numbers: the distance replicates of every statistic
use the same seeds), so each step draws each live seed's stream once, into
the rows of its first live run, and the seed's other live runs copy them.
A run that diverges is reported at that step and leaves the list of live
runs, but its rows stay in place: they still ride in the kernel calls,
undrawn, and are no longer traced or reported.
_optimize_many is _fit_many followed by each live run's report: the mean
loss of report_mc draws of its stream (seed, "vi-report"), drawn once per
distinct seed and parameter count, after the batches' buffers are freed.
A caller that reads only the posteriors (bounds.bound_validation_trial)
calls _fit_many and runs no report. optimize_gaussian is the R = 1 case.
A batch holds at most _LOCKSTEP_CELLS / (S * P) runs, so its per-step
draws, weights and gradients take O(_LOCKSTEP_CELLS) memory on top of the
kernel's blocks.

Curvature conventions: quadratic surrogates are written loss(w) =
sum_i h_i (w_i - w0_i)^2, i.e. the expected-loss gap under N(mu, Sigma) is
tr(h Sigma). With that convention the stationary covariance of the
Lagrangian is exactly closed_form_sigma: Sigma*_ii = (beta/2) / (h_i +
beta / (2 lambda^2)), which tends to (beta/2) h^-1 as lambda grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Architecture,
    MlpParams,
    TrainingDiverged,
    _as_xy,
    _augment,
    _forward,
    _layer_blocks,
    _run_blocks,
    flatten_params,
)
from .rng import _normal_into, stream
from .tasks import Dataset, _freeze

__all__ = [
    "IsotropicPrior",
    "GaussianPosterior",
    "FisherDiagonal",
    "VariationalConfig",
    "VariationalResult",
    "SweepResult",
    "kl_gaussian",
    "mc_lagrangian_and_grads",
    "MlpLossModel",
    "QuadraticLossModel",
    "vector_architecture",
    "prior_matched_posterior",
    "optimize_gaussian",
    "optimize_posterior",
    "closed_form_sigma",
    "fisher_diagonal",
    "fisher_information_nats",
    "fim_trace",
    "structure_sweep",
    "crossing_beta",
]


@dataclass(frozen=True)
class IsotropicPrior:
    """P(w) = N(0, scale^2 I)."""

    scale: float

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("prior scale must be positive and finite")


@dataclass(frozen=True)
class GaussianPosterior:
    """Diagonal Gaussian over the flattened parameters of ``arch``."""

    mean: np.ndarray
    log_var: np.ndarray
    arch: Architecture

    def __post_init__(self):
        mean, log_var = (_freeze(a, np.float64) for a in (self.mean, self.log_var))
        if mean.shape != log_var.shape or mean.ndim != 1:
            raise ValueError("mean and log_var must be equal-length vectors")
        if mean.shape[0] != self.arch.num_params:
            raise ValueError("posterior size does not match architecture")
        if not (np.isfinite(mean).all() and np.isfinite(log_var).all()):
            raise ValueError("posterior entries must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_var", log_var)

    @property
    def k(self) -> int:
        return self.mean.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var)


@dataclass(frozen=True)
class FisherDiagonal:
    """Diagonal of the (true) Fisher information, averaged over samples."""

    entries: np.ndarray
    n: int

    def __post_init__(self):
        entries = _freeze(self.entries, np.float64)
        if (entries < 0).any():
            raise ValueError("Fisher entries must be nonnegative")
        object.__setattr__(self, "entries", entries)


def kl_gaussian(q: GaussianPosterior, p: IsotropicPrior) -> float:
    """KL(N(mu, Sigma) || N(0, lambda^2 I)) with diagonal Sigma, in NATS."""
    return _kl(q.mean, q.log_var, p.scale * p.scale)


def _kl(mean: np.ndarray, log_var: np.ndarray, lam2: float) -> float:
    k = mean.shape[0]
    return 0.5 * float(
        (mean @ mean) / lam2 + np.exp(log_var).sum() / lam2
        + k * math.log(lam2) - log_var.sum() - k
    )


# ---------------------------------------------------------------------------
# Loss models

_BLOCK_CELLS = 16384    # per-block bound on n * (widest layer) * draws
_LOCKSTEP_CELLS = 1 << 20   # per-batch bound on runs * mc_samples * P


class MlpLossModel:
    """Total cross-entropy of an MLP on a fixed dataset, with gradients."""

    exact_gaussian = False

    def __init__(self, arch: Architecture, d: Dataset):
        x, self.y = _as_xy(d, arch)
        # the kernel's operands: x with a ones column, and its transpose
        self.xa, self.xt = _augment(x)
        self.x = self.xa[:, :-1]
        self.arch = arch
        self.n = d.n
        self.block = max(1, _BLOCK_CELLS // (max(d.n, 1) * max(arch.layer_widths[1:])))

    @property
    def k(self) -> int:
        return self.arch.num_params

    def loss_and_grad(self, ws: np.ndarray, grad: bool = True, clip=None):
        """Losses (S,) and gradients (S, P), or None if not grad, at the S
        weight draws ws (S, P); per-sample losses are clipped at ``clip``."""
        if ws.ndim != 2 or ws.shape[1] != self.k:
            raise ValueError(f"expected weight draws of shape (S, {self.k})")
        return _run_blocks(self.arch.layer_widths, self.xa[None], self.xt[None],
                           self.y[None], ws, self.block, np.empty(len(ws)),
                           np.empty(ws.shape) if grad else None, clip)()



class QuadraticLossModel:
    """Diagonal quadratic surrogate loss(w) = sum h_i (w_i - w0_i)^2.

    Exposes the exact Gaussian expectation, so the optimizer can run
    noise-free against the closed-form covariance oracle.
    """

    exact_gaussian = True

    def __init__(self, h_diag: np.ndarray, w0: np.ndarray | None = None):
        self.h = np.asarray(h_diag, dtype=np.float64)
        if (self.h < 0).any():
            raise ValueError("curvatures must be nonnegative")
        self.w0 = np.zeros_like(self.h) if w0 is None else np.asarray(w0, np.float64)

    @property
    def k(self) -> int:
        return self.h.shape[0]

    @property
    def arch(self) -> Architecture:
        return vector_architecture(self.k)

    def loss_and_grad(self, ws: np.ndarray, grad: bool = True):
        delta = ws - self.w0
        return (delta * delta) @ self.h, (2.0 * self.h * delta if grad else None)

    def expected_loss(self, mean: np.ndarray, var: np.ndarray) -> float:
        delta = mean - self.w0
        return float(self.h @ (delta * delta) + self.h @ var)

    def expected_grads(self, mean: np.ndarray, var: np.ndarray):
        """d E[loss] / d mean and d E[loss] / d log_var."""
        return 2.0 * self.h * (mean - self.w0), self.h * var


# ---------------------------------------------------------------------------
# Monte-Carlo estimates


def _mc_losses(model, q: GaussianPosterior, mc: int, seed: int, label="vi-mc",
               clip=None):
    """Per-draw losses of mc reparameterized draws of Q (loss-only pass),
    per-sample losses clipped at ``clip``."""
    eps = _normal_into(np.empty((mc, q.k)), seed, label)
    return _losses_at(model, q, eps, eps, clip)


def _losses_at(model, q: GaussianPosterior, eps: np.ndarray, ws: np.ndarray,
               clip=None):
    """Per-draw losses of the draws mean + sigma * eps of Q, eps (S, P),
    formed in ws (S, P), which may be eps itself (the noise's buffer)."""
    np.multiply(eps, q.sigma, out=ws)
    ws += q.mean
    return model.loss_and_grad(ws, grad=False, clip=clip)[0]


def _mc_grads(grads: np.ndarray, eps: np.ndarray, sigma: np.ndarray,
              g: np.ndarray) -> None:
    """The reparameterized gradients of each of R runs' mean loss with
    respect to mu (into g[:, 0]) and log_var (into g[:, 1]), g (R, 2, P),
    from the gradients grads (R, S, P) at its draws w = mu + sigma * eps,
    eps (R, S, P), sigma (R, P). grads is overwritten."""
    np.add.reduce(grads, axis=1, out=g[:, 0])
    grads *= eps
    np.add.reduce(grads, axis=1, out=g[:, 1])
    g /= eps.shape[1]
    g[:, 1] *= sigma
    g[:, 1] *= 0.5


def mc_lagrangian_and_grads(model, q: GaussianPosterior, beta: float,
                            p: IsotropicPrior, mc: int, seed: int):
    """Deterministic MC Lagrangian and its (mu, log_var) gradients.

    Uses common random numbers: the same seed draws the same eps, so finite
    differences of the value reproduce the returned gradients.
    """
    lam2 = p.scale * p.scale
    eps = _normal_into(np.empty((mc, q.k)), seed, "vi-mc")
    losses, grads = model.loss_and_grad(q.mean + q.sigma * eps)
    g = np.empty((1, 2, q.k))
    _mc_grads(grads[None], eps[None], q.sigma[None], g)
    value = float(losses.mean()) + beta * kl_gaussian(q, p)
    return (value, g[0, 0] + beta * q.mean / lam2,
            g[0, 1] + beta * 0.5 * (np.exp(q.log_var) / lam2 - 1.0))


# ---------------------------------------------------------------------------
# Posterior optimization


@dataclass(frozen=True)
class VariationalConfig:
    steps: int = 400
    learning_rate: float = 0.02
    logvar_learning_rate: float | None = None   # defaults to learning_rate
    mc_samples: int = 8          # per optimization step
    report_mc: int = 1024        # for the final expected-loss estimate
    grad_clip: float | None = 50.0
    trace_every: int = 10

    def __post_init__(self):
        if self.steps < 0 or self.learning_rate <= 0 or self.mc_samples < 1:
            raise ValueError("need steps >= 0, learning_rate > 0 and mc_samples >= 1")
        if self.report_mc < 1 or self.trace_every < 1:
            raise ValueError("report_mc and trace_every must be >= 1")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("grad_clip must be None or > 0")
        if self.logvar_learning_rate is not None and not self.logvar_learning_rate > 0:
            raise ValueError("logvar_learning_rate must be None or > 0")


@dataclass(frozen=True)
class VariationalResult:
    posterior: GaussianPosterior
    expected_loss: float     # report_mc estimate (exact for quadratics)
    kl: float
    trace: tuple[tuple[float, float], ...]   # (expected_loss, kl) snapshots
    # std of the report draws / sqrt(report_mc); 0 if exact, nan for 1 draw
    expected_loss_se: float

    def lagrangian_value(self, beta: float) -> float:
        return self.expected_loss + beta * self.kl


def vector_architecture(k: int) -> Architecture:
    """Trivial carrier architecture with exactly k parameters."""
    if k < 2:
        raise ValueError("need k >= 2 parameters")
    return Architecture((k - 1, 1))


def prior_matched_posterior(arch: Architecture, prior: IsotropicPrior
                            ) -> GaussianPosterior:
    """Q = P: zero mean, prior variance. KL is exactly 0."""
    k = arch.num_params
    return GaussianPosterior(np.zeros(k),
                             np.full(k, 2.0 * math.log(prior.scale)), arch)


def optimize_gaussian(model, beta: float, prior: IsotropicPrior,
                      cfg: VariationalConfig,
                      init: GaussianPosterior | None = None,
                      seed: int = 0) -> VariationalResult:
    """Gradient descent on the Lagrangian over (mu, log_var).

    Quadratic models run on their exact Gaussian expectations; network
    models use reparameterized MC gradients with per-step seeded draws.
    Raises TrainingDiverged if the state leaves the finite range.
    """
    q = (prior_matched_posterior(model.arch, prior) if init is None
         else GaussianPosterior(init.mean, init.log_var, model.arch))
    res = _optimize_many([model], [beta], prior, cfg, [seed], [q])[0]
    if isinstance(res, TrainingDiverged):
        raise res
    return res


def _optimize_many(models, betas, prior: IsotropicPrior, cfg: VariationalConfig,
                   seeds, inits=None) -> list:
    """Fit R independent posteriors in lockstep (_fit_many) and report each.

    Returns, per run, its VariationalResult or the TrainingDiverged that
    stopped it. A network run reports the mean loss of cfg.report_mc draws
    of stream(seeds[i], "vi-report"), as it would alone. Runs with one seed
    and parameter count share one draw of that stream and form their
    weights in one buffer in turn; a run whose seed is its own forms them in
    the noise's buffer. An exact-Gaussian run reports its exact loss.
    """
    fits = _fit_many(models, betas, prior, cfg, seeds, inits)
    reports, shared = {}, {}          # run -> (expected loss, its SE)
    for i, (m, fit) in enumerate(zip(models, fits)):
        if isinstance(fit, TrainingDiverged):
            continue
        if m.exact_gaussian:
            reports[i] = m.expected_loss(fit[0].mean, np.exp(fit[0].log_var)), 0.0
        else:
            shared.setdefault((int(seeds[i]), m.k), []).append(i)
    for (seed, k), runs in shared.items():
        eps = _normal_into(np.empty((cfg.report_mc, k)), seed, "vi-report")
        ws = eps if len(runs) == 1 else np.empty_like(eps)
        for i in runs:
            losses = _losses_at(models[i], fits[i][0], eps, ws)
            reports[i] = float(losses.mean()), (
                float(losses.std(ddof=1)) / math.sqrt(cfg.report_mc)
                if cfg.report_mc > 1 else math.nan)
    out = list(fits)
    for i, (loss, se) in reports.items():
        q, trace = fits[i]
        out[i] = VariationalResult(posterior=q, expected_loss=loss,
                                   kl=kl_gaussian(q, prior), trace=tuple(trace),
                                   expected_loss_se=se)
    return out


def _fit_many(models, betas, prior: IsotropicPrior, cfg: VariationalConfig,
              seeds, inits=None) -> list:
    """Fit R independent posteriors in lockstep, with no report.

    Run i descends the Lagrangian of models[i] at betas[i] from inits[i]
    (default: the prior) with the step draws of stream(seeds[i], "vi-step",
    step), as it would alone. Returns, per run, its (posterior, trace) or
    the TrainingDiverged that stopped it; a diverged run stays in its batch,
    masked, and the others go on. Network runs of one architecture step as
    one batch of at most _LOCKSTEP_CELLS / (mc_samples * P) runs, and the
    runs of a batch that share n share each kernel call; an exact-Gaussian
    model runs alone, and any other model is a ValueError.
    """
    if any(not b >= 0 for b in betas):
        raise ValueError("beta must be >= 0")
    for m in models:
        if not (isinstance(m, MlpLossModel) or getattr(m, "exact_gaussian", False)):
            raise ValueError(f"cannot optimize a {type(m).__name__}: "
                             "neither an MlpLossModel nor exact-Gaussian")
    if inits is None:
        inits = [prior_matched_posterior(m.arch, prior) for m in models]
    batches = {}
    for i, m in enumerate(models):
        key = m.arch.layer_widths if isinstance(m, MlpLossModel) else i
        batches.setdefault(key, []).append(i)
    out = [None] * len(models)
    for runs in batches.values():
        runs.sort(key=lambda i: getattr(models[i], "n", 0))
        per = max(1, _LOCKSTEP_CELLS // (cfg.mc_samples * models[runs[0]].k))
        for lo in range(0, len(runs), per):
            idx = runs[lo:lo + per]
            results = _lockstep([models[i] for i in idx], [betas[i] for i in idx],
                                prior, cfg, [seeds[i] for i in idx],
                                [inits[i] for i in idx])
            for i, res in zip(idx, results):
                out[i] = res
    return out


def _lockstep(models, betas, prior, cfg, seeds, inits) -> list:
    """One batch of _fit_many, its network runs in order of n. The
    state (run, mu or log_var, parameter) carries a leading run axis, and
    each span of runs with equal n goes through the kernel as one run-axis
    batch, its calls bound to the draws ws. Every per-step array is made
    once per batch and updated in place, in the order of operations of a
    run alone; a run that diverges keeps its rows but leaves ``live``. Each
    step draws each seed's stream once, into the rows of its first live
    run, and the other live runs of that seed copy them."""
    r, s, k = len(models), cfg.mc_samples, models[0].k
    state = np.array([(q.mean, q.log_var) for q in inits])
    beta = np.array(betas, dtype=np.float64)[:, None]
    half_beta = beta * 0.5
    lam2 = prior.scale * prior.scale
    lr_lv = (cfg.learning_rate if cfg.logvar_learning_rate is None
             else cfg.logvar_learning_rate)
    lrs = np.array([[cfg.learning_rate], [lr_lv]])
    # steps follow the per-sample objective C_beta / n, so step sizes (and
    # the annealing dynamics) are comparable across dataset sizes
    denom = np.array([float(getattr(m, "n", 0) or 1) for m in models])[:, None, None]
    # sigma far above the prior scale is never optimal; clamping log_var
    # keeps bad MC draws from running away
    lv_lo, lv_hi = math.log(lam2) - 46.0, math.log(lam2) + 4.6
    exact = models[0].exact_gaussian
    ws, eps, g = np.empty((r, s, k)), np.empty((r, s, k)), np.empty((r, 2, k))
    sigma, var, tmp = np.empty((r, k)), np.empty((r, k)), np.empty((r, k))
    losses, grads, runs, lo = np.empty(r * s), np.empty((r * s, k)), [], 0
    for _, span in itertools.groupby([] if exact else models, key=lambda m: m.n):
        span = list(span)
        m, hi = span[0], lo + len(span) * s
        if len(span) == 1:
            x, xt, y = m.xa[None], m.xt[None], m.y[None]
        else:
            x, xt, y = (np.stack([getattr(mi, a) for mi in span])
                        for a in ("xa", "xt", "y"))
        runs.append(_run_blocks(m.arch.layer_widths, x, xt, y,
                                ws.reshape(-1, k)[lo:hi], m.block,
                                losses[lo:hi], grads[lo:hi]))
        lo = hi
    mu, lv, gmu, glv = state[:, 0], state[:, 1], g[:, 0], g[:, 1]
    live = list(range(r))                 # the runs not diverged; row i is run i
    draws = _draw_groups(live, seeds)
    traces = [[] for _ in models]
    out = [None] * r
    # overflow on a diverging run shows up as non-finite state and is
    # reported as TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.steps):
            np.multiply(lv, 0.5, out=sigma)
            np.exp(sigma, out=sigma)
            np.multiply(sigma, sigma, out=var)
            if exact:
                eloss = np.array([models[0].expected_loss(mu[0], var[0])])
                g[0] = models[0].expected_grads(mu[0], var[0])
            else:
                for i, rest in draws:
                    _normal_into(eps[i], seeds[i], "vi-step", step)
                    if rest:
                        eps[rest] = eps[i]
                np.multiply(sigma[:, None], eps, out=ws)
                ws += mu[:, None]
                for run in runs:
                    run()
                _mc_grads(grads.reshape(ws.shape), eps, sigma, g)
                eloss = np.add.reduce(losses.reshape(r, s), axis=1) / s
            np.multiply(beta, mu, out=tmp)
            tmp /= lam2
            gmu += tmp
            np.divide(var, lam2, out=tmp)
            tmp -= 1.0
            tmp *= half_beta
            glv += tmp
            g /= denom
            if cfg.grad_clip is not None:
                norm = np.sqrt(np.matmul(gmu[:, None], gmu[:, :, None])
                               + np.matmul(glv[:, None], glv[:, :, None]))
                over = norm > cfg.grad_clip
                if over.any():
                    g *= np.where(over, cfg.grad_clip / norm, 1.0)
            g *= lrs
            state -= g
            np.maximum(lv, lv_lo, out=lv)
            np.minimum(lv, lv_hi, out=lv)
            ok = _finite_rows(state, eloss)
            if ok is not None:
                dead, live = [i for i in live if not ok[i]], [i for i in live if ok[i]]
                for i in dead:
                    out[i] = TrainingDiverged(
                        f"posterior optimization diverged at step {step}",
                        last_params=GaussianPosterior(
                            np.nan_to_num(mu[i]), np.clip(np.nan_to_num(lv[i]), -60, 60),
                            inits[i].arch),
                        trace=traces[i])
                if not live:
                    break
                draws = _draw_groups(live, seeds)
            if step % cfg.trace_every == 0 or step == cfg.steps - 1:
                for i in live:
                    traces[i].append((float(eloss[i]), _kl(mu[i], lv[i], lam2)))
    for i in live:
        out[i] = (GaussianPosterior(mu[i], lv[i], inits[i].arch), traces[i])
    return out


def _draw_groups(live, seeds) -> list:
    """Per distinct seed among the live runs: its first run, which draws
    the seed's step stream, and the list of the others, which copy it."""
    groups = {}
    for i in live:
        groups.setdefault(int(seeds[i]), []).append(i)
    return [(runs[0], runs[1:]) for runs in groups.values()]


def _finite_rows(state: np.ndarray, eloss: np.ndarray):
    """None when every run's state (R, ...) and expected loss (R,) are
    finite, else the mask (R,) of the runs that are. One sum decides the
    common case: an inf or NaN entry makes the sum inf or NaN, so a finite
    sum proves every entry finite; a sum that overflows on finite entries
    falls through to the per-run check."""
    if math.isfinite(float(state.sum()) + float(eloss.sum())):
        return None
    ok = np.isfinite(state.reshape(len(state), -1)).all(axis=1) & np.isfinite(eloss)
    return None if ok.all() else ok


def optimize_posterior(d: Dataset, arch: Architecture, beta: float,
                       prior: IsotropicPrior, cfg: VariationalConfig,
                       init: GaussianPosterior | None = None,
                       seed: int = 0) -> VariationalResult:
    """Optimize Q(w|D) for a network on a dataset (see optimize_gaussian)."""
    return optimize_gaussian(MlpLossModel(arch, d), beta, prior, cfg,
                             init=init, seed=seed)


def closed_form_sigma(h_diag: np.ndarray, beta: float, lam: float) -> np.ndarray:
    """Stationary diagonal covariance (beta/2) (H + beta/(2 lambda^2) I)^-1.

    Flat directions (H_ii = 0) fall back to the prior variance lambda^2.
    """
    h = np.asarray(h_diag, dtype=np.float64)
    if (h < 0).any():
        raise ValueError("curvatures must be nonnegative")
    return (beta / 2.0) / (h + beta / (2.0 * lam * lam))


# ---------------------------------------------------------------------------
# Fisher information


def fisher_diagonal(p: MlpParams, d: Dataset, mode: str = "exact",
                    seed: int = 0) -> FisherDiagonal:
    """Diagonal of F = mean_i E_{y~p_w(.|x_i)} [ (d ln p_w(y|x_i) / dw)^2 ].

    mode "exact" takes the label expectation in closed form (K backward
    passes); mode "sampled" draws one label per sample from the model.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown fisher mode {mode!r}")
    model = MlpLossModel(p.architecture, d)        # validates d against p
    widths, w = model.arch.layer_widths, flatten_params(p)[None]
    z, lse, _ = _forward(widths, model.xt[None], w, _layer_blocks(w, widths))
    z -= lse
    probs = np.exp(z[0])                           # (K, n)
    if mode == "sampled":
        u = stream(seed, "fisher-sample").random(d.n)
        draws = (u > np.cumsum(probs, axis=0)).sum(axis=0)
        labels, weights = np.minimum(draws, len(probs) - 1)[None], np.ones((1, d.n))
    else:
        labels, weights = np.repeat(np.arange(len(probs))[:, None], d.n, axis=1), probs
    x, xt = (np.broadcast_to(a, (len(labels),) + a.shape) for a in (model.xa, model.xt))
    ws = np.broadcast_to(w, (len(labels), p.num_params))    # one draw a run
    _, sq = _run_blocks(widths, x, xt, labels, ws, model.block, np.empty(len(ws)),
                        np.empty(ws.shape), sq_weight=weights)()
    return FisherDiagonal(entries=sq.sum(axis=0) / max(d.n, 1), n=d.n)  # 0 if n = 0


def fim_trace(p: MlpParams, d: Dataset) -> float:
    """Trace of the Fisher information diagonal."""
    return float(fisher_diagonal(p, d).entries.sum())


def fisher_information_nats(f: FisherDiagonal, lam: float, k: int | None = None,
                            eps_f: float = 1e-8) -> float:
    """(1/2) sum ln max(F_ii, eps_f) + (k/2) ln lambda^2.

    Diagonal surrogate of (1/2) ln|F| + (k/2) ln lambda^2; eps_f floors
    flat directions.
    """
    entries = np.maximum(f.entries, eps_f)
    k = f.entries.shape[0] if k is None else k
    return float(0.5 * np.log(entries).sum() + 0.5 * k * math.log(lam * lam))


# ---------------------------------------------------------------------------
# Generalized structure function sweep


@dataclass(frozen=True)
class SweepResult:
    betas: np.ndarray            # as run (nonincreasing)
    losses: np.ndarray           # expected total loss per beta
    kls: np.ndarray
    n: int
    results: tuple[VariationalResult, ...]

    def tradeoff_points(self) -> list[tuple[float, float]]:
        """Implied (t = KL, loss) structure-function samples."""
        return sorted(zip(self.kls.tolist(), self.losses.tolist()))


def structure_sweep(d: Dataset, arch: Architecture, beta_schedule,
                    prior: IsotropicPrior, cfg: VariationalConfig,
                    seed: int = 0) -> SweepResult:
    """Anneal beta downward, warm-starting each optimum from the previous."""
    betas = [float(b) for b in beta_schedule]
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta schedule must be strictly decreasing")
    model = MlpLossModel(arch, d)
    q = prior_matched_posterior(arch, prior)
    results = []
    for i, beta in enumerate(betas):
        results.append(optimize_gaussian(model, beta, prior, cfg, init=q,
                                         seed=seed * 1009 + i))
        q = results[-1].posterior
    return SweepResult(betas=np.array(betas),
                       losses=np.array([r.expected_loss for r in results]),
                       kls=np.array([r.kl for r in results]), n=d.n,
                       results=tuple(results))


def crossing_beta(betas, losses_per_sample, level: float) -> float | None:
    """Largest beta at which loss/sample falls below ``level``.

    Log-linear interpolation between sweep grid points; None if the sweep
    never crosses.
    """
    b = np.asarray(betas, dtype=np.float64)
    l = np.asarray(losses_per_sample, dtype=np.float64)
    order = np.argsort(-b)
    b, l = b[order], l[order]
    for i in range(len(b) - 1):
        if l[i] >= level > l[i + 1]:
            f = (l[i] - level) / max(l[i] - l[i + 1], 1e-12)
            return float(math.exp(
                math.log(b[i]) + f * (math.log(b[i + 1]) - math.log(b[i]))))
    if l[0] < level:
        return float(b[0])
    return None
