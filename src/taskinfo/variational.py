"""Information in the parameters: mean-field Gaussian posteriors.

A posterior Q(w|D) = N(mu, diag(exp(log_var))) over the weights of a small
network is scored by the Lagrangian

    C_beta = E_{w~Q}[ L_D(p_w) ] + beta * KL(Q || P),     P = N(0, lambda^2 I),

and optimized by reparameterized stochastic gradient descent on (mu,
log_var). The KL term is closed form; the expected loss is a Monte-Carlo
mean over w = mu + sigma * eps with a seeded stream, so every estimate is a
deterministic function of its seed.

Every Monte-Carlo pass (optimizer steps, reports, expected_loss,
mc_lagrangian_and_grads, bounds.clipped_expected_loss) hands all S draws as
one (S, P) array to ``loss_and_grad``: one forward and one backward pass per
block of draws (reparameterized, as in Blundell et al. 2015), or a loss-only
forward pass. A block keeps n * (widest non-input layer) * draws within
_BLOCK_CELLS, so activations and deltas take O(_BLOCK_CELLS) memory, not O(S).

Curvature conventions: quadratic surrogates are written loss(w) =
sum_i h_i (w_i - w0_i)^2, i.e. the expected-loss gap under N(mu, Sigma) is
tr(h Sigma). With that convention the stationary covariance of the
Lagrangian is exactly closed_form_sigma: Sigma*_ii = (beta/2) / (h_i +
beta / (2 lambda^2)), which tends to (beta/2) h^-1 as lambda grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Architecture,
    MlpParams,
    TrainingDiverged,
    _as_xy,
    _block_loss_and_grad,
    _log_softmax,
    _logits,
    unflatten_params,
)
from .rng import stream
from .tasks import Dataset
from .finite_oracle import Curve

__all__ = [
    "IsotropicPrior",
    "GaussianPosterior",
    "FisherDiagonal",
    "VariationalConfig",
    "VariationalResult",
    "SweepResult",
    "kl_gaussian",
    "expected_loss",
    "lagrangian",
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
    "save_posterior",
    "load_posterior",
    "beta_from_sgd",
    "sgd_temperature",
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
        mean = np.asarray(self.mean, dtype=np.float64)
        log_var = np.asarray(self.log_var, dtype=np.float64)
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
        entries = np.asarray(self.entries, dtype=np.float64)
        if (entries < 0).any():
            raise ValueError("Fisher entries must be nonnegative")
        object.__setattr__(self, "entries", entries)


def kl_gaussian(q: GaussianPosterior, p: IsotropicPrior) -> float:
    """KL(N(mu, Sigma) || N(0, lambda^2 I)) with diagonal Sigma, in NATS."""
    lam2 = p.scale * p.scale
    return 0.5 * float(
        (q.mean @ q.mean) / lam2 + np.exp(q.log_var).sum() / lam2
        + q.k * math.log(lam2) - q.log_var.sum() - q.k
    )


# ---------------------------------------------------------------------------
# Loss models

_BLOCK_CELLS = 16384    # per-block bound on n * (widest layer) * draws


class MlpLossModel:
    """Total cross-entropy of an MLP on a fixed dataset, with gradients."""

    exact_gaussian = False

    def __init__(self, arch: Architecture, d: Dataset):
        self.x, self.y = _as_xy(d)
        if arch.input_dim != d.space.dim or arch.num_labels < d.num_labels:
            raise ValueError("architecture incompatible with dataset")
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
        losses, grads = np.empty(ws.shape[0]), (np.empty(ws.shape) if grad else None)
        for lo in range(0, ws.shape[0], self.block):
            block = slice(lo, lo + self.block)
            losses[block] = _block_loss_and_grad(
                self.arch.layer_widths, self.x, self.y, ws[block],
                None if grads is None else grads[block], clip)
        return losses, grads


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


def _mc_losses(model, q: GaussianPosterior, mc: int, seed: int, label="vi-mc"):
    """Per-draw losses of mc reparameterized draws of Q (loss-only pass)."""
    eps = stream(seed, label).standard_normal((mc, q.k))
    return model.loss_and_grad(q.mean + q.sigma * eps, grad=False)[0]


def _mc_grads(model, mu: np.ndarray, sigma: np.ndarray, eps: np.ndarray):
    """Per-draw losses at w = mu + sigma * eps and the reparameterized
    gradients of their mean with respect to mu and log_var."""
    losses, grads = model.loss_and_grad(mu + sigma * eps)
    return losses, grads.mean(axis=0), (grads * eps).mean(axis=0) * sigma * 0.5


def expected_loss(q: GaussianPosterior, d: Dataset, mc_samples: int,
                  seed: int) -> float:
    """Reparameterized MC mean of the total dataset loss under Q."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    return float(_mc_losses(MlpLossModel(q.arch, d), q, mc_samples, seed).mean())


def lagrangian(q: GaussianPosterior, d: Dataset, beta: float,
               p: IsotropicPrior, mc: int, seed: int) -> float:
    """expected_loss + beta * kl_gaussian."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return expected_loss(q, d, mc, seed) + beta * kl_gaussian(q, p)


def mc_lagrangian_and_grads(model, q: GaussianPosterior, beta: float,
                            p: IsotropicPrior, mc: int, seed: int):
    """Deterministic MC Lagrangian and its (mu, log_var) gradients.

    Uses common random numbers: the same seed draws the same eps, so finite
    differences of the value reproduce the returned gradients.
    """
    lam2 = p.scale * p.scale
    eps = stream(seed, "vi-mc").standard_normal((mc, q.k))
    losses, gmu, glv = _mc_grads(model, q.mean, q.sigma, eps)
    value = float(losses.mean()) + beta * kl_gaussian(q, p)
    return (value, gmu + beta * q.mean / lam2,
            glv + beta * 0.5 * (np.exp(q.log_var) / lam2 - 1.0))


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
            raise ValueError("invalid variational config")
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
                      seed: int = 0,
                      arch: Architecture | None = None) -> VariationalResult:
    """Gradient descent on the Lagrangian over (mu, log_var).

    Quadratic models run on their exact Gaussian expectations; network
    models use reparameterized MC gradients with per-step seeded draws.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if arch is None:
        arch = getattr(model, "arch", None) or vector_architecture(model.k)
    q = init if init is not None else prior_matched_posterior(arch, prior)
    mu, lv = np.array(q.mean), np.array(q.log_var)
    lam2 = prior.scale * prior.scale
    lr_lv = (cfg.learning_rate if cfg.logvar_learning_rate is None
             else cfg.logvar_learning_rate)
    # steps follow the per-sample objective C_beta / n, so step sizes (and
    # the annealing dynamics) are comparable across dataset sizes
    denom = float(getattr(model, "n", 0) or 1)
    # sigma far above the prior scale is never optimal; clamping log_var
    # keeps bad MC draws from running away
    lv_lo, lv_hi = math.log(lam2) - 46.0, math.log(lam2) + 4.6
    trace = []
    # overflow on a diverging run shows up as non-finite state and is
    # reported as TrainingDiverged
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
                losses, gmu, glv = _mc_grads(model, mu, sigma, eps)
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
    kl = kl_gaussian(out, prior)
    if model.exact_gaussian:
        final, se = model.expected_loss(mu, np.exp(lv)), 0.0
    else:
        losses = _mc_losses(model, out, cfg.report_mc, seed, "vi-report")
        final = float(losses.mean())
        se = (float(losses.std(ddof=1)) / math.sqrt(cfg.report_mc)
              if cfg.report_mc > 1 else math.nan)
    return VariationalResult(posterior=out, expected_loss=final, kl=kl,
                             trace=tuple(trace), expected_loss_se=se)


def optimize_posterior(d: Dataset, arch: Architecture, beta: float,
                       prior: IsotropicPrior, cfg: VariationalConfig,
                       init: GaussianPosterior | None = None,
                       seed: int = 0) -> VariationalResult:
    """Optimize Q(w|D) for a network on a dataset (see optimize_gaussian)."""
    return optimize_gaussian(MlpLossModel(arch, d), beta, prior, cfg,
                             init=init, seed=seed, arch=arch)


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

    @property
    def curve(self) -> Curve:
        """(beta ascending, loss, KL) as a Curve."""
        order = np.argsort(self.betas, kind="stable")
        return Curve(self.betas[order], self.losses[order], self.kls[order])

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
                                         seed=seed * 1009 + i, arch=arch))
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


# ---------------------------------------------------------------------------
# Posterior checkpoints: the models format plus a log_var array.


def save_posterior(q: GaussianPosterior, path) -> None:
    from .models import save_params
    save_params(unflatten_params(q.mean, q.arch), path,
                extra={"log_var": q.log_var})


def load_posterior(path) -> GaussianPosterior:
    from .models import flatten_params, load_params
    params, extra = load_params(path)
    return GaussianPosterior(flatten_params(params), extra["log_var"],
                             params.architecture)


# ---------------------------------------------------------------------------
# SGD hyperparameter mapping (exposed as a conversion only)


def sgd_temperature(learning_rate: float, batch_size: int) -> float:
    """T proportional to eta / B (proportionality constant taken as 1)."""
    return learning_rate / batch_size


def beta_from_sgd(lam: float, weight_decay: float, temperature: float) -> float:
    """beta = 2 lambda^2 gamma T."""
    return 2.0 * lam * lam * weight_decay * temperature
