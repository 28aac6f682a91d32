"""Minimal feed-forward network: manual gradients, SGD, checkpoints.

The model class p_w(y|x) is an MLP with ReLU hidden layers and a softmax
output. Losses are totals in NATS (sums over the dataset, not means), so
they plug directly into the complexity Lagrangians. Everything is plain
numpy with explicit backpropagation; training is a deterministic function
of (data, architecture, config, init).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .tasks import Dataset, RealSpace

__all__ = [
    "Architecture",
    "MlpParams",
    "SgdConfig",
    "TrainingDiverged",
    "TrainResult",
    "init_params",
    "flatten_params",
    "unflatten_params",
    "forward",
    "forward_batch",
    "dataset_loss",
    "gradient",
    "gradient_arrays",
    "sgd_train",
    "save_loss_trace_csv",
    "save_params",
    "load_params",
]


@dataclass(frozen=True)
class Architecture:
    """Layer widths from input dimension through hidden layers to K."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("architecture needs at least input and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        object.__setattr__(self, "layer_widths", tuple(self.layer_widths))

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_labels(self) -> int:
        return self.layer_widths[-1]

    @property
    def num_params(self) -> int:
        return sum(n_in * n_out + n_out for n_in, n_out in
                   zip(self.layer_widths[:-1], self.layer_widths[1:]))


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weight matrices (fan_in, fan_out) and bias vectors."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != len(bs):
            raise ValueError("one bias vector per weight matrix")
        for w, b in zip(ws, bs):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError("weight/bias shape mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def architecture(self) -> Architecture:
        widths = (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)
        return Architecture(widths)

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def init_params(arch: Architecture, seed: int) -> MlpParams:
    """Glorot-uniform weights in [-a, a], a = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = stream(seed, "mlp-init")
    ws, bs = [], []
    for n_in, n_out in zip(arch.layer_widths[:-1], arch.layer_widths[1:]):
        a = math.sqrt(6.0 / (n_in + n_out))
        ws.append(rng.uniform(-a, a, size=(n_in, n_out)))
        bs.append(np.zeros(n_out))
    return MlpParams(tuple(ws), tuple(bs))


def flatten_params(p: MlpParams) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in zip(p.weights, p.biases)
                           for a in pair])


def unflatten_params(vec: np.ndarray, arch: Architecture) -> MlpParams:
    if vec.size != arch.num_params:
        raise ValueError("parameter vector length does not match architecture")
    layers = _layer_views(vec.reshape(1, -1), arch.layer_widths)
    return MlpParams(tuple(w[0] for w, _ in layers), tuple(b[0] for _, b in layers))


def _layer_views(ws: np.ndarray, widths) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer views (weights (S, fan_in, fan_out), biases (S, fan_out)) of
    S flat parameter vectors ws (S, P)."""
    out, pos, s = [], 0, ws.shape[0]
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        end = pos + n_in * n_out
        out.append((ws[:, pos:end].reshape(s, n_in, n_out), ws[:, end:end + n_out]))
        pos = end + n_out
    return out


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_batch(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Probabilities (N, K) for a batch of inputs (N, d)."""
    return np.exp(_log_softmax(_logits(p, x)[0]))


def forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Probability vector over K labels for a single input."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("invalid input: non-finite entries")
    return forward_batch(p, x[None, :])[0]


def _as_xy(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(d.space, RealSpace):
        raise ValueError("networks consume real-vector tasks "
                         "(see tasks.as_real_vectors)")
    return d.inputs, d.labels


def dataset_loss(p: MlpParams, d: Dataset) -> float:
    """Total cross-entropy over the dataset in NATS."""
    x, y = _as_xy(d)
    return float(_block_loss_and_grad(p.architecture.layer_widths, x, y,
                                      flatten_params(p)[None, :])[0])


def _logits(p: MlpParams, x: np.ndarray):
    """Returns (logits, list of post-ReLU activations per hidden layer)."""
    hs, h = [x], x
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        hs.append(h)
    return h @ p.weights[-1] + p.biases[-1], hs


@functools.lru_cache(maxsize=32)
def _logit_offsets(s: int, k: int, n: int) -> np.ndarray:
    """Flat offsets (s, n) of logit 0 of each (draw, sample) in an (s, k, n)
    array; read-only, shared between calls."""
    out = np.arange(s)[:, None] * (k * n) + np.arange(n)
    out.flags.writeable = False
    return out


def _block_loss_and_grad(widths, x, y, ws, grads=None, clip=None) -> np.ndarray:
    """Total cross-entropy (S,) of S flat parameter vectors ws (S, P) on (x, y).

    x and y may carry a leading run axis, x (R, n, d0) and y (R, n): then ws
    holds S / R draws per run, ordered run-major, and each draw is scored on
    its own run's data. Fills grads (S, P) unless it is None. Activations are
    (draw, unit, sample) arrays. The first layer is one matmul over runs of
    each run's stacked weight matrices with its x, its weight gradient one
    matmul delta @ x; deeper layers run np.matmul over the draw axis.
    Per-sample losses are clipped at clip.
    """
    if x.ndim == 2:
        x, y = x[None], y[None]
    r, n = x.shape[:2]
    s, d1 = ws.shape[0], widths[1]
    layers = _layer_views(ws, widths)
    z = np.matmul(layers[0][0].transpose(0, 2, 1).reshape(r, s // r * d1, widths[0]),
                  x.transpose(0, 2, 1)).reshape(s, d1, n)
    z += layers[0][1][:, :, None]
    hs = [x]
    for w, b in layers[1:]:
        hs.append(np.maximum(z, 0.0))
        z = np.matmul(w.transpose(0, 2, 1), hs[-1])
        z += b[:, :, None]
    z -= z.max(axis=1, keepdims=True)                      # log-softmax
    e = np.exp(z)
    z -= np.log(e.sum(axis=1, keepdims=True))
    # flat index (draw, sample) of each sample's label logit
    at = np.repeat(y * n, s // r, axis=0) + _logit_offsets(s, z.shape[1], n)
    nll = -z.reshape(-1).take(at)
    losses = (nll if clip is None else np.minimum(nll, clip)).sum(axis=1)
    if grads is None:
        return losses
    delta = np.exp(z, out=e)
    delta.reshape(-1)[at] -= 1.0                           # d loss / d logits
    if clip is not None:
        delta *= (nll <= clip)[:, None, :]                 # clipped: flat
    out = _layer_views(grads, widths)
    for layer in range(len(layers) - 1, 0, -1):
        out[layer][0][...] = np.matmul(hs[layer], delta.transpose(0, 2, 1))
        out[layer][1][...] = delta.sum(axis=2)
        delta = np.matmul(layers[layer][0], delta) * (hs[layer] > 0)
    out[0][0][...] = np.matmul(delta.reshape(r, s // r * d1, n), x).reshape(
        s, d1, widths[0]).transpose(0, 2, 1)
    out[0][1][...] = delta.sum(axis=2)
    return losses


def gradient_arrays(p: MlpParams, x: np.ndarray, y: np.ndarray
                    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Backprop gradient of the summed cross-entropy over (x, y) (one draw)."""
    widths = p.architecture.layer_widths
    grads = np.empty((1, p.num_params))
    _block_loss_and_grad(widths, x, y, flatten_params(p)[None, :], grads)
    layers = _layer_views(grads, widths)
    return tuple(w[0] for w, _ in layers), tuple(b[0] for _, b in layers)


def gradient(p: MlpParams, batch) -> MlpParams:
    """Gradient of the summed batch loss, in parameter layout."""
    if isinstance(batch, Dataset):
        x, y = _as_xy(batch)
    else:
        x, y = np.asarray(batch[0], np.float64), np.asarray(batch[1], np.int64)
    if len(y) == 0:
        raise ValueError("gradient needs a nonempty batch")
    gws, gbs = gradient_arrays(p, x, y)
    return MlpParams(gws, gbs)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training; carries the last finite state."""

    def __init__(self, message, last_params=None, trace=()):
        super().__init__(message)
        self.last_params = last_params
        self.trace = tuple(trace)


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    weight_decay: float = 0.0
    decay_epochs: tuple[int, ...] = ()   # lr *= decay_factor at these epochs
    decay_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass(frozen=True)
class TrainResult:
    params: MlpParams
    loss_trace: tuple[float, ...]      # full-dataset loss after each epoch


def sgd_train(d: Dataset, arch: Architecture, cfg: SgdConfig,
              init: MlpParams | int = 0) -> TrainResult:
    """Minibatch SGD: w <- w - eta * (grad L_batch + gamma w).

    Deterministic given (d, arch, cfg, init): the per-epoch shuffle comes
    from the config seed. The last partial batch is kept. Raises
    TrainingDiverged (with the last finite state) if the loss leaves the
    finite range.
    """
    x, y = _as_xy(d)
    if arch.input_dim != d.inputs.shape[1] or arch.num_labels < d.num_labels:
        raise ValueError("architecture incompatible with dataset")
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
                gws, gbs = gradient_arrays(params, x[idx], y[idx])
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
    return TrainResult(params=params, loss_trace=tuple(trace))


def save_loss_trace_csv(trace, path) -> None:
    """Per-epoch loss trace as CSV (epoch, loss_nats)."""
    lines = ["# taskinfo-loss-trace v1", "epoch,loss_nats"]
    for epoch, loss in enumerate(trace):
        lines.append(f"{epoch},{float(loss)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checkpoints: versioned text, layer shapes then row-major entries.


def save_params(p: MlpParams, path, extra: dict | None = None) -> None:
    lines = ["# taskinfo-params v1",
             "widths=" + ",".join(str(w) for w in p.architecture.layer_widths)]
    for key, vec in (extra or {}).items():
        lines.append(f"{key}=" + ";".join(repr(float(v)) for v in vec))
    for layer, (w, b) in enumerate(zip(p.weights, p.biases)):
        lines.append(f"W{layer}=" + ";".join(repr(float(v)) for v in w.ravel()))
        lines.append(f"b{layer}=" + ";".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> tuple[MlpParams, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != "# taskinfo-params v1":
        raise ValueError(f"{path}: not a taskinfo-params v1 file")
    fields = dict(ln.partition("=")[::2] for ln in lines[1:])
    widths = tuple(int(w) for w in fields.pop("widths").split(","))
    arch = Architecture(widths)
    ws, bs = [], []
    for layer, (n_in, n_out) in enumerate(
            zip(arch.layer_widths[:-1], arch.layer_widths[1:])):
        w = np.array([float(v) for v in fields.pop(f"W{layer}").split(";")])
        b = np.array([float(v) for v in fields.pop(f"b{layer}").split(";")])
        ws.append(w.reshape(n_in, n_out))
        bs.append(b)
    extra = {key: np.array([float(v) for v in val.split(";")])
             for key, val in fields.items()}
    return MlpParams(tuple(ws), tuple(bs)), extra
