"""Minimal feed-forward network: manual gradients and SGD.

The model class p_w(y|x) is an MLP with ReLU hidden layers and a softmax
output. Losses are totals in NATS (sums over the dataset, not means), so
they plug directly into the complexity Lagrangians. Everything is plain
numpy with explicit backpropagation in one blocked kernel,
_block_loss_and_grad, which serves the MC evaluator, the lockstep optimizer,
the Fisher diagonal and SGD; forward_batch runs its forward half, _forward.
The flat parameter row stores each layer's weights W (fan_in, fan_out) and
then its bias b, so the kernel reads each layer as one (fan_in + 1,
fan_out) block, and every layer input carries a ones row (the inputs after
_augment, each hidden activation in an (S, d + 1, n) buffer): each bias
rides in its layer's GEMM, forward and backward. The kernel takes one
operand form, the augmented inputs with their contiguous transpose and the
call's _block_constants, and _run_blocks, its one caller, binds a pass's
calls to the caller's arrays: the lockstep optimizer binds each span of
runs once per batch, a loss-only Monte-Carlo pass each posterior once per
size of its blocks of draws, the Fisher diagonal once per call, and
dataset_loss, gradient and sgd_train call it on one draw. Equal
calls on one run's draws share their label index and one-hot. The label
gradient is one subtraction of a label one-hot. _forward leaves the
logits max-shifted beside their log-sum-exp: a loss-only call takes each
label's entry and subtracts its sample's log-sum-exp, and only a call with
gradients forms the full log-softmax; both give the same bits.
Training is a deterministic function of (data, architecture, config, init).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .tasks import Dataset, RealSpace, _freeze

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
    "sgd_train",
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
        ws = tuple(_freeze(w, np.float64) for w in self.weights)
        bs = tuple(_freeze(b, np.float64) for b in self.biases)
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
    blocks = _layer_blocks(vec.reshape(1, -1), arch.layer_widths)
    return MlpParams(tuple(b[0, :-1] for b in blocks), tuple(b[0, -1] for b in blocks))


def _layer_blocks(ws: np.ndarray, widths) -> list[np.ndarray]:
    """Per-layer views (S, fan_in + 1, fan_out) of S flat parameter vectors
    ws (S, P): a layer's weight rows and then its bias row, as the flat row
    stores them."""
    out, pos, s = [], 0, ws.shape[0]
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        end = pos + (n_in + 1) * n_out
        out.append(ws[:, pos:end].reshape(s, n_in + 1, n_out))
        pos = end
    return out


def _augment(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inputs x (..., n, d0) with a ones column appended, (..., n, d0 + 1),
    and the same as a contiguous (..., d0 + 1, n) array: the operands that
    carry each first-layer bias inside the GEMM."""
    xa = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    xa[..., :-1] = x
    xa[..., -1] = 1.0
    return xa, np.ascontiguousarray(np.swapaxes(xa, -1, -2))


def forward_batch(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Probabilities (N, K) for a batch of inputs (N, d)."""
    widths, ws = p.architecture.layer_widths, flatten_params(p)[None]
    _, xt = _augment(np.asarray(x, np.float64)[None])
    z, lse, _ = _forward(widths, xt, ws, _layer_blocks(ws, widths))
    z -= lse
    return np.exp(z[0].T)


def forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Probability vector over K labels for a single input."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("invalid input: non-finite entries")
    return forward_batch(p, x[None, :])[0]


def _as_xy(d: Dataset, arch=None) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(d.space, RealSpace):
        raise ValueError("networks consume real-vector tasks "
                         "(see tasks.as_real_vectors)")
    if arch and (arch.input_dim != d.space.dim or arch.num_labels < d.num_labels):
        raise ValueError("architecture incompatible with dataset")
    return d.inputs, d.labels


def dataset_loss(p: MlpParams, d: Dataset) -> float:
    """Total cross-entropy over the dataset in NATS."""
    x, y = _as_xy(d)
    return float(_run_blocks(p.architecture.layer_widths, *_augment(x[None]), y[None],
                             flatten_params(p)[None], 1, np.empty(1))()[0][0])


def _run_blocks(widths, x, xt, y, ws, block, losses, grads=None, clip=None,
                sq_weight=None):
    """The kernel calls on R runs' run-major weight draws ws (R*S, P),
    augmented inputs x (R, n, d0 + 1) with contiguous transpose xt (R, d0 +
    1, n), and labels y (R, n), bound to the caller's arrays: returns a
    function that fills losses (R*S,) and, unless None, grads (R*S, P) (with
    sq_weight (R, n), the kernel's weighted squares, and x the squared
    augmented inputs) from what ws holds when it is called, and returns
    (losses, grads). A call takes at most
    ``block`` draws: whole runs while a run's S draws fit, else a slice of
    one run's draws. Each call's constants are built here, once, and the
    equal calls on one run's draws share their label constants."""
    r = x.shape[0]
    s = ws.shape[0] // r
    calls, per = [], max(1, block // max(s, 1))
    for r0 in range(0, r, per):
        r1 = min(r, r0 + per)
        step = max(1, min(s, block) * (r1 - r0))
        sized = {}          # call size on runs r0:r1 -> its first call's constants
        for lo in range(r0 * s, r1 * s, step):
            rows = slice(lo, min(lo + step, r1 * s))
            g = None if grads is None else grads[rows]
            size = rows.stop - lo
            if size in sized:           # an equal call's label index and one-hot
                consts = (*sized[size][:2], _layer_blocks(ws[rows], widths),
                          None if g is None else _layer_blocks(g, widths))
            else:
                consts = sized[size] = _block_constants(widths, y[r0:r1], ws[rows], g)
            calls.append((rows, (
                x[r0:r1], y[r0:r1], ws[rows], xt[r0:r1], consts, clip,
                None if sq_weight is None else sq_weight[r0:r1])))

    def run():
        for rows, args in calls:
            losses[rows] = _block_loss_and_grad(widths, *args)
        return losses, grads
    return run


def _block_constants(widths, y, ws, grads=None):
    """What a kernel call on labels y (R, n) and S rows ws (S, P) needs
    beside the data, for a caller that calls it on the same arrays again:
    the flat index (draw, sample) of each sample's label logit in an (S, K,
    n) array, the (S, K, n) one-hot of the labels (None without grads), and
    the layer blocks of ws and of grads (or None). The index and the one-hot
    depend on y and S only, and the kernel only reads them."""
    (r, n), s, k = y.shape, ws.shape[0], widths[-1]
    at = (np.repeat(y * n, s // r, axis=0)
          + np.arange(s)[:, None] * (k * n) + np.arange(n))
    if grads is None:
        return at, None, _layer_blocks(ws, widths), None
    onehot = np.zeros((s, k, n))
    onehot.reshape(-1)[at] = 1.0
    return at, onehot, _layer_blocks(ws, widths), _layer_blocks(grads, widths)


def _forward(widths, xt, ws, layers):
    """Max-shifted logits z (S, K, n), their log-sum-exp over labels lse
    (S, 1, n), so that z - lse is the log-softmax, and the input of each
    layer, as (draw, unit, sample) arrays with a ones row after the units,
    of the S rows ws (S, P) with layer blocks ``layers`` on the augmented
    inputs xt (R, d0 + 1, n): each layer's bias row rides in its GEMM. The
    first layer is one matmul over runs of each run's stacked weight blocks
    with its contiguous xt, deeper layers matmul per draw."""
    r, n = xt.shape[0], xt.shape[2]
    s, d1 = ws.shape[0], widths[1]
    z = np.matmul(layers[0].transpose(0, 2, 1).reshape(r, s // r * d1, widths[0] + 1),
                  xt).reshape(s, d1, n)
    hs = [xt]
    for d, block in zip(widths[1:], layers[1:]):
        h = np.empty((s, d + 1, n))
        np.maximum(z, 0.0, out=h[:, :d])
        h[:, d] = 1.0
        hs.append(h)
        z = np.matmul(block.transpose(0, 2, 1), h)
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    return z, np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True)), hs


def _block_loss_and_grad(widths, x, y, ws, xt, consts, clip=None, sq_weight=None):
    """Total cross-entropy (S,) of S flat parameter vectors ws (S, P) on R
    runs' data: augmented inputs x (R, n, d0 + 1) with xt their contiguous
    (R, d0 + 1, n) transpose (see _augment), and labels y (R, n). ws holds
    S / R draws per run, ordered run-major, and each draw is scored on its
    own run's data. consts is _block_constants(widths, y, ws, grads): the
    call fills grads (S, P) unless it is None, or with sq_weight (R, n) the
    squared per-sample gradients sum_i w_i g_i^2: g_i is linear in sample
    i's delta, so the delta is scaled by sqrt(w_i) and both factors of each
    product squared; x then holds the squares of the augmented inputs,
    which only the first layer's gradient reads. Per-sample losses are
    clipped at clip.
    """
    at, onehot, layers, out = consts
    r, n = x.shape[:2]
    s, d1 = ws.shape[0], widths[1]
    z, lse, hs = _forward(widths, xt, ws, layers)
    logp = z.reshape(-1).take(at)          # the label entries of z - lse
    logp -= lse.reshape(s, n)
    if clip is None:
        losses = np.negative(np.add.reduce(logp, axis=1))
    else:
        nll = np.negative(logp, out=logp)
        losses = np.add.reduce(np.minimum(nll, clip), axis=1)
    if out is None:
        return losses
    z -= lse                                               # log-softmax
    delta = np.subtract(np.exp(z, out=z), onehot, out=z)   # d loss / d logits
    if clip is not None:
        delta *= (nll <= clip)[:, None, :]                 # clipped: flat
    if sq_weight is not None:
        delta *= np.sqrt(np.repeat(sq_weight, s // r, axis=0))[:, None, :]
    sq = np.square if sq_weight is not None else (lambda a: a)
    for layer in range(len(layers) - 1, 0, -1):
        d2 = sq(delta)
        np.matmul(sq(hs[layer]), d2.transpose(0, 2, 1), out=out[layer])
        delta = np.matmul(layers[layer][:, :-1], delta)
        delta *= hs[layer][:, :-1] > 0
    out[0].transpose(0, 2, 1)[...] = np.matmul(
        sq(delta).reshape(r, s // r * d1, n), x).reshape(s, d1, widths[0] + 1)
    return losses


def gradient(p: MlpParams, batch) -> MlpParams:
    """Gradient of the summed batch loss, in parameter layout."""
    if isinstance(batch, Dataset):
        x, y = _as_xy(batch)
    else:
        x, y = np.asarray(batch[0], np.float64), np.asarray(batch[1], np.int64)
    if len(y) == 0:
        raise ValueError("gradient needs a nonempty batch")
    arch = p.architecture
    _, grads = _run_blocks(arch.layer_widths, *_augment(x[None]), y[None],
                           flatten_params(p)[None], 1, np.empty(1),
                           np.empty((1, arch.num_params)))()
    if not np.isfinite(grads).all():
        raise ValueError("gradient is not finite")
    return unflatten_params(grads[0], arch)


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
    x, y = _as_xy(d, arch)
    xa, xt = _augment(x)                   # the kernel's operands, built once
    params = init if isinstance(init, MlpParams) else init_params(arch, init)
    if params.architecture != arch:
        raise ValueError(f"init has architecture {params.architecture.layer_widths}, "
                         f"not {arch.layer_widths}")
    w = flatten_params(params)[None]       # the state: one flat (1, P) row
    grads, loss = np.empty_like(w), np.empty(1)
    full_pass = _run_blocks(arch.layer_widths, xa[None], xt[None], y[None], w, 1, loss)
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
                xb = xa[idx]         # not xt[:, idx]: a strided GEMM gives other bits
                _run_blocks(arch.layer_widths, xb[None], np.ascontiguousarray(xb.T)[None],
                            y[idx][None], w, 1, loss, grads)()
                stepped = w - lr * (grads + cfg.weight_decay * w)
                if not np.isfinite(stepped).all():
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch}",
                        last_params=unflatten_params(w[0], arch), trace=trace)
                w[...] = stepped             # in place: full_pass is bound to w
            full_pass()
            if not math.isfinite(loss[0]):
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}",
                    last_params=unflatten_params(w[0], arch), trace=trace)
            trace.append(float(loss[0]))
    return TrainResult(params=unflatten_params(w[0], arch), loss_trace=tuple(trace))
