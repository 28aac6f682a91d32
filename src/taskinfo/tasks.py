"""Datasets, synthetic task generators, transforms, and disjoint unions.

A task is a finite dataset of (input, label) pairs with a label alphabet of
size K. Inputs live either in a discrete space {0..M-1} or in R^d. All
generators are pure functions of their arguments including the seed, and
every downstream quantity in the package is invariant to sample order.

The disjoint union of two tasks tags each sample with its origin so that a
single model can tell the parts apart. For discrete inputs the tag becomes
a leading coordinate folded into a larger integer range; for real inputs a
one-hot origin pair is appended. Inputs of unequal size are reconciled by
zero padding, and the original part descriptors are kept on the composed
space so the parts can be recovered exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from . import textio
from .rng import stream

__all__ = [
    "DiscreteSpace",
    "RealSpace",
    "UnionPart",
    "Dataset",
    "TaskTransform",
    "generate_random_label_task",
    "generate_planted_task",
    "disjoint_union",
    "split_union",
    "apply_transform",
    "as_real_vectors",
    "subset_split",
    "save_dataset_csv",
    "load_dataset_csv",
]


# ---------------------------------------------------------------------------
# Input spaces


@dataclass(frozen=True)
class UnionPart:
    """Original (space, label alphabet) of one side of a disjoint union."""

    space: "DiscreteSpace | RealSpace"
    num_labels: int


@dataclass(frozen=True)
class DiscreteSpace:
    """Integers 0..size-1. ``parts`` is set when formed by disjoint_union."""

    size: int
    parts: tuple[UnionPart, UnionPart] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"discrete space needs size >= 1, got {self.size}")

    @property
    def bits(self) -> int:
        return max(1, int(math.ceil(math.log2(self.size))) if self.size > 1 else 1)


@dataclass(frozen=True)
class RealSpace:
    """Real vectors of fixed dimension."""

    dim: int
    parts: tuple[UnionPart, UnionPart] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"real space needs dim >= 1, got {self.dim}")


Space = DiscreteSpace | RealSpace


# ---------------------------------------------------------------------------
# Dataset


def _freeze(a, dtype) -> np.ndarray:
    """A C-ordered read-only copy; the caller's own array stays writeable.
    Every validated value type takes each array it is given through here."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """A finite supervised task.

    inputs: (N,) int64 for discrete spaces, (N, d) float64 for real spaces.
    labels: (N,) int64 with values in 0..num_labels-1.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_labels: int
    space: Space

    def __post_init__(self):
        labels = _freeze(self.labels, np.int64)
        if self.num_labels < 1:
            raise ValueError("invalid alphabet: num_labels must be >= 1")
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-d array")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_labels):
            raise ValueError("label index outside 0..K-1")
        if isinstance(self.space, DiscreteSpace):
            inputs = _freeze(self.inputs, np.int64)
            if inputs.ndim != 1:
                raise ValueError("discrete inputs must be a 1-d integer array")
            if inputs.size and (inputs.min() < 0 or inputs.max() >= self.space.size):
                raise ValueError("discrete input outside 0..M-1")
        else:
            inputs = _freeze(self.inputs, np.float64)
            if inputs.ndim != 2 or inputs.shape[1] != self.space.dim:
                raise ValueError("real inputs must be (N, dim)")
            if inputs.size and not np.isfinite(inputs).all():
                raise ValueError("real inputs must be finite")
        if len(inputs) != len(labels):
            raise ValueError("inputs and labels must have equal length")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def permuted(self, order: np.ndarray) -> "Dataset":
        """Same dataset with samples reordered (no semantic change)."""
        order = np.asarray(order)
        return replace(self, inputs=self.inputs[order], labels=self.labels[order])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_labels == other.num_labels
            and self.space == other.space
            and self.inputs.shape == other.inputs.shape
            and np.array_equal(self.inputs, other.inputs)
            and np.array_equal(self.labels, other.labels)
        )


# ---------------------------------------------------------------------------
# Generators


def generate_random_label_task(n: int, domain: Space, k: int, seed: int) -> Dataset:
    """Task whose labels are i.i.d. uniform over {0..k-1}.

    Discrete inputs are drawn distinct (without replacement), so the domain
    must have at least n elements; real inputs are standard normal draws.
    """
    if k < 2:
        raise ValueError(f"invalid alphabet: need k >= 2, got {k}")
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = stream(seed, "random-label-task")
    if isinstance(domain, DiscreteSpace):
        if domain.size < n:
            raise ValueError(
                f"domain exhausted: cannot draw {n} distinct inputs from {domain.size}"
            )
        inputs = rng.permutation(domain.size)[:n]
    else:
        inputs = rng.standard_normal((n, domain.dim))
    labels = rng.integers(0, k, size=n)
    return Dataset(inputs=inputs, labels=labels, num_labels=k, space=domain)


def generate_planted_task(n: int, rule, noise: float, seed: int) -> Dataset:
    """Task sampled from a known conditional rule over a discrete domain.

    ``rule`` is any object with a ``table`` attribute of shape (M, K) whose
    rows are conditional label distributions (a finite-oracle hypothesis
    qualifies). Inputs are i.i.d. uniform over 0..M-1; each label is drawn
    from the rule's row and then, with probability ``noise``, replaced by a
    uniformly random different label.
    """
    table = np.asarray(rule.table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("rule.table must be (M, K)")
    if not (0.0 <= noise <= 1.0):
        raise ValueError(f"invalid parameter: noise must be in [0, 1], got {noise}")
    m, k = table.shape
    rng = stream(seed, "planted-task")
    inputs = rng.integers(0, m, size=n)
    u = rng.random((n, 1))
    cdf = np.cumsum(table[inputs], axis=1)
    labels = (u > cdf).sum(axis=1).astype(np.int64)
    flip = rng.random(n) < noise
    if k > 1 and flip.any():
        shift = rng.integers(1, k, size=n)
        labels = np.where(flip, (labels + shift) % k, labels)
    return Dataset(inputs=inputs, labels=labels, num_labels=k, space=DiscreteSpace(m))


# ---------------------------------------------------------------------------
# Disjoint union


def _union_space(left: UnionPart, right: UnionPart) -> Space:
    """The input space of the disjoint union of two parts."""
    a, b = left.space, right.space
    if isinstance(a, DiscreteSpace) != isinstance(b, DiscreteSpace):
        raise ValueError("disjoint union requires a shared input kind")
    if isinstance(a, DiscreteSpace):
        return DiscreteSpace(2 * max(a.size, b.size), parts=(left, right))
    return RealSpace(max(a.dim, b.dim) + 2, parts=(left, right))


def disjoint_union(d1: Dataset, d2: Dataset) -> Dataset:
    """Concatenate two tasks, tagging every input with its origin.

    Output alphabet is max(K1, K2). Discrete: inputs become
    tag * max(M1, M2) + x over a domain of size 2 * max(M1, M2). Real:
    inputs are zero-padded to the larger dimension and a one-hot origin
    pair is appended. ``split_union`` inverts the construction exactly.
    """
    space = _union_space(UnionPart(d1.space, d1.num_labels),
                         UnionPart(d2.space, d2.num_labels))
    k = max(d1.num_labels, d2.num_labels)
    labels = np.concatenate([d1.labels, d2.labels])
    if isinstance(space, DiscreteSpace):
        inputs = np.concatenate([d1.inputs, d2.inputs + space.size // 2])
    else:
        dmax = space.dim - 2
        x1 = np.zeros((len(d1), dmax + 2))
        x1[:, : d1.space.dim] = d1.inputs
        x1[:, dmax] = 1.0
        x2 = np.zeros((len(d2), dmax + 2))
        x2[:, : d2.space.dim] = d2.inputs
        x2[:, dmax + 1] = 1.0
        inputs = np.concatenate([x1, x2])
    return Dataset(inputs=inputs, labels=labels, num_labels=k, space=space)


def split_union(d: Dataset) -> tuple[Dataset, Dataset]:
    """Recover the two parts of a disjoint union exactly."""
    if d.space.parts is None:
        raise ValueError("dataset is not a disjoint union")
    left, right = d.space.parts
    if isinstance(d.space, DiscreteSpace):
        mmax = d.space.size // 2
        is_right = d.inputs >= mmax
        x1 = d.inputs[~is_right]
        x2 = d.inputs[is_right] - mmax
    else:
        dmax = d.space.dim - 2
        is_right = d.inputs[:, dmax + 1] == 1.0
        x1 = d.inputs[~is_right][:, : left.space.dim]
        x2 = d.inputs[is_right][:, : right.space.dim]
    d1 = Dataset(x1, d.labels[~is_right], left.num_labels, left.space)
    d2 = Dataset(x2, d.labels[is_right], right.num_labels, right.space)
    return d1, d2


# ---------------------------------------------------------------------------
# Transforms


@dataclass(frozen=True)
class TaskTransform:
    """Deterministic dataset transform.

    kind is one of:
      subset               keep ceil(fraction * N) samples chosen by seed
      label_permutation    relabel through the given permutation of 0..K-1
      input_blur           1-d gaussian blur of real input vectors (width)
      sign_inversion       negate real inputs (color-inversion analogue)
      label_randomization  replace all labels with uniform draws (seed)

    A kind takes exactly its fields in _FIELDS; every other must be None.
    """

    kind: str
    fraction: float | None = None
    seed: int | None = None
    permutation: tuple[int, ...] | None = None
    width: float | None = None

    _FIELDS = {"subset": ("fraction", "seed"), "label_permutation": ("permutation",),
               "input_blur": ("width",), "sign_inversion": (),
               "label_randomization": ("seed",)}

    def __post_init__(self):
        if self.kind not in self._FIELDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        for f in dataclass_fields(self)[1:]:          # all but kind
            taken, value = f.name in self._FIELDS[self.kind], getattr(self, f.name)
            if taken and value is None:
                raise ValueError(f"{self.kind} needs {f.name}")
            if not taken and value is not None:
                raise ValueError(f"{self.kind} takes no {f.name}")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ValueError("subset needs fraction in [0, 1]")
        if self.width is not None and not self.width > 0:
            raise ValueError("input_blur needs width > 0")


def apply_transform(d: Dataset, t: TaskTransform) -> Dataset:
    if t.kind in ("input_blur", "sign_inversion") and not isinstance(d.space, RealSpace):
        raise ValueError(f"incompatible transform: {t.kind} needs real inputs")
    if t.kind == "subset":
        keep = int(math.ceil(t.fraction * d.n))
        order = stream(t.seed, "transform-subset").permutation(d.n)[:keep]
        order = np.sort(order)
        return replace(d, inputs=d.inputs[order], labels=d.labels[order])
    if t.kind == "label_permutation":
        perm = np.asarray(t.permutation, dtype=np.int64)
        if sorted(t.permutation) != list(range(d.num_labels)):
            raise ValueError("permutation must reorder 0..K-1")
        return replace(d, labels=perm[d.labels])
    if t.kind == "input_blur":
        radius = max(1, int(round(2 * t.width)))
        offsets = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 * (offsets / t.width) ** 2)
        kernel /= kernel.sum()
        blurred = np.zeros_like(d.inputs)
        dim = d.space.dim
        for off, w in zip(offsets, kernel):
            cols = np.clip(np.arange(dim) + off, 0, dim - 1)
            blurred += w * d.inputs[:, cols]
        return replace(d, inputs=blurred)
    if t.kind == "sign_inversion":
        return replace(d, inputs=-d.inputs)
    if t.kind == "label_randomization":
        labels = stream(t.seed, "transform-randomize").integers(
            0, d.num_labels, size=d.n
        )
        return replace(d, labels=labels)
    raise AssertionError(t.kind)


def as_real_vectors(d: Dataset) -> Dataset:
    """Re-encode a discrete task with bit-vector inputs in {0,1}^B.

    Bridges the two engines: the exact oracle consumes the discrete form,
    the network consumes the bit-vector form of the same task.
    """
    if not isinstance(d.space, DiscreteSpace):
        return d
    bits = d.space.bits
    x = ((d.inputs[:, None] >> np.arange(bits)[None, :]) & 1).astype(np.float64)
    return Dataset(x, d.labels, d.num_labels, RealSpace(bits))


def subset_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/holdout split."""
    n_train = int(math.ceil(train_fraction * d.n))
    order = stream(seed, "split").permutation(d.n)
    tr, te = np.sort(order[:n_train]), np.sort(order[n_train:])
    return (
        replace(d, inputs=d.inputs[tr], labels=d.labels[tr]),
        replace(d, inputs=d.inputs[te], labels=d.labels[te]),
    )


# ---------------------------------------------------------------------------
# CSV round trip
#
# Format: `# taskinfo-dataset v1, K=<k>, input=<discrete:M|real:d>` then one
# row per sample, label in the last column, comma separated, no quoting.
# Disjoint unions carry one extra comment line `# union=<spec>` so that
# composed tasks round-trip exactly.


def _space_token(space: Space) -> str:
    if isinstance(space, DiscreteSpace):
        return f"discrete:{space.size}"
    return f"real:{space.dim}"


def _union_spec(space: Space) -> str:
    if space.parts is None:
        return _space_token(space)
    left, right = space.parts
    return (
        f"({_union_spec(left.space)},K={left.num_labels}|"
        f"{_union_spec(right.space)},K={right.num_labels})"
    )


_MAX_UNION_DEPTH = 64
_SPACE_TOKEN = re.compile(r"(discrete|real):([0-9]+)")
_PART_END = re.compile(r",K=([0-9]+)([|)])")


def _parse_union_spec(text: str, pos: int = 0, depth: int = 0) -> tuple[Space, int]:
    """(space, end) of the `# union=` spec at text[pos:], read in one pass;
    ValueError on a malformed spec, on parts of two kinds, on a union part
    whose K is not the largest K of its own parts, and on unions nested
    deeper than _MAX_UNION_DEPTH."""
    m = _SPACE_TOKEN.match(text, pos)
    if m is not None:
        kind = DiscreteSpace if m[1] == "discrete" else RealSpace
        space, pos = kind(int(m[2])), m.end()
    elif not text.startswith("(", pos):
        raise ValueError(f"bad union spec near {text[pos:pos + 20]!r}")
    elif depth == _MAX_UNION_DEPTH:
        raise ValueError(f"unions nested deeper than {_MAX_UNION_DEPTH}")
    else:
        parts = []
        for close in "|)":      # pos is at "(", then at "|"
            part, pos = _parse_union_spec(text, pos + 1, depth + 1)
            m = _PART_END.match(text, pos)
            if m is None or m[2] != close:
                raise ValueError(f"bad union spec near {text[pos:pos + 20]!r}")
            k, k_parts = int(m[1]), [p.num_labels for p in part.parts or ()]
            if k_parts and k != max(k_parts):
                raise ValueError(f"a part has K={k}, its own parts K={max(k_parts)}")
            parts.append(UnionPart(part, k))
            pos = m.end() - 1
        space, pos = _union_space(*parts), pos + 1
    if depth == 0 and pos != len(text):
        raise ValueError(f"bad union spec near {text[pos:pos + 20]!r}")
    return space, pos


def _dataset_lines(d: Dataset) -> list[str]:
    """The lines of d's dataset file, header first."""
    lines = [textio.header("dataset", f"K={d.num_labels}",
                           f"input={_space_token(d.space)}")]
    if d.space.parts is not None:
        lines.append(f"# union={_union_spec(d.space)}")
    if isinstance(d.space, DiscreteSpace):
        for x, y in zip(d.inputs, d.labels):
            lines.append(f"{x},{y}")
    else:
        for row, y in zip(d.inputs, d.labels):
            lines.append(",".join(repr(float(v)) for v in row) + f",{y}")
    return lines


def save_dataset_csv(d: Dataset, path) -> None:
    textio.write({path: textio.join(_dataset_lines(d))})


def load_dataset_csv(path) -> Dataset:
    """Read a dataset file; malformed input raises ValueError("path:line: ...")."""
    head, header, lines = textio.read(path, "dataset")
    fields = dict(
        part.strip().split("=", 1) for part in header.split(",")[1:] if "=" in part
    )
    for key in ("K", "input"):
        if key not in fields:
            textio.fail(path, head, f"header has no {key}= field")
    kind, _, size = fields["input"].partition(":")
    if kind not in ("discrete", "real"):
        textio.fail(path, head, f"unknown input kind {kind!r}")
    with textio.at(path, head):
        k = int(fields["K"])
        space: Space = (DiscreteSpace if kind == "discrete" else RealSpace)(int(size))
    rows = []
    for no, ln in lines:
        if ln.startswith("# union="):
            try:
                union, _ = _parse_union_spec(ln[len("# union="):])
            except ValueError as exc:
                textio.fail(path, no, f"bad union spec: {exc}")
            if _space_token(union) != _space_token(space):
                textio.fail(path, no, f"union spec gives input={_space_token(union)}"
                                      f", the header input={fields['input']}")
            k_union = max((p.num_labels for p in union.parts or ()), default=k)
            if k_union != k:
                textio.fail(path, no, f"union spec gives K={k_union}, the header K={k}")
            space = union
        elif not ln.startswith("#"):
            rows.append((no, ln))

    discrete = isinstance(space, DiscreteSpace)
    width = 2 if discrete else space.dim + 1
    cells = [ln.split(",") for _, ln in rows]
    for (no, _), row in zip(rows, cells):
        if len(row) != width:
            textio.fail(path, no, f"expected {width} columns, got {len(row)}")
    inputs = (np.empty(len(rows), dtype=np.int64) if discrete
              else np.empty((len(rows), space.dim)))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, ((no, _), row) in enumerate(zip(rows, cells)):
        try:
            labels[i] = int(row[-1])
            inputs[i] = int(row[0]) if discrete else [float(v) for v in row[:-1]]
        except (ValueError, OverflowError) as exc:
            textio.fail(path, no, exc)
    if discrete:
        bad = (inputs < 0) | (inputs >= space.size)
        what = f"discrete input outside 0..{space.size - 1}"
    else:
        bad = ~np.isfinite(inputs).all(axis=1)
        what = "real input not finite"
    for mask, message in ((bad, what), ((labels < 0) | (labels >= k),
                                        f"label outside 0..{k - 1}")):
        if mask.any():
            textio.fail(path, rows[int(np.argmax(mask))][0], message)
    with textio.at(path, head):
        return Dataset(inputs=inputs, labels=labels, num_labels=k, space=space)
