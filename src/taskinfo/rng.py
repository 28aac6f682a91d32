"""Deterministic random streams.

All randomness in the package flows through named Philox (counter-based)
streams keyed by an explicit integer seed plus a sequence of stream labels.
The same (seed, labels) pair always yields the same stream, on every
platform, which is what makes dataset generators, trainers and the CLI
byte-reproducible.

``_normal_into`` draws the same standard normals as ``stream(seed, *labels)``
without building a Generator: it sets the key of one reused Philox and
zeroes its counter, which is all a fresh stream holds, from one state
template that only its key changes in. The template holds Python lists and
the key two Python integers, which the state setter reads faster than
numpy arrays. ``_normal_blocks`` streams the same draw in consecutive
blocks of rows through one buffer, from one keyed Philox, for a consumer
that never holds the whole draw.
"""

import hashlib
import threading

import numpy as np

__all__ = ["stream"]


def _digest(seed: int, labels: tuple) -> bytes:
    return hashlib.sha256(repr((int(seed),) + tuple(labels)).encode("utf-8")).digest()


def _key_from(seed: int, labels: tuple) -> np.ndarray:
    return np.frombuffer(_digest(seed, labels)[:16], dtype=np.uint64)


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Generator for the (seed, labels) stream.

    Labels are arbitrary hashable tags (strings, ints) naming the consumer,
    e.g. ``stream(seed, "shuffle", epoch)``. Distinct labels give
    statistically independent streams for the same seed.
    """
    return np.random.Generator(np.random.Philox(key=_key_from(seed, labels)))


# One bit generator reused by _normal_into, and the state of a fresh
# stream with its key left to fill in; the lock makes setting the key and
# the state and drawing from it one step.
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_FRESH = {"bit_generator": "Philox",
          "state": {"counter": [0, 0, 0, 0], "key": None},
          "buffer": [0, 0, 0, 0], "buffer_pos": 4,
          "has_uint32": 0, "uinteger": 0}
_LOCK = threading.Lock()


def _normal_into(out: np.ndarray, seed: int, *labels) -> np.ndarray:
    """Fill ``out`` with ``stream(seed, *labels).standard_normal(out.shape)``."""
    # the two native-order 64-bit words of the digest: _key_from's key
    key = memoryview(_digest(seed, labels))[:16].cast("Q").tolist()
    with _LOCK:
        _FRESH["state"]["key"] = key
        _PHILOX.state = _FRESH
        return _GENERATOR.standard_normal(out=out)


def _normal_blocks(out: np.ndarray, rows: int, seed: int, *labels):
    """Yield the (rows, P) draw of ``_normal_into`` in consecutive blocks
    of rows, each filled into the head of out (B, P): len(out) rows at a
    time, then the rest. One Philox keyed to (seed, labels) draws them in
    turn, so the blocks concatenate to that draw bit for bit; each block
    is overwritten by the next."""
    gen = stream(seed, *labels)
    for lo in range(0, rows, len(out)):
        yield gen.standard_normal(out=out[:min(len(out), rows - lo)])
