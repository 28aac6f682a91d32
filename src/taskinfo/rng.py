"""Deterministic random streams.

All randomness in the package flows through named Philox (counter-based)
streams keyed by an explicit integer seed plus a sequence of stream labels.
The same (seed, labels) pair always yields the same stream, on every
platform, which is what makes dataset generators, trainers and the CLI
byte-reproducible.

``_normal_into`` draws the same standard normals as ``stream(seed, *labels)``
without building a Generator: it sets the key of one reused Philox and
zeroes its counter, which is all a fresh stream holds.
"""

import hashlib
import threading

import numpy as np

__all__ = ["stream"]


def _key_from(seed: int, labels: tuple) -> np.ndarray:
    text = repr((int(seed),) + tuple(labels)).encode("utf-8")
    digest = hashlib.sha256(text).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Generator for the (seed, labels) stream.

    Labels are arbitrary hashable tags (strings, ints) naming the consumer,
    e.g. ``stream(seed, "shuffle", epoch)``. Distinct labels give
    statistically independent streams for the same seed.
    """
    return np.random.Generator(np.random.Philox(key=_key_from(seed, labels)))


# One bit generator reused by _normal_into; the lock makes setting its
# state and drawing from it one step.
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_LOCK = threading.Lock()


def _normal_into(out: np.ndarray, seed: int, *labels) -> np.ndarray:
    """Fill ``out`` with ``stream(seed, *labels).standard_normal(out.shape)``."""
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64),
                       "key": _key_from(seed, labels)},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    with _LOCK:
        _PHILOX.state = state
        return _GENERATOR.standard_normal(out=out)
