"""taskinfo: information complexity and asymmetric distance of learning tasks.

Two engines over the same task abstraction:

* :mod:`taskinfo.finite_oracle` computes exact two-part complexities,
  structure functions, Lagrangians and distances by enumerating a
  prefix-coded hypothesis family over discrete domains;
* :mod:`taskinfo.variational` measures the information in the parameters of
  a small feed-forward network through a mean-field Gaussian posterior, with
  :mod:`taskinfo.bounds`, :mod:`taskinfo.distance` and
  :mod:`taskinfo.annealing` built on top.

The :mod:`taskinfo.cli` front-end batches both engines into CSV/SVG outputs.

``import taskinfo`` loads only :mod:`taskinfo.tasks`, the datasets, spaces,
streams and text I/O that both engines share. Each engine module is
imported on its first use, ``taskinfo.finite_oracle`` or ``from taskinfo
import variational`` alike, so a process loads only the engine it runs.
"""

import importlib

__version__ = "0.1.0"

from . import tasks

__all__ = [
    "tasks",
    "finite_oracle",
    "models",
    "variational",
    "bounds",
    "distance",
    "annealing",
    "__version__",
]


def __getattr__(name):
    """Import an engine module of ``__all__`` on first access (PEP 562)."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
