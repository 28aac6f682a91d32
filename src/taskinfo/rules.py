"""The flat rules of an oracle family over a discrete input space.

Every flat rule is a function of the input x in 0..M-1, where M is the
space's ``size`` and B its ``bits``: the uniform distribution; ``const{c}``,
label c everywhere; ``bit{j}``, bit j of x; ``parity{mask:03d}``, the parity
of x & mask; each bit and parity also inverted (``~inv``); and every one of
these deterministic rules smoothed at each noise level q of the family's
grid (``~q{q:g}``): 1 - q at its label and q / (K - 1) at every other.

Enumeration order: uniform; the D = K + 2B + 2^(B+1) deterministic rules,
the constants, then each bit and each parity followed by its inversion;
then each deterministic rule at each noise level, rule-major. This module
holds that order, the names, code lengths, labels and table values, and the
family's size bound, and imports neither engine: `finite_oracle` codes every
family's flat rules from it, and a planted task takes its rule from
`flat_rule` without building a family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MAX_RULES", "MAX_CELLS", "check_noise_grid", "check_size",
           "check_family", "names", "costs", "labels", "levels", "FlatRule",
           "flat_rule"]

MAX_RULES = 400_000
MAX_CELLS = 2 ** 27       # coded cells of the flat rules (1 GiB as float64 tables)

LN2 = math.log(2.0)
GROUP_TAG = math.log(4.0)    # four base-rule groups share the budget equally


def check_noise_grid(noise_grid) -> None:
    """Raise ValueError naming the first noise level that is not a finite
    number in [0, 1]."""
    for q in noise_grid:
        if not (math.isfinite(q) and 0.0 <= q <= 1.0):
            raise ValueError(f"noise level {q!r} is not a number in [0, 1]")


def check_size(space, rules: int, cells: int) -> None:
    """Raise ValueError if a family of ``rules`` rules, whose flat rules have
    ``cells`` table cells, is too large to enumerate."""
    if rules > MAX_RULES or cells > MAX_CELLS:
        raise ValueError(
            f"family too large to enumerate ({rules} rules, {cells} table "
            f"cells over a domain of {space.size} inputs); use smaller domains")


def _deterministic(k: int, bits: int) -> int:
    """D, the number of deterministic flat rules."""
    return k + 2 * bits + 2 ** (bits + 1)


def check_family(space, k: int, noise_grid: tuple) -> int:
    """The number of flat rules of the family of ``space`` with K = ``k``
    labels at ``noise_grid``, after the checks that a family makes before
    any array: K >= 2, the noise grid, and the size of the flat rules."""
    if k < 2:
        raise ValueError("family needs num_labels >= 2")
    check_noise_grid(noise_grid)
    rules = 1 + _deterministic(k, space.bits) * (1 + len(noise_grid))
    check_size(space, rules, rules * space.size * k)
    return rules


def names(k: int, bits: int, noise_grid: tuple) -> list[str]:
    """The name of every flat rule, in enumeration order."""
    det = [f"const{c}" for c in range(k)] + [
        f"{rule}{t}" for rule in [f"bit{j}" for j in range(bits)]
        + [f"parity{mask:03d}" for mask in range(2 ** bits)] for t in ("", "~inv")]
    suffixes = [f"~q{v:g}" for v in noise_grid]
    return ["uniform"] + det + [n + q for n in det for q in suffixes]


def costs(k: int, bits: int, n_levels: int) -> np.ndarray:
    """The code length of every flat rule, in enumeration order, for a noise
    grid of ``n_levels`` levels."""
    smooth_tag = math.log(1 + n_levels) if n_levels else 0.0
    det = np.repeat([GROUP_TAG + math.log(k) + smooth_tag,
                     GROUP_TAG + math.log(bits) + LN2 + smooth_tag,
                     GROUP_TAG + bits * LN2 + LN2 + smooth_tag],
                    [k, 2 * bits, 2 ** (bits + 1)])
    return np.concatenate([[GROUP_TAG], det, det.repeat(n_levels)])


def labels(m: int, k: int, bits: int) -> np.ndarray:
    """(D, M) label of each deterministic rule at each input, of dtype
    min_scalar_type(K), filled in place. parity[mask, x] is that of
    popcount(x & mask), built by doubling: the masks with bit j set follow
    those without."""
    small = np.min_scalar_type(k)
    out = np.empty((_deterministic(k, bits), m), dtype=small)
    out[:k] = np.arange(k, dtype=small)[:, None]
    pairs = out[k:].reshape(-1, 2, m)        # each bit and parity, then its inversion
    bit, parity = pairs[:bits, 0], pairs[bits:, 0]
    np.bitwise_and(np.arange(m) >> np.arange(bits)[:, None], 1, out=bit, casting="unsafe")
    parity[0] = 0
    for j in range(bits):
        np.bitwise_xor(parity[:1 << j], bit[j], out=parity[1 << j:2 << j])
    np.bitwise_xor(pairs[:, 0], 1, out=pairs[:, 1])
    return out


def levels(k: int, noise_grid: tuple) -> list[tuple[float, float]]:
    """(off, on) table values of a deterministic rule at noise 0, then at each
    level q of the grid: q / (K - 1) off the rule's label and 1 - q at it
    (+ 0.0 turns -0.0 into 0.0)."""
    return [(x / (k - 1) + 0.0, 1 - x + 0.0) for x in [0.0, *map(float, noise_grid)]]


@dataclass(frozen=True)
class FlatRule:
    """One flat rule's (M, K) float64 ``table``, bit for bit the family's: a
    planted task draws from it as from a finite-oracle ``Hypothesis``."""

    table: np.ndarray


def flat_rule(space, num_labels: int, index_or_name,
              noise_grid: tuple[float, ...] = (0.05, 0.1, 0.2)) -> FlatRule:
    """The flat rule that ``HypothesisFamily.for_space(space, num_labels,
    noise_grid).hypothesis(index_or_name)`` finds, without building the
    family: by name, the first if noise levels print alike, else by the
    integer of ``index_or_name`` (negative indices count from the end).
    Raise what ``for_space`` raises for the family, then KeyError for an
    unknown name and IndexError for an index out of range. ``space`` is not
    a union: a union's family has pair rules."""
    if space.parts is not None:
        raise ValueError("a union's family has pair rules: use HypothesisFamily")
    noise_grid = tuple(noise_grid)
    k, bits, m = num_labels, space.bits, space.size
    count = check_family(space, k, noise_grid)
    if isinstance(index_or_name, str):
        try:
            i = names(k, bits, noise_grid).index(index_or_name)
        except ValueError:
            raise KeyError(index_or_name) from None
    else:
        i = range(count)[int(index_or_name)]
    if i == 0:
        return FlatRule(np.full((m, k), 1.0 / k))
    nd = _deterministic(k, bits)
    if i <= nd:
        d, level = i - 1, 0
    else:
        d, j = divmod(i - 1 - nd, len(noise_grid))
        level = j + 1
    off, on = levels(k, noise_grid)[level]
    table = np.full((m, k), off)
    table[np.arange(m), labels(m, k, bits)[d]] = on
    return FlatRule(table)
