"""Exact complexity oracle over an enumerable prefix-coded hypothesis family.

The uncomputable description length of a conditional distribution is replaced
by an explicit prefix-code length over a structured family of hypotheses:

* base rules over a discrete domain: the uniform distribution, one-hot
  constant rules, single-bit rules, and parity rules over the input bits,
  plus label-noise-smoothed copies of every deterministic rule, as
  `taskinfo.rules` enumerates, names and prices them;
* for datasets composed by disjoint union, pair rules that apply one rule
  per origin tag, with "same rule" and "child back-reference" encodings so
  that re-describing an already-described component is nearly free;
* a per-dataset memorization extension: any rule may additionally pin the
  labels of a subset S of the distinct training inputs, paying
  ln(U+1) + ln C(U, |S|) + |S| ln K extra NATS (U = distinct inputs).

Code lengths satisfy the Kraft budget sum exp(-len) <= 1, which is what
makes the memorization price exactly one NAT of description per NAT of loss
removed and puts the critical trade-off at beta = 1 for random labels.

Every family codes its base rules' tables: the sorted distinct values and
a read-only integer code per (rule, input, label) cell. A union family adds
its pair rules after them, factored: a pair rule is its two children, never
a table, and most pairs' children and costs follow from their position.
Screening evaluates each part's family once on its half of the inputs, and
every query gathers rows, by child index, only for the pair rules that a
lower bound from their children cannot rule out. Values are read per rule
as a query needs them, the float64 ``HypothesisFamily.tables`` only when read.

All reported losses and minima are exact: candidates are screened with fast
vectorized arithmetic, then every near-minimal candidate is re-evaluated with
`math.fsum` over per-sample terms, so results are independent of sample
order and reproducible bit for bit by naive re-enumeration. Ties within
TIE_ATOL of an exact minimum are broken by (code length, enumeration order).

Losses that are infinite (a zero probability hit) are carried as the
saturating sentinel INF_NATS, larger than any finite family value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rules as rules_mod
from .rules import LN2
from .tasks import (Dataset, DiscreteSpace, _freeze, disjoint_union,
                    generate_planted_task)

__all__ = [
    "INF_NATS",
    "TIE_ATOL",
    "Hypothesis",
    "Curve",
    "HypothesisFamily",
    "NoHypothesisError",
    "extension_cost",
    "empirical_loss",
    "mle",
    "complexity",
    "lagrangian_complexity",
    "lagrangian_sweep",
    "structure_function",
    "beta_sufficient_statistics",
    "BetaStatistic",
    "critical_beta",
    "deterministic_complexity",
    "oracle_distance",
    "expected_complexity_trial",
    "ExpectedComplexityTrial",
]

INF_NATS = 1e30          # saturating stand-in for an infinite loss
_INF_REPORT = 1e29       # anything above this is reported as math.inf
TIE_ATOL = 1e-9          # argmin tie window (documented tie-break rule)
_ROWS = 1 << 13          # rules per block when screening, bounds temporaries

_U = 2.0 ** -53           # unit roundoff of a float
PAIR_FLAG = LN2              # union families: flat rules vs pair rules
PAIR_KIND = math.log(3.0)    # pair encodings: fresh | same | child back-ref
PAIR_CHILD = LN2             # which child a back-reference points at


class NoHypothesisError(ValueError):
    """Raised when an operation needs a family member and none qualifies."""


def _ln_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _exp_fsum(costs: np.ndarray) -> float:
    """math.fsum of math.exp(-c) over the costs."""
    return float(math.fsum(map(math.exp, (-costs).tolist())))


def extension_cost(u: int, s: int, k: int) -> float:
    """Extra code length for pinning s of u distinct training inputs.

    ln(u+1) encodes |S|, ln C(u, s) the subset, s ln K the pinned labels.
    Every family member carries the s=0 surcharge ln(u+1), which keeps the
    Kraft sum of the extended family equal to that of the base rules.
    """
    return math.log(u + 1) + _ln_choose(u, s) + s * math.log(k)


# ---------------------------------------------------------------------------
# Hypotheses and curves


@dataclass(frozen=True)
class Hypothesis:
    """A conditional table p(y|x) with an explicit description length.

    ``pins`` records the memorized (input, label) pairs when the hypothesis
    is a pinned variant of a base rule; ``rule_index`` is the base rule's
    position in its family (-1 for hypotheses built outside a family). The
    table is kept as a private read-only copy, so the caller's array stays
    writeable.
    """

    table: np.ndarray
    code_length: float
    name: str = ""
    rule_index: int = -1
    pins: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        table = _freeze(self.table, np.float64)
        if table.ndim != 2:
            raise ValueError("hypothesis table must be (M, K)")
        if not np.isfinite(table).all():
            raise ValueError("hypothesis table entries must be finite")
        if (table < 0).any():
            raise ValueError("hypothesis table must be nonnegative")
        if table.size and np.abs(table.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("hypothesis rows must sum to 1 within 1e-12")
        if not (math.isfinite(self.code_length) and self.code_length >= 0):
            raise ValueError("code_length must be finite and >= 0")
        object.__setattr__(self, "table", table)

    @property
    def is_constant(self) -> bool:
        return bool((self.table == self.table[:1, :]).all())

    @property
    def is_deterministic(self) -> bool:
        return bool(((self.table == 0.0) | (self.table == 1.0)).all())

    def identity(self) -> tuple:
        """(rule index, pin set) key used when comparing argmin sets."""
        return (self.rule_index, frozenset(self.pins))


@dataclass(frozen=True)
class Curve:
    """Sampled trade-off curve: (abscissa, loss NATS, complexity NATS)."""

    abscissa: np.ndarray
    loss: np.ndarray
    complexity: np.ndarray

    def __post_init__(self):
        a, l, c = (_freeze(v, np.float64)
                   for v in (self.abscissa, self.loss, self.complexity))
        if not (a.shape == l.shape == c.shape) or a.ndim != 1:
            raise ValueError("curve columns must be equal-length 1-d arrays")
        if a.size > 1 and not (np.diff(a) > 0).all():
            raise ValueError("curve abscissas must be strictly increasing")
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "loss", l)
        object.__setattr__(self, "complexity", c)

    def __len__(self) -> int:
        return len(self.abscissa)


# ---------------------------------------------------------------------------
# Family construction


def _neg_log(p: np.ndarray) -> np.ndarray:
    """-ln p, cell by cell; INF_NATS where p = 0."""
    return np.where(p > 0, -np.log(np.maximum(p, 1e-300)), INF_NATS)


def _dense_group_loss(nl: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(R, g) sum_k counts[g, k] * nl[r, g, k], nl the `_neg_log` of tables."""
    return np.einsum("gk,rgk->rg", counts, nl)


class HypothesisFamily:
    """Enumerable hypothesis family over a discrete input space.

    Build with :meth:`for_space` (structured rules as described in the
    module docstring) or :meth:`from_rules` (explicit custom rules). The
    family exposes ``costs`` (R,), ``names``, ``tables`` (R, space.size,
    K), ``is_constant`` and ``is_deterministic``; list position is the
    enumeration order used for tie-breaking. ``_facts`` finds the
    constant and the deterministic rules once, on first read.

    Every family stores the tables of its first F rules coded: ``_values``,
    the sorted distinct table values (-0.0 and 0.0 share one, 0.0), and
    ``_flat``, the read-only (F, space.size, K) array of each cell's index
    into it, of dtype min_scalar_type(len(_values)): equal codes mean equal
    cells. Their names and costs are ``_flat_names`` and ``_flat_costs``;
    ``tables`` is built from the codes on first read. A flat or custom
    family is the case F = R with no parts: its ``costs`` and ``names`` are
    that array and list. A union from :meth:`for_space` adds pair rules
    after them, factored: it answers every table-valued query from its
    children, and builds its R-wide ``costs``, ``names`` and rule facts only
    when they are read. A pair rule has a left child, a rule of
    ``_parts[0]``, the left part's family, and a right child, a rule of
    ``_parts[1]`` (a back-referenced child lies in the right part's space,
    so it has the same enumeration there); a part may be a family of either
    kind. The pair rules come fresh, then ``_n_same`` pair(a|=), then the
    back-references. Fresh pair i, every left child with every right child,
    has the children divmod(i, len(_parts[1])); only the pair(a|=) and back-
    references store theirs, as rows of ``_tail_kids``, with ``_back_w``
    naming which child of the left pair each back-reference points at. Pair
    costs are few: ``_pair_cost`` holds the distinct ones, a fresh pair's
    index into it is ``_fresh_group`` at its children's cost classes
    ``_classes``, a stored pair's ``_tail_group``. The left child fills rows
    [0, mmax), the right child rows [mmax, 2 mmax), mmax = space.size // 2;
    rows past a child's own space are uniform.
    """

    def __init__(self, space: DiscreteSpace, num_labels: int, costs: np.ndarray,
                 values: np.ndarray, codes: np.ndarray, names: list, *,
                 noise_grid=(), parts=(), classes=(), pair_cost=None,
                 fresh_group=None, tail_kids=None, tail_group=None, n_same=0,
                 back_w=None):
        self.space, self.num_labels = space, num_labels
        self.noise_grid = tuple(noise_grid)
        codes.flags.writeable = False    # built here: frozen in place, not copied
        self._values, self._flat = values, codes
        self._flat_names, self._flat_costs = names, costs
        if not parts:
            self.costs, self.names = costs, names
        self._parts, self._classes, self._pair_cost = parts, classes, pair_cost
        self._fresh_group, self._tail_kids, self._tail_group = (
            fresh_group, tail_kids, tail_group)
        self._n_same, self._back_w = n_same, back_w
        self._n_fresh = len(parts[0]) * len(parts[1]) if parts else 0
        self._n_pairs = self._n_fresh + (len(tail_kids) if parts else 0)

    def _checked(self) -> "HypothesisFamily":
        """Check the Kraft budget (not for the parts)."""
        kraft, rel = self._kraft()    # kraft_sum() decides where the bound spans 1
        if (kraft * (1.0 + 2 * (rel + 3 * _U)) > 1.0 + 1e-9
                and self.kraft_sum() > 1.0 + 1e-9):
            raise ValueError(
                f"family violates the Kraft budget: {self.kraft_sum():.6f} > 1")
        return self

    def __len__(self) -> int:
        return len(self._flat) + self._n_pairs

    @functools.cached_property
    def costs(self) -> np.ndarray:
        """Code length of every rule; a union's built on first read."""
        return self._costs_of(np.arange(len(self)))

    @functools.cached_property
    def names(self) -> list[str]:
        """Rule names in enumeration order; a union's are built on first read."""
        return [self._name(i) for i in range(len(self))]

    @functools.cached_property
    def tables(self) -> np.ndarray:
        """Stacked (R, M, K) float64 tables, read-only, built on first read."""
        tables = self._tables_of(np.arange(len(self)))
        tables.flags.writeable = False
        return tables

    @functools.cached_property
    def is_constant(self) -> np.ndarray:
        """Whether each rule gives every input the same row; built on first read."""
        out = np.zeros(len(self), dtype=bool)
        out[self._facts[0]] = True
        return out

    @functools.cached_property
    def is_deterministic(self) -> np.ndarray:
        """Whether each rule's table is one-hot; built on first read."""
        out = np.zeros(len(self), dtype=bool)
        out[self._facts[2]] = True
        return out

    def kraft_sum(self) -> float:
        """sum of exp(-cost), rule by rule."""
        return _exp_fsum(self.costs)

    def _tables_of(self, rules) -> np.ndarray:
        """(len(rules), M, K) tables of the given rules, fresh arrays."""
        m, k = self.space.size, self.num_labels
        return self._cells(np.asarray(rules, dtype=np.int64),
                           np.repeat(np.arange(m), k),
                           np.tile(np.arange(k), m)).reshape(-1, m, k)

    def hypothesis(self, index_or_name) -> Hypothesis:
        """Base rule as a standalone Hypothesis (intrinsic code length)."""
        if isinstance(index_or_name, str):
            try:
                i = self.names.index(index_or_name)
            except ValueError:
                raise KeyError(index_or_name) from None
        else:
            i = range(len(self))[int(index_or_name)]
        return Hypothesis(table=self._tables_of([i])[0],
                          code_length=float(self._costs_of(np.array([i]))[0]),
                          name=self._name(i), rule_index=i)

    # -- the rule store -----------------------------------------------------

    def _name(self, i: int) -> str:
        """names[i], built alone."""
        nf = len(self._flat)
        if i < nf:
            return self._flat_names[i]
        left, right = self._parts
        p = i - nf - self._n_fresh
        if p < 0:
            a, b = divmod(i - nf, len(right))
            return f"pair({left._name(a)}|{right._name(b)})"
        tail = "=" if p < self._n_same else f"<{self._back_w[p - self._n_same]}]"
        return f"pair({left._name(int(self._tail_kids[p, 0]))}|{tail})"

    def _children(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(left child, right child, cost group) of each pair rule, the pairs
        numbered from 0 after the flat block: a fresh pair's from its number,
        a stored pair's from ``_tail_kids`` and ``_tail_group``."""
        a, b = np.divmod(pairs, len(self._parts[1]))
        stored = pairs >= self._n_fresh
        tail = pairs[stored] - self._n_fresh
        if len(tail):
            a[stored], b[stored] = self._tail_kids[tail].T
        li, ri = self._classes
        group = self._fresh_group[li[a], ri[b]]
        if len(tail):
            group[stored] = self._tail_group[tail]
        return a, b, group

    def _costs_of(self, rules: np.ndarray) -> np.ndarray:
        """costs[rules], read from the children of a union's pair rules."""
        if not self._parts:
            return self.costs[rules]
        nf = len(self._flat)
        flat = rules < nf
        if flat.all():
            return self._flat_costs[rules]
        out = np.empty(len(rules))
        out[flat] = self._flat_costs[rules[flat]]
        out[~flat] = self._pair_cost[self._children(rules[~flat] - nf)[2]]
        return out

    def _cells(self, rules: np.ndarray, xs: np.ndarray, ys: np.ndarray
               ) -> np.ndarray:
        """(len(rules), len(xs)) table values p(ys[j] | xs[j]) of each rule."""
        nf = len(self._flat)
        out = np.empty((len(rules), len(xs)))
        flat = rules < nf
        out[flat] = self._values[self._flat[rules[flat][:, None], xs, ys]]
        if not self._parts:
            return out
        pair = np.flatnonzero(~flat)
        kids = self._children(rules[pair] - nf)
        mmax = self.space.size // 2
        for side, child in enumerate(self._parts):
            at = np.flatnonzero((xs >= mmax) == bool(side))
            local = xs[at] - side * mmax
            inside = local < child.space.size
            out[np.ix_(pair, at[~inside])] = 1.0 / self.num_labels
            out[np.ix_(pair, at[inside])] = child._cells(
                kids[side], local[inside], ys[at[inside]])
        return out

    def _group_parts(self, xs: np.ndarray, counts: np.ndarray) -> tuple:
        """(flat, sides): what `_group_rows` reads for the groups with sorted
        distinct inputs ``xs`` and label counts ``counts`` (g, K). ``flat``
        holds the group losses of the ``_flat`` block; ``sides``, per part of
        a union (none for a flat family), (the columns of its half of the
        groups, the part's group losses there), each part evaluated once."""
        mmax = self.space.size // 2
        split = int(np.searchsorted(xs, mmax))
        halves = (slice(0, split), slice(split, None))
        return _dense_group_loss(self._neg_log_at(xs), counts), tuple(
            (cols, child._padded_group_loss(xs[cols] - side * mmax, counts[cols],
                                            self.num_labels))
            for side, (child, cols) in enumerate(zip(self._parts, halves)))

    def _group_rows(self, parts: tuple, rules: np.ndarray) -> np.ndarray:
        """(len(rules), g) losses of ``rules`` on the groups of `_group_parts`,
        bit for bit those of `_dense_group_loss` over the full tables; a pair
        rule's row is gathered from its children's rows by child index."""
        flat_loss, sides = parts
        nf = len(flat_loss)
        out = np.empty((len(rules), flat_loss.shape[1]))
        flat = rules < nf
        out[flat] = flat_loss[rules[flat]]
        pair = np.flatnonzero(~flat)
        for lo in range(0, len(pair), _ROWS):
            at = pair[lo:lo + _ROWS]
            kids = self._children(rules[at] - nf)
            for side, (cols, loss) in enumerate(sides):
                out[at, cols] = loss[kids[side]]
        return out

    def _padded_group_loss(self, xs, counts, k) -> np.ndarray:
        """(R, g) group losses; inputs past this space read the uniform row."""
        inside = int(np.searchsorted(xs, self.space.size))
        out = np.empty((len(self), len(xs)))
        out[:, :inside] = self._group_rows(
            self._group_parts(xs[:inside], counts[:inside]), np.arange(len(self)))
        out[:, inside:] = _dense_group_loss(
            _neg_log(np.full((1, len(xs) - inside, k), 1.0 / k)), counts[inside:])
        return out

    def _neg_log_at(self, xs) -> np.ndarray:
        """`_neg_log` of the flat rules' tables at the inputs xs, (F, len(xs), K): each
        value's -ln taken once elementwise (the bits of a log per cell), gathered by code."""
        return np.take(_neg_log(self._values), np.take(self._flat, xs, axis=1))

    @functools.cached_property
    def _class_rules(self) -> tuple[list, list]:
        """Per part of a union, its rules of each cost class, ascending."""
        return tuple([np.flatnonzero(c == j) for j in range(n)]
                     for c, n in zip(self._classes, self._fresh_group.shape))

    def _peak(self) -> float:
        """Largest table value of any rule (a union's padding is 1/K)."""
        return max([float(self._values.max(initial=0.0))]
                   + [child._peak() for child in self._parts])

    def _kraft(self) -> tuple[float, float]:
        """(sum of exp(-cost), a bound on its relative float error). A union's
        fresh pairs cost PAIR_FLAG + PAIR_KIND plus their children's costs, so
        their block is a product of the parts' sums, whose bound adds the
        parts' bounds, the roundings of exp, of two products and of each
        fresh cost's two additions (each within u of the largest cost)."""
        if not self._parts:
            return _exp_fsum(self.costs), 3 * _U
        (left, (kl, el)), (right, (kr, er)) = ((p, p._kraft()) for p in self._parts)
        base = PAIR_FLAG + PAIR_KIND
        rest = np.concatenate([self._flat_costs, self._pair_cost[self._tail_group]])
        err = el + er + (4 + 2 * (base + left.costs.max() + right.costs.max())) * _U
        return (math.fsum([_exp_fsum(rest), math.exp(-base) * kl * kr]),
                max(3 * _U, err) + _U)

    @functools.cached_property
    def _facts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(constant rules, the one row (K,) of each, deterministic rules),
        the rules ascending. A pair rule is constant when both children are,
        with the same row, and deterministic when both are; a child smaller
        than its half is padded with 1/K, so only its uniform constants
        count and none of its rules is deterministic. The flat rules'
        cells are compared by code."""
        t, values = self._flat, self._values   # rows equal in turn are all equal
        const = np.flatnonzero((t[:, 1:] == t[:, :-1]).all(axis=(1, 2)))
        zero, one = (int(np.searchsorted(values, v)) if v in values
                     else len(values) for v in (0.0, 1.0))   # len: no cell's code
        det = np.flatnonzero(((t == zero) | (t == one)).all(axis=(1, 2)))
        rows = values[t[const, 0, :]]
        if not self._parts:
            return const, rows, det
        sides = []
        for child in self._parts:
            r, w, d = child._facts
            if child.space.size < self.space.size // 2:   # uniform padding
                keep = (w == 1.0 / self.num_labels).all(axis=1)
                r, w, d = r[keep], w[keep], d[:0]
            full = np.full((len(child), self.num_labels), np.nan)  # NaN: not constant
            full[r] = w
            is_det = np.zeros(len(child), dtype=bool)
            is_det[d] = True
            sides.append((r, w, full, is_det))
        (ra, wa, full_a, da), (rb, wb, full_b, db) = sides
        # the fresh pairs, every left child with every right child, from the
        # children's facts; the stored pairs by child index
        ia, ib = np.nonzero((wa[:, None, :] == wb).all(axis=2))
        fresh_det = np.flatnonzero(da)[:, None] * len(db) + np.flatnonzero(db)
        a, b = self._tail_kids.T
        tail = np.flatnonzero((full_a[a] == full_b[b]).all(axis=1))
        nf, ns = len(t), len(t) + self._n_fresh
        return (np.concatenate([const, nf + ra[ia] * len(db) + rb[ib], ns + tail]),
                np.concatenate([rows, wa[ia], full_a[a[tail]]]),
                np.concatenate([det, nf + fresh_det.ravel(),
                                ns + np.flatnonzero(da[a] & db[b])]))

    # -- construction -------------------------------------------------------

    @classmethod
    def for_space(cls, space: DiscreteSpace, num_labels: int,
                  noise_grid: tuple[float, ...] = (0.05, 0.1, 0.2)
                  ) -> "HypothesisFamily":
        return cls._for_space(space, num_labels, tuple(noise_grid), {})

    @classmethod
    def _for_space(cls, space, k: int, noise_grid: tuple, built: dict
                   ) -> "HypothesisFamily":
        """for_space, with ``built`` a dict from (space, K, noise grid) to
        family: the family of ``space``, and of each part of a union, is
        taken from it or built and put into it."""
        key = (space, k, noise_grid)
        if key not in built:
            built[key] = cls._build(space, k, noise_grid, built)._checked()
        return built[key]

    @classmethod
    def from_rules(cls, hypotheses, space: DiscreteSpace | None = None,
                   num_labels: int | None = None) -> "HypothesisFamily":
        hs = list(hypotheses)
        if not hs:
            raise NoHypothesisError("no hypothesis: family is empty")
        tables = np.stack([h.table for h in hs])
        values, codes = np.unique(tables + 0.0, return_inverse=True)  # -0.0 reads 0.0
        return cls(space or DiscreteSpace(tables.shape[1]), num_labels or tables.shape[2],
                   np.array([float(h.code_length) for h in hs]), values,
                   codes.reshape(tables.shape).astype(np.min_scalar_type(len(values))),
                   [h.name or f"rule{i}" for i, h in enumerate(hs)])._checked()

    @classmethod
    def _build(cls, space, k, noise_grid, built: dict) -> "HypothesisFamily":
        flat = cls._flat_rules(space, k, noise_grid)
        if space.parts is None:
            return flat

        left_part, right_part = space.parts
        left, right = (cls._for_space(p.space, k, noise_grid, built)
                       for p in space.parts)
        n_flat, n_left, n_right = len(flat), len(left), len(right)
        n_same = n_left if left_part.space == right_part.space else 0
        # child back-references: (a, which) for every pair rule a of the left
        # part whose child `which` lies in the right part's space, a-major
        back_a = back_w = back_b = np.zeros(0, dtype=np.int64)
        if left._parts:
            which = np.flatnonzero([p.space == right_part.space
                                    for p in left_part.space.parts])
            pairs = np.arange(left._n_pairs)
            back_a, back_w = pairs.repeat(len(which)), np.tile(which, len(pairs))
            kids = left._children(back_a)
            back_a, back_b = back_a + len(left._flat), np.where(back_w == 0, *kids[:2])
        total = n_flat + n_left * n_right + n_same + len(back_a)
        rules_mod.check_size(space, total, flat._flat.size)

        # few distinct pair costs (kind + children's): the cost class of
        # every rule of each part, the fresh pairs' group per pair of classes
        lc, li = np.unique(PAIR_FLAG + PAIR_KIND + left.costs, return_inverse=True)
        rc, ri = np.unique(right.costs, return_inverse=True)
        cost, at = np.unique(np.concatenate([(lc[:, None] + rc).ravel(), lc,
                                             lc + PAIR_CHILD]), return_inverse=True)
        at = at.astype(np.min_scalar_type(len(cost)))
        fresh = len(lc) * len(rc)
        same = np.arange(n_same)            # pair(a|=), then pair(a|<w])
        return cls(space, k, flat.costs + PAIR_FLAG, flat._values, flat._flat,
                   [f"flat[{n}]" for n in flat.names], noise_grid=noise_grid,
                   parts=(left, right), classes=(li, ri), pair_cost=cost,
                   fresh_group=at[:fresh].reshape(len(lc), len(rc)),
                   tail_kids=np.stack([np.concatenate([same, back_a]),
                                       np.concatenate([same, back_b])], axis=1),
                   tail_group=np.concatenate([at[fresh + li[same]],
                                              at[fresh + len(lc) + li[back_a]]]),
                   n_same=n_same, back_w=back_w)

    @classmethod
    def _flat_rules(cls, space, k, noise_grid) -> "HypothesisFamily":
        """The flat rules of `rules_mod`, their names, costs and labels
        coded in one (R, M, K) table."""
        rules = rules_mod.check_family(space, k, noise_grid)    # before any array
        m, bits = space.size, space.bits
        labels = rules_mod.labels(m, k, bits)
        # the code table, filled in place: uniform, the one-hot rules (noise
        # level 0), then each rule at each noise level, rule-major. Its
        # slots, 1 / k then (off, on) per level, are coded by value (a set,
        # as np.unique pages in 0.45 MB of code)
        slot = [1.0 / k] + [v for pair in rules_mod.levels(k, noise_grid) for v in pair]
        values = np.array(sorted(set(slot)))
        codes, nd = np.empty((rules, m, k), dtype=np.min_scalar_type(len(values))), len(labels)
        slot = np.searchsorted(values, slot).astype(codes.dtype)
        codes[0] = slot[0]
        noisy = codes[1 + nd:].reshape(nd, len(noise_grid), m, k)
        hot = np.empty((nd, m, k), dtype=np.uint8)      # 1 at the rule's label, else 0
        for c in range(k):
            np.equal(labels, c, out=hot[..., c], casting="unsafe")
        # off + hot * (on - off), modulo the code dtype's range: on at the label
        delta = slot[2::2] - slot[1::2]
        for j, block in enumerate([codes[1:1 + nd], *noisy.swapaxes(0, 1)]):
            np.multiply(hot, delta[j], out=block)
            block += slot[2 * j + 1]
        return cls(space, k, rules_mod.costs(k, bits, len(noise_grid)), values, codes,
                   rules_mod.names(k, bits, noise_grid), noise_grid=noise_grid)


# ---------------------------------------------------------------------------
# Candidate evaluation
#
# A candidate is a pair (rule r, pin count s). The canonical pin set for
# (r, s) pins the s pure input groups with the largest group losses under r
# (ties toward the smaller group index); pinning a group sets its row
# one-hot at the group's label. Mixed-label groups cannot be pinned (no
# one-hot row reproduces them). Selection runs on vectorized approximate
# losses; every candidate that could be within the tie window of a minimum
# is re-evaluated exactly with fsum over per-sample terms.

_APPROX_MARGIN = 1e-6
_BLOCK = 1 << 22          # (candidate, sample) or (beta, pair) cells per block
_CELLS = 1 << 17          # (beta, rule[, pin count]) cells per multi-beta block


def _screen_margin(vmin: float) -> float:
    """Width of the shortlist above the approximate minimum vmin."""
    return _APPROX_MARGIN * (1.0 + abs(vmin)) + TIE_ATOL


def _pair_slack(floor: np.ndarray) -> np.ndarray:
    """Float slack of a child floor: summation order can put a screened
    value a few ulps below its exact lower bound, never 1e-9 relative."""
    return 1e-9 * (1.0 + np.abs(floor))


def _within(floor: np.ndarray, loose: np.ndarray, bound: np.ndarray) -> tuple:
    """(index, floor less its `_pair_slack`) of each floor whose floor less
    slack is within bound, index a tuple of arrays into floor; only the
    floors within ``loose`` (`_loose` of bound) get their slack. loose and
    bound broadcast to floor's shape."""
    shape = floor.shape
    at = np.unravel_index(np.flatnonzero(floor <= loose), shape)
    floor = floor[at]
    floor -= _pair_slack(floor)
    keep = floor <= np.broadcast_to(bound, shape)[at]
    return tuple(i[keep] for i in at), floor[keep]


def _loose(bound: np.ndarray) -> np.ndarray:
    """bound widened so that no floor x whose x - `_pair_slack`(x) is within
    bound lies above it: that needs x <= bound + 1e-9 (1 + |bound|), up to
    rounding, which the factor 4 covers; an infinite bound stays as it is."""
    out, finite = bound.copy(), np.isfinite(bound)
    out[finite] += 4e-9 * (1.0 + np.abs(bound[finite]))
    return out


def _suffix_losses(group: np.ndarray, pure_idx: np.ndarray,
                   mixed_idx: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """(rows, n_pure+1) approximate losses from group-loss rows, written to
    ``out`` when given: column s is the mixed groups' loss plus that of the
    pure groups left after pinning the s largest, a suffix sum of the
    ascending losses. Each row's values depend on that row alone."""
    if out is None:
        out = np.empty((len(group), len(pure_idx) + 1))
    ascending = np.take(group, pure_idx, axis=1)
    ascending.sort(axis=1)
    np.cumsum(ascending, axis=1, out=ascending)
    out[:, :-1] = ascending[:, ::-1]
    out[:, -1] = 0.0
    out += np.take(group, mixed_idx, axis=1).sum(axis=1)[:, None]
    return out


class _PinOrders:
    """Canonical pin orders, computed for the rules asked for.

    Indexes like an (R, n_pure) array: row r lists the pure groups by
    decreasing loss under rule r, ties toward the smaller group index (a
    stable argsort of the row). ``rows(rules)`` gives the group losses.
    """

    def __init__(self, rows, pure_idx: np.ndarray):
        self.rows = rows
        self.pure_idx = pure_idx

    def of(self, group: np.ndarray) -> np.ndarray:
        """The pin orders of the given group-loss rows."""
        loss = np.take(group, self.pure_idx, axis=-1)
        return self.pure_idx[np.argsort(-loss, axis=-1, kind="stable")]

    def __getitem__(self, key):
        rules, cols = key if isinstance(key, tuple) else (key, slice(None))
        order = self.of(self.rows(np.atleast_1d(rules)))
        return order[0, cols] if np.ndim(rules) == 0 else order[:, cols]


class _Candidates:
    """The candidates (rule, pin count) of one dataset under one family.

    Rows of group and approximate losses are built for the rules a query
    asks for, never for every rule of a union. Every query screens the
    rules with tables, then only the pair rules that a bound from their
    children cannot rule out (`_pair_floor`, `_pairs_within`), for all of
    its betas at once: a screened block's values carry a beta axis.
    """

    def __init__(self, d: Dataset, fam: HypothesisFamily):
        if not isinstance(d.space, DiscreteSpace):
            raise ValueError("the oracle works on discrete input spaces")
        if d.space.size != fam.space.size:
            raise ValueError(
                "incompatible hypothesis family: domain size "
                f"{fam.space.size} != dataset domain {d.space.size}")
        if d.labels.size and int(d.labels.max()) >= fam.num_labels:
            raise ValueError("incompatible hypothesis family: label outside K")
        self.d = d
        self.fam = fam
        self.k = fam.num_labels

        xs, inverse = np.unique(d.inputs, return_inverse=True)
        u = len(xs)
        counts = np.zeros((u, self.k), dtype=np.float64)
        np.add.at(counts, (inverse, d.labels), 1.0)
        if u:
            majority = counts.argmax(axis=1).astype(np.int64)
            pure = counts.sum(axis=1) == counts[np.arange(u), majority]
        else:
            majority = np.zeros(0, dtype=np.int64)
            pure = np.zeros(0, dtype=bool)
        self.xs = xs
        self.inverse = inverse
        self.counts = counts
        self.majority = majority
        self.pure = pure
        self.u = u
        self.n_pure = int(pure.sum())

        # approximate per-group losses (used for candidate selection only):
        # the flat rules' rows and, for a union, each part's rows
        self._parts = fam._group_parts(xs, counts)
        self._n_flat = len(self._parts[0])
        self._pure_idx, self._mixed_idx = np.flatnonzero(pure), np.flatnonzero(~pure)
        self.pin_order = _PinOrders(functools.partial(fam._group_rows, self._parts),
                                    self._pure_idx)  # self._group_rows: a cycle

        self.ext = np.array(
            [extension_cost(u, s, self.k) for s in range(self.n_pure + 1)])
        # the zero cap needs every term -ln p to be >= 0
        self.unit_bounded = fam._peak() <= 1.0
        self._floor_key = (None, None)

    def _group_rows(self, rules: np.ndarray) -> np.ndarray:
        """(len(rules), u) loss of the given rules on every input group."""
        return self.fam._group_rows(self._parts, rules)

    def _approx_rows(self, rules: np.ndarray) -> np.ndarray:
        """(len(rules), n_pure+1) approximate loss of the given rules'
        candidates (r, s), per row as `_suffix_losses` builds it."""
        out = np.empty((len(rules), self.n_pure + 1))
        for lo in range(0, len(rules), _ROWS):
            _suffix_losses(self._group_rows(rules[lo:lo + _ROWS]), self._pure_idx,
                           self._mixed_idx, out[lo:lo + _ROWS])
        return out

    @functools.cached_property
    def _flat_approx(self) -> np.ndarray:
        """Approximate loss rows of the rules with tables (all but pairs)."""
        return self._approx_rows(np.arange(self._n_flat))

    @functools.cached_property
    def _kid_rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per side of a union: (the approximate loss rows of the side's part
        family over the side's groups, transposed to (pin count, rule), and
        ln C(u_side, s) + s ln K)."""
        out = []
        for cols, loss in self._parts[1]:
            pure = self.pure[cols]
            u = len(pure)
            ext = np.array([extension_cost(u, s, self.k) - math.log(u + 1)
                            for s in range(int(pure.sum()) + 1)])
            out.append((np.ascontiguousarray(_suffix_losses(
                loss, np.flatnonzero(pure), np.flatnonzero(~pure)).T), ext))
        return out

    def _pair_floor(self, betas, pairs=slice(None), caps=(math.inf,)
                    ) -> np.ndarray:
        """Lower bounds on approx + beta * cost over the candidates of the
        pair rules ``pairs`` under each cap, NaN where a cap admits none, of
        shape betas.shape + (len(pairs), caps.shape[-1]); ``caps`` holds an
        ascending row per beta (one row for a lone beta). Pair p = (a, b)
        pins the top sa of its left child's side and the top sb of its
        right's, sa + sb = s, so approx(p, s) = A_a(sa) + B_b(sb), and C(u,
        s) >= C(u_L, sa) C(u_R, sb). For beta >= 0 and s <= S, approx + beta
        * cost >= beta * (cost_p + ln(u+1)) + f_a(S) + g_b(S), f_a(S) the
        least A_a(sa) + beta * (ln C(u_L, sa) + sa ln K) over sa <= S, g_b
        alike. S is the largest s with cost_p + ext(s) <= cap, as the
        buckets test it; ext is not monotone, so an s below S may be
        unadmitted, but none above is.
        """
        shape, beta = np.shape(betas), np.ravel(betas)
        caps = np.reshape(caps, (len(beta), -1))
        f, g = self._floor_tables(beta, caps)
        n = len(self.fam._pair_cost)
        if isinstance(pairs, slice):
            pairs = np.arange(self.fam._n_pairs)[pairs]
        a, b, group = self.fam._children(pairs)
        at = a * n + group                      # row: child * len(_pair_cost) + group
        floor = np.take(f, at, axis=0)
        floor += np.take(g, np.add(b * n, group, out=at), axis=0)
        return floor.transpose(1, 0, 2).reshape(shape + floor.shape[::2])

    def _floor_tables(self, beta: np.ndarray, caps: np.ndarray) -> list:
        """[f, g] of `_pair_floor` for the left and the right children, each
        (side rule * len(_pair_cost) + cost group, beta, cap), f with the
        pair's own cost term; kept for the last (beta, caps) asked for."""
        ucost = self.fam._pair_cost
        key = (beta.tobytes(), caps.tobytes(), caps.shape)
        if self._floor_key[0] != key:
            fits = ucost[:, None] + self.ext <= caps[:, :, None, None]
            top = (fits * np.arange(1, self.n_pure + 2)).max(axis=3).transpose(2, 0, 1) - 1
            # (side rule, cost, beta, cap): the least at S (top, -1 where none)
            f, g = (np.minimum.accumulate(rows + beta[:, None, None] * ext[:, None], axis=1)
                    .reshape(-1, rows.shape[1]).T[:, np.arange(len(beta))[:, None] * len(ext)
                                                  + np.minimum(np.maximum(top, 0), len(ext) - 1)]
                    for rows, ext in self._kid_rows)
            f += beta[:, None] * (ucost[:, None, None] + math.log(self.u + 1))
            f[:, top < 0] = np.nan
            self._floor_key = key, [t.reshape(-1, len(beta), caps.shape[1])
                                    for t in (f, g)]
        return self._floor_key[1]

    def _least_pair_floor(self, betas) -> np.ndarray:
        """min(_pair_floor(beta)) for each beta of betas, in betas' shape, up
        to float rounding, which `_pair_slack` covers. The fresh pairs, every
        left child with every right child, cost PAIR_FLAG + PAIR_KIND plus
        their children's costs, so the least floor among them is the sum of
        each side's least term; the stored pairs' floors under no cap are
        summed as `_pair_floor` sums them."""
        beta = np.reshape(betas, (-1, 1))
        fam = self.fam
        left, right = fam._parts
        f, g = ((rows + beta[:, :, None] * ext[:, None]).min(axis=1)
                for rows, ext in self._kid_rows)
        least = (beta[:, 0] * (PAIR_FLAG + PAIR_KIND + math.log(self.u + 1))
                 + (beta * left.costs + f).min(axis=1)
                 + (beta * right.costs + g).min(axis=1))
        a, b = fam._tail_kids.T
        rest = f[:, a] + beta * (fam._pair_cost[fam._tail_group] + math.log(self.u + 1))
        rest += g[:, b]
        return np.minimum(least, rest.min(axis=1, initial=np.inf)).reshape(np.shape(betas))

    def _floors_within(self, betas: np.ndarray, caps: np.ndarray, bound: np.ndarray):
        """(b, pair, floor) per chunk of the pair rules: every floor under the
        largest cap of beta b, caps[b, -1], less its slack, that is within
        bound[b, the pair's cost group]; the floor tables are built for all
        the caps, as the kept pairs' blocks use them. Only the floors within
        `_loose` of the bound get their slack. The fresh pairs go a block per
        (left cost class, right cost class), one cost group each, as outer
        sums of the children's floors; a block whose least floor, the sum of
        the least on each side, is above the loose bound of every beta is
        skipped. The stored pairs go as `_pair_floor` sums them. Each chunk
        holds at most _CELLS (beta, pair) cells."""
        fam, nb = self.fam, len(betas)
        f, g = (t[..., -1].reshape(len(side), -1, nb)     # (side rule, group, beta)
                for t, side in zip(self._floor_tables(betas, caps), fam._parts))
        loose, n_right = _loose(bound), len(fam._parts[1])
        groups = fam._fresh_group
        # per side, the least floor of each (cost class, group, beta); then
        # of each block, (left class, right class, beta)
        least = [np.minimum.reduceat(t[np.concatenate(by_class)],
                                     np.cumsum([0] + [len(r) for r in by_class[:-1]]))
                 for t, by_class in zip((f, g), fam._class_rules)]
        least = (least[0][np.arange(len(groups))[:, None], groups]
                 + least[1][np.arange(groups.shape[1]), groups])
        live = (least <= loose.T[groups]).any(axis=2)
        for (a, c), group in zip(np.argwhere(live).tolist(), groups[live].tolist()):
            left, right = fam._class_rules[0][a], fam._class_rules[1][c]
            fa, gb = f[left, group].T[:, :, None], g[right, group].T[:, None, :]
            step = max(_CELLS // (nb * len(right)), 1)
            for lo in range(0, len(left), step):
                (b, i, j), floor = _within(fa[:, lo:lo + step] + gb,
                                           loose[:, group, None, None],
                                           bound[:, group, None, None])
                yield b, left[lo + i] * n_right + right[j], floor
        step = max(_CELLS // nb, 1)
        for lo in range(fam._n_fresh, fam._n_pairs, step):
            pairs = np.arange(lo, min(lo + step, fam._n_pairs))
            a, c, group = fam._children(pairs)
            (b, p), floor = _within((f[a, group] + g[c, group]).T, loose[:, group],
                                    bound[:, group])
            yield b, pairs[p], floor

    def _pairs_within(self, betas: np.ndarray, caps: np.ndarray, bounds):
        """Blocks of the pair rules whose `_pair_floor` less its slack is
        within the live bound, bounds() (a row per beta), of some beta and
        cap (caps: an ascending row per beta). A beta takes part only when
        its `_least_pair_floor` less its slack is within its loosest bound.
        A pair is kept when, under one of those betas, its least floor is
        within the bound of the first cap admitting its s = 0
        (`_floors_within`); its key is the least height of such a floor
        above its beta's least pair floor. Kept pairs go by ascending key,
        in blocks re-tested beta by beta and cap by cap."""
        nf = self._n_flat
        if not self.fam._n_pairs or not caps.shape[1]:
            return
        bound = np.hstack([bounds(), np.full((len(betas), 1), -np.inf)])
        base = self._least_pair_floor(betas)
        live = np.flatnonzero(base - _pair_slack(base) <= bound.max(axis=1))
        if not len(live):
            return
        betas, caps, base, bound = betas[live], caps[live], base[live], bound[live]
        bound = np.take_along_axis(
            bound, _buckets(caps, self.fam._pair_cost + self.ext[0]), axis=1)
        near = [(np.zeros(0, np.intp), np.zeros(0))]    # (pair, height above base)
        for b, p, least in self._floors_within(betas, caps, bound):
            near.append((p, least - base[b]))
        p, height = (np.concatenate(x) for x in zip(*near))
        kept, which = np.unique(p, return_inverse=True)
        key = np.full(len(kept), np.inf)
        np.minimum.at(key, which, height)
        order = np.argsort(key, kind="stable")
        kept, key = kept[order], key[order]
        lo, step = 0, 64          # blocks double: the first ones lower the bounds
        while lo < len(kept):
            first = key[lo]
            at, lo, step = kept[lo:lo + step], lo + step, min(2 * step, _ROWS)
            bound = bounds()[live]
            # a later pair's key, its floor less base rounded, is no less, so
            # its floor is above every bound
            if (first > bound.max(axis=1) - base).all():
                return
            f = self._pair_floor(betas, at, caps)
            f -= _pair_slack(f)
            yield nf + at[(f <= bound[:, None]).any(axis=(0, 2))]

    def _screens(self, betas: np.ndarray, caps: np.ndarray, bounds, visit) -> None:
        """`_screen` the rules with tables, then the pairs that `_pairs_within`
        keeps under the live bounds(); a block is freed when visit returns."""
        self._screen(np.arange(self._n_flat), self._flat_approx, betas, visit)
        for pairs in self._pairs_within(betas, caps, bounds):
            self._screen(pairs, None, betas, visit)

    def _screen(self, rules, approx, betas: np.ndarray, visit) -> None:
        """visit(rules, values) per block of ``rules`` in stable cost order,
        values[i] = approx + betas[i] * cost, at most _CELLS (beta, rule, pin
        count) cells or one row of each beta; the approximate loss rows are
        ``approx`` (aligned with ``rules``) or, when None, built per block."""
        costs = self.fam._costs_of(rules)
        order = np.argsort(costs, kind="stable")
        step = max(_CELLS // (len(betas) * len(self.ext)), 1)
        for lo in range(0, len(rules), step):
            at = rules[order[lo:lo + step]]
            values = costs[order[lo:lo + step], None] + self.ext[None, :]
            values = values * betas[:, None, None]
            values += (self._approx_rows(at) if approx is None
                       else approx[order[lo:lo + step]])
            visit(at, values)

    # -- exact evaluation ---------------------------------------------------

    def _fsum_kept(self, ur: np.ndarray, ri: np.ndarray, pinned: np.ndarray
                   ) -> np.ndarray:
        """Exact loss of each candidate j: fsum of the per-sample -ln p under
        rule ur[ri[j]] over the samples where pinned[j] is False. -ln p is
        taken once per distinct table value."""
        p = self.fam._cells(ur, self.d.inputs, self.d.labels)
        values, codes = np.unique(p, return_inverse=True)
        nll = np.array([-math.log(v) if v > 0.0 else INF_NATS
                        for v in values.tolist()])[codes.reshape(p.shape)]
        return np.array([math.fsum(nll[i][keep].tolist())
                         for i, keep in zip(ri.tolist(), ~pinned)])

    def exact_losses(self, rules: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Exact losses of the candidates (rules[j], counts[j]), each with its
        canonical pin set. Candidates go in blocks of about _BLOCK
        (candidate, sample) cells, which bounds the working memory."""
        out = np.zeros(len(rules))
        step = max(1, _BLOCK // max(len(self.d), 1))
        for lo in range(0, len(rules), step):
            ur, ri = np.unique(rules[lo:lo + step], return_inverse=True)
            # rank[i, g]: position of group g in rule ur[i]'s pin order;
            # mixed groups rank past every pin count
            rank = np.full((len(ur), self.u), self.n_pure,
                           dtype=np.min_scalar_type(self.n_pure))
            rank[np.arange(len(ur))[:, None], self.pin_order[ur]] = \
                np.arange(self.n_pure)
            pinned = rank[:, self.inverse][ri] < counts[lo:lo + step, None]
            out[lo:lo + step] = self._fsum_kept(ur, ri, pinned)
        return out

    def exact_loss(self, r: int, pin_groups) -> float:
        """Exact loss of rule r with the given pure groups pinned."""
        pinned = np.isin(self.inverse, pin_groups)[None, :]
        return float(self._fsum_kept(np.array([r]), np.zeros(1, dtype=np.intp),
                                     pinned)[0])

    def pins_for(self, r: int, s: int, pin_groups=None) -> tuple:
        if pin_groups is None:
            pin_groups = self.pin_order[r, :s]
        return tuple(sorted(
            (int(self.xs[g]), int(self.majority[g])) for g in pin_groups))

    def hypothesis_for(self, r: int, s: int, pin_groups=None) -> Hypothesis:
        table = self.fam._tables_of([r])[0]
        pins = self.pins_for(r, s, pin_groups)
        for x, label in pins:
            table[x, :] = 0.0
            table[x, label] = 1.0
        cost = float(self.fam._costs_of(np.array([r]))[0] + self.ext[s])
        name = self.fam._name(r) + (f"+pin{len(pins)}" if pins else "")
        return Hypothesis(table=table, code_length=cost, name=name,
                          rule_index=r, pins=pins)

    # -- exact minimization over candidates ----------------------------------

    def minimize(self, beta: float):
        """Exact min of loss + beta * cost, beta >= 0: capped_minima at inf."""
        return self.capped_minima([beta], [math.inf])[0][0]

    def capped_minima(self, betas, t_grid) -> list:
        """For each beta of betas (each >= 0, in any order), the exact min
        of loss + beta * cost under cost <= t for each t of t_grid (strictly
        increasing, no NaN): a list per beta, from one screen and one exact
        re-check of the union of the betas' shortlists. Each is (value,
        (cost, r, s)): the first candidate, by the tie-break key (cost, r,
        s), among those whose exact value is within TIE_ATOL of the
        minimum; (inf, None) when none is under t.

        A candidate's bucket under a beta, searchsorted(caps, cost,
        "left"), is the first j with cost <= caps[j]. The minimum under
        t_grid[j] runs over buckets 0..j, so its threshold vmin + margin
        falls with j, and from block to block: a block keeps the candidates
        under their bucket's threshold so far, a superset of every t's
        shortlist. So a beta's final shortlist is every candidate within
        the margin of its minimum, whatever the order of the blocks. The
        rules with tables go first, then the pairs whose capped floor
        reaches some cap's live threshold (`_pairs_within`). A beta's caps
        are min(t_grid, c*) at beta = 0 with no table value above 1, else
        t_grid; c*, the least cost of a candidate with a table and
        approximate loss exactly 0.0, has exact loss 0 (see the zero cap),
        the least there is, so from c* on the minimum is 0 and dearer
        candidates lose the tie.
        """
        betas = np.asarray(betas, dtype=np.float64)
        t_grid = np.asarray(t_grid, dtype=np.float64)
        nb, n = len(betas), len(t_grid)
        if not nb:
            return []
        caps = np.tile(t_grid, (nb, 1))
        if self.unit_bounded and (betas == 0).any():
            # The zero cap. With no table value above 1, an approximate loss
            # is a float sum of terms count * -ln p >= 0 (INF_NATS at p ==
            # 0), 0.0 only when every term is. A kept pure group's term is 0
            # only at p == 1.0 (-ln p > 0 for every float p < 1); a mixed
            # group counts two labels of one row, which cannot both be 1.0.
            # So an approximate loss of 0.0 means every kept sample has p ==
            # 1.0, and the exact loss, an fsum of -ln 1.0 terms, is 0.0.
            r, s = np.nonzero(self._flat_approx == 0.0)
            c_zero = (self.fam._costs_of(r) + self.ext[s]).min(initial=np.inf)
            caps[betas == 0] = np.minimum(t_grid, c_zero)
        bmin = np.full((nb, n + 1), np.inf)     # minimum value per beta and bucket
        thr = np.full((nb, n + 1), np.inf)      # their thresholds, kept current
        thr[:, n] = -np.inf                     # bucket n, over every cap
        near = [(np.zeros(0, np.intp),) * 4 + (np.zeros(0),)]

        def keep(lo, at, values):
            # a block in cost order: each distinct cost is one run of rows
            ucost, first, cls = np.unique(self.fam._costs_of(at), return_index=True,
                                          return_inverse=True)
            rows, each = slice(lo, lo + len(values)), np.arange(len(values))[:, None, None]
            bucket = _buckets(caps[rows], ucost[:, None] + self.ext[None, :])
            np.minimum.at(bmin[rows], (each, bucket),
                          np.minimum.reduceat(values, first, axis=1))
            vmin = np.minimum.accumulate(bmin[rows, :n], axis=1)
            thr[rows, :n] = vmin + _screen_margin(vmin)
            b, r, s = np.unravel_index(
                np.flatnonzero(values <= thr[rows][each, bucket][:, cls]), values.shape)
            near.append((lo + b, at[r], s, bucket[b, cls[r], s], values[b, r, s]))

        # betas go in chunks of at most _BLOCK (beta, pair rule) cells
        step = max(_BLOCK // max(len(self.fam) - self._n_flat, 1), 1)
        for lo in range(0, nb, step):
            rows = slice(lo, lo + step)
            self._screens(betas[rows], caps[rows], lambda: thr[rows, :n],
                          functools.partial(keep, lo))
        b, r, s, k, v = (np.concatenate(x) for x in zip(*near))
        close = v <= thr[b, k]
        b, r, s, k, v = b[close], r[close], s[close], k[close], v[close]
        cost = self.fam._costs_of(r) + self.ext[s]
        # each distinct candidate is re-checked once, whichever betas keep it
        distinct, which = np.unique(r * len(self.ext) + s, return_inverse=True)
        loss = self.exact_losses(*np.divmod(distinct, len(self.ext)))
        exact = loss[which] + betas[b] * cost
        out = []
        for i in range(nb):
            mine, row = b == i, []
            for j in range(n):
                at = np.flatnonzero(mine & (k <= j) & (v <= thr[i, j]))
                if not len(at):
                    row.append((math.inf, None))
                    continue
                best = float(exact[at].min())
                tie = at[exact[at] <= best + TIE_ATOL]
                c = tie[np.lexsort((s[tie], r[tie], cost[tie]))[0]]
                row.append((best, (float(cost[c]), int(r[c]), int(s[c]))))
            out.append(row)
        return out


def _buckets(caps: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Per row of caps (ascending), each cost's bucket: the first j with
    cost <= caps[j], the row's length past every cap; the number of caps
    below the cost, as searchsorted(row, cost, "left") counts them."""
    below = caps.reshape(caps.shape[:1] + (1,) * costs.ndim + caps.shape[1:])
    return (below < costs[..., None]).sum(axis=-1)


def _report(value: float) -> float:
    return math.inf if value >= _INF_REPORT else value


# ---------------------------------------------------------------------------
# Operations


def empirical_loss(h: Hypothesis, d: Dataset) -> float:
    """Total cross-entropy sum_i -ln p(y_i | x_i); +inf on a zero hit."""
    if not isinstance(d.space, DiscreteSpace):
        raise ValueError("incompatible hypothesis: dataset is not discrete")
    if h.table.shape[0] != d.space.size:
        raise ValueError(
            f"incompatible hypothesis: table rows {h.table.shape[0]} != "
            f"domain {d.space.size}")
    if h.table.shape[1] < d.num_labels:
        raise ValueError("incompatible hypothesis: too few label columns")
    probs = h.table[d.inputs, d.labels]
    return _report(math.fsum(
        -math.log(p) if p > 0.0 else INF_NATS for p in probs))


def mle(d: Dataset) -> Hypothesis:
    """Empirical conditional frequencies; unseen inputs get the uniform row.

    Minimizes the empirical loss over all conditional tables. Not a family
    member; its code length is reported as 0.
    """
    if not isinstance(d.space, DiscreteSpace):
        raise ValueError("mle needs a discrete input space")
    m, k = d.space.size, d.num_labels
    counts = np.zeros((m, k))
    np.add.at(counts, (d.inputs, d.labels), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    table = np.where(totals > 0, counts / np.maximum(totals, 1.0), 1.0 / k)
    return Hypothesis(table=table, code_length=0.0, name="mle")


def lagrangian_complexity(d: Dataset, fam: HypothesisFamily, beta: float
                          ) -> tuple[float, Hypothesis]:
    """min over the extended family of loss + beta * code length."""
    return lagrangian_sweep(d, fam, [beta])[0]


def lagrangian_sweep(d: Dataset, fam: HypothesisFamily, betas
                     ) -> list[tuple[float, Hypothesis]]:
    """lagrangian_complexity at every beta, in any order: one screen of d's
    candidates for every beta, one exact re-check of their shortlists and
    one Hypothesis per distinct minimizer (`_Candidates.capped_minima`)."""
    betas = [float(b) for b in betas]
    if any(not b >= 0 for b in betas):
        raise ValueError("beta must be >= 0")
    cand = _Candidates(d, fam)
    hypotheses, out = {}, []
    for [(value, (_, r, s))] in cand.capped_minima(betas, [math.inf]):
        if (r, s) not in hypotheses:
            hypotheses[r, s] = cand.hypothesis_for(r, s)
        out.append((_report(value), hypotheses[r, s]))
    return out


def complexity(d: Dataset, fam: HypothesisFamily) -> tuple[float, Hypothesis]:
    """Two-part complexity: min of loss + code length (beta = 1)."""
    return lagrangian_complexity(d, fam, 1.0)


def structure_function(d: Dataset, fam: HypothesisFamily, t_grid) -> Curve:
    """S(t) = min loss among hypotheses of code length <= t.

    t_grid must be strictly increasing. A hypothesis is under t when its
    code length is <= t, the boundary included; t = +inf is allowed (the
    unconstrained minimum), NaN is rejected. Where no hypothesis is under
    t, S(t) and its complexity are inf. One screen serves every t
    (`_Candidates.capped_minima`): a pair rule is screened only where its
    children's rows, at the most pins t pays for, reach t's shortlist; from
    c*, the cheapest zero-loss statistic with a table, S(t) = 0 at c*.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.isnan(t_grid).any():
        raise ValueError("t_grid must not contain NaN")
    if t_grid.size > 1 and not (np.diff(t_grid) > 0).all():
        raise ValueError("t_grid must be strictly increasing")
    losses, complexities = [], []
    for best, where in _Candidates(d, fam).capped_minima([0.0], t_grid)[0]:
        losses.append(math.inf if where is None else _report(best))
        complexities.append(math.inf if where is None else where[0])
    return Curve(t_grid, np.array(losses), np.array(complexities))


@dataclass(frozen=True)
class BetaStatistic:
    hypothesis: Hypothesis
    value: float        # loss + beta * code length (exact)
    is_minimal: bool    # minimizes code length among the returned set


def beta_sufficient_statistics(d: Dataset, fam: HypothesisFamily, beta: float,
                               tol: float, max_results: int = 10_000
                               ) -> list[BetaStatistic]:
    """Every hypothesis within tol of the Lagrangian minimum.

    Pin-set ties are enumerated exhaustively, so for tol = 0 the result is
    exactly the argmin set (up to the TIE_ATOL float-tie window). The
    beta-minimal members (smallest code length) are flagged.
    """
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    cand = _Candidates(d, fam)
    vmin, _ = cand.minimize(beta)
    limit = vmin + tol + TIE_ATOL
    # the screen of `minimize`, at limit plus the margin of approximation
    bound = limit + _APPROX_MARGIN * (1.0 + abs(limit))
    found = []

    def keep(at, values):
        costs = cand.fam._costs_of(at)
        for j, s in zip(*np.nonzero(values[0] <= bound)):
            r, s = int(at[j]), int(s)
            cost = float(costs[j] + cand.ext[s])
            # the max loss a variant may have; limit holds loss + beta * cost
            # rounded to its ulp, which the subtraction cannot give back
            budget = limit - beta * cost + math.ulp(limit)
            for pin_groups in _pin_sets_within(cand, r, s, budget):
                loss = cand.exact_loss(r, pin_groups)
                if loss + beta * cost <= limit:
                    found.append((cost, r, s,
                                  tuple(int(g) for g in sorted(pin_groups)),
                                  loss + beta * cost))
                    if len(found) > max_results:
                        raise NoHypothesisError(
                            "too many sufficient statistics to enumerate")

    cand._screens(np.array([beta]), np.full((1, 1), np.inf),
                  lambda: np.full((1, 1), bound), keep)
    found.sort(key=lambda e: (e[1], e[2], e[3]))
    min_cost = min(e[0] for e in found)
    return [BetaStatistic(cand.hypothesis_for(r, s, np.array(pins, dtype=np.int64)),
                          _report(value), is_minimal=cost <= min_cost + TIE_ATOL)
            for cost, r, s, pins, value in found]


def _pin_sets_within(cand: _Candidates, r: int, s: int, budget: float):
    """s-subsets of pure groups keeping the variant loss <= budget.

    A variant's loss is the mixed groups' loss plus that of the pure groups
    it leaves unpinned. A depth-first branch-and-bound walk picks the
    n_pure - s groups to leave, from the smallest approximate loss up, so
    every sum it tests is over small losses only and stays accurate when
    the pinned groups carry INF_NATS. Callers re-check candidates exactly.
    """
    group = cand._group_rows(np.array([r]))[0]
    order = cand.pin_order.of(group)[::-1]  # pure groups by ascending loss
    glosses = group[order].tolist()
    leave = len(order) - s
    room = (budget + _APPROX_MARGIN * (1.0 + abs(budget)) + TIE_ATOL
            - float(group[cand._mixed_idx].sum()))
    prefix = np.concatenate([[0.0], np.cumsum(glosses)])
    stack = [(0, [], 0.0)]      # (first group to try, groups left, their loss)
    while stack:
        start, left, acc = stack.pop()
        if len(left) == leave:
            if acc <= room:
                yield np.delete(order, left)
            continue
        remaining = leave - len(left)
        branches = []
        for i in range(start, len(glosses) - remaining + 1):
            if acc + (prefix[i + remaining] - prefix[i]) > room:
                break
            branches.append((i + 1, left + [i], acc + glosses[i]))
        stack.extend(reversed(branches))


def critical_beta(d: Dataset, fam: HypothesisFamily, tol_bisect: float = 1e-3
                  ) -> float:
    """Largest beta at which the Lagrangian min is not constant-realized.

    Found by bisection: the result is the midpoint of the final bracket,
    within tol_bisect / 2 of the crossing (tol_bisect finite and > 0).
    Returns 0.0 when a constant rule already realizes the beta = 0 minimum.

    At each midpoint, with v_const the best constant's exact value and m =
    `_screen_margin` the approximation error that `minimize` allows,
    v_const > v + m + TIE_ATOL means "not realized" (v: the least value of
    a rule with a table but the unpinned constants), and w - m >= v_const
    "realized" (w: the least of v and of `_least_pair_floor` less its
    slack). The midpoints in between run the exact minimum, so the result
    is that of an exact evaluation at every midpoint.
    """
    if not (math.isfinite(tol_bisect) and tol_bisect > 0):
        raise ValueError(f"tol_bisect must be finite and > 0, got {tol_bisect!r}")
    const_rules = fam._facts[0]
    if not len(const_rules):
        raise ValueError("family contains no constant distributions")
    cand = _Candidates(d, fam)
    const_loss = cand.exact_losses(const_rules, np.zeros_like(const_rules)).tolist()
    const_cost = (fam._costs_of(const_rules) + cand.ext[0]).tolist()
    nf = cand._n_flat
    flat_cost = fam._costs_of(np.arange(nf))[:, None] + cand.ext[None, :]
    flat_approx = cand._flat_approx.copy()
    flat_approx[const_rules[const_rules < nf], 0] = np.inf   # the unpinned constants

    def constant_realized(beta: float) -> bool:
        vconst = min(loss + beta * cost for loss, cost in zip(const_loss, const_cost))
        v_flat = float((flat_cost * beta + flat_approx).min())
        if vconst > v_flat + _screen_margin(v_flat) + TIE_ATOL:
            return False
        low = v_flat
        if nf < len(fam):
            floor = cand._least_pair_floor(beta)
            low = min(low, floor - _pair_slack(floor))
        if low - _screen_margin(low) >= vconst:
            return True
        vmin, _ = cand.minimize(beta)
        return vconst <= vmin + TIE_ATOL

    if constant_realized(0.0):
        return 0.0
    hi = 1.0
    while not constant_realized(hi):
        hi *= 2.0
        if hi > 2.0 ** 40:
            raise RuntimeError("failed to bracket the critical beta")
    lo = 0.0
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        if constant_realized(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def deterministic_complexity(d: Dataset, fam: HypothesisFamily) -> float | None:
    """Min code length of a fully one-hot hypothesis with zero loss on d.

    None when the dataset carries contradictory labels (no deterministic
    table fits) or no family candidate qualifies.
    """
    cand = _Candidates(d, fam)
    if not cand.pure.all():
        return None
    u = cand.u
    best = None
    det = fam._facts[2]
    if len(det):
        # a rule must pin every input it misses and may pin more: its best
        # price is the cheapest extension from its miss count up
        misses = (fam._cells(det, cand.xs, cand.majority) != 1.0).sum(axis=1)
        cheapest_from = np.minimum.accumulate(cand.ext[::-1])[::-1]
        best = float((fam._costs_of(det) + cheapest_from[misses]).min())
    if u == d.space.size and u > 0:
        # every domain row is a training input: pinning all of them makes
        # any base rule one-hot and zero-loss
        c_all = float(fam.costs.min()) + extension_cost(u, u, cand.k)
        if best is None or c_all < best:
            best = c_all
    return best


def oracle_distance(d1: Dataset, d2: Dataset, fam: HypothesisFamily,
                    beta: float) -> float:
    """Asymmetric distance d(d1 -> d2) through the disjoint union.

    Minimal-statistic code length of d1 u d2 minus that of d1, floored at
    zero. ``fam`` is the family for d1. The union family has fam's number
    of labels, or the union's if that is more; at fam's, it takes ``fam``
    itself, whichever way it was built, as each part on fam's space and
    noise grid. The rest of it, its own flat rules included, comes from
    :meth:`HypothesisFamily.for_space` with fam's noise grid.
    """
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    c1 = _Candidates(d1, fam).minimize(beta)[1][0]
    du = disjoint_union(d1, d2)
    # a part of the union on fam's own space has fam as its family
    fam_u = HypothesisFamily._for_space(
        du.space, max(du.num_labels, fam.num_labels), fam.noise_grid,
        {(fam.space, fam.num_labels, fam.noise_grid): fam})
    c12 = _Candidates(du, fam_u).minimize(beta)[1][0]
    return max(0.0, c12 - c1)


@dataclass(frozen=True)
class ExpectedComplexityTrial:
    mean_complexity: float
    conditional_entropy: float      # H_p(y|x) per sample, uniform inputs
    complexities: tuple[float, ...]

    @property
    def std_error(self) -> float:
        c = np.array(self.complexities)
        return float(c.std(ddof=1) / math.sqrt(len(c))) if len(c) > 1 else 0.0


def expected_complexity_trial(fam: HypothesisFamily, rule: Hypothesis, n: int,
                              trials: int, seed: int) -> ExpectedComplexityTrial:
    """Monte-Carlo mean of C(D) over datasets drawn from ``rule``.

    Inputs are i.i.d. uniform over the domain; labels are drawn from the
    rule's rows. Also returns the rule's exact conditional entropy.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    values = []
    for trial in range(trials):
        d = generate_planted_task(n, rule, 0.0, seed=seed * 100_003 + trial)
        values.append(complexity(d, fam)[0])
    t = rule.table
    logs = np.where(t > 0, np.log(np.maximum(t, 1e-300)), 0.0)
    h = float(-(t * logs).sum(axis=1).mean())
    return ExpectedComplexityTrial(
        mean_complexity=float(np.mean(values)),
        conditional_entropy=h,
        complexities=tuple(values),
    )
