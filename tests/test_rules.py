"""The rule table of ``taskinfo.rules`` is the oracle family's.

A flat rule found by name or by index, without a family, has the table
that ``HypothesisFamily.hypothesis`` gives, bit for bit, and a name or
index that the family lacks raises the same error. The
family's names, costs and codes are those of the construction it used
before the rule table moved (``reference.coded_flat_rules``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskinfo.finite_oracle import HypothesisFamily
from taskinfo.rules import flat_rule
from taskinfo.tasks import Dataset, DiscreteSpace, disjoint_union

from .reference import coded_flat_rules

# powers of two and the sizes between them
SIZES = st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), st.integers(1, 70))
# the last grid is unsorted, holds 0.5 (both labels 0.5 at K = 2) and 1.0,
# and two levels that print alike: a name finds the first
GRIDS = st.sampled_from([(), (0.05, 0.1, 0.2), (0.5, 0.1, 0.1000001, 1.0)])


def _outcome(find):
    """(table dtype, table bytes) of the rule that find() returns, or the
    type of the exception it raises."""
    try:
        rule = find()
    except Exception as exc:
        return type(exc)
    return rule.table.dtype, rule.table.tobytes()


@settings(max_examples=25, deadline=None)
@given(m=SIZES, k=st.integers(2, 5), noise_grid=GRIDS)
def test_every_flat_rule_is_the_family_rule(m, k, noise_grid):
    space = DiscreteSpace(m)
    fam = HypothesisFamily.for_space(space, k, noise_grid)
    names, costs, values, codes = coded_flat_rules(space, k, noise_grid)
    assert fam.names == names
    assert fam.costs.tobytes() == costs.tobytes()
    assert fam._values.tobytes() == values.tobytes()
    assert fam._flat.dtype == codes.dtype and fam._flat.tobytes() == codes.tobytes()
    for i, name in enumerate(names):
        for key in (i, i - len(fam), name):
            assert (_outcome(lambda: flat_rule(space, k, key, noise_grid))
                    == _outcome(lambda: fam.hypothesis(key)))


TRICKY = ["uniform~q0.1", "const0~inv", "const01", "const2", "bit9", "bit0~inv~inv",
          "bit0~q0.1~inv", "bit0~q0.10", "bit0~q1e-1", "parity5", "parity0005",
          "parity999", "Bit0", "", "bit", "const" + "1" * 5000]


@settings(max_examples=60, deadline=None)
@given(m=SIZES, k=st.integers(2, 5), noise_grid=GRIDS, key=st.one_of(
    st.integers(-3000, 3000), st.floats(-3000, 3000), st.booleans(), st.none(),
    st.sampled_from(TRICKY), st.text("abceilnopqrtuvy~0123456789.", max_size=14)))
def test_a_key_finds_what_the_family_finds(m, k, noise_grid, key):
    # names and indices the family lacks raise the family's error
    space = DiscreteSpace(m)
    fam = HypothesisFamily.for_space(space, k, noise_grid)
    assert (_outcome(lambda: flat_rule(space, k, key, noise_grid))
            == _outcome(lambda: fam.hypothesis(key)))


@pytest.mark.parametrize("space, k, noise_grid, error", [
    (DiscreteSpace(8), 1, (), "family needs num_labels >= 2"),
    (DiscreteSpace(8), 2, (0.1, 1.5), r"noise level 1\.5 is not a number in \[0, 1\]"),
    (DiscreteSpace(100_000), 2, (), "family too large to enumerate "
     r"\(262181 rules, 52436200000 table cells over a domain of 100000 inputs\)"),
])
def test_a_family_that_cannot_be_built_has_no_rule(space, k, noise_grid, error):
    with pytest.raises(ValueError, match=error):
        HypothesisFamily.for_space(space, k, noise_grid)
    with pytest.raises(ValueError, match=error):
        flat_rule(space, k, 0, noise_grid)


def test_a_union_has_no_flat_rule_table():
    part = Dataset(np.arange(4), np.zeros(4, dtype=int), 2, DiscreteSpace(4))
    with pytest.raises(ValueError, match="pair rules"):
        flat_rule(disjoint_union(part, part).space, 2, "bit0")
