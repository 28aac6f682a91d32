import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfo import tasks
from taskinfo.tasks import (
    Dataset,
    DiscreteSpace,
    RealSpace,
    TaskTransform,
    apply_transform,
    as_real_vectors,
    disjoint_union,
    generate_planted_task,
    generate_random_label_task,
    load_dataset_csv,
    save_dataset_csv,
    split_union,
)


class ConstantRule:
    def __init__(self, m, k, label=0):
        self.table = np.zeros((m, k))
        self.table[:, label] = 1.0


def test_random_label_empty_dataset():
    d = generate_random_label_task(0, DiscreteSpace(8), 2, seed=7)
    assert d.n == 0 and d.num_labels == 2


def test_random_label_determinism():
    a = generate_random_label_task(100, RealSpace(5), 2, seed=3)
    b = generate_random_label_task(100, RealSpace(5), 2, seed=3)
    assert a == b
    c = generate_random_label_task(100, RealSpace(5), 2, seed=4)
    assert not (a == c)


def test_random_label_invalid_alphabet():
    with pytest.raises(ValueError, match="alphabet"):
        generate_random_label_task(5, DiscreteSpace(8), 1, seed=0)


def test_random_label_domain_exhausted():
    with pytest.raises(ValueError, match="exhausted"):
        generate_random_label_task(10, DiscreteSpace(4), 2, seed=0)


def test_random_label_distinct_discrete_inputs():
    d = generate_random_label_task(50, DiscreteSpace(50), 2, seed=1)
    assert len(np.unique(d.inputs)) == 50


def test_random_labels_roughly_uniform():
    d = generate_random_label_task(400, DiscreteSpace(512), 4, seed=2)
    counts = np.bincount(d.labels, minlength=4)
    # 5 sigma on a binomial(400, 1/4)
    assert np.abs(counts - 100).max() < 5 * math.sqrt(400 * 0.25 * 0.75)


def test_planted_constant_rule_no_noise():
    d = generate_planted_task(20, ConstantRule(8, 2), 0.0, seed=0)
    assert (d.labels == 0).all()


def test_planted_flip_rate_within_binomial_ci():
    # rule: parity of 3 bits; flips measured against the noiseless labels
    m = 8
    table = np.zeros((m, 2))
    xs = np.arange(m)
    parity = (xs ^ (xs >> 1) ^ (xs >> 2)) & 1
    table[xs, parity] = 1.0
    rule = type("R", (), {"table": table})()
    d = generate_planted_task(1000, rule, 0.1, seed=2)
    flips = int((d.labels != parity[d.inputs]).sum())
    sigma = math.sqrt(1000 * 0.1 * 0.9)
    assert abs(flips - 100) <= 3 * sigma


def test_planted_invalid_noise():
    with pytest.raises(ValueError, match="invalid parameter"):
        generate_planted_task(5, ConstantRule(4, 2), 1.5, seed=0)


def test_union_with_empty_is_tagged_copy():
    d1 = generate_random_label_task(30, DiscreteSpace(32), 2, seed=1)
    empty = Dataset(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                    2, DiscreteSpace(32))
    u = disjoint_union(d1, empty)
    assert u.n == 30
    back, other = split_union(u)
    assert back == d1 and other.n == 0


def test_union_cardinality_and_recovery():
    d1 = generate_random_label_task(30, DiscreteSpace(32), 2, seed=1)
    d2 = generate_random_label_task(50, DiscreteSpace(64), 3, seed=2)
    u = disjoint_union(d1, d2)
    assert u.n == 80
    assert u.num_labels == 3
    assert u.space.size == 2 * 64
    r1, r2 = split_union(u)
    assert r1 == d1 and r2 == d2


def test_union_real_vectors_pad_and_tag():
    d1 = generate_random_label_task(4, RealSpace(3), 2, seed=1)
    d2 = generate_random_label_task(5, RealSpace(5), 2, seed=2)
    u = disjoint_union(d1, d2)
    assert u.space.dim == 5 + 2
    assert (u.inputs[:4, 5] == 1.0).all() and (u.inputs[4:, 6] == 1.0).all()
    r1, r2 = split_union(u)
    assert r1 == d1 and r2 == d2


def test_union_nested_recovery():
    d1 = generate_random_label_task(6, DiscreteSpace(8), 2, seed=1)
    d2 = generate_random_label_task(7, DiscreteSpace(8), 2, seed=2)
    d3 = generate_random_label_task(4, DiscreteSpace(4), 2, seed=3)
    nested = disjoint_union(disjoint_union(d1, d2), d3)
    left, right = split_union(nested)
    a, b = split_union(left)
    assert a == d1 and b == d2 and right == d3


def test_transform_identity_permutation():
    d = generate_random_label_task(20, DiscreteSpace(32), 3, seed=1)
    t = TaskTransform(kind="label_permutation", permutation=(0, 1, 2))
    assert apply_transform(d, t) == d


def test_transform_label_permutation_applies():
    d = generate_random_label_task(20, DiscreteSpace(32), 2, seed=1)
    t = TaskTransform(kind="label_permutation", permutation=(1, 0))
    assert (apply_transform(d, t).labels == 1 - d.labels).all()


def test_transform_subset_full_keeps_everything():
    d = generate_random_label_task(20, DiscreteSpace(32), 2, seed=1)
    t = TaskTransform(kind="subset", fraction=1.0, seed=4)
    assert apply_transform(d, t) == d


def test_transform_subset_count_is_ceiling():
    d = generate_random_label_task(10, DiscreteSpace(32), 2, seed=1)
    out = apply_transform(d, TaskTransform(kind="subset", fraction=0.25, seed=0))
    assert out.n == 3


def test_transform_blur_rejects_discrete():
    d = generate_random_label_task(5, DiscreteSpace(8), 2, seed=0)
    with pytest.raises(ValueError, match="incompatible transform"):
        apply_transform(d, TaskTransform(kind="input_blur", width=1.0))


def test_transform_blur_smooths_real_inputs():
    d = generate_random_label_task(5, RealSpace(12), 2, seed=0)
    out = apply_transform(d, TaskTransform(kind="input_blur", width=2.0))
    assert out.inputs.shape == d.inputs.shape
    # blur reduces coordinate-to-coordinate variation
    assert np.abs(np.diff(out.inputs, axis=1)).sum() < \
        np.abs(np.diff(d.inputs, axis=1)).sum()


def test_transform_sign_inversion():
    d = generate_random_label_task(5, RealSpace(3), 2, seed=0)
    out = apply_transform(d, TaskTransform(kind="sign_inversion"))
    assert np.array_equal(out.inputs, -d.inputs)


def test_transform_label_randomization_deterministic():
    d = generate_planted_task(50, ConstantRule(8, 2), 0.0, seed=0)
    t = TaskTransform(kind="label_randomization", seed=9)
    a, b = apply_transform(d, t), apply_transform(d, t)
    assert a == b
    assert 0 < a.labels.sum() < 50  # actually randomized


def test_as_real_vectors_bits():
    d = generate_random_label_task(6, DiscreteSpace(8), 2, seed=1)
    r = as_real_vectors(d)
    assert r.space == RealSpace(3)
    rebuilt = (r.inputs * (2 ** np.arange(3))[None, :]).sum(axis=1)
    assert np.array_equal(rebuilt.astype(np.int64), d.inputs)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([0, 1]), np.array([0, 2]), 2, DiscreteSpace(4))
    with pytest.raises(ValueError):
        Dataset(np.array([0, 9]), np.array([0, 1]), 2, DiscreteSpace(4))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0], [np.inf]]), np.array([0, 1]), 2, RealSpace(1))



def test_dataset_leaves_caller_arrays_writeable():
    inputs, labels = np.array([0, 3, 1]), np.array([1, 0, 1])
    d = Dataset(inputs, labels, 2, DiscreteSpace(4))
    assert inputs.flags.writeable and labels.flags.writeable
    assert not d.inputs.flags.writeable and not d.labels.flags.writeable
    inputs[0] = 2
    assert d.inputs[0] == 0
    x = np.zeros((2, 3))
    Dataset(x, np.array([0, 1]), 2, RealSpace(3))
    assert x.flags.writeable


@pytest.mark.parametrize("seed", range(5))
def test_csv_roundtrip_discrete(tmp_path, seed):
    d = generate_random_label_task(10 + seed, DiscreteSpace(64), 2 + seed % 3,
                                   seed=seed)
    path = tmp_path / "d.csv"
    save_dataset_csv(d, path)
    assert load_dataset_csv(path) == d


def test_csv_roundtrip_real(tmp_path):
    d = generate_random_label_task(13, RealSpace(4), 3, seed=5)
    path = tmp_path / "d.csv"
    save_dataset_csv(d, path)
    back = load_dataset_csv(path)
    assert back == d and back.space == d.space


def test_csv_roundtrip_union_exact(tmp_path):
    d1 = generate_random_label_task(6, DiscreteSpace(8), 2, seed=1)
    d2 = generate_random_label_task(4, DiscreteSpace(4), 3, seed=2)
    u = disjoint_union(disjoint_union(d1, d2), d1)
    path = tmp_path / "u.csv"
    save_dataset_csv(u, path)
    back = load_dataset_csv(path)
    assert back == u and back.space == u.space
    left, right = split_union(back)
    assert right == d1


def test_csv_header_format(tmp_path):
    d = generate_random_label_task(3, DiscreteSpace(8), 2, seed=1)
    path = tmp_path / "d.csv"
    save_dataset_csv(d, path)
    first = path.read_text().splitlines()[0]
    assert first == "# taskinfo-dataset v1, K=2, input=discrete:8"


def test_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="taskinfo-dataset"):
        load_dataset_csv(path)


def test_subset_split_partitions():
    d = generate_random_label_task(20, RealSpace(3), 2, seed=0)
    train, test = tasks.subset_split(d, 0.75, seed=1)
    assert train.n == 15 and test.n == 5


# ---------------------------------------------------------------------------
# dataset file errors name the file and the line


_HEADER = "# taskinfo-dataset v1, K=2, input=discrete:4"


@pytest.mark.parametrize("text, line, message", [
    ("# taskinfo-dataset v1, input=discrete:4\n0,1\n", 1, "no K= field"),
    ("# taskinfo-dataset v1, K=2\n0,1\n", 1, "no input= field"),
    ("# taskinfo-dataset v1, K=two, input=discrete:4\n0,1\n", 1, "invalid literal"),
    ("# taskinfo-dataset v1, K=2, input=ternary:4\n0,1\n", 1, "input kind"),
    (_HEADER + "\n0,1\n\nx,1\n", 4, "invalid literal"),
    (_HEADER + "\n0,1\n1,0.5\n", 3, "invalid literal"),
    (_HEADER + "\n0,1\n1,0,1\n", 3, "expected 2 columns, got 3"),
    (_HEADER + "\n0\n", 2, "expected 2 columns, got 1"),
    (_HEADER + "\n0,1\n# a comment\n4,1\n", 4, r"discrete input outside 0\.\.3"),
    (_HEADER + "\n-1,1\n", 2, r"discrete input outside 0\.\.3"),
    (_HEADER + "\n0,1\n2,2\n", 3, r"label outside 0\.\.1"),
    (_HEADER + "\n0,99999999999999999999\n", 2, "too large|int"),
    ("# taskinfo-dataset v1, K=2, input=real:2\n0.5,1\n", 2, "expected 3 columns"),
    ("# taskinfo-dataset v1, K=2, input=real:2\n0.5,nan,1\n", 2, "not finite"),
    (_HEADER + "\n# union=(discrete:2,K=2\n0,1\n", 2, "bad union spec"),
])
def test_dataset_load_errors_name_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "
                                         rf"(.*)({message})"):
        load_dataset_csv(path)


_row_lines = st.lists(
    st.one_of(st.from_regex(r"-?[0-9]{1,3},-?[0-9]{1,2}", fullmatch=True),
              st.text(alphabet="0123,.-x #e\t", max_size=8)),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(_row_lines, st.sampled_from(["discrete:4", "real:2"]))
def test_dataset_load_fuzzed_rows_raise_value_error_with_line(tmp_path_factory,
                                                             rows, space):
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    path.write_text("\n".join([f"# taskinfo-dataset v1, K=2, input={space}"]
                              + rows) + "\n")
    try:
        d = load_dataset_csv(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:[0-9]+: ", str(exc)), str(exc)
    else:
        assert d.n == sum(1 for r in rows if r.strip() and not r.startswith("#"))


def _random_task(draw_seed, kind, n, size, k):
    rng = np.random.default_rng(draw_seed)
    if kind == "discrete":
        return Dataset(rng.integers(0, size, size=n), rng.integers(0, k, size=n),
                       k, DiscreteSpace(size))
    return Dataset(rng.normal(size=(n, size)), rng.integers(0, k, size=n), k,
                   RealSpace(size))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["discrete", "real"]),
       n=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       k=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       nest=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_split_union_inverts_disjoint_union_exactly(kind, n, size, k, nest, seed):
    a = _random_task(seed, kind, n[0], size[0], k[0])
    b = _random_task(seed + 1, kind, n[1], size[1], k[1])
    if nest:                                   # a is itself a union
        a = disjoint_union(a, _random_task(seed + 2, kind, n[1], size[0], k[1]))
    for got, want in zip(split_union(disjoint_union(a, b)), (a, b)):
        assert got.space == want.space and got.num_labels == want.num_labels
        assert got.inputs.dtype == want.inputs.dtype
        assert got.inputs.shape == want.inputs.shape
        assert np.array_equal(got.inputs, want.inputs)
        assert np.array_equal(got.labels, want.labels)
