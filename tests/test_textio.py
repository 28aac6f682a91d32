"""Every writer, the library's and the CLI's, goes through the atomic
writer: a failed write leaves the target's old bytes and no temporary file."""

import json
import os

import pytest

from taskinfo import annealing, cli, tasks, textio


def _gen_task(path):
    """The CLI's gen-task, writing task.csv into path's directory."""
    config = path.parent.with_name("config.json")
    config.write_text(json.dumps({"version": 1, "seed": 0, "task": {
        "type": "random_labels", "n": 4, "k": 2,
        "domain": {"kind": "discrete", "size": 4}, "seed": 0}}))
    cli.main(["gen-task", "--config", str(config), "--out", str(path.parent)])


WRITERS = {
    "save_dataset_csv": lambda path: tasks.save_dataset_csv(
        tasks.generate_random_label_task(4, tasks.DiscreteSpace(4), 2, seed=0),
        path),
    "save_grid": lambda path: annealing.save_grid(
        annealing.gaussian_lattice_grid(1.0, 1.0, [0.0, 1.0], [0.0]),
        path, path.with_name("metric.csv")),
    "cli": _gen_task,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_library_writer_is_atomic(tmp_path, monkeypatch, writer):
    out = tmp_path / "out"
    out.mkdir()
    target = out / "task.csv"
    targets = [target, out / "metric.csv"]
    for path in targets:
        path.write_bytes(b"old bytes\n")

    def fail_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        WRITERS[writer](target)
    assert [path.read_bytes() for path in targets] == [b"old bytes\n"] * 2
    assert sorted(p.name for p in out.iterdir()) == ["metric.csv", "task.csv"]


def test_write_renames_nothing_until_every_file_is_written(tmp_path):
    # the second file cannot be made: the first keeps its old bytes
    first, second = tmp_path / "a.csv", tmp_path / "missing" / "b.csv"
    first.write_bytes(b"old bytes\n")
    with pytest.raises(FileNotFoundError):
        textio.write({first: "new\n", second: "new\n"})
    assert first.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_failed_rename_leaves_the_earlier_targets_new_and_no_temporary(
        tmp_path, monkeypatch):
    targets = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path in targets:
        path.write_bytes(b"old bytes\n")
    replace, renamed = os.replace, []

    def second_fails(src, dst):
        if len(renamed) == 1:
            raise OSError("replace failed")
        renamed.append(dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    with pytest.raises(OSError, match="replace failed"):
        textio.write({path: "new\n" for path in targets})
    assert [p.read_bytes() for p in targets] == [b"new\n", b"old bytes\n", b"old bytes\n"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "c.csv"]


def test_save_grid_writes_neither_file_when_one_cannot_be_written(tmp_path):
    grid = annealing.gaussian_lattice_grid(1.0, 1.0, [0.0, 1.0], [0.0])
    with pytest.raises(FileNotFoundError):
        annealing.save_grid(grid, tmp_path / "grid.csv", tmp_path / "missing" / "m.csv")
    assert list(tmp_path.iterdir()) == []
