import json
import math
import os
import subprocess
import sys
import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

import taskinfo
from taskinfo.cli import main
from taskinfo.finite_oracle import NoHypothesisError
from taskinfo.tasks import load_dataset_csv

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(tmp_path, command, config, out="out", extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    return main([command, "--config", str(cfg_path), "--out", str(out_dir),
                 *extra]), out_dir


def read(path):
    return path.read_text()


def _child_env(**extra) -> dict:
    """The environment of a child Python that imports this taskinfo."""
    src = os.path.dirname(os.path.dirname(taskinfo.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


RANDOM_TASK = {"type": "random_labels", "n": 20, "k": 2,
               "domain": {"kind": "discrete", "size": 32}, "seed": 5}


def test_gen_task_roundtrips(tmp_path):
    code, out = run_cli(tmp_path, "gen-task",
                        {"version": 1, "seed": 1, "task": RANDOM_TASK})
    assert code == 0
    d = load_dataset_csv(out / "task.csv")
    assert d.n == 20 and d.num_labels == 2
    assert "config=" in read(out / "task.csv")


def test_gen_task_union_keeps_structure(tmp_path):
    code, out = run_cli(tmp_path, "gen-task", {
        "version": 1, "seed": 1,
        "task": {"type": "union",
                 "left": {"type": "random_labels", "n": 4, "k": 2,
                          "domain": {"kind": "discrete", "size": 8},
                          "seed": 2},
                 "right": {"type": "random_labels", "n": 3, "k": 3,
                           "domain": {"kind": "discrete", "size": 4},
                           "seed": 3}}})
    assert code == 0
    d = load_dataset_csv(out / "task.csv")
    assert d.space.parts is not None    # the stamp must not hide the union
    from taskinfo.tasks import split_union
    left, right = split_union(d)
    assert left.n == 4 and right.num_labels == 3


def _planted(rule, seed):
    return {"type": "as_real", "base": {
        "type": "planted", "n": 40, "k": 2, "domain_size": 64,
        "rule": rule, "noise": 0.1, "seed": seed}}


# (command, config, extra flags of the second run): one small config per
# command
RERUNS = {
    "gen-task": ({"version": 1, "seed": 1, "task": RANDOM_TASK}, ()),
    "structure-fn": ({"version": 1, "seed": 3, "engine": "oracle",
                      "task": RANDOM_TASK,
                      "oracle": {"t_grid": [5.0, 10.0, 20.0]}}, ()),
    "beta-sweep": ({"version": 1, "seed": 2, "engine": "oracle",
                    "tasks": [{"name": "rand", "task": RANDOM_TASK}],
                    "betas": [0.5, 1.0, 2.0]}, ()),
    "distance-matrix": ({"version": 1, "seed": 1, "beta": 0.5,
                         "tasks": [{"name": "a", "task": _planted("bit0", 4)},
                                   {"name": "b", "task": _planted("bit3", 5)}],
                         "arch_hidden": [], "prior_scale": 1.0, "replicates": 2,
                         "opt": {"steps": 60, "learning_rate": 1.0,
                                 "mc_samples": 2, "report_mc": 32}},
                        ()),
    "pac-bayes": ({"version": 1, "seed": 0, "mode": "bound",
                   "train_loss_total": 3.0, "kl": 2.0, "n": 50, "beta": 1.0,
                   "delta": 0.1}, ()),
    "pac-bayes trials": ({"version": 1, "seed": 2, "mode": "trials",
                          "task": {"type": "planted", "n": 0, "k": 2,
                                   "domain_size": 16, "rule": "bit0",
                                   "noise": 0.1, "seed": 0},
                          "n_train": 12, "n_test": 12, "trials": 3, "beta": 1.0,
                          "delta": 0.05, "arch_hidden": [2],
                          "opt": {"steps": 20, "learning_rate": 0.5,
                                  "mc_samples": 2, "report_mc": 8}}, ()),
    "anneal": ({"version": 1, "seed": 0,
                "grid": {"losses": [10.0, 4.0, 0.0], "kls": [0.0, 2.0, 8.0],
                         "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                "schedule": {"betas": [10.0, 2.0, 0.25], "epsilon": 1.0},
                "start": 0}, ()),
}


@pytest.mark.parametrize("case", sorted(RERUNS))
def test_cli_rerun_is_byte_identical(tmp_path, case):
    # a case is a command, or a command and the mode its config runs
    (cfg, extra), command = RERUNS[case], case.split()[0]
    code1, out1 = run_cli(tmp_path, command, cfg, out="o1")
    code2, out2 = run_cli(tmp_path, command, cfg, out="o2", extra=extra)
    assert code1 == code2 == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files and files == sorted(p.name for p in out2.iterdir())
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_oracle_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # an oracle beta sweep over a planted and random-label union writes the
    # same bytes on one BLAS thread and two (a variational run does not)
    union = {"type": "union",
             "left": {"type": "planted", "n": 32, "k": 2, "domain_size": 16,
                      "rule": "parity011", "noise": 0.0, "seed": 31},
             "right": dict(RANDOM_TASK, n=8, domain={"kind": "discrete", "size": 8})}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "version": 1, "seed": 3, "engine": "oracle",
        "tasks": [{"name": "union", "task": union}],
        "betas": [2.0 ** e for e in range(3, -7, -1)]}))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "taskinfo.cli", "beta-sweep",
                        "--config", str(cfg_path), "--out", str(out)],
                       env=_child_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["beta_sweep.csv", "beta_sweep.svg"]
    assert outputs[0] == outputs[1]


def test_seed_override_changes_hash_and_data(tmp_path):
    cfg = {"version": 1, "seed": 1,
           "task": {"type": "random_labels", "n": 10, "k": 2,
                    "domain": {"kind": "real", "dim": 3}, "seed": 2}}
    _, out1 = run_cli(tmp_path, "gen-task", cfg, out="o1")
    code, out2 = run_cli(tmp_path, "gen-task", cfg, out="o2",
                         extra=["--seed-override", "99"])
    assert code == 0
    h1 = read(out1 / "task.csv").splitlines()[1]
    h2 = read(out2 / "task.csv").splitlines()[1]
    assert h1 != h2   # config hash reflects the effective seed


def test_structure_fn_oracle_memorization_law(tmp_path):
    n = 20
    grid = [3.0 + 1.5 * i for i in range(14)]
    code, out = run_cli(tmp_path, "structure-fn", {
        "version": 1, "seed": 3, "engine": "oracle", "task": RANDOM_TASK,
        "oracle": {"t_grid": grid},
    })
    assert code == 0
    rows = [ln.split(",") for ln in read(out / "structure_fn.csv").splitlines()
            if not ln.startswith(("#", "t_or_beta"))]
    seen = 0
    for t_s, loss_s, cost_s in rows:
        t, loss = float(t_s), float(loss_s)
        if math.isfinite(loss) and loss > 0:
            # memorization regime: within the subset-index overhead of the
            # N ln2 - t line (overhead bounded by ln C(20, s) <= 20 ln 2 here)
            assert abs(loss - (n * math.log(2) - t)) <= \
                math.log(4) + math.log(n + 1) + math.log(math.comb(20, 10)) + 1
            seen += 1
    assert seen >= 5
    assert (out / "structure_fn.svg").exists()


def test_structure_fn_empty_grid_is_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "structure-fn", {
        "version": 1, "seed": 3, "engine": "oracle", "task": RANDOM_TASK,
        "oracle": {"t_grid": []},
    })
    assert code == 2
    assert "t_grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid, why", [
    (["a"], "[0]: expected a number"),
    ([math.nan], "[0]: nan is not a finite number"),
    ([math.inf], "[0]: inf is not a finite number"),
    ([3.0, 1.0], ": must be strictly increasing"),
])
def test_structure_fn_bad_grid_is_config_error(tmp_path, capsys, grid, why):
    code, out = run_cli(tmp_path, "structure-fn", {
        "version": 1, "seed": 3, "engine": "oracle", "task": RANDOM_TASK,
        "oracle": {"t_grid": grid},
    })
    assert code == 2
    assert f"config error: oracle.t_grid{why}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("level, why", [
    (1.5, ": noise level 1.5"), (-0.5, ": noise level -0.5"),
    (math.nan, "[1]: nan is not a finite number")])
def test_oracle_noise_level_outside_unit_interval_is_config_error(
        tmp_path, capsys, level, why):
    code, _ = run_cli(tmp_path, "structure-fn", {
        "version": 1, "seed": 3, "engine": "oracle", "task": RANDOM_TASK,
        "oracle": {"t_grid": [1.0, 2.0], "noise_grid": [0.1, level]},
    })
    assert code == 2
    err = capsys.readouterr().err
    assert f"oracle.noise_grid{why}" in err
    code, _ = run_cli(tmp_path, "beta-sweep", {
        "version": 1, "seed": 3, "engine": "oracle", "betas": [1.0],
        "tasks": [{"name": "a", "task": RANDOM_TASK}],
        "oracle": {"noise_grid": [level]},
    })
    assert code == 2
    assert "oracle.noise_grid" in capsys.readouterr().err


def test_planted_task_noise_level_outside_unit_interval_is_config_error(
        tmp_path, capsys):
    planted = {"type": "planted", "n": 4, "k": 2, "domain_size": 8,
               "rule": "bit0", "seed": 1, "noise_grid": [2.0]}
    code, _ = run_cli(tmp_path, "gen-task", {
        "version": 1, "seed": 1,
        "task": {"type": "union", "left": RANDOM_TASK, "right": planted}})
    assert code == 2
    err = capsys.readouterr().err
    assert "task.right.noise_grid" in err and "noise level 2.0" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "gen-task",
                      {"version": 1, "seed": 1, "task": RANDOM_TASK,
                       "mystery": True})
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_missing_seed_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "gen-task", {"version": 1, "task": RANDOM_TASK})
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_missing_task_file_is_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "gen-task", {
        "version": 1, "seed": 1,
        "task": {"type": "file", "path": str(tmp_path / "nope.csv")}})
    assert code == 2
    assert "no such task file" in capsys.readouterr().err


def test_beta_sweep_single_beta_single_row_per_task(tmp_path):
    code, out = run_cli(tmp_path, "beta-sweep", {
        "version": 1, "seed": 2, "engine": "oracle",
        "tasks": [{"name": "rand", "task": RANDOM_TASK}],
        "betas": [1.0],
    })
    assert code == 0
    rows = [ln for ln in read(out / "beta_sweep.csv").splitlines()
            if ln and not ln.startswith(("#", "task,"))]
    assert len(rows) == 1 and rows[0].startswith("rand,1.0,")


def test_beta_sweep_variational_runs(tmp_path):
    code, out = run_cli(tmp_path, "beta-sweep", {
        "version": 1, "seed": 2, "engine": "variational",
        "tasks": [{"name": "rand", "task": {
            "type": "random_labels", "n": 16, "k": 2,
            "domain": {"kind": "real", "dim": 8}, "seed": 3}}],
        "betas": [4.0, 1.0],
        "variational": {"arch_hidden": [], "prior_scale": 1.0,
                        "opt": {"steps": 40, "learning_rate": 0.5,
                                "mc_samples": 2, "report_mc": 16}},
    })
    assert code == 0
    rows = [ln for ln in read(out / "beta_sweep.csv").splitlines()
            if ln and not ln.startswith(("#", "task,"))]
    assert len(rows) == 2


def test_structure_fn_variational_engine(tmp_path):
    code, out = run_cli(tmp_path, "structure-fn", {
        "version": 1, "seed": 3, "engine": "variational",
        "task": {"type": "random_labels", "n": 16, "k": 2,
                 "domain": {"kind": "real", "dim": 8}, "seed": 3},
        "variational": {"betas": [4.0, 1.0, 0.25], "arch_hidden": [],
                        "prior_scale": 1.0,
                        "opt": {"steps": 40, "learning_rate": 0.5,
                                "mc_samples": 2, "report_mc": 16}},
    })
    assert code == 0
    sweep_lines = read(out / "sweep.csv").splitlines()
    assert sweep_lines[1] == "beta,expected_loss_nats,kl_nats,loss_per_sample_nats"
    assert len(sweep_lines) == 5
    assert (out / "structure_fn.csv").exists()
    assert (out / "structure_fn.svg").exists()


def test_pac_bayes_bound_mode_zero(tmp_path):
    code, out = run_cli(tmp_path, "pac-bayes", {
        "version": 1, "seed": 0, "mode": "bound", "train_loss_total": 0.0,
        "kl": 0.0, "n": 50, "beta": 1.0, "delta": 1.0,
    })
    assert code == 0
    assert ",0.0," in read(out / "pac_bayes.csv").splitlines()[2]


def _spy_builds(monkeypatch) -> list:
    """The spaces of the oracle families built from now on, in build order."""
    from taskinfo import finite_oracle

    built = []
    build = finite_oracle.HypothesisFamily._build.__func__

    def spy(cls, space, *args):
        built.append(space)
        return build(cls, space, *args)

    monkeypatch.setattr(finite_oracle.HypothesisFamily, "_build", classmethod(spy))
    return built


def test_pac_bayes_trials_build_no_planted_family(tmp_path, monkeypatch):
    # the probe and every trial plant their rule from the rule table, not
    # from an oracle family
    built = _spy_builds(monkeypatch)
    code, out = run_cli(tmp_path, "pac-bayes", {
        "version": 1, "seed": 0, "mode": "trials",
        "task": {"type": "planted", "n": 0, "k": 2, "domain_size": 16,
                 "rule": "bit0", "noise": 0.1, "seed": 0},
        "n_train": 12, "n_test": 12, "trials": 3, "beta": 1.0, "delta": 0.05,
        "opt": {"steps": 3, "mc_samples": 2, "report_mc": 4}})
    assert code == 0
    assert built == []
    assert len(read(out / "pac_bayes.csv").splitlines()) == 6


def test_pac_bayes_invalid_beta_is_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "pac-bayes", {
        "version": 1, "seed": 0, "mode": "bound", "train_loss_total": 0.0,
        "kl": 0.0, "n": 50, "beta": 0.5, "delta": 1.0,
    })
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_anneal_trajectory_reaches_global(tmp_path):
    code, out = run_cli(tmp_path, "anneal", {
        "version": 1, "seed": 0,
        "grid": {"losses": [10.0, 4.0, 0.0], "kls": [0.0, 2.0, 8.0],
                 "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "schedule": {"betas": [10.0, 2.0, 0.25], "epsilon": 1.0},
        "start": 0,
    })
    assert code == 0
    last = read(out / "anneal_trajectory.csv").splitlines()[-1]
    assert last.split(",")[2] == "2"   # ends at the final-beta global min


def test_anneal_malformed_grid_reports_line(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    metric = tmp_path / "metric.csv"
    grid.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\nn0,bad,1\n")
    metric.write_text("# taskinfo-grid-metric v1\n0.0\n")
    code, _ = run_cli(tmp_path, "anneal", {
        "version": 1, "seed": 0,
        "grid": {"path": str(grid), "metric_path": str(metric)},
        "schedule": {"betas": [1.0], "epsilon": 1.0},
        "start": 0,
    })
    assert code == 2
    assert ":3" in capsys.readouterr().err


def test_anneal_triangle_violation_reports_metric_line(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    metric = tmp_path / "metric.csv"
    grid.write_text("# taskinfo-grid v1\nnode_id,loss_nats,kl_nats\n"
                    "a,1.0,0.0\nb,2.0,0.0\nc,3.0,0.0\n")
    metric.write_text("# taskinfo-grid-metric v1\n0.0,1.0,1.0\n\n"
                      "1.0,0.0,2.5\n1.0,2.5,0.0\n")
    code, _ = run_cli(tmp_path, "anneal", {
        "version": 1, "seed": 0,
        "grid": {"path": str(grid), "metric_path": str(metric)},
        "schedule": {"betas": [1.0], "epsilon": 1.0},
        "start": 0,
    })
    assert code == 2
    err = capsys.readouterr().err
    assert "metric.csv:4: metric violates the triangle inequality: " \
           "d('b', 'c') exceeds d('b', 'a') + d('a', 'c') by 0.5" in err


def test_distance_matrix_duplicate_tasks(tmp_path):
    task = {"type": "as_real", "base": {
        "type": "planted", "n": 60, "k": 2, "domain_size": 64,
        "rule": "bit0", "noise": 0.1, "seed": 4}}
    code, out = run_cli(tmp_path, "distance-matrix", {
        "version": 1, "seed": 1, "beta": 0.5,
        "tasks": [{"name": "a", "task": task}, {"name": "b", "task": task}],
        "arch_hidden": [], "prior_scale": 1.0, "replicates": 2,
        "opt": {"steps": 120, "learning_rate": 1.0, "mc_samples": 2,
                "report_mc": 64},
    })
    assert code == 0
    sidecar = json.loads(read(out / "distance_matrix.json"))
    values = np.array([[float(v) for v in ln.split(",")[1:]]
                       for ln in read(out / "distance_matrix.csv").splitlines()[2:]])
    taus = np.array(sidecar["tau"], dtype=float)
    assert (values <= taus + 1e-9).all()   # identical tasks: all entries ~ 0
    assert (out / "distance_matrix.svg").exists()


def test_output_headers_carry_hash_and_version(tmp_path):
    code, out = run_cli(tmp_path, "gen-task",
                        {"version": 1, "seed": 1, "task": RANDOM_TASK})
    header = read(out / "task.csv").splitlines()[1]
    assert header.startswith("# config=") and "tool=taskinfo-" in header


def test_version_must_be_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "gen-task",
                      {"version": 2, "seed": 1, "task": RANDOM_TASK})
    assert code == 2


@pytest.mark.parametrize("bad", [{"trace_every": 0}, {"report_mc": 0},
                                 {"grad_clip": -1.0}, {"grad_clip": 0.0}])
def test_beta_sweep_bad_variational_opt_is_config_error(tmp_path, capsys, bad):
    code, out = run_cli(tmp_path, "beta-sweep", {
        "version": 1, "seed": 2, "engine": "variational",
        "tasks": [{"name": "rand", "task": {
            "type": "random_labels", "n": 8, "k": 2,
            "domain": {"kind": "real", "dim": 4}, "seed": 3}}],
        "betas": [1.0],
        "variational": {"arch_hidden": [], "prior_scale": 1.0,
                        "opt": {"steps": 5, "learning_rate": 0.5, **bad}},
    })
    assert code == 2
    assert next(iter(bad)) in capsys.readouterr().err
    assert not (out / "beta_sweep.csv").exists()


@pytest.mark.parametrize("text, where", [
    ("# taskinfo-dataset v1, K=2\n0,1\n", ":1: header has no input= field"),
    ("# taskinfo-dataset v1, K=2, input=discrete:4\n0,1\nx,0\n", ":3: invalid literal"),
    ("# taskinfo-dataset v1, K=2, input=discrete:4\n0,1,1\n", ":2: expected 2 columns"),
    ("# taskinfo-dataset v1, K=2, input=discrete:4\n0,1\n\n9,0\n",
     ":4: discrete input outside 0..3"),
])
def test_bad_task_file_is_config_error_naming_path_and_line(tmp_path, capsys,
                                                            text, where):
    path = tmp_path / "task.csv"
    path.write_text(text)
    code, out = run_cli(tmp_path, "gen-task", {
        "version": 1, "seed": 1, "task": {"type": "file", "path": str(path)}})
    assert code == 2
    assert f"{path}{where}" in capsys.readouterr().err
    assert not (out / "task.csv").exists()


def test_bad_task_file_error_names_the_path_field(tmp_path, capsys):
    path = tmp_path / "task.csv"
    path.write_text("# taskinfo-dataset v1, K=2, input=discrete:4\n0,1\nx,0\n")
    code, _ = _gen_task(tmp_path, {"type": "union", "left": RANDOM_TASK,
                                   "right": {"type": "file", "path": str(path)}})
    assert code == 2
    assert f"config error: task.right.path: {path}:3: " in capsys.readouterr().err


def _gen_task(tmp_path, task, out="out"):
    code, out_dir = run_cli(tmp_path, "gen-task",
                            {"version": 1, "seed": 1, "task": task}, out=out)
    return code, out_dir / "task.csv"


def test_transform_task_applies_the_transform(tmp_path):
    base = dict(RANDOM_TASK, k=3)
    code, path = _gen_task(tmp_path, {
        "type": "transform", "base": base,
        "transform": {"kind": "label_permutation", "permutation": [2, 0, 1]}})
    assert code == 0
    _, plain = _gen_task(tmp_path, base, "plain")
    d, want = load_dataset_csv(path), load_dataset_csv(plain)
    assert np.array_equal(d.inputs, want.inputs)
    assert np.array_equal(d.labels, np.array([2, 0, 1])[want.labels])


@pytest.mark.parametrize("transform, why", [
    ({"kind": "twirl"}, "unknown transform kind 'twirl'"),
    ({"kind": "subset", "seed": 1}, "subset needs fraction"),
    ({"kind": "subset", "fraction": 0.5, "spin": 1}, "spin"),
])
def test_bad_transform_is_config_error(tmp_path, capsys, transform, why):
    code, path = _gen_task(tmp_path, {"type": "transform", "base": RANDOM_TASK,
                                      "transform": transform})
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: task.transform: " in err and why in err
    assert not path.exists()


REAL_TASK = dict(RANDOM_TASK, domain={"kind": "real", "dim": 4})


@pytest.mark.parametrize("base, transform, why", [
    (REAL_TASK, {"kind": "sign_inversion", "seed": 3, "width": 2.0},
     "sign_inversion takes no seed"),
    (REAL_TASK, {"kind": "subset", "fraction": 0.5, "seed": 1, "width": 2.0},
     "subset takes no width"),
    (REAL_TASK, {"kind": "label_randomization", "seed": 1, "fraction": 0.5},
     "label_randomization takes no fraction"),
    (RANDOM_TASK, {"kind": "label_permutation", "permutation": [0, 0]},
     "permutation must reorder 0..K-1"),
    (RANDOM_TASK, {"kind": "input_blur", "width": 1.0},
     "incompatible transform: input_blur needs real inputs"),
    (RANDOM_TASK, {"kind": "sign_inversion"},
     "incompatible transform: sign_inversion needs real inputs"),
])
def test_transform_error_names_the_transform_field(tmp_path, capsys, base,
                                                   transform, why):
    code, path = _gen_task(tmp_path, {"type": "transform", "base": base,
                                      "transform": transform})
    assert code == 2
    assert f"config error: task.transform: {why}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("filename", ["../escaped.csv", 5, "task.csv"])
def test_gen_task_takes_no_filename(tmp_path, capsys, filename):
    code, out = run_cli(tmp_path, "gen-task",
                        dict(RERUNS["gen-task"][0], filename=filename))
    assert code == 2
    assert "config error: config: unknown keys ['filename']" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "escaped.csv").exists()


PLANTED_TASK = {"type": "planted", "n": 20, "k": 2, "domain_size": 8,
                "rule": "bit0", "seed": 1}


@pytest.mark.parametrize("task, field, why", [
    (dict(RANDOM_TASK, n=[20]), "task.n", "expected an integer"),
    (dict(RANDOM_TASK, n=20.5), "task.n", "expected an integer"),
    (dict(RANDOM_TASK, k=True), "task.k", "expected an integer"),
    (dict(RANDOM_TASK, k={}), "task.k", "expected an integer"),
    (dict(RANDOM_TASK, seed=None), "task.seed", "expected an integer"),
    (dict(RANDOM_TASK, domain={"kind": "discrete", "size": [32]}),
     "task.domain.size", "expected an integer"),
    (dict(PLANTED_TASK, domain_size=None), "task.domain_size", "expected an integer"),
    (dict(PLANTED_TASK, noise=[0.1]), "task.noise", "expected a number"),
    (dict(PLANTED_TASK, noise="0.1"), "task.noise", "expected a number"),
    (dict(PLANTED_TASK, rule=["bit0"]), "task.rule", "expected a rule name"),
    (dict(PLANTED_TASK, rule=10 ** 6), "task.rule", "no family rule 1000000"),
    ({"type": "transform", "base": RANDOM_TASK, "transform": [1]},
     "task.transform", "expected an object"),
    ({"type": "subset_classes", "base": RANDOM_TASK, "labels": None},
     "task.labels", "expected a list"),
    ({"type": "subset_classes", "base": RANDOM_TASK, "labels": [0.5]},
     "task.labels[0]", "expected an integer"),
    ({"type": "subset_classes", "base": RANDOM_TASK, "labels": [1, 7]},
     "task.labels[1]", "label 7 is outside 0..1"),
    ({"type": "subset_classes", "base": RANDOM_TASK, "labels": [-1]},
     "task.labels[0]", "label -1 is outside 0..1"),
    ({"type": "transform", "base": RANDOM_TASK,
      "transform": {"kind": "subset", "fraction": 0.5, "seed": 1.5}},
     "task.transform.seed", "expected an integer"),
    ({"type": "transform", "base": RANDOM_TASK,
      "transform": {"kind": "subset", "fraction": True, "seed": True}},
     "task.transform.fraction", "expected a number"),
    ({"type": "transform", "base": RANDOM_TASK,
      "transform": {"kind": "label_permutation", "permutation": [1, "0"]}},
     "task.transform.permutation[1]", "expected an integer"),
    ({"type": "transform", "base": RANDOM_TASK,
      "transform": {"kind": "input_blur", "width": "1"}},
     "task.transform.width", "expected a number"),
    ({"type": "transform", "base": RANDOM_TASK, "transform": {"seed": 1}},
     "task.transform", "missing keys ['kind']"),
    (dict(PLANTED_TASK, noise_grid=[0.1, False]), "task.noise_grid[1]",
     "expected a number"),
    ({"type": "file", "path": 7}, "task.path", "expected a file name"),
])
def test_wrong_typed_task_field_is_config_error_naming_it(tmp_path, capsys, task,
                                                          field, why):
    code, path = _gen_task(tmp_path, task)
    assert code == 2
    assert f"config error: {field}: {why}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("change, message", [
    ({"rule": "parity5"}, "task.rule: no family rule 'parity5'"),
    ({"rule": -10 ** 6}, "task.rule: no family rule -1000000"),
    ({"noise_grid": [], "rule": "bit0~q0.1"}, "task.rule: no family rule 'bit0~q0.1'"),
    ({"domain_size": 4096, "rule": "nope"}, "task: family too large to enumerate "
     "(32873 rules, 269295616 table cells over a domain of 4096 inputs); use smaller "
     "domains"),
])
def test_a_planted_rule_of_no_family_is_a_config_error(tmp_path, capsys, change, message):
    # the rule table refuses what building the family refused, the family's
    # size before the rule
    code, path = _gen_task(tmp_path, dict(PLANTED_TASK, **change))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not path.exists()


def test_a_planted_rule_by_index_is_the_rule_by_name(tmp_path):
    # over 8 inputs and K = 2 there are D = 2 + 2 * 3 + 2 ** 4 = 24
    # deterministic rules, 97 in all; bit1~inv is the sixth, and at the
    # second noise level it is rule 1 + D + 3 * 5 + 1 = 41
    tasks = [load_dataset_csv(_gen_task(tmp_path, dict(PLANTED_TASK, rule=rule),
                                        f"out{i}")[1])
             for i, rule in enumerate(["bit1~inv~q0.1", 41, 41 - 97])]
    for d in tasks[1:]:
        assert np.array_equal(d.inputs, tasks[0].inputs)
        assert np.array_equal(d.labels, tasks[0].labels)


def test_subset_classes_task_keeps_the_listed_labels(tmp_path):
    base = dict(RANDOM_TASK, k=3, n=30)
    code, path = _gen_task(tmp_path, {"type": "subset_classes", "base": base,
                                      "labels": [0, 2]})
    assert code == 0
    _, plain = _gen_task(tmp_path, base, "plain")
    d, full = load_dataset_csv(path), load_dataset_csv(plain)
    keep = full.labels != 1
    assert 0 < d.n < full.n and d.num_labels == 3
    assert np.array_equal(d.inputs, full.inputs[keep])
    assert np.array_equal(d.labels, full.labels[keep])


@pytest.mark.parametrize("command, config", [
    ("structure-fn", {"version": 1, "seed": 3, "engine": "quantum",
                      "task": RANDOM_TASK}),
    ("beta-sweep", {"version": 1, "seed": 3, "engine": "quantum", "betas": [1.0],
                    "tasks": [{"name": "a", "task": RANDOM_TASK}]}),
])
def test_unknown_engine_is_config_error(tmp_path, capsys, command, config):
    code, out = run_cli(tmp_path, command, config)
    assert code == 2
    assert "config error: engine: unknown engine 'quantum'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error", [RuntimeError, KeyError])
def test_runtime_failure_exits_one_and_writes_nothing(tmp_path, capsys,
                                                      monkeypatch, error):
    # a library error that is not a ValueError is a runtime failure, not a
    # config error: every config error is raised as a ConfigError
    def fail(*args):
        raise error("planted failure")

    monkeypatch.setattr("taskinfo.finite_oracle.structure_function", fail)
    code, out = run_cli(tmp_path, "structure-fn", RERUNS["structure-fn"][0])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {error.__name__}: " in err and "planted failure" in err
    assert not out.exists()


PAC_BOUND = RERUNS["pac-bayes"][0]
PAC_TRIALS = {"version": 1, "seed": 0, "mode": "trials",
              "task": {"type": "planted", "n": 0, "k": 2, "domain_size": 16,
                       "rule": "bit0", "noise": 0.1, "seed": 0},
              "n_train": 12, "n_test": 12, "trials": 3, "beta": 1.0, "delta": 0.05,
              "opt": {"steps": 3, "mc_samples": 2, "report_mc": 4}}
DISTANCE, ANNEAL = RERUNS["distance-matrix"][0], RERUNS["anneal"][0]
VI_SWEEP = {"version": 1, "seed": 2, "engine": "variational",
            "tasks": [{"name": "rand", "task": {
                "type": "random_labels", "n": 8, "k": 2,
                "domain": {"kind": "real", "dim": 4}, "seed": 3}}],
            "betas": [1.0],
            "variational": {"arch_hidden": [], "prior_scale": 1.0,
                            "opt": {"steps": 5, "learning_rate": 0.5}}}
VI_TASK = VI_SWEEP["tasks"][0]["task"]
VI_STRUCTURE = {"version": 1, "seed": 2, "engine": "variational", "task": VI_TASK,
                "variational": dict(VI_SWEEP["variational"], betas=[1.0])}


@pytest.mark.parametrize("command, config, field, why", [
    ("pac-bayes", dict(PAC_BOUND, n=[50]), "config.n", "expected an integer"),
    ("pac-bayes", dict(PAC_BOUND, n=50.5), "config.n", "expected an integer"),
    ("pac-bayes", dict(PAC_BOUND, train_loss_total="3.0"), "config.train_loss_total",
     "expected a number"),
    ("pac-bayes", dict(PAC_BOUND, kl=None), "config.kl", "expected a number"),
    ("pac-bayes", dict(PAC_BOUND, beta=[1.0]), "config.beta", "expected a number"),
    ("pac-bayes", dict(PAC_BOUND, delta=True), "config.delta", "expected a number"),
    ("pac-bayes", dict(PAC_TRIALS, n_train="12"), "config.n_train",
     "expected an integer"),
    ("pac-bayes", dict(PAC_TRIALS, n_test=[12]), "config.n_test", "expected an integer"),
    ("pac-bayes", dict(PAC_TRIALS, trials=3.5), "config.trials", "expected an integer"),
    ("pac-bayes", dict(PAC_TRIALS, prior_scale="1"), "config.prior_scale",
     "expected a number"),
    ("distance-matrix", dict(DISTANCE, beta=[0.5]), "config.beta", "expected a number"),
    ("distance-matrix", dict(DISTANCE, prior_scale=None), "config.prior_scale",
     "expected a number"),
    ("distance-matrix", dict(DISTANCE, replicates=[2]), "config.replicates",
     "expected an integer"),
    ("distance-matrix", dict(DISTANCE, lagrangian_slack={}), "config.lagrangian_slack",
     "expected a number"),
    ("distance-matrix", dict(DISTANCE, tau_fraction=[0.05]), "config.tau_fraction",
     "expected a number"),
    ("anneal", dict(ANNEAL, schedule={"betas": [10.0, 2.0, 0.25], "epsilon": [1.0]}),
     "schedule.epsilon", "expected a number"),
    ("anneal", dict(ANNEAL, start=0.5), "config.start", "expected an integer"),
    ("anneal", dict(ANNEAL, start=[0]), "config.start", "expected an integer"),
    ("anneal", dict(ANNEAL, start=True), "config.start", "expected an integer"),
    ("pac-bayes", dict(PAC_TRIALS, opt={"steps": "10"}), "opt.steps",
     "expected an integer"),
    ("pac-bayes", dict(PAC_TRIALS, opt={"steps": 2.5}), "opt.steps",
     "expected an integer"),
    ("pac-bayes", dict(PAC_TRIALS, arch_hidden=[2.7]), "config.arch_hidden[0]",
     "expected an integer"),
    ("distance-matrix", dict(DISTANCE, opt={"learning_rate": "1.0"}),
     "opt.learning_rate", "expected a number"),
    ("distance-matrix", dict(DISTANCE, opt={"report_mc": None}), "opt.report_mc",
     "expected an integer"),
    ("distance-matrix", dict(DISTANCE, arch_hidden=[2, "3"]), "config.arch_hidden[1]",
     "expected an integer"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], opt={"mc_samples": 2.0})),
     "variational.opt.mc_samples", "expected an integer"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], opt={"grad_clip": [10.0]})),
     "variational.opt.grad_clip", "expected a number"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], arch_hidden=[True])),
     "variational.arch_hidden[0]", "expected an integer"),
    ("beta-sweep", dict(VI_SWEEP, betas=5), "config.betas", "expected a list"),
    ("beta-sweep", dict(VI_SWEEP, betas=[1.0, "2"]), "config.betas[1]",
     "expected a number"),
    ("beta-sweep", dict(VI_SWEEP, tasks=5), "config.tasks", "expected a list"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], arch_hidden=5)),
     "variational.arch_hidden", "expected a list"),
    ("distance-matrix", dict(DISTANCE, arch_hidden=5), "config.arch_hidden",
     "expected a list"),
    ("structure-fn", dict(VI_STRUCTURE, variational=dict(
        VI_STRUCTURE["variational"], betas=5)), "variational.betas", "expected a list"),
    ("anneal", dict(ANNEAL, schedule={"betas": 5, "epsilon": 1.0}),
     "schedule.betas", "expected a list"),
    ("anneal", dict(ANNEAL, grid={"path": "grid.csv"}), "grid",
     "missing keys ['metric_path']"),
    ("anneal", dict(ANNEAL, grid={"losses": [0.0]}), "grid",
     "missing keys ['kls', 'metric']"),
    *[("beta-sweep", dict(VI_SWEEP, tasks=[{"name": name, "task": VI_TASK}]),
       "tasks[0].name", f"{name!r} must be a string with no comma, no line break "
       "and no leading '#'") for name in ("a,b", "c\nd", "e\rf", "#g", 5)],
    ("pac-bayes", dict(PAC_BOUND, train_loss_total=math.nan), "config.train_loss_total",
     "nan is not a finite number"),
    ("pac-bayes", dict(PAC_BOUND, kl=-math.inf), "config.kl",
     "-inf is not a finite number"),
    ("anneal", dict(ANNEAL, schedule={"betas": [10.0, math.nan], "epsilon": 1.0}),
     "schedule.betas[1]", "nan is not a finite number"),
    ("distance-matrix", dict(DISTANCE, lagrangian_slack=math.nan),
     "config.lagrangian_slack", "nan is not a finite number"),
    ("gen-task", dict(RERUNS["gen-task"][0], seed=1.5), "config.seed",
     "expected an integer"),
    ("beta-sweep", dict(VI_SWEEP, seed=[1]), "config.seed", "expected an integer"),
    ("beta-sweep", dict(RERUNS["beta-sweep"][0], seed=[1]), "config.seed",
     "expected an integer"),
    ("structure-fn", dict(RERUNS["structure-fn"][0], task=VI_TASK), "task",
     "the oracle engine needs a discrete domain, not real vectors"),
    ("beta-sweep", dict(RERUNS["beta-sweep"][0], tasks=[
        {"name": "a", "task": RANDOM_TASK}, {"name": "b", "task": VI_TASK}]),
     "tasks[1].task", "the oracle engine needs a discrete domain, not real vectors"),
    ("structure-fn", dict(RERUNS["structure-fn"][0],
                          oracle={"t_grid": [5.0], "noise_grid": [True]}),
     "oracle.noise_grid[0]", "expected a number"),
    ("beta-sweep", dict(RERUNS["beta-sweep"][0], oracle={"noise_grid": 0.1}),
     "oracle.noise_grid", "expected a list"),
    ("anneal", dict(ANNEAL, grid=dict(ANNEAL["grid"], losses=[True, 0.0, 0.0])),
     "grid.losses[0]", "expected a number"),
    ("anneal", dict(ANNEAL, grid=dict(ANNEAL["grid"], losses=["x", 0.0, 0.0])),
     "grid.losses[0]", "expected a number"),
    ("anneal", dict(ANNEAL, grid=dict(ANNEAL["grid"], kls=[0.0, math.nan, 8.0])),
     "grid.kls[1]", "nan is not a finite number"),
    ("anneal", dict(ANNEAL, grid=dict(ANNEAL["grid"], metric=[[0, 1, 2], [1, 0, "1"],
                                                             [2, 1, 0]])),
     "grid.metric[1][2]", "expected a number"),
    ("anneal", dict(ANNEAL, grid=dict(ANNEAL["grid"], metric=[[0, 1, 2], 5, [2, 1]])),
     "grid.metric[1]", "expected a list"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], prior_scale="2")),
     "variational.prior_scale", "expected a number"),
    ("structure-fn", dict(VI_STRUCTURE, variational=dict(
        VI_STRUCTURE["variational"], prior_scale=True)),
     "variational.prior_scale", "expected a number"),
    ("gen-task", dict(RERUNS["gen-task"][0], version=True), "config.version",
     "expected an integer"),
    ("pac-bayes", {k: v for k, v in PAC_TRIALS.items() if k != "task"}, "task",
     "expected a task object with a 'type'"),
])
def test_wrong_typed_config_number_is_config_error_naming_it(tmp_path, capsys, command,
                                                             config, field, why):
    code, out = run_cli(tmp_path, command, config)
    assert code == 2
    assert f"config error: {field}: {why}" in capsys.readouterr().err
    assert not out.exists()


def test_task_names_with_xml_characters_give_parseable_svg(tmp_path):
    cfg = dict(RERUNS["beta-sweep"][0])
    cfg["tasks"] = [{"name": "a&b", "task": RANDOM_TASK},
                    {"name": "<c>", "task": RANDOM_TASK}]
    code, out = run_cli(tmp_path, "beta-sweep", cfg)
    assert code == 0
    root = ElementTree.parse(out / "beta_sweep.svg").getroot()
    assert {"a&b", "<c>"} <= {el.text for el in root.iter(f"{SVG_NS}text")}
    rows = read(out / "beta_sweep.csv").splitlines()[2:]
    assert len(rows) == 6 and all(len(r.split(",")) == 5 for r in rows)


def test_oracle_family_too_large_exits_2_without_allocating(tmp_path, capsys):
    # 262,181 rules over 100,000 inputs: 5.2e10 table cells, and a parity
    # temporary of 131,072 x 100,000; the bound must fire before either
    cfg = {"version": 1, "seed": 0, "engine": "oracle",
           "task": {"type": "random_labels", "n": 10, "k": 2,
                    "domain": {"kind": "discrete", "size": 100_000}, "seed": 1},
           "oracle": {"t_grid": [5.0], "noise_grid": []}}
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "structure-fn", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out.exists()
    assert "domain of 100000 inputs" in capsys.readouterr().err
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


def test_null_grad_clip_and_logvar_learning_rate_are_accepted(tmp_path):
    opt = dict(VI_SWEEP["variational"]["opt"], grad_clip=None,
               logvar_learning_rate=None)
    code, out = run_cli(tmp_path, "beta-sweep", dict(
        VI_SWEEP, variational=dict(VI_SWEEP["variational"], opt=opt)))
    assert code == 0 and (out / "beta_sweep.csv").exists()


@pytest.mark.parametrize("command, config, field", [
    ("anneal", dict(ANNEAL, grid={"path": 0, "metric_path": "metric.csv"}),
     "grid.path"),
    ("anneal", dict(ANNEAL, grid={"path": "grid.csv", "metric_path": 0}),
     "grid.metric_path"),
    ("anneal", dict(ANNEAL, grid={"path": None, "metric_path": "metric.csv"}),
     "grid.path"),
    ("anneal", dict(ANNEAL, grid={"path": ["grid.csv"], "metric_path": "m.csv"}),
     "grid.path"),
    ("gen-task", dict(RERUNS["gen-task"][0], task={"type": "file", "path": 0}),
     "task.path"),
])
def test_file_names_must_be_strings_before_any_file_is_opened(
        tmp_path, capsys, monkeypatch, command, config, field):
    # an integer would be opened as a file descriptor: 0 reads standard input
    opened = []
    for loader in ("annealing.load_grid", "tasks.load_dataset_csv"):
        monkeypatch.setattr(f"taskinfo.{loader}", lambda *names: opened.append(names))
    code, out = run_cli(tmp_path, command, config)
    assert code == 2
    assert f"config error: {field}: expected a file name" in capsys.readouterr().err
    assert opened == [] and not out.exists()


def test_anneal_start_node_id_gives_the_trajectory_of_its_index(tmp_path):
    runs = [run_cli(tmp_path, "anneal", dict(ANNEAL, start=start), out=f"o{i}")
            for i, start in enumerate((1, "1"))]
    assert [code for code, _ in runs] == [0, 0]
    by_index, by_id = (read(out / "anneal_trajectory.csv").splitlines()
                       for _, out in runs)
    assert by_index[2].split(",")[2] == "1"     # step 0 sits at the start node
    assert by_index[1:] == by_id[1:]            # line 0 carries the config hash


@pytest.mark.parametrize("command, config, message", [
    ("gen-task", None, "error: config file not found: "),
    ("gen-task", "{not json", "error: config is not valid JSON: "),
    ("gen-task", dict(RERUNS["gen-task"][0], task=dict(
        RANDOM_TASK, domain={"kind": "complex"})),
     "config error: task.domain.kind: unknown domain kind 'complex'"),
    ("gen-task", dict(RERUNS["gen-task"][0], task=5),
     "config error: task: expected a task object with a 'type'"),
    ("gen-task", dict(RERUNS["gen-task"][0], task={"type": "mystery"}),
     "config error: task.type: unknown task type 'mystery'"),
    ("beta-sweep", dict(RERUNS["beta-sweep"][0], betas=[]),
     "config error: betas: must be nonempty"),
    ("structure-fn", dict(VI_STRUCTURE, variational=dict(
        VI_STRUCTURE["variational"], betas=[])),
     "config error: variational.betas: must be nonempty"),
    ("distance-matrix", dict(DISTANCE, tasks=DISTANCE["tasks"][:1]),
     "config error: tasks: distance matrix needs at least two tasks"),
    ("distance-matrix", dict(DISTANCE, tasks=[DISTANCE["tasks"][0],
                                              {"name": "c", "task": VI_TASK}]),
     "config error: tasks: distance-matrix tasks must share input dim"),
    ("pac-bayes", dict(PAC_BOUND, mode="x"), "config error: mode: unknown mode 'x'"),
    ("pac-bayes", dict(PAC_BOUND, beta=10 ** 400),
     "config error: config.beta: expected a number"),
    ("anneal", dict(ANNEAL, start="zz"), "config error: start: unknown node id 'zz'"),
])
def test_config_branch_exits_2_with_its_message(tmp_path, capsys, command, config,
                                                message):
    # config None: no config file; a string: the file's text as it stands
    cfg_path, out = tmp_path / "config.json", tmp_path / "out"
    if config is not None:
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _permuted(base):
    return {"type": "transform", "base": base, "transform": {
        "kind": "label_permutation", "permutation": [1, 0]}}


def _both_classes(base):
    return {"type": "subset_classes", "base": base, "labels": [0, 1]}


# each wrapper around a task, and whether the trials' rows match the bare task's
_WRAPS = {
    "as_real": (lambda base: {"type": "as_real", "base": base}, True),
    "transform": (_permuted, False),
    "subset_classes": (_both_classes, True),
    "nested": (lambda base: {"type": "as_real", "base": _both_classes(_permuted(base))},
               False),
}


@pytest.mark.parametrize("wrap", list(_WRAPS))
def test_pac_bayes_trials_redraw_the_leaf_under_wrappers(tmp_path, wrap):
    # each trial's n and seed go to the planted leaf; the transform keeps
    # its own fields, and as_real and an all-label subset_classes change
    # nothing the trials do not do
    wrapper, same = _WRAPS[wrap]
    runs = [run_cli(tmp_path, "pac-bayes", dict(PAC_TRIALS, task=spec), out=out)
            for spec, out in ((PAC_TRIALS["task"], "bare"),
                              (wrapper(PAC_TRIALS["task"]), wrap))]
    assert [code for code, _ in runs] == [0, 0]
    bare, wrapped = (read(out / "pac_bayes.csv").splitlines() for _, out in runs)
    assert len(wrapped) == 6 and wrapped[-1].startswith("# coverage=")
    assert (wrapped[1:] == bare[1:]) == same


@pytest.mark.parametrize("leaf", [RANDOM_TASK, PAC_TRIALS["task"]],
                         ids=["random_labels", "planted"])
def test_redrawn_sets_only_the_leafs_n_and_seed(leaf):
    from taskinfo.cli import _redrawn

    transform = {"kind": "label_randomization", "seed": 7}
    spec = {"type": "as_real", "base": {"type": "transform", "transform": transform,
                                        "base": _both_classes(leaf)}}
    got = _redrawn(spec, 24, 3)
    assert got == {"type": "as_real", "base": {
        "type": "transform", "transform": transform,
        "base": _both_classes(dict(leaf, n=24, seed=3))}}
    assert spec["base"]["base"]["base"] is leaf      # the config is left as it was


@pytest.mark.parametrize("kind", ["union", "file"])
def test_pac_bayes_trials_refuse_a_task_with_no_one_leaf(tmp_path, capsys, kind):
    leaf = PAC_TRIALS["task"]
    if kind == "union":
        task, path = {"type": "union", "left": leaf, "right": leaf}, "task"
    else:
        assert run_cli(tmp_path, "gen-task", RERUNS["gen-task"][0], out="gen")[0] == 0
        task = {"type": "as_real", "base": {"type": "file",
                                            "path": str(tmp_path / "gen" / "task.csv")}}
        path = "task.base"
    code, out = run_cli(tmp_path, "pac-bayes", dict(PAC_TRIALS, task=task))
    assert code == 2
    assert (f"config error: {path}: a {kind} task cannot be redrawn for each trial"
            in capsys.readouterr().err)
    assert not out.exists()


_EXHAUSTED = dict(RANDOM_TASK, n=33)
_SMALL_GRID = {"losses": [1.0, 0.0], "kls": [0.0, 1.0], "metric": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("command, config, message", [
    ("gen-task", dict(RERUNS["gen-task"][0], task=_EXHAUSTED),
     "task: domain exhausted: cannot draw 33 distinct inputs from 32"),
    ("gen-task", dict(RERUNS["gen-task"][0], task={
        "type": "union", "left": RANDOM_TASK, "right": {"type": "as_real",
                                                        "base": RANDOM_TASK}}),
     "task: disjoint union requires a shared input kind"),
    ("gen-task", dict(RERUNS["gen-task"][0], task=dict(
        PAC_TRIALS["task"], n=4, noise=1.5)),
     "task: invalid parameter: noise must be in [0, 1], got 1.5"),
    ("gen-task", dict(RERUNS["gen-task"][0], task={
        "type": "as_real", "base": dict(PAC_TRIALS["task"], k=1)}),
     "task.base: family needs num_labels >= 2"),
    ("gen-task", dict(RERUNS["gen-task"][0], task=dict(
        RANDOM_TASK, domain={"kind": "discrete", "size": 0})),
     "task.domain: discrete space needs size >= 1, got 0"),
    ("beta-sweep", dict(RERUNS["beta-sweep"][0], tasks=[
        {"name": "a", "task": RANDOM_TASK}, {"name": "b", "task": _EXHAUSTED}]),
     "tasks[1].task: domain exhausted"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], opt={"steps": -1})),
     "variational.opt: need steps >= 0"),
    ("beta-sweep", dict(VI_SWEEP, variational=dict(
        VI_SWEEP["variational"], arch_hidden=[0])),
     "variational.arch_hidden: layer widths must be positive"),
    ("structure-fn", dict(VI_STRUCTURE, variational=dict(
        VI_STRUCTURE["variational"], prior_scale=0.0)),
     "variational.prior_scale: prior scale must be positive"),
    ("distance-matrix", dict(DISTANCE, replicates=0),
     "config: need at least one replicate"),
    ("pac-bayes", dict(PAC_BOUND, kl=-1.0), "config: kl must be >= 0"),
    ("pac-bayes", dict(PAC_TRIALS, delta=0.0), "config: invalid confidence"),
    ("anneal", dict(ANNEAL, grid=dict(_SMALL_GRID, metric=[[0, 1], [2, 0]])),
     "grid: metric must be symmetric"),
    ("anneal", dict(ANNEAL, grid=_SMALL_GRID, start=2),
     "start: q_init outside the grid"),
    ("anneal", dict(ANNEAL, schedule={"betas": [1.0], "epsilon": 0.0}),
     "schedule: epsilon must be > 0"),
    ("pac-bayes", dict(PAC_BOUND, beta=0.5), "config: invalid beta"),
    ("pac-bayes", dict(PAC_BOUND, n=0), "config: n must be >= 1"),
    ("pac-bayes", dict(PAC_TRIALS, n_train=0), "config: n must be >= 1"),
])
def test_library_check_of_a_config_value_names_its_field(tmp_path, capsys, command,
                                                          config, message):
    code, out = run_cli(tmp_path, command, config)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error", [ValueError, NoHypothesisError])
def test_library_value_error_of_the_run_exits_one(tmp_path, capsys, monkeypatch,
                                                  error):
    # only a ConfigError exits 2: a ValueError that no call site reports as a
    # config value's error is a failure of the run
    def fail(*args):
        raise error("planted failure")

    monkeypatch.setattr("taskinfo.finite_oracle.structure_function", fail)
    code, out = run_cli(tmp_path, "structure-fn", RERUNS["structure-fn"][0])
    assert code == 1
    assert f"error: {error.__name__}: planted failure" in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    import argparse

    # built on first use, then kept: a second run builds none
    assert run_cli(tmp_path, "gen-task", RERUNS["gen-task"][0], out="first")[0] == 0
    monkeypatch.setattr(argparse, "ArgumentParser", None)
    assert run_cli(tmp_path, "gen-task", RERUNS["gen-task"][0], out="again")[0] == 0


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main(), not at import
    subprocess.run([sys.executable, "-c", "import argparse\n"
                    "argparse.ArgumentParser = None\n"
                    "import taskinfo.cli"],
                   env=_child_env(), check=True, capture_output=True, timeout=120)


_VARIATIONAL = {"arch_hidden": [], "prior_scale": 1.0,
                "opt": {"steps": 5, "mc_samples": 1, "report_mc": 4}}
_SHARED = {"tasks", "rng", "textio"}
_CLI = _SHARED | {"cli", "svg"}

# a fresh process, then the command it runs (none: `import taskinfo`
# alone), and the taskinfo modules it has loaded when it is done
LOADED = {
    "import": (None, None, _SHARED),
    "gen-task": ("gen-task", RERUNS["gen-task"][0], _CLI),
    "anneal": ("anneal", RERUNS["anneal"][0], _CLI | {"annealing"}),
    "oracle structure-fn": ("structure-fn", RERUNS["structure-fn"][0],
                            _CLI | {"finite_oracle", "rules"}),
    # a planted task takes its rule from the rule table, not the oracle
    "planted gen-task": ("gen-task", {"version": 1, "seed": 1, "task": PLANTED_TASK},
                         _CLI | {"rules"}),
    "planted pac-bayes trials": ("pac-bayes", RERUNS["pac-bayes trials"][0],
                                 _CLI | {"rules", "bounds", "models", "variational"}),
    "variational beta-sweep": (
        "beta-sweep", {"version": 1, "seed": 2, "engine": "variational",
                       "tasks": [{"name": "rand", "task": RANDOM_TASK}],
                       "betas": [1.0], "variational": _VARIATIONAL},
        _CLI | {"models", "variational"}),
    "variational structure-fn": (
        "structure-fn", {"version": 1, "seed": 3, "engine": "variational",
                         "task": RANDOM_TASK,
                         "variational": dict(_VARIATIONAL, betas=[1.0])},
        _CLI | {"models", "variational"}),
}


@pytest.mark.parametrize("case", sorted(LOADED))
def test_a_process_loads_only_the_engine_it_runs(tmp_path, case):
    # the package loads the shared task layer; each engine module is
    # imported by the first command that runs it
    command, cfg, want = LOADED[case]
    script = "import json, sys\nimport taskinfo\n"
    if command:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script += f"from taskinfo.cli import main\nassert main({argv!r}) == 0\n"
    script += "print(json.dumps(sorted(m for m in sys.modules if m.startswith('taskinfo'))))"
    run = subprocess.run([sys.executable, "-c", script], env=_child_env(), check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == sorted({"taskinfo"} | {f"taskinfo.{m}" for m in want})


def _fail(*args, **kwargs):
    raise RuntimeError("the computation started")


@pytest.mark.parametrize("command, config, computation, message", [
    ("beta-sweep", dict(RERUNS["beta-sweep"][0], betas=[0.5, -1.0]),
     "taskinfo.finite_oracle.lagrangian_sweep",
     "config.betas[1]: beta must be >= 0, got -1.0"),
    ("beta-sweep", dict(VI_SWEEP, betas=[-0.5]), "taskinfo.variational.structure_sweep",
     "config.betas[0]: beta must be >= 0, got -0.5"),
    ("structure-fn", dict(VI_STRUCTURE, variational=dict(
        VI_STRUCTURE["variational"], betas=[1.0, -2.0])),
     "taskinfo.variational.structure_sweep",
     "variational.betas[1]: beta must be >= 0, got -2.0"),
    ("distance-matrix", dict(DISTANCE, beta=-0.5), "taskinfo.distance.distance_matrix",
     "config.beta: beta must be >= 0, got -0.5"),
    ("pac-bayes", dict(PAC_TRIALS, trials=0), "taskinfo.bounds.bound_validation_trial",
     "config.trials: need at least one trial, got 0"),
])
def test_config_value_a_computation_refuses_is_checked_before_it(
        tmp_path, capsys, monkeypatch, command, config, computation, message):
    # the library refuses these values too, but with a ValueError from
    # inside the run: the CLI names the field before anything is computed
    monkeypatch.setattr(computation, _fail)
    code, out = run_cli(tmp_path, command, config)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_structure_fn_with_no_budget_reaching_a_rule_writes_infinite_losses(tmp_path):
    # every rule of the 8-input family costs more than 0.5 NATS: S(0.5) is
    # inf, a correct answer, and the chart notes that it has no points
    code, out = run_cli(tmp_path, "structure-fn", {
        "version": 1, "seed": 3, "engine": "oracle",
        "task": dict(RANDOM_TASK, n=6, domain={"kind": "discrete", "size": 8}),
        "oracle": {"t_grid": [0.5]}})
    assert code == 0
    assert read(out / "structure_fn.csv").splitlines()[2:] == ["0.5,inf,inf"]
    root = ElementTree.fromstring(read(out / "structure_fn.svg"))
    assert "no finite points" in [el.text for el in root.iter(f"{SVG_NS}text")]



def test_beta_sweep_at_beta_zero_alone_writes_its_row(tmp_path):
    # a log axis cannot place beta = 0: the chart has no point, the CSV its row
    code, out = run_cli(tmp_path, "beta-sweep", dict(RERUNS["beta-sweep"][0], betas=[0.0]))
    assert code == 0
    assert len(read(out / "beta_sweep.csv").splitlines()) == 3
    assert "no finite points" in read(out / "beta_sweep.svg")


_UNION_16_8 = {"type": "union",
               "left": {"type": "planted", "n": 32, "k": 2, "domain_size": 16,
                        "rule": "parity011", "seed": 31},
               "right": dict(RANDOM_TASK, n=8, domain={"kind": "discrete", "size": 8})}


@pytest.mark.parametrize("command, config", [
    ("structure-fn", {"version": 1, "seed": 3, "engine": "oracle", "task": _UNION_16_8,
                      "oracle": {"t_grid": [5.0, 20.0]}}),
    ("beta-sweep", {"version": 1, "seed": 3, "engine": "oracle", "betas": [1.0],
                    "tasks": [{"name": "u", "task": _UNION_16_8},
                              {"name": "p", "task": _UNION_16_8["left"]}]}),
])
def test_union_family_takes_the_planted_part_from_the_command(tmp_path, monkeypatch,
                                                              command, config):
    # the planted task's family is the union family's left part
    built = _spy_builds(monkeypatch)
    code, _ = run_cli(tmp_path, command, config)
    assert code == 0
    assert len(built) == len(set(built)) == 3
    assert {space.size for space in built} == {16, 32, 8}


def test_union_and_flat_space_of_one_size_get_their_own_families(tmp_path):
    # the 16+8 union and a flat task both have 32 inputs: a family store
    # keyed by the size would give the second task the first one's family
    flat = {"name": "flat", "task": RANDOM_TASK}
    union = {"name": "union", "task": _UNION_16_8}
    rows = {}
    for tasks in ([union, flat], [union], [flat]):
        code, out = run_cli(tmp_path, "beta-sweep", {
            "version": 1, "seed": 3, "engine": "oracle", "betas": [0.25, 1.0],
            "tasks": tasks})
        assert code == 0
        rows[len(tasks), tasks[0]["name"]] = \
            read(out / "beta_sweep.csv").splitlines()[2:]
    assert rows[2, "union"] == rows[1, "union"] + rows[1, "flat"]


@pytest.mark.parametrize("make, why", [
    (lambda path: path.mkdir(), "IsADirectoryError: Is a directory"),
    (lambda path: path.write_bytes(b'{"version": 1, "seed": 0, "task": "\xff"}'),
     "UnicodeDecodeError: 'utf-8' codec can't decode"),
    (lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
     "RecursionError: maximum recursion depth exceeded"),
], ids=["directory", "not-utf-8", "nested-too-deep"])
def test_unreadable_config_exits_2_naming_its_path(tmp_path, capsys, make, why):
    cfg_path, out = tmp_path / "config.json", tmp_path / "out"
    make(cfg_path)
    code = main(["gen-task", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith(f"error: cannot read config {cfg_path}: {why}")
    assert err.count("\n") == 1


def test_out_naming_a_regular_file_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"old bytes\n")
    code, _ = run_cli(tmp_path, "gen-task", RERUNS["gen-task"][0])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: cannot write to --out {out}: FileExistsError")
    assert out.read_bytes() == b"old bytes\n"


def test_multi_file_run_that_fails_before_its_renames_writes_nothing(tmp_path, capsys):
    # structure_fn.svg is a directory: structure_fn.csv, the first output,
    # must not be renamed into place either, and no temporary file is left
    out = tmp_path / "out"
    (out / "structure_fn.svg").mkdir(parents=True)
    code, _ = run_cli(tmp_path, "structure-fn", RERUNS["structure-fn"][0])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert "IsADirectoryError" in err and "structure_fn.svg" in err
    assert [p.name for p in out.iterdir()] == ["structure_fn.svg"]
    assert not any((out / "structure_fn.svg").iterdir())


@pytest.mark.parametrize("task, width", [
    (dict(REAL_TASK, n=10 ** 12), 4),
    (dict(RANDOM_TASK, n=10 ** 12, domain={"kind": "discrete", "size": 10 ** 12}), 1),
    (dict(PLANTED_TASK, n=10 ** 12), 1),
], ids=["real", "discrete", "planted"])
def test_task_size_is_a_config_error_before_any_allocation(tmp_path, capsys, task, width):
    # a 4-dim real task of 10**12 samples once asked numpy for 29.1 TiB
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "gen-task", dict(RERUNS["gen-task"][0], task=task))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (
        f"config error: task.n: {10 ** 12} samples x {width} input values exceed "
        "the task bound of 2^27 = 134217728 cells\n")
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def test_task_size_bound_counts_samples_times_input_width():
    from taskinfo import cli
    assert cli._task_size(2 ** 27, 1, "task") == 2 ** 27
    assert cli._task_size(2 ** 25, 4, "task") == 2 ** 25
    for n, width in ((2 ** 27 + 1, 1), (2 ** 25 + 1, 4)):
        with pytest.raises(cli.ConfigError, match=r"^task\.n: "):
            cli._task_size(n, width, "task")
