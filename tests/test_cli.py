"""Command-line interface: subcommands, config files, reports, exit codes."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from communifind import (
    KrylovParams,
    expm_action,
    read_edge_list,
    total_communicability,
)
from communifind import communicability
from communifind.cli import (
    ConfigError,
    _coerce,
    build_experiment_config,
    main,
    parse_flat_config,
)

EXPERIMENT_CONFIG = """\
# identification experiment on a sparse random background
model = er
nodes = 256
avg_degree = 2.0
target = sparse
num_backgrounds = 4
runs = 3
base_seed = 7
"""

BASELINE_CONFIG = """\
model = er
nodes = 128
avg_degree = 3.0
target = clique
target_size = 10
num_backgrounds = 2
runs = 2
base_seed = 1
r_dims = 5
"""


# =====================================================================
# Config parsing
# =====================================================================


def test_parse_flat_config_basics():
    got = parse_flat_config("a = 1\n# note\n\nb=two\n")
    assert got == {"a": "1", "b": "two"}


def test_parse_flat_config_reports_all_problems():
    with pytest.raises(ConfigError) as exc_info:
        parse_flat_config("a = 1\nbogus line\na = 2\n")
    msg = str(exc_info.value)
    assert "line 2" in msg and "line 3" in msg and "duplicate" in msg


def test_build_config_round_trip():
    values = {
        "model": "er",
        "nodes": 256,
        "avg_degree": 2.0,
        "target": "sparse",
        "num_backgrounds": 4,
        "runs": 3,
        "base_seed": 7,
    }
    cfg = build_experiment_config(values)
    assert cfg.background.n == 256
    assert cfg.target.t == 20 and cfg.target.edge_count == 21
    assert cfg.num_backgrounds == 4 and cfg.runs == 3
    assert build_experiment_config({**values, "runs": 9}).runs == 9


def test_config_without_krylov_keys_uses_krylov_defaults():
    values = _coerce(parse_flat_config(EXPERIMENT_CONFIG), "experiment")
    assert build_experiment_config(values).krylov == KrylovParams()


def test_build_config_rejects_bad_target():
    values = {
        "model": "er",
        "nodes": 64,
        "avg_degree": 2.0,
        "target": "star",
        "num_backgrounds": 1,
        "runs": 1,
    }
    with pytest.raises(ConfigError):
        build_experiment_config(values)


# =====================================================================
# generate
# =====================================================================


def test_generate_writes_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(
        ["generate", "--model", "er", "--nodes", "200", "--avg-degree", "2.0",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    with out.open() as fh:
        g = read_edge_list(fh)
    assert g.n == 200
    line = capsys.readouterr().out.strip()
    assert line.startswith("nodes=200 edges=")
    assert f"edges={g.edge_count}" in line and "density=" in line


def test_generate_byte_identical_reruns(tmp_path):
    args = ["generate", "--model", "sw", "--nodes", "100", "--k", "4",
            "--beta", "0.1", "--seed", "9"]
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_wrong_parameter_combo(tmp_path, capsys):
    rc = main(
        ["generate", "--model", "er", "--nodes", "50", "--m", "2",
         "--seed", "0", "--out", str(tmp_path / "g.txt")]
    )
    assert rc == 2
    assert "avg-degree" in capsys.readouterr().err


def test_generate_rejects_beta_outside_unit_interval_for_every_model(tmp_path, capsys):
    # only sw rewires, but every model carries beta
    out = tmp_path / "g.txt"
    rc = main(["generate", "--model", "ba", "--nodes", "50", "--m", "2", "--beta", "inf", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert "beta" in capsys.readouterr().err
    assert not out.exists()


def test_generate_unwritable_path(tmp_path, capsys):
    rc = main(
        ["generate", "--model", "er", "--nodes", "50", "--avg-degree", "2.0",
         "--seed", "0", "--out", str(tmp_path / "missing-dir" / "g.txt")]
    )
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


# =====================================================================
# scores
# =====================================================================


def test_scores_end_to_end(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    main(["generate", "--model", "er", "--nodes", "150", "--avg-degree", "3.0",
          "--seed", "1", "--out", str(graph_path)])
    capsys.readouterr()
    scores_path = tmp_path / "scores.csv"
    rc = main(["scores", "--graph", str(graph_path), "--out", str(scores_path), "--top", "10"])
    assert rc == 0
    rows = scores_path.read_text().splitlines()
    assert rows[0] == "node,score"
    scores = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert scores.size == 150
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("threshold=")
    threshold = float(printed.split("=")[1])
    # the printed threshold is the 10th largest score in the CSV
    assert threshold == np.sort(scores)[150 - 10]


def test_scores_default_budget_matches_library(tmp_path, capsys):
    # a solve longer than 30 steps: the flag defaults must be the library's
    graph_path = tmp_path / "sw.txt"
    main(["generate", "--model", "sw", "--nodes", "2000", "--k", "100", "--beta", "0.02",
          "--seed", "3", "--out", str(graph_path)])
    scores_path = tmp_path / "scores.csv"
    assert main(["scores", "--graph", str(graph_path), "--out", str(scores_path)]) == 0
    capsys.readouterr()
    with graph_path.open() as fh:
        g = read_edge_list(fh)
    assert expm_action(g, np.ones(g.n)).iterations > 30
    rows = scores_path.read_text().splitlines()[1:]
    scores = np.array([float(r.split(",")[1]) for r in rows])
    assert np.array_equal(scores, total_communicability(g).scores)


def test_scores_huge_krylov_m_matches_the_default(tmp_path, capsys):
    # a step budget far beyond memory allocates only what the solve uses
    graph_path = tmp_path / "g3.txt"
    graph_path.write_text("# nodes: 3\n# edges: 2\n0 1\n1 2\n")
    default, huge = tmp_path / "default.csv", tmp_path / "huge.csv"
    assert main(["scores", "--graph", str(graph_path), "--out", str(default)]) == 0
    assert main(["scores", "--graph", str(graph_path), "--out", str(huge), "--krylov-m", str(10**15)]) == 0
    assert huge.read_text() == default.read_text()


def test_scores_unconverged_exits_1(tmp_path, capsys):
    # the solve needs 27 steps, so a budget of 8 leaves it unconverged
    graph_path = tmp_path / "sw.txt"
    main(["generate", "--model", "sw", "--nodes", "2000", "--k", "40", "--beta", "0.1",
          "--seed", "1", "--out", str(graph_path)])
    capsys.readouterr()
    scores_path = tmp_path / "scores.csv"
    rc = main(["scores", "--graph", str(graph_path), "--out", str(scores_path), "--krylov-m", "8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "did not converge" in err and "est_error" in err and "tol" in err
    assert not scores_path.exists()


def test_scores_triangle_closed_form(tmp_path, capsys):
    graph_path = tmp_path / "k3.txt"
    graph_path.write_text("0 1\n0 2\n1 2\n")
    scores_path = tmp_path / "scores.csv"
    rc = main(["scores", "--graph", str(graph_path), "--out", str(scores_path), "--top", "3"])
    assert rc == 0
    rows = scores_path.read_text().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert values == pytest.approx([np.exp(2.0)] * 3, rel=1e-8)  # e^2 = 7.389056099...
    threshold = float(capsys.readouterr().out.strip().split("=")[1])
    assert threshold == pytest.approx(np.exp(2.0), rel=1e-8)


def test_scores_edgeless_graph_all_ones(tmp_path, capsys):
    graph_path = tmp_path / "empty.txt"
    graph_path.write_text("# nodes: 3\n")
    scores_path = tmp_path / "scores.csv"
    rc = main(["scores", "--graph", str(graph_path), "--out", str(scores_path)])
    assert rc == 0
    rows = scores_path.read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == pytest.approx([1.0, 1.0, 1.0])
    capsys.readouterr()


@pytest.mark.parametrize("text", ["", "# nodes: 0\n# edges: 0\n"], ids=["empty-file", "zero-node-header"])
def test_scores_zero_node_graph_is_data_error(tmp_path, capsys, text):
    # the header case is what write_edge_list writes for an empty graph
    graph_path = tmp_path / "none.txt"
    graph_path.write_text(text)
    scores_path = tmp_path / "scores.csv"
    rc = main(["scores", "--graph", str(graph_path), "--out", str(scores_path)])
    assert rc == 1
    assert "empty (0 nodes)" in capsys.readouterr().err
    assert not scores_path.exists()


@pytest.mark.parametrize("top", ["0", "-3"])
def test_scores_top_below_one_is_usage_error(tmp_path, capsys, top):
    graph_path = tmp_path / "k3.txt"
    graph_path.write_text("0 1\n0 2\n1 2\n")
    scores_path = tmp_path / "scores.csv"
    rc = main(["scores", "--graph", str(graph_path), "--out", str(scores_path), "--top", top])
    assert rc == 2
    assert "--top" in capsys.readouterr().err
    assert not scores_path.exists()


def test_scores_missing_graph(tmp_path, capsys):
    rc = main(["scores", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_scores_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 1\n")
    rc = main(["scores", "--graph", str(bad), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


# =====================================================================
# experiment / baseline
# =====================================================================


def _write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _assert_read_from_report(report, out_dir, printed):
    """summary.csv's one row and the closing line carry the report's values."""
    config = report["config"]
    with (out_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0] == {
        "method": report["method"],
        "model": config["model"],
        "n": str(config["nodes"]),
        "avg_deg": f"{config['avg_degree']:.6g}",
        "N": str(config["num_backgrounds"]),
        "runs": str(len(report["runs"])),
        "mean_rate": f"{report['mean_rate']:.6f}",
        "std": f"{report['std_rate']:.6f}",
        "perfect_frac": f"{report['perfect_fraction']:.6f}",
        "secs": f"{report['total_seconds']:.3f}",
    }
    fields = dict(token.split("=", 1) for token in printed.split())
    for key in ("method", "runs", "mean_rate", "std", "perfect_frac"):
        assert fields[key] == rows[0][key]
    if "min_margin" in report:
        margin = math.inf if report["min_margin"] is None else report["min_margin"]
        assert fields["min_margin"] == f"{margin:.3g}"
        assert fields["unsettled_runs"] == (",".join(map(str, report["unsettled_runs"])) or "none")
    else:
        assert "min_margin" not in fields and "unsettled_runs" not in fields


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = _write_config(tmp_path, EXPERIMENT_CONFIG)
    out_dir = tmp_path / "out"
    rc = main(["experiment", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "method=communicability" in printed and "mean_rate=" in printed

    report = json.loads((out_dir / "exp.communicability.json").read_text())
    assert report["method"] == "communicability"
    assert report["rng"] == "splitmix64-counter"
    assert report["config"]["nodes"] == 256
    assert 0.0 <= report["mean_rate"] <= 1.0
    assert len(report["runs"]) == 3
    for i, run in enumerate(report["runs"]):
        assert run["run"] == i
        assert len(run["target_nodes"]) == 20
        assert len(run["candidates"]) == 20
        assert run["rate"] == run["hits"] / 20
    assert set(report["phase_seconds"]) == {"generation", "scoring", "selection"}
    assert report["hosts_per_solve"] == communicability.hosts_per_stack(256)
    assert report["solves_per_run"] == 1  # 4 backgrounds, one stack
    margins = [run["margin"] for run in report["runs"]]
    assert all(m is None or m >= 0.0 for m in margins)
    assert report["min_margin"] == min(m if m is not None else math.inf for m in margins)
    assert report["unsettled_runs"] == [i for i, m in enumerate(margins) if m is not None and m < 1.0]
    assert f"min_margin={report['min_margin']:.3g}" in printed

    with (out_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["method"] == "communicability"
    assert rows[0]["model"] == "er"
    assert rows[0]["n"] == "256"
    assert rows[0]["runs"] == "3"
    assert float(rows[0]["mean_rate"]) == pytest.approx(report["mean_rate"], abs=1e-6)
    _assert_read_from_report(report, out_dir, printed)


def test_experiment_infinite_margin_is_null_and_inf(tmp_path, capsys):
    # top_k = nodes selects every node, so no score can change the set
    cfg = _write_config(
        tmp_path,
        "model = er\nnodes = 60\navg_degree = 3.0\ntarget = clique\ntarget_size = 5\n"
        "num_backgrounds = 3\nruns = 2\ntop_k = 60\n",
    )
    out_dir = tmp_path / "out"
    assert main(["experiment", str(cfg), "--out-dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    report = json.loads((out_dir / "exp.communicability.json").read_text())
    assert [run["margin"] for run in report["runs"]] == [None, None]
    assert report["min_margin"] is None and report["unsettled_runs"] == []
    assert " min_margin=inf unsettled_runs=none " in printed
    _assert_read_from_report(report, out_dir, printed)


def test_experiment_names_unsettled_runs(tmp_path, capsys):
    # complete backgrounds: every node ties, so no margin reaches 1
    cfg = _write_config(
        tmp_path,
        "model = er\nnodes = 30\navg_degree = 29.0\ntarget = clique\ntarget_size = 2\n"
        "num_backgrounds = 2\nruns = 2\ntop_k = 3\n",
    )
    out_dir = tmp_path / "out"
    assert main(["experiment", str(cfg), "--out-dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "min_margin=0 unsettled_runs=0,1 " in printed
    report = json.loads((out_dir / "exp.communicability.json").read_text())
    assert [run["margin"] for run in report["runs"]] == [0.0, 0.0]
    assert report["min_margin"] == 0.0 and report["unsettled_runs"] == [0, 1]
    assert report["solves_per_run"] == 1


def test_experiment_deterministic_reports(tmp_path):
    cfg = _write_config(tmp_path, EXPERIMENT_CONFIG)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["experiment", str(cfg), "--out-dir", str(d1)]) == 0
    assert main(["experiment", str(cfg), "--out-dir", str(d2), "--jobs", "4"]) == 0
    r1 = json.loads((d1 / "exp.communicability.json").read_text())
    r2 = json.loads((d2 / "exp.communicability.json").read_text())
    # identical up to wall-clock timings
    for r in (r1, r2):
        del r["phase_seconds"], r["total_seconds"]
    assert r1 == r2


def test_experiment_runs_override_and_summary_append(tmp_path):
    cfg = _write_config(tmp_path, EXPERIMENT_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["experiment", str(cfg), "--out-dir", str(out_dir), "--runs", "1"]) == 0
    assert main(["experiment", str(cfg), "--out-dir", str(out_dir), "--runs", "2"]) == 0
    report = json.loads((out_dir / "exp.communicability.json").read_text())
    assert len(report["runs"]) == 2  # second invocation overwrote the report
    with (out_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["runs"] for r in rows] == ["1", "2"]  # but the summary appends


@pytest.mark.parametrize("command", ["experiment", "baseline"])
def test_runs_override_is_the_reported_config(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, BASELINE_CONFIG if command == "baseline" else EXPERIMENT_CONFIG)
    out_dir = tmp_path / "out"
    assert main([command, str(cfg), "--out-dir", str(out_dir), "--runs", "1"]) == 0
    method = "modularity" if command == "baseline" else "communicability"
    report = json.loads((out_dir / f"exp.{method}.json").read_text())
    # the config file says more runs; the report's config is the one that ran
    assert report["config"]["runs"] == len(report["runs"]) == 1
    _assert_read_from_report(report, out_dir, capsys.readouterr().out)


@pytest.mark.parametrize("command", ["experiment", "baseline"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, BASELINE_CONFIG if command == "baseline" else EXPERIMENT_CONFIG)
    out_dir = tmp_path / "out"
    rc = main([command, str(cfg), "--out-dir", str(out_dir), "--jobs", "0"])
    assert rc == 2
    assert "jobs" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_experiment_unconverged_exits_1(tmp_path, capsys, jobs):
    text = "model = sw\nnodes = 2000\nk = 40\ntarget = sparse\nnum_backgrounds = 1\nruns = 2\nkrylov_m = 8\n"
    cfg = _write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    rc = main(["experiment", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs])
    assert rc == 1
    assert "did not converge" in capsys.readouterr().err
    assert not (out_dir / "exp.communicability.json").exists()


def test_experiment_missing_config(tmp_path, capsys):
    rc = main(["experiment", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_experiment_unknown_and_missing_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, "model = er\nnodes = 64\nwhat = 3\n")
    rc = main(["experiment", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key 'what'" in err
    assert "missing required key 'target'" in err
    assert "missing required key 'runs'" in err


def test_experiment_rejects_infinite_tol(tmp_path, capsys):
    # at tol = inf the first formed iterate would pass as converged
    cfg = _write_config(tmp_path, EXPERIMENT_CONFIG + "krylov_tol = inf\n")
    out_dir = tmp_path / "out"
    rc = main(["experiment", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 2
    assert "tol" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_experiment_rejects_nan_beta_for_er(tmp_path, capsys):
    # a NaN beta would reach the report as NaN, which is not JSON
    cfg = _write_config(tmp_path, EXPERIMENT_CONFIG + "beta = nan\n")
    out_dir = tmp_path / "out"
    rc = main(["experiment", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 2
    assert "beta" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_experiment_rejects_baseline_only_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, EXPERIMENT_CONFIG + "r_dims = 5\n")
    rc = main(["experiment", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "does not apply" in capsys.readouterr().err


def test_baseline_end_to_end(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASELINE_CONFIG, name="base.cfg")
    out_dir = tmp_path / "out"
    rc = main(["baseline", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "method=modularity" in printed and "margin" not in printed
    report = json.loads((out_dir / "base.modularity.json").read_text())
    assert report["method"] == "modularity"
    assert report["rng"] == "splitmix64-counter"
    assert set(report["phase_seconds"]) == {"generation", "scoring", "selection"}
    assert report["phase_seconds"]["scoring"] > 0
    # the baseline has no certificate
    assert "hosts_per_solve" not in report and "solves_per_run" not in report and "min_margin" not in report
    assert all("margin" not in run for run in report["runs"])
    with (out_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"] == "modularity"
    _assert_read_from_report(report, out_dir, printed)


def test_baseline_nonconvergence_exits_1(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((128, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    cfg = _write_config(tmp_path, BASELINE_CONFIG, name="base.cfg")
    out_dir = tmp_path / "out"
    rc = main(["baseline", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 1
    assert "numerical breakdown" in capsys.readouterr().err
    assert not (out_dir / "base.modularity.json").exists()


def test_baseline_coeffs_length_checked(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASELINE_CONFIG + "coeffs = 0.5,0.25,0.25\n")
    rc = main(["baseline", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "coeffs" in capsys.readouterr().err


def test_baseline_non_finite_coeffs_are_config_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASELINE_CONFIG + "coeffs = nan,1\n", name="base.cfg")
    out_dir = tmp_path / "out"
    rc = main(["baseline", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 2
    assert "coeffs" in capsys.readouterr().err
    assert not (out_dir / "base.modularity.json").exists()


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["generate", "--model", "zz", "--nodes", "10", "--seed", "0", "--out", "x"])
    assert exc_info.value.code == 2


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
