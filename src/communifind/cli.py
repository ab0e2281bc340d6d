"""Command-line interface.

Subcommands
-----------
generate            write a random background graph as an edge list
scores              per-node total-communicability scores of a graph file
experiment          multi-background identification experiment from a config
baseline            the same experiment driven by the modularity baseline

Exit codes: 0 success, 1 runtime failure (IO, malformed or empty data,
numerics), 2 usage or config error.

Experiment configs are flat ``key = value`` text files; see CONFIG_KEYS for
the schema.  Reports are JSON; every command appends one summary row to
``summary.csv`` in the output directory, and that row and the closing line
are read from the report.  An ``experiment`` report and its closing line
carry each run's top-k margin (see :class:`~communifind.identify.RunResult`)
and name the runs whose margin is below 1, whose top-k set the solves' error
estimate does not settle.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .communicability import hosts_per_stack, total_communicability, write_scores_csv
from .expm import KrylovParams, NumericalBreakdownError
from .graphs import (
    FAMILY_PARAMETER,
    EdgeListParseError,
    GraphGenSpec,
    TargetSpec,
    canonical_sparse_target,
    clique,
    density,
    generate,
    read_edge_list,
    write_edge_list,
)
from .identify import (
    ExperimentConfig,
    RunResult,
    PhaseSeconds,
    run_pipeline,
    summarize_rates,
)
from .modularity import FilterCoeffs, run_baseline
from .rng import GENERATOR

__all__ = ["main", "entry_point", "ConfigError", "parse_flat_config", "build_experiment_config"]

# key -> (type tag, required, default, applies-to)
CONFIG_KEYS = {
    "model": ("str", True, None, "both"),
    "nodes": ("int", True, None, "both"),
    "avg_degree": ("float", False, None, "both"),
    "m": ("int", False, None, "both"),
    "k": ("int", False, None, "both"),
    "beta": ("float", False, 0.1, "both"),
    "target": ("str", True, None, "both"),
    "target_size": ("int", False, 20, "both"),
    "target_seed": ("int", False, 0, "both"),
    "num_backgrounds": ("int", True, None, "both"),
    "top_k": ("int", False, None, "both"),
    "runs": ("int", True, None, "both"),
    "base_seed": ("int", False, 0, "both"),
    "krylov_m": ("int", False, KrylovParams.m, "experiment"),
    "krylov_tol": ("float", False, KrylovParams.tol, "experiment"),
    "r_dims": ("int", False, 10, "baseline"),
    "coeffs": ("str", False, None, "baseline"),
}


class ConfigError(ValueError):
    """Config file violates the schema; message lists the offending keys."""


# =====================================================================
# Config parsing
# =====================================================================


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` comments and blanks are skipped."""
    out: dict[str, str] = {}
    problems: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append(f"line {line_no}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            problems.append(f"line {line_no}: duplicate key {key!r}")
            continue
        out[key] = value
    if problems:
        raise ConfigError("; ".join(problems))
    return out


def _coerce(raw: dict[str, str], command: str) -> dict[str, object]:
    values: dict[str, object] = {}
    problems: list[str] = []
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            problems.append(f"unknown key {key!r}")
            continue
        kind, _, _, applies = CONFIG_KEYS[key]
        if applies not in ("both", command):
            problems.append(f"key {key!r} does not apply to the {command} command")
            continue
        try:
            if kind == "int":
                values[key] = int(value)
            elif kind == "float":
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            problems.append(f"key {key!r}: cannot parse {value!r} as {kind}")
    for key, (kind, required, default, applies) in CONFIG_KEYS.items():
        if key in values or applies not in ("both", command):
            continue
        if required:
            problems.append(f"missing required key {key!r}")
        elif default is not None:
            values[key] = default
    if problems:
        raise ConfigError("config error: " + "; ".join(problems))
    return values


def build_experiment_config(
    values: dict[str, object], *, runs_override: int | None = None
) -> ExperimentConfig:
    """Assemble the library config from coerced key/values; a key left out
    takes its CONFIG_KEYS default."""
    values = {**{key: spec[2] for key, spec in CONFIG_KEYS.items()}, **values}
    try:
        background = GraphGenSpec(
            model=values["model"],  # type: ignore[arg-type]
            n=values["nodes"],  # type: ignore[arg-type]
            avg_degree=values["avg_degree"],  # type: ignore[arg-type]
            m=values["m"],  # type: ignore[arg-type]
            k=values["k"],  # type: ignore[arg-type]
            beta=values["beta"],  # type: ignore[arg-type]
        )
        target_kind = values["target"]
        if target_kind == "sparse":
            if values["target_size"] != 20:
                raise ConfigError("config error: key 'target_size': the sparse target has 20 nodes")
            target: TargetSpec = canonical_sparse_target(values["target_seed"])  # type: ignore[arg-type]
        elif target_kind == "clique":
            target = clique(values["target_size"])  # type: ignore[arg-type]
        else:
            raise ConfigError(f"config error: key 'target': unknown target kind {target_kind!r}")
        krylov = KrylovParams(m=values["krylov_m"], tol=values["krylov_tol"])  # type: ignore[arg-type]
        return ExperimentConfig(
            background=background,
            target=target,
            num_backgrounds=values["num_backgrounds"],  # type: ignore[arg-type]
            runs=runs_override if runs_override is not None else values["runs"],  # type: ignore[arg-type]
            base_seed=values["base_seed"],  # type: ignore[arg-type]
            k=values["top_k"],  # type: ignore[arg-type]
            krylov=krylov,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error: {exc}") from exc


def _parse_coeffs(values: dict[str, object]) -> FilterCoeffs | None:
    raw = values.get("coeffs")
    if raw is None:
        return None
    try:
        c = tuple(float(tok) for tok in str(raw).split(",") if tok.strip())
        return FilterCoeffs(c=c)
    except ValueError as exc:
        raise ConfigError(f"config error: key 'coeffs': {exc}") from exc


# =====================================================================
# Reports
# =====================================================================


def _json_margin(margin: float) -> float | None:
    """A margin as strict JSON: null stands for an infinite margin."""
    return None if math.isinf(margin) else margin


def _report_dict(
    method: str,
    values: dict[str, object],
    cfg: ExperimentConfig,
    results: list[RunResult],
    total_seconds: float,
) -> dict[str, object]:
    summary = summarize_rates(results)
    runs: list[dict[str, object]] = [
        {
            "run": i,
            "target_nodes": res.embedding.map.tolist(),
            "candidates": res.candidates.tolist(),
            "hits": res.hits,
            "rate": res.rate,
        }
        for i, res in enumerate(results)
    ]
    report: dict[str, object] = {
        "method": method,
        "rng": GENERATOR,
        "config": {str(k): values[k] for k in sorted(values)},
        "mean_rate": summary.mean,
        "std_rate": summary.std,
        "perfect_fraction": summary.perfect_fraction,
        "phase_seconds": {
            f.name: sum(getattr(res.seconds, f.name) for res in results)
            for f in dataclasses.fields(PhaseSeconds)
        },
        "total_seconds": total_seconds,
        "runs": runs,
    }
    if method == "communicability":
        # the most backgrounds one Krylov solve of a run scores, and the
        # stacks of a run, one solve each
        per_solve = hosts_per_stack(cfg.background.n)
        report["hosts_per_solve"] = per_solve
        report["solves_per_run"] = math.ceil(cfg.num_backgrounds / per_solve)
        for run, res in zip(runs, results):
            run["margin"] = _json_margin(res.margin)
        report["min_margin"] = _json_margin(min(res.margin for res in results))
        report["unsettled_runs"] = [i for i, res in enumerate(results) if res.margin < 1.0]
    return report


def _run_experiment_command(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    values = _coerce(parse_flat_config(text), args.command)
    cfg = build_experiment_config(values, runs_override=args.runs)
    out_dir = Path(args.out_dir)
    t0 = time.perf_counter()
    if args.method == "modularity":
        results = run_baseline(cfg, coeffs=_parse_coeffs(values), r=values["r_dims"], jobs=args.jobs)  # type: ignore[arg-type]
    else:
        results = run_pipeline(cfg, jobs=args.jobs)
    report = _report_dict(args.method, values, cfg, results, time.perf_counter() - t0)
    # the summary row, whose keys are the CSV header, and the closing line
    # are read from the report
    row = {
        "method": report["method"],
        "model": cfg.background.model,
        "n": cfg.background.n,
        "avg_deg": f"{cfg.background.nominal_mean_degree():.6g}",
        "N": cfg.num_backgrounds,
        "runs": len(report["runs"]),  # type: ignore[arg-type]
        "mean_rate": f"{report['mean_rate']:.6f}",
        "std": f"{report['std_rate']:.6f}",
        "perfect_frac": f"{report['perfect_fraction']:.6f}",
        "secs": f"{report['total_seconds']:.3f}",
    }
    summary_path = out_dir / "summary.csv"
    report_path = out_dir / f"{Path(args.config).stem}.{args.method}.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        new_file = not summary_path.exists()
        with summary_path.open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            if new_file:
                writer.writeheader()
            writer.writerow(row)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    fields = [f"{key}={row[key]}" for key in ("method", "runs", "mean_rate", "std", "perfect_frac")]
    if "min_margin" in report:
        min_margin = math.inf if report["min_margin"] is None else report["min_margin"]  # null is infinite
        unsettled = ",".join(map(str, report["unsettled_runs"])) or "none"  # type: ignore[call-overload]
        fields += [f"min_margin={min_margin:.3g}", f"unsettled_runs={unsettled}"]
    print(" ".join(fields + [f"report={report_path}"]))
    return 0


# =====================================================================
# Subcommands
# =====================================================================


def _cmd_generate(args: argparse.Namespace) -> int:
    given = [p for p in FAMILY_PARAMETER.values() if getattr(args, p) is not None]
    needed = FAMILY_PARAMETER[args.model]
    if given != [needed]:
        raise ConfigError(
            f"config error: model {args.model!r} needs exactly --{needed.replace('_', '-')}"
            + (f", got {given}" if given else "")
        )
    spec = GraphGenSpec(
        model=args.model,
        n=args.nodes,
        avg_degree=args.avg_degree,
        m=args.m,
        k=args.k,
        beta=args.beta,
        seed=args.seed,
    )
    g = generate(spec)
    try:
        with open(args.out, "w") as fh:
            write_edge_list(g, fh)
    except OSError as exc:
        print(f"error: cannot write graph: {exc}", file=sys.stderr)
        return 1
    print(f"nodes={g.n} edges={g.edge_count} density={density(g):.6g}")
    return 0


def _cmd_scores(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    try:
        with open(args.graph) as fh:
            g = read_edge_list(fh)
    except OSError as exc:
        print(f"error: cannot read graph: {exc}", file=sys.stderr)
        return 1
    if g.n == 0:
        print("error: the graph is empty (0 nodes): there is nothing to score", file=sys.stderr)
        return 1
    params = KrylovParams(m=args.krylov_m, tol=args.tol)
    sv = total_communicability(g, params)
    try:
        with open(args.out, "w") as fh:
            write_scores_csv(sv, fh)
    except OSError as exc:
        print(f"error: cannot write scores: {exc}", file=sys.stderr)
        return 1
    order = min(args.top, g.n)
    threshold = float(np.sort(sv.scores)[g.n - order])
    print(f"threshold={threshold:.17g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="communifind",
        description="Find small sub-graphs hidden in large graphs via communicability scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random background graph as an edge list")
    p_gen.add_argument("--model", required=True, choices=["er", "ba", "sw"])
    p_gen.add_argument("--nodes", required=True, type=int)
    p_gen.add_argument("--avg-degree", dest="avg_degree", type=float, help="er mean degree")
    p_gen.add_argument("--m", type=int, help="ba attachment edges per node")
    p_gen.add_argument("--k", type=int, help="sw lattice neighbors (even)")
    p_gen.add_argument("--beta", type=float, default=0.1, help="sw rewiring probability")
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_scores = sub.add_parser("scores", help="total-communicability scores of a graph file")
    p_scores.add_argument("--graph", required=True)
    p_scores.add_argument("--out", required=True)
    p_scores.add_argument("--krylov-m", dest="krylov_m", type=int, default=KrylovParams.m)
    p_scores.add_argument("--tol", type=float, default=KrylovParams.tol)
    p_scores.add_argument("--top", type=int, default=20, help="order of the printed threshold")
    p_scores.set_defaults(func=_cmd_scores)

    for command, method, help_text in (
        ("experiment", "communicability", "multi-background identification experiment"),
        ("baseline", "modularity", "modularity-baseline identification experiment"),
    ):
        p_run = sub.add_parser(command, help=help_text)
        p_run.add_argument("config", help="flat key = value config file")
        p_run.add_argument("--out-dir", dest="out_dir", required=True)
        p_run.add_argument("--runs", type=int, default=None, help="override the config run count")
        p_run.add_argument("--jobs", type=int, default=1, help="worker processes (results identical)")
        p_run.set_defaults(func=_run_experiment_command, method=method)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EdgeListParseError as exc:
        print(f"error: malformed edge list: {exc}", file=sys.stderr)
        return 1
    except NumericalBreakdownError as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
