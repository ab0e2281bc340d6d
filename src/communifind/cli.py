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
``summary.csv`` in the output directory.  An ``experiment`` report and its
closing line carry each run's top-k margin (see
:class:`~communifind.identify.RunResult`) and name the runs whose margin is
below 1, whose top-k set the solves' error estimate does not settle.
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

_SUMMARY_COLUMNS = [
    "method",
    "model",
    "n",
    "avg_deg",
    "N",
    "runs",
    "mean_rate",
    "std",
    "perfect_frac",
    "secs",
]

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
    """Assemble the library config from coerced key/values."""
    model = values["model"]
    try:
        background = GraphGenSpec(
            model=model,  # type: ignore[arg-type]
            n=values["nodes"],  # type: ignore[arg-type]
            avg_degree=values.get("avg_degree"),  # type: ignore[arg-type]
            m=values.get("m"),  # type: ignore[arg-type]
            k=values.get("k"),  # type: ignore[arg-type]
            beta=values.get("beta", 0.1),  # type: ignore[arg-type]
        )
        target_kind = values["target"]
        if target_kind == "sparse":
            if values.get("target_size", 20) != 20:
                raise ConfigError("config error: key 'target_size': the sparse target has 20 nodes")
            target: TargetSpec = canonical_sparse_target(values.get("target_seed", 0))  # type: ignore[arg-type]
        elif target_kind == "clique":
            target = clique(values.get("target_size", 20))  # type: ignore[arg-type]
        else:
            raise ConfigError(f"config error: key 'target': unknown target kind {target_kind!r}")
        krylov = KrylovParams(
            m=values.get("krylov_m", KrylovParams.m),  # type: ignore[arg-type]
            tol=values.get("krylov_tol", KrylovParams.tol),  # type: ignore[arg-type]
        )
        return ExperimentConfig(
            background=background,
            target=target,
            num_backgrounds=values["num_backgrounds"],  # type: ignore[arg-type]
            runs=runs_override if runs_override is not None else values["runs"],  # type: ignore[arg-type]
            base_seed=values.get("base_seed", 0),  # type: ignore[arg-type]
            k=values.get("top_k"),  # type: ignore[arg-type]
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


def _unsettled(results: list[RunResult]) -> list[int]:
    """Indices of the runs whose top-k margin is below 1."""
    return [i for i, res in enumerate(results) if res.margin < 1.0]


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
        report["unsettled_runs"] = _unsettled(results)
    return report


def _append_summary(path: Path, row: dict[str, object]) -> None:
    new_file = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_COLUMNS)
        if new_file:
            writer.writeheader()
        writer.writerow(row)


def _run_experiment_command(args: argparse.Namespace, method: str) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    command = "baseline" if method == "modularity" else "experiment"
    values = _coerce(parse_flat_config(text), command)
    cfg = build_experiment_config(values, runs_override=args.runs)
    out_dir = Path(args.out_dir)
    t0 = time.perf_counter()
    if method == "modularity":
        coeffs = _parse_coeffs(values)
        if coeffs is not None and len(coeffs) != cfg.num_backgrounds:
            raise ConfigError(
                "config error: key 'coeffs': need one coefficient per background "
                f"({cfg.num_backgrounds}), got {len(coeffs)}"
            )
        results = run_baseline(cfg, coeffs=coeffs, r=int(values.get("r_dims", 10)), jobs=args.jobs)
    else:
        results = run_pipeline(cfg, jobs=args.jobs)
    total_seconds = time.perf_counter() - t0
    report = _report_dict(method, values, cfg, results, total_seconds)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(args.config).stem
        report_path = out_dir / f"{stem}.{method}.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        summary = summarize_rates(results)
        _append_summary(
            out_dir / "summary.csv",
            {
                "method": method,
                "model": cfg.background.model,
                "n": cfg.background.n,
                "avg_deg": f"{cfg.background.nominal_mean_degree():.6g}",
                "N": cfg.num_backgrounds,
                "runs": cfg.runs,
                "mean_rate": f"{summary.mean:.6f}",
                "std": f"{summary.std:.6f}",
                "perfect_frac": f"{summary.perfect_fraction:.6f}",
                "secs": f"{total_seconds:.3f}",
            },
        )
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    margins = ""
    if method == "communicability":
        unsettled = ",".join(map(str, _unsettled(results))) or "none"
        margins = f"min_margin={min(res.margin for res in results):.3g} unsettled_runs={unsettled} "
    print(
        f"method={method} runs={cfg.runs} mean_rate={summary.mean:.6f} "
        f"std={summary.std:.6f} perfect_frac={summary.perfect_fraction:.6f} "
        f"{margins}report={report_path}"
    )
    return 0


# =====================================================================
# Subcommands
# =====================================================================


def _cmd_generate(args: argparse.Namespace) -> int:
    params = {"avg_degree": args.avg_degree, "m": args.m, "k": args.k}
    given = [name for name, value in params.items() if value is not None]
    needed = {"er": "avg_degree", "ba": "m", "sw": "k"}[args.model]
    if set(given) != {needed}:
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

    p_exp = sub.add_parser("experiment", help="multi-background identification experiment")
    p_exp.add_argument("config", help="flat key = value config file")
    p_exp.add_argument("--out-dir", dest="out_dir", required=True)
    p_exp.add_argument("--runs", type=int, default=None, help="override the config run count")
    p_exp.add_argument("--jobs", type=int, default=1, help="worker processes (results identical)")
    p_exp.set_defaults(func=lambda a: _run_experiment_command(a, "communicability"))

    p_base = sub.add_parser("baseline", help="modularity-baseline identification experiment")
    p_base.add_argument("config", help="flat key = value config file")
    p_base.add_argument("--out-dir", dest="out_dir", required=True)
    p_base.add_argument("--runs", type=int, default=None)
    p_base.add_argument("--jobs", type=int, default=1, help="worker processes (results identical)")
    p_base.set_defaults(func=lambda a: _run_experiment_command(a, "modularity"))

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
