#!/usr/bin/env python3
"""Run the headline identification experiments and print one table.

Each row hides a 20-node target in randomly generated background graphs,
sums per-node communicability scores over the given number of background
realizations, selects the top 20 nodes, and reports the mean identification
rate over the runs.  The final rows put the spectral-modularity baseline side
by side with the communicability pipeline on the same instances.

Usage:
    python scripts/reproduce_results.py [--runs 20] [--jobs 4] [--seed 11]
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from communifind import (
    ExperimentConfig,
    GraphGenSpec,
    canonical_sparse_target,
    clique,
    run_baseline,
    run_pipeline,
    summarize_rates,
)

ROWS = [
    # label, background spec kwargs, target factory, backgrounds per run
    ("er(avg 2) + sparse, N=40", dict(model="er", n=1024, avg_degree=2.0), "sparse", 40),
    ("er(avg 2) + sparse, N=2", dict(model="er", n=1024, avg_degree=2.0), "sparse", 2),
    ("sw(k=40) + clique20, N=2", dict(model="sw", n=1024, k=40, beta=0.1), "clique", 2),
    ("er(avg 39) + clique20, N=1", dict(model="er", n=1024, avg_degree=39.0), "clique", 1),
    ("sw(k=60) + clique20, N=1", dict(model="sw", n=1024, k=60, beta=0.1), "clique", 1),
    ("ba(m=10) + clique20, N=1", dict(model="ba", n=1024, m=10), "clique", 1),
]

COMPARISON_BACKGROUND = dict(model="er", n=512, avg_degree=4.0)


def make_target(kind: str):
    return canonical_sparse_target(0) if kind == "sparse" else clique(20)


def run_row(label, spec_kwargs, target_kind, num_backgrounds, args, method="communicability"):
    cfg = ExperimentConfig(
        background=GraphGenSpec(**spec_kwargs),
        target=make_target(target_kind),
        num_backgrounds=num_backgrounds,
        runs=args.runs,
        base_seed=args.seed,
    )
    t0 = time.perf_counter()
    if method == "modularity":
        results = run_baseline(cfg, r=5, jobs=args.jobs)
    else:
        results = run_pipeline(cfg, jobs=args.jobs)
    secs = time.perf_counter() - t0
    s = summarize_rates(results)
    return {
        "experiment": label,
        "method": method,
        "mean_rate": s.mean,
        "std": s.std,
        "perfect_frac": s.perfect_fraction,
        "secs": secs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="runs per table row")
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    parser.add_argument("--seed", type=int, default=11, help="base seed")
    parser.add_argument("--csv", type=Path, default=None, help="also append rows to this CSV")
    args = parser.parse_args(argv)

    rows = [run_row(*row, args) for row in ROWS]
    # method comparison on one moderate instance, single background each
    rows.append(
        run_row("er(avg 4, n=512) + clique20, N=1", COMPARISON_BACKGROUND, "clique", 1, args)
    )
    rows.append(
        run_row(
            "er(avg 4, n=512) + clique20, N=1",
            COMPARISON_BACKGROUND,
            "clique",
            1,
            args,
            method="modularity",
        )
    )

    width = max(len(r["experiment"]) for r in rows)
    print(f"{'experiment':<{width}}  {'method':<15} {'mean':>6} {'std':>6} {'perfect':>7} {'secs':>7}")
    for r in rows:
        print(
            f"{r['experiment']:<{width}}  {r['method']:<15} "
            f"{r['mean_rate']:>6.3f} {r['std']:>6.3f} {r['perfect_frac']:>7.2f} {r['secs']:>7.2f}"
        )

    if args.csv is not None:
        new_file = not args.csv.exists()
        with args.csv.open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            if new_file:
                writer.writeheader()
            writer.writerows(rows)
        print(f"appended {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
