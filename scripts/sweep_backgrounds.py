#!/usr/bin/env python3
"""Identification rate as a function of the number of summed backgrounds.

Fixes the sparse 20-node target and thin ER noise, then sweeps how many
independent background realizations are summed before selecting the top 20
nodes.  The curve shows the summation washing background fluctuations out:
the rate climbs from roughly a half toward one as realizations accumulate.

Usage:
    python scripts/sweep_backgrounds.py [--counts 1,2,4,8,16,24,32,40]
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
    run_pipeline,
    summarize_rates,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", default="1,2,4,8,16,24,32,40",
                        help="comma-separated background counts to sweep")
    parser.add_argument("--nodes", type=int, default=1024)
    parser.add_argument("--avg-degree", type=float, default=2.0)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--csv", type=Path, default=None, help="write the sweep to this CSV")
    args = parser.parse_args(argv)

    counts = [int(tok) for tok in args.counts.split(",") if tok.strip()]
    rows = []
    print(f"{'N':>4} {'mean':>6} {'std':>6} {'perfect':>7} {'secs':>7}")
    for n_backgrounds in counts:
        cfg = ExperimentConfig(
            background=GraphGenSpec(model="er", n=args.nodes, avg_degree=args.avg_degree),
            target=canonical_sparse_target(0),
            num_backgrounds=n_backgrounds,
            runs=args.runs,
            base_seed=args.seed,
        )
        t0 = time.perf_counter()
        s = summarize_rates(run_pipeline(cfg, jobs=args.jobs))
        secs = time.perf_counter() - t0
        print(f"{n_backgrounds:>4} {s.mean:>6.3f} {s.std:>6.3f} {s.perfect_fraction:>7.2f} {secs:>7.2f}")
        rows.append(
            {"N": n_backgrounds, "mean_rate": s.mean, "std": s.std,
             "perfect_frac": s.perfect_fraction, "secs": secs}
        )

    if args.csv is not None:
        with args.csv.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
