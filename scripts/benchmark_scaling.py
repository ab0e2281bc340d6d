#!/usr/bin/env python3
"""Wall-time scaling of graph generation and row-sum scoring with graph size.

At each node count, times the generation of one background per model at the
given mean degree (ER avg_degree, BA m = avg/2, SW k = avg rounded to even),
then times the Krylov row-sum scoring of the ER graph (best of a few
repetitions), reports its Lanczos steps (``ExpmResult.iterations``) and the
microseconds per step, and fits a log-log power law to the scoring times.

Usage:
    python scripts/benchmark_scaling.py [--sizes 1000,10000,100000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from communifind import GraphGenSpec, expm_action, generate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000",
                        help="comma-separated node counts")
    parser.add_argument("--avg-degree", type=float, default=4.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    m = max(1, round(args.avg_degree / 2))
    k = max(2, 2 * round(args.avg_degree / 2))
    repeats = max(1, args.repeats)
    seconds = []
    print(
        f"{'n':>8} {'edges':>9} {'er gen':>9} {'ba gen':>9} {'sw gen':>9} {'score secs':>11} "
        f"{'steps':>6} {'µs/step':>8}"
    )
    for n in sizes:
        specs = {
            "er": GraphGenSpec(model="er", n=n, avg_degree=args.avg_degree, seed=args.seed),
            "ba": GraphGenSpec(model="ba", n=n, m=m, seed=args.seed),
            "sw": GraphGenSpec(model="sw", n=n, k=k, seed=args.seed),
        }
        gen_secs = {name: min(_timed(generate, spec)[0] for _ in range(repeats)) for name, spec in specs.items()}
        g = generate(specs["er"])
        best, result = min((_timed(expm_action, g, np.ones(n)) for _ in range(repeats)), key=lambda t: t[0])
        seconds.append(best)
        print(
            f"{n:>8} {g.edge_count:>9} {gen_secs['er']:>9.4f} {gen_secs['ba']:>9.4f} "
            f"{gen_secs['sw']:>9.4f} {best:>11.4f} {result.iterations:>6} {1e6 * best / result.iterations:>8.1f}"
        )

    if len(sizes) >= 2:
        exponent = float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])
        print(f"fitted power-law exponent: {exponent:.3f}")
    return 0


def _timed(fn, *args):
    """(wall seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


if __name__ == "__main__":
    sys.exit(main())
