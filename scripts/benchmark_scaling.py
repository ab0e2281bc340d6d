#!/usr/bin/env python3
"""Wall-time scaling of graph generation and row-sum scoring with graph size.

At each node count, times the generation of one background per model at the
given mean degree (ER avg_degree, BA m = avg/2, SW k = avg rounded to even),
then times the Krylov row-sum scoring of the ER graph, reports its Lanczos
steps (``ExpmResult.iterations``) and the microseconds per step, and fits a
log-log power law to the scoring times.  Every time is the median of
``--repeats`` calls followed by the spread between their first and third
quartiles (``median±IQR``), so a difference smaller than the spread is
within the noise of the machine.

A generation time covers ``generate(spec).indptr``: the generator and the
graph's one CSR build, the ``tocsr()`` of
:func:`communifind.graphs.adjacency`.  Scoring reads no node-order CSR: its
time includes the build of the coordinate form of A that every Krylov solve
makes from the edge codes, with no sort.

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
        f"{'n':>8} {'edges':>9} {'er gen':>15} {'ba gen':>15} {'sw gen':>15} {'score secs':>15} "
        f"{'steps':>6} {'µs/step':>8}"
    )
    for n in sizes:
        specs = {
            "er": GraphGenSpec(model="er", n=n, avg_degree=args.avg_degree, seed=args.seed),
            "ba": GraphGenSpec(model="ba", n=n, m=m, seed=args.seed),
            "sw": GraphGenSpec(model="sw", n=n, k=k, seed=args.seed),
        }
        gen_secs = {name: [_timed(_generate_csr, spec)[0] for _ in range(repeats)] for name, spec in specs.items()}
        g = generate(specs["er"])
        timed = [_timed(expm_action, g, np.ones(n)) for _ in range(repeats)]
        score_secs = [t for t, _ in timed]
        steps = timed[0][1].iterations
        median = float(np.median(score_secs))
        seconds.append(median)
        print(
            f"{n:>8} {g.edge_count:>9} {_spread(gen_secs['er'])} {_spread(gen_secs['ba'])} "
            f"{_spread(gen_secs['sw'])} {_spread(score_secs)} {steps:>6} {1e6 * median / steps:>8.1f}"
        )

    if len(sizes) >= 2:
        exponent = float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])
        print(f"fitted power-law exponent: {exponent:.3f}")
    return 0


def _spread(secs):
    """``median±IQR`` of repeated timings, 15 characters wide."""
    q1, median, q3 = np.percentile(secs, [25, 50, 75])
    return f"{median:>8.4f}±{q3 - q1:<6.4f}"


def _generate_csr(spec):
    """A generated graph's CSR row pointers: generation plus the one CSR build."""
    return generate(spec).indptr


def _timed(fn, *args):
    """(wall seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


if __name__ == "__main__":
    sys.exit(main())
