"""Workload definitions of the communifind benchmark.

A workload is a fixed list of experiment rows.  One operation ("op") of a
workload runs every row once, in order, through the public API
(``run_pipeline`` or ``run_baseline``).  Op ``i`` of a run with base seed
``b`` uses ``base_seed = b + i``, which is exactly run ``i`` of a
multi-run experiment with base seed ``b``, so a batch call over runs
``[s, s + R)`` must reproduce the ops ``s .. s + R - 1`` one for one.

Importing this module puts the repository's ``src`` directory on
``sys.path`` and imports ``communifind``; that import, together with
:func:`build`, is what the benchmark's set-up time measures.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import communifind  # noqa: E402

if not Path(communifind.__file__).resolve().is_relative_to(ROOT / "src"):
    # benchmark the checkout's sources, never a copy installed elsewhere
    raise ImportError(f"communifind was imported from {communifind.__file__}, not from {ROOT / 'src'}")

from communifind import (  # noqa: E402
    ExperimentConfig,
    GraphGenSpec,
    RunResult,
    TargetSpec,
    canonical_sparse_target,
    clique,
    run_baseline,
    run_pipeline,
)

TOP_K = 20
BASELINE_R = 5
SEED_SPACING = 1_000_000  # ops of one run never reach into the next seed's runs


@dataclass(frozen=True)
class Row:
    """One headline experiment: background model, target, backgrounds per run."""

    label: str
    background: GraphGenSpec
    target: TargetSpec
    num_backgrounds: int
    method: str  # "pipeline" or "baseline"

    def config(self, base_seed: int, runs: int) -> ExperimentConfig:
        return ExperimentConfig(
            background=self.background,
            target=self.target,
            num_backgrounds=self.num_backgrounds,
            runs=runs,
            base_seed=base_seed,
            k=TOP_K,
        )

    def run(self, base_seed: int, runs: int, jobs: int) -> list[RunResult]:
        cfg = self.config(base_seed, runs)
        if self.method == "baseline":
            return run_baseline(cfg, r=BASELINE_R, jobs=jobs)
        return run_pipeline(cfg, jobs=jobs)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple[Row, ...]


NAMES = ("er-sparse-n40", "dense-clique", "baseline-er")


def base_seed(seed: int) -> int:
    """Base seed of the runs of one benchmark invocation."""
    return seed * SEED_SPACING


def build(name: str, tiny: bool = False) -> Workload:
    """Configs and targets of a workload; ``tiny`` shrinks it for the self-test."""
    n = 128 if tiny else 1024
    if name == "er-sparse-n40":
        # 40 backgrounds per run put the per-background layers in charge:
        # generation, host assembly and one Krylov solve per background.
        rows = (
            Row(
                "er(avg 2) + sparse, N=40",
                GraphGenSpec(model="er", n=n, avg_degree=2.0),
                canonical_sparse_target(0),
                4 if tiny else 40,
                "pipeline",
            ),
        )
    elif name == "dense-clique":
        # The only workload with the SW and BA generators and dense ER;
        # generation dominates and there are at most two solves per row.
        target = clique(20)
        rows = (
            Row("sw(k=40) + clique20, N=2", GraphGenSpec(model="sw", n=n, k=40, beta=0.1), target, 2, "pipeline"),
            Row("er(avg 39) + clique20, N=1", GraphGenSpec(model="er", n=n, avg_degree=39.0), target, 1, "pipeline"),
            Row("ba(m=10) + clique20, N=1", GraphGenSpec(model="ba", n=n, m=10), target, 1, "pipeline"),
        )
    elif name == "baseline-er":
        # The only workload of the modularity layer (dense O(n^3) eigh).
        rows = (
            Row(
                "baseline er(avg 4) + clique20, N=2",
                GraphGenSpec(model="er", n=n, avg_degree=4.0),
                clique(20),
                2,
                "baseline",
            ),
        )
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name=name, rows=rows)
