"""Acceptance gate: every shipped claim, one criterion per test.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) and enforces its own wall-clock budget.  Empirical rate bands
are pinned to a fixed base seed; the bands were chosen wide enough that the
checks are stable across platforms, worker counts, and BLAS builds.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from communifind import (
    ExperimentConfig,
    Graph,
    GraphGenSpec,
    KrylovParams,
    ScoreVector,
    accumulate,
    canonical_sparse_target,
    clique,
    expm_dense_oracle,
    generate,
    modularity_matrix,
    run_pipeline,
    subgraph_centrality,
    summarize_rates,
    top_k,
    total_communicability,
)
from communifind.cli import main
from conftest import mixed_model_spec

ACCEPTANCE_SEED = 11
JOBS = 4


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL  {label}")
        raise
    print(f"\n[criterion {num}] PASS  {label} ({time.perf_counter() - t0:.1f}s)")


def _elapsed_under(t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget"


def _rate_summary(model_kwargs, target, num_backgrounds):
    cfg = ExperimentConfig(
        background=GraphGenSpec(n=1024, **model_kwargs),
        target=target,
        num_backgrounds=num_backgrounds,
        runs=20,
        base_seed=ACCEPTANCE_SEED,
    )
    return summarize_rates(run_pipeline(cfg, jobs=JOBS))


@pytest.fixture(scope="module")
def thin_er_sparse_40():
    """Sparse target in thin ER noise, 40 backgrounds (shared by two criteria).

    Returns the rate summary together with the seconds the runs took, so the
    criterion that consumes it can count that work against its time budget.
    """
    t0 = time.perf_counter()
    summary = _rate_summary(dict(model="er", avg_degree=2.0), canonical_sparse_target(0), 40)
    return summary, time.perf_counter() - t0


# =====================================================================
# 1. Closed forms
# =====================================================================


def test_criterion_1_closed_forms():
    t0 = time.perf_counter()
    with criterion(1, "closed-form row-sum scores on empty graphs and cliques"):
        scores = total_communicability(Graph.from_pairs(20, [])).scores
        assert np.abs(scores - 1.0).max() <= 1e-8

        for t in (2, 3, 20):
            scores = total_communicability(clique(t).to_graph()).scores
            expected = math.exp(t - 1)
            assert np.abs(scores / expected - 1.0).max() <= 1e-8, f"clique size {t}"

        _elapsed_under(t0, 1.0)


# =====================================================================
# 2. Oracle equivalence
# =====================================================================


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    with criterion(2, "Krylov row sums and dense diagonals match the oracle on 200 graphs"):
        params = KrylovParams(m=270, tol=1e-10)
        for i in range(200):
            g = generate(mixed_model_spec(i, max_n=200))
            dense = expm_dense_oracle(g)

            row_sums = total_communicability(g, params).scores
            reference = dense.sum(axis=1)
            assert np.abs(row_sums / reference - 1.0).max() <= 1e-6, f"graph {i}"

            diag = subgraph_centrality(g).scores
            assert np.abs(diag / np.diag(dense) - 1.0).max() <= 1e-10, f"graph {i}"

        _elapsed_under(t0, 120.0)


# =====================================================================
# 3 & 4. Sparse target in thin ER noise: many vs few backgrounds
# =====================================================================


def test_criterion_3_er_sparse_many_backgrounds(thin_er_sparse_40):
    summary, fixture_seconds = thin_er_sparse_40
    t0 = time.perf_counter() - fixture_seconds
    with criterion(3, "sparse target, thin ER noise, 40 backgrounds: near-complete recovery"):
        assert summary.mean >= 0.90
        assert summary.perfect_fraction >= 0.30
        _elapsed_under(t0, 300.0)


def test_criterion_4_er_sparse_few_backgrounds(thin_er_sparse_40):
    summary, _ = thin_er_sparse_40
    t0 = time.perf_counter()
    with criterion(4, "sparse target, 2 backgrounds: mid recovery, far below 40 backgrounds"):
        two = _rate_summary(dict(model="er", avg_degree=2.0), canonical_sparse_target(0), 2)
        assert 0.30 <= two.mean <= 0.70
        assert summary.mean - two.mean >= 0.25
        _elapsed_under(t0, 120.0)


# =====================================================================
# 5. Clique in a rewired ring lattice, 2 backgrounds
# =====================================================================


def test_criterion_5_sw_clique_two_backgrounds():
    t0 = time.perf_counter()
    with criterion(5, "20-clique, rewired-lattice noise, 2 backgrounds: high recovery"):
        summary = _rate_summary(dict(model="sw", k=40, beta=0.1), clique(20), 2)
        assert summary.mean >= 0.90
        _elapsed_under(t0, 120.0)


# =====================================================================
# 6. Single background across noise families
# =====================================================================


def test_criterion_6_single_background_families():
    t0 = time.perf_counter()
    with criterion(6, "single background: strong on ER and lattice noise, weak on hub-heavy noise"):
        er = _rate_summary(dict(model="er", avg_degree=39.0), clique(20), 1)
        assert er.mean >= 0.85, f"er mean {er.mean}"

        sw = _rate_summary(dict(model="sw", k=60, beta=0.1), clique(20), 1)
        assert sw.mean >= 0.90, f"sw mean {sw.mean}"

        # hub-dominated noise swamps the walk counts: the method must fail here
        ba = _rate_summary(dict(model="ba", m=10), clique(20), 1)
        assert ba.mean <= 0.45, f"ba mean {ba.mean}"

        _elapsed_under(t0, 180.0)


# =====================================================================
# 7. Property suites
# =====================================================================


def _permute_graph(g: Graph, perm: np.ndarray) -> Graph:
    pairs = [(int(perm[u]), int(perm[v])) for u, v in g.edge_pairs()]
    return Graph.from_pairs(g.n, pairs)


def _check_permutation_equivariance() -> None:
    params = KrylovParams(tol=1e-12)
    for index in (2, 5, 8):
        g = generate(mixed_model_spec(index, max_n=120))
        perm = np.random.default_rng(index).permutation(g.n)
        base = total_communicability(g, params).scores
        permuted = total_communicability(_permute_graph(g, perm), params).scores
        assert np.abs(permuted[perm] / base - 1.0).max() <= 1e-8


def _check_edge_addition_monotonicity() -> None:
    # every added edge opens new walks, so no node's row-sum score may drop
    rng = np.random.default_rng(0)
    for index in (1, 3, 6, 9):
        g = generate(mixed_model_spec(index, max_n=90))
        before = expm_dense_oracle(g).sum(axis=1)
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = non_edges[rng.integers(len(non_edges))]
        grown = Graph.from_pairs(g.n, [tuple(p) for p in g.edge_pairs()] + [(u, v)])
        after = expm_dense_oracle(grown).sum(axis=1)
        assert np.all(after >= before - 1e-9)
        assert after[u] > before[u] and after[v] > before[v]


def _check_accumulate_algebra() -> None:
    rng = np.random.default_rng(7)
    vs = [ScoreVector(scores=rng.uniform(1.0, 9.0, size=50), kind="tc") for _ in range(5)]
    direct = np.zeros(50)
    for sv in vs:
        direct = direct + sv.scores
    total = accumulate(vs).scores
    assert np.abs(total / direct - 1.0).max() <= 1e-12
    shuffled = accumulate([vs[i] for i in (3, 0, 4, 1, 2)]).scores
    assert np.abs(shuffled / total - 1.0).max() <= 1e-12


def _check_top_k_against_full_sort() -> None:
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(1, 50))
        # coarse integer scores force heavy ties
        s = rng.integers(0, 8, size=n).astype(np.float64)
        k = int(rng.integers(1, n + 1))
        order = np.lexsort((np.arange(n), -s))
        expected = np.sort(order[:k])
        got = top_k(ScoreVector(scores=s, kind="tc"), k)
        assert np.array_equal(got, expected)


def _check_modularity_row_sums() -> None:
    for index in (0, 5, 10, 15):
        g = generate(mixed_model_spec(index, max_n=150))
        if g.edge_count == 0:
            continue
        b = modularity_matrix(g)
        assert np.abs(b @ np.ones(g.n)).max() <= 1e-9


def _check_jobs_determinism(tmp_path) -> None:
    cfg_text = (
        "model = er\nnodes = 256\navg_degree = 2.0\ntarget = sparse\n"
        "num_backgrounds = 3\nruns = 4\nbase_seed = 2\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    reports = []
    for jobs in ("1", "3"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert main(["experiment", str(cfg_path), "--out-dir", str(out_dir), "--jobs", jobs]) == 0
        report = json.loads((out_dir / "det.communicability.json").read_text())
        del report["phase_seconds"], report["total_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_criterion_7_property_suites(tmp_path):
    t0 = time.perf_counter()
    with criterion(7, "equivariance, monotonicity, aggregation algebra, top-k fuzz, determinism"):
        _check_permutation_equivariance()
        _check_edge_addition_monotonicity()
        _check_accumulate_algebra()
        _check_top_k_against_full_sort()
        _check_modularity_row_sums()
        _check_jobs_determinism(tmp_path)
        _elapsed_under(t0, 180.0)


# =====================================================================
# 8. Scaling
# =====================================================================


def test_criterion_8_near_linear_scaling():
    t0 = time.perf_counter()
    with criterion(8, "row-sum scoring scales near-linearly in the node count"):
        sizes = [1_000, 10_000, 100_000]
        seconds = []
        for n in sizes:
            g = generate(GraphGenSpec(model="er", n=n, avg_degree=4.0, seed=1))
            best = math.inf
            for _ in range(3):
                t_run = time.perf_counter()
                total_communicability(g)
                best = min(best, time.perf_counter() - t_run)
            seconds.append(best)
        exponent = float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])
        assert exponent <= 1.3, f"fitted exponent {exponent:.3f}, times {seconds}"
        _elapsed_under(t0, 180.0)
