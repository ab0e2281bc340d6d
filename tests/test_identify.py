"""Embedding, selection, and the end-to-end identification pipeline."""

from __future__ import annotations

import dataclasses
import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from communifind import (
    Embedding,
    ExperimentConfig,
    Graph,
    GraphGenSpec,
    KrylovNotConvergedError,
    KrylovParams,
    NumericalBreakdownError,
    ScoreVector,
    TargetSpec,
    apply_embedding,
    canonical_sparse_target,
    clique,
    disjoint_union,
    draw_embedding,
    expm_action,
    generate,
    identification_rate,
    run_baseline,
    run_pipeline,
    summarize_rates,
    summed_total_communicability,
    top_k,
    total_communicability,
)
from communifind import communicability, identify, modularity
from communifind import graphs as graphs_module
from communifind.identify import background_seed, embedding_seed
from conftest import mixed_model_spec, validate_graph


# =====================================================================
# Embedding
# =====================================================================


def test_embedding_validation():
    with pytest.raises(ValueError):
        Embedding(map=np.array([1, 1]))
    with pytest.raises(ValueError):
        Embedding(map=np.ones((2, 2), dtype=np.int64))


def test_draw_embedding_injective_in_range_deterministic():
    e = draw_embedding(100, 20, seed=5)
    assert e.t == 20
    assert np.unique(e.map).size == 20
    assert e.map.min() >= 0 and e.map.max() < 100
    assert np.array_equal(e.map, draw_embedding(100, 20, seed=5).map)
    assert not np.array_equal(e.map, draw_embedding(100, 20, seed=6).map)


def test_draw_embedding_too_big():
    with pytest.raises(ValueError):
        draw_embedding(10, 11, seed=0)


def test_apply_embedding_unions_edges():
    background = Graph.from_pairs(6, [(0, 1), (2, 3)])
    target = TargetSpec(3, ((0, 1), (1, 2)))
    e = Embedding(map=np.array([5, 4, 3]))
    host = apply_embedding(background, target, e)
    # background edges survive, mapped target edges (4,5) and (3,4) appear
    assert host.has_edge(0, 1) and host.has_edge(2, 3)
    assert host.has_edge(4, 5) and host.has_edge(3, 4)
    assert host.edge_count == 4


def test_apply_embedding_overlap_collapses():
    background = Graph.from_pairs(4, [(0, 1)])
    target = TargetSpec(2, ((0, 1),))
    e = Embedding(map=np.array([1, 0]))
    host = apply_embedding(background, target, e)
    assert host.edge_count == 1  # already present, union stays simple


def test_stacked_embedding_equals_union_of_per_block_overlays():
    # one call overlays the target on every block of a stack; in block 1 the
    # mapped edge (2, 3) is already present and merges
    target = TargetSpec(3, ((0, 1), (1, 2)))
    e = Embedding(map=np.array([4, 2, 3]))
    parts = [Graph.from_pairs(6, [(0, 1)]), Graph.from_pairs(6, [(2, 3), (4, 5)]), Graph.from_pairs(6, [])]
    stacked = apply_embedding(disjoint_union(parts), target, e, blocks=3)
    want = disjoint_union([apply_embedding(g, target, e) for g in parts])
    assert stacked.n == 18 and stacked.edge_codes().tobytes() == want.edge_codes().tobytes()
    assert stacked.edge_count == 3 + 3 + 2  # the mapped (2, 3) merged in block 1
    assert apply_embedding(disjoint_union(parts), TargetSpec(3, ()), e, blocks=3) == disjoint_union(parts)


def test_stacked_embedding_matches_per_host_assembly():
    spec = GraphGenSpec(model="er", n=1024, avg_degree=2.0)
    target = canonical_sparse_target(0)
    for run in range(4):
        e = draw_embedding(1024, target.t, embedding_seed(3, run))
        seeds = [background_seed(3, run, b) for b in range(8)]
        stacked = apply_embedding(generate(spec, seeds), target, e, blocks=8)
        hosts = [apply_embedding(generate(dataclasses.replace(spec, seed=s)), target, e) for s in seeds]
        assert stacked.edge_codes().tobytes() == disjoint_union(hosts).edge_codes().tobytes()


def test_stacked_embedding_rejects_uneven_blocks():
    stack = Graph.from_pairs(10, [(0, 1)])
    target = TargetSpec(2, ((0, 1),))
    with pytest.raises(ValueError, match="equal blocks"):
        apply_embedding(stack, target, Embedding(map=np.array([0, 1])), blocks=3)
    with pytest.raises(ValueError, match="equal blocks"):
        apply_embedding(stack, target, Embedding(map=np.array([0, 1])), blocks=0)
    with pytest.raises(ValueError, match="outside the background graph"):
        apply_embedding(stack, target, Embedding(map=np.array([0, 5])), blocks=2)


@pytest.mark.parametrize("index", range(0, 60, 7))
def test_apply_embedding_matches_pair_union(index):
    # merging codes must equal a from-scratch build of the union of pairs
    background = generate(mixed_model_spec(index, max_n=120))
    target = clique(5) if index % 2 else TargetSpec(4, ((0, 1), (1, 2), (2, 3)))
    e = draw_embedding(background.n, target.t, seed=index)
    host = apply_embedding(background, target, e)
    mapped = [(int(e.map[u]), int(e.map[v])) for u, v in target.edges]
    pairs = [tuple(p) for p in background.edge_pairs().tolist()] + mapped
    assert host == Graph.from_pairs(background.n, np.unique(np.sort(pairs, axis=1), axis=0))
    validate_graph(host)
    assert not host.indices.flags.writeable and not host.indptr.flags.writeable


def test_apply_embedding_on_edgeless_background():
    host = apply_embedding(Graph.from_pairs(30, []), clique(20), draw_embedding(30, 20, seed=1))
    assert host.edge_count == 190
    validate_graph(host)


def test_apply_embedding_edgeless_target_keeps_background():
    background = Graph.from_pairs(6, [(0, 1), (2, 5)])
    host = apply_embedding(background, TargetSpec(3, ()), draw_embedding(6, 3, seed=2))
    assert host == background
    validate_graph(host)


def test_apply_embedding_mismatch_errors():
    background = Graph.from_pairs(4, [(0, 1)])
    with pytest.raises(ValueError):
        apply_embedding(background, TargetSpec(3, ((0, 1),)), Embedding(map=np.array([0, 1])))
    with pytest.raises(ValueError):
        apply_embedding(background, TargetSpec(2, ((0, 1),)), Embedding(map=np.array([0, 7])))


def test_apply_embedding_rejects_negative_ids():
    background = Graph.from_pairs(4, [(0, 1)])
    with pytest.raises(ValueError, match="outside the background graph"):
        apply_embedding(background, TargetSpec(2, ((0, 1),)), Embedding(map=np.array([-1, 2])))


@pytest.mark.parametrize("index", range(3))
def test_generated_and_embedded_graphs_build_no_csr(index):
    background = generate(mixed_model_spec(index))
    host = apply_embedding(background, clique(6), draw_embedding(background.n, 6, seed=index))
    assert "_csr" not in vars(background) and "_csr" not in vars(host)


def test_pipeline_builds_no_node_order_rows(monkeypatch):
    # a full stack of 1024-node backgrounds and a stack of one
    built = []
    node_order_rows = Graph._csr.func
    monkeypatch.setattr(Graph, "_csr", property(lambda g: built.append(g) or node_order_rows(g)))
    cfg = ExperimentConfig(
        background=GraphGenSpec(model="er", n=1024, avg_degree=2.0),
        target=canonical_sparse_target(0),
        num_backgrounds=communicability.hosts_per_stack(1024) + 1,
        runs=2,
        k=20,
    )
    assert len(run_pipeline(cfg)) == 2
    assert built == []


def test_pipeline_generates_er_stacks_in_one_pass(monkeypatch):
    # forty 1024-node hosts fill one stack and forty-one take two: each
    # stack is one generate call, one vectorized ER pass and one
    # apply_embedding call, and no stack, not even the one-host stack,
    # builds a union of graphs
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))

    for module, name in (
        (graphs_module, "_er_stack"),
        (graphs_module, "disjoint_union"),
        (communicability, "disjoint_union"),
        (identify, "generate"),
        (identify, "apply_embedding"),
    ):
        counted(module, name)
    for backgrounds, expected in (
        (40, ["_er_stack", "apply_embedding", "generate"]),
        (41, ["_er_stack"] * 2 + ["apply_embedding"] * 2 + ["generate"] * 2),
    ):
        calls.clear()
        cfg = ExperimentConfig(
            background=GraphGenSpec(model="er", n=1024, avg_degree=2.0),
            target=canonical_sparse_target(0),
            num_backgrounds=backgrounds,
            runs=1,
            k=20,
        )
        assert len(run_pipeline(cfg)) == 1
        assert sorted(calls) == expected


def test_baseline_receives_per_host_graphs(monkeypatch):
    received = []
    scan = modularity._scan

    def recorded(hosts, **kwargs):
        received.extend(hosts)
        return scan(received, **kwargs)

    monkeypatch.setattr(modularity, "_scan", recorded)
    cfg = _small_cfg(num_backgrounds=3, runs=1)
    run_baseline(cfg, r=5)
    embedding = draw_embedding(cfg.background.n, cfg.target.t, embedding_seed(cfg.base_seed, 0))
    backgrounds = [
        generate(dataclasses.replace(cfg.background, seed=background_seed(cfg.base_seed, 0, b))) for b in range(3)
    ]
    assert received == [apply_embedding(g, cfg.target, embedding) for g in backgrounds]


def test_embed_composes_draw_and_apply():
    background = Graph.from_pairs(50, [(i, i + 1) for i in range(49)])
    target = clique(5)
    e = draw_embedding(background.n, target.t, seed=3)
    host = apply_embedding(background, target, e)
    direct = apply_embedding(background, target, draw_embedding(50, 5, 3))
    assert host == direct
    for u, v in target.edges:
        assert host.has_edge(int(e.map[u]), int(e.map[v]))


# =====================================================================
# Selection
# =====================================================================


def _top_k_oracle(s: np.ndarray, k: int) -> np.ndarray:
    # stable full sort by (score descending, id ascending)
    order = np.lexsort((np.arange(s.size), -s))
    return np.sort(order[:k])


def test_top_k_simple():
    sv = ScoreVector(scores=np.array([5.0, 1.0, 9.0, 7.0]), kind="tc")
    assert top_k(sv, 2).tolist() == [2, 3]
    assert top_k(sv, 4).tolist() == [0, 1, 2, 3]


def test_top_k_boundary_ties_prefer_low_ids():
    sv = ScoreVector(scores=np.array([3.0, 7.0, 3.0, 3.0, 1.0]), kind="tc")
    # k=2: one slot left among the three tied 3.0s -> lowest id wins
    assert top_k(sv, 2).tolist() == [0, 1]
    assert top_k(sv, 3).tolist() == [0, 1, 2]


def test_top_k_all_equal():
    sv = ScoreVector(scores=np.full(6, 2.5), kind="tc")
    assert top_k(sv, 3).tolist() == [0, 1, 2]


def test_top_k_bounds():
    sv = ScoreVector(scores=np.arange(4.0), kind="tc")
    with pytest.raises(ValueError):
        top_k(sv, 0)
    with pytest.raises(ValueError):
        top_k(sv, 5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    st.data(),
)
def test_top_k_matches_stable_sort_oracle(values, data):
    # small integer values force heavy ties
    s = np.asarray(values, dtype=np.float64)
    k = data.draw(st.integers(min_value=1, max_value=len(values)))
    sv = ScoreVector(scores=s, kind="tc")
    assert np.array_equal(top_k(sv, k), _top_k_oracle(s, k))


def test_identification_rate_hand_cases():
    e = Embedding(map=np.array([3, 5, 9, 11]))
    assert identification_rate(np.array([3, 5, 9, 11]), e) == 1.0
    assert identification_rate(np.array([3, 5, 1, 2]), e) == 0.5
    assert identification_rate(np.array([0, 1, 2, 4]), e) == 0.0


# =====================================================================
# Config
# =====================================================================


def _small_cfg(**overrides) -> ExperimentConfig:
    defaults = dict(
        background=GraphGenSpec(model="er", n=128, avg_degree=2.0),
        target=clique(8),
        num_backgrounds=2,
        runs=3,
        base_seed=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(num_backgrounds=0)
    with pytest.raises(ValueError):
        _small_cfg(runs=0)
    with pytest.raises(ValueError):
        _small_cfg(k=0)
    with pytest.raises(ValueError):
        _small_cfg(k=129)
    with pytest.raises(ValueError):
        _small_cfg(background=GraphGenSpec(model="er", n=6, avg_degree=2.0))


def test_effective_k_defaults_to_target_size():
    assert _small_cfg().effective_k == 8
    assert _small_cfg(k=30).effective_k == 30


def test_seed_derivation_distinguishes_streams():
    # embedding and background streams never collide on the same run
    assert embedding_seed(0, 0) != background_seed(0, 0, 0)
    assert background_seed(0, 0, 0) != background_seed(0, 0, 1)
    assert background_seed(0, 1, 0) != background_seed(0, 0, 0)
    # run seeds shift linearly with the run index
    assert embedding_seed(5, 2) == embedding_seed(0, 7)


# =====================================================================
# Pipeline
# =====================================================================


def test_pipeline_trivial_when_target_fills_background():
    # k = n = t: every node is selected, so recovery is guaranteed
    cfg = ExperimentConfig(
        background=GraphGenSpec(model="er", n=20, avg_degree=1.0),
        target=clique(20),
        num_backgrounds=1,
        runs=2,
        base_seed=0,
    )
    for r in run_pipeline(cfg):
        assert r.rate == 1.0 and r.hits == 20
        # k covers every node: no gap is needed
        assert r.margin == math.inf


def test_run_results_internally_consistent():
    cfg = _small_cfg(runs=5)
    for r in run_pipeline(cfg):
        assert r.candidates.size == cfg.effective_k
        assert np.all(np.diff(r.candidates) > 0)
        assert r.hits == int(np.isin(r.embedding.map, r.candidates).sum())
        assert r.rate == r.hits / cfg.target.t
        assert identification_rate(r.candidates, r.embedding) == r.rate


def test_pipeline_deterministic_across_calls_and_jobs():
    cfg = _small_cfg(runs=6, num_backgrounds=3)
    a = run_pipeline(cfg)
    b = run_pipeline(cfg)
    c = run_pipeline(cfg, jobs=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.candidates, y.candidates)
        assert x.rate == y.rate
    for x, y in zip(a, c):
        assert np.array_equal(x.embedding.map, y.embedding.map)
        assert np.array_equal(x.candidates, y.candidates)
        assert x.rate == y.rate
        assert x.margin == y.margin


def _same_runs(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.embedding.map, y.embedding.map)
        and np.array_equal(x.candidates, y.candidates)
        and x.hits == y.hits
        and x.rate == y.rate
        and (x.margin == y.margin or math.isnan(x.margin) and math.isnan(y.margin))
        for x, y in zip(a, b)
    )


def test_worker_pool_back_to_back_calls_match_serial():
    # the pool persists across calls and is replaced when jobs changes
    cfg = _small_cfg(runs=5, num_backgrounds=3)
    methods = (lambda jobs: run_pipeline(cfg, jobs=jobs), lambda jobs: run_baseline(cfg, r=5, jobs=jobs))
    serial = [method(1) for method in methods]
    pools = []
    for jobs in (2, 3, 2):
        for method, want in zip(methods, serial):
            got = method(jobs)
            pools.append(identify._pool)
            assert _same_runs(got, want)
            assert all(not r.embedding.map.flags.writeable for r in got)
    assert pools[0] is pools[1] and pools[2] is pools[3] and pools[4] is pools[5]
    assert pools[1] is not pools[2] and pools[3] is not pools[4]
    results = run_pipeline(cfg, jobs=2)
    assert sum(r.seconds.generation for r in results) > 0 and sum(r.seconds.scoring for r in results) > 0


def test_worker_pool_reraises_run_errors():
    # exp(A) of a near-complete graph on 720 nodes overflows in every run
    cfg = _small_cfg(background=GraphGenSpec(model="er", n=720, avg_degree=719.0), target=clique(2), runs=2)
    for jobs in (1, 2):
        with pytest.raises(NumericalBreakdownError):
            run_pipeline(cfg, jobs=jobs)
    # the pool survives a failed batch
    assert _same_runs(run_pipeline(_small_cfg(), jobs=2), run_pipeline(_small_cfg()))


def _exit_worker(stacks):
    # a score that kills the worker process it runs in
    os._exit(3)


def test_dead_worker_drops_the_pool():
    # a worker that dies breaks the pool: the call raises, the pool is
    # dropped, and the next call starts a fresh one that matches serial runs
    from concurrent.futures.process import BrokenProcessPool

    cfg = _small_cfg(runs=4)
    with pytest.raises(BrokenProcessPool):
        identify._map_runs(cfg, 2, score=_exit_worker, select=top_k, stacked=True)
    assert identify._pool is None
    assert _same_runs(run_pipeline(cfg, jobs=2), run_pipeline(cfg, jobs=1))


def test_overflowing_run_raises_without_runtime_warning(capfd):
    # the overflow of exp in the projected matrix is expected: it raises
    # NumericalBreakdownError, and no RuntimeWarning comes before it, here
    # or in a worker.  Fresh workers fork under the error filter; where they
    # would not inherit it, a warning they print still reaches stderr
    cfg = _small_cfg(background=GraphGenSpec(model="er", n=720, avg_degree=719.0), target=clique(2), runs=2)
    identify._drop_pool()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for jobs in (1, 2):
                with pytest.raises(NumericalBreakdownError):
                    run_pipeline(cfg, jobs=jobs)
    finally:
        identify._drop_pool()
    assert "RuntimeWarning" not in capfd.readouterr().err


def test_unconverged_run_raises_at_any_jobs():
    # three steps cannot meet tol on these hosts; the error and its fields
    # come back from a worker process as well
    cfg = _small_cfg(runs=2, krylov=KrylovParams(m=3))
    for jobs in (1, 2):
        with pytest.raises(KrylovNotConvergedError) as caught:
            run_pipeline(cfg, jobs=jobs)
        assert caught.value.tol == cfg.krylov.tol and caught.value.iterations == 3
        assert caught.value.est_error > cfg.krylov.tol


# The four row shapes of the benchmark, at n = 1024 with k = 20, each one
# stack, and a row of two full stacks: its first is solved at tol, and that
# solve's nonzero change feeds the certificate of the last.
_CERTIFIED_ROWS = {
    "er-avg2-sparse-N40": (GraphGenSpec(model="er", n=1024, avg_degree=2.0), canonical_sparse_target(0), 40),
    "sw-k40-clique-N2": (GraphGenSpec(model="sw", n=1024, k=40, beta=0.1), clique(20), 2),
    "er-avg39-clique-N1": (GraphGenSpec(model="er", n=1024, avg_degree=39.0), clique(20), 1),
    "ba-m10-clique-N1": (GraphGenSpec(model="ba", n=1024, m=10), clique(20), 1),
    "er-avg2-sparse-N80": (GraphGenSpec(model="er", n=1024, avg_degree=2.0), canonical_sparse_target(0), 80),
}


@pytest.mark.parametrize("row", list(_CERTIFIED_ROWS))
def test_certified_candidates_are_those_at_tol(row):
    # a run's scores either certify their top-k set or are the scores at
    # tol; the candidates must be those of the scores at tol either way
    background, target, num_backgrounds = _CERTIFIED_ROWS[row]
    cfg = ExperimentConfig(
        background=background, target=target, num_backgrounds=num_backgrounds, runs=50, base_seed=11_000_000, k=20
    )
    results = run_pipeline(cfg)
    for i, r in enumerate(results):
        # the hosts built one at a time through the public API, not by the
        # pipeline's stacker
        hosts = [
            apply_embedding(
                generate(dataclasses.replace(background, seed=background_seed(cfg.base_seed, i, b))), target, r.embedding
            )
            for b in range(num_backgrounds)
        ]
        at_tol = summed_total_communicability(hosts, cfg.krylov)
        assert np.array_equal(r.candidates, top_k(at_tol, 20))
    # most runs are certified
    assert sum(r.margin <= 1.0 for r in results) < cfg.runs // 2


def test_stacked_scoring_matches_one_solve_per_background(monkeypatch):
    # stacking backgrounds into shared Krylov solves must not change what a
    # run identifies; a stack of n nodes means one background per solve
    cfg = _small_cfg(runs=6, num_backgrounds=5)
    stacked = run_pipeline(cfg)
    monkeypatch.setattr(communicability, "_STACK_NODES", cfg.background.n)
    single = run_pipeline(cfg)
    monkeypatch.setattr(communicability, "_STACK_NODES", 2 * cfg.background.n)
    pairs = run_pipeline(cfg)  # stacks of 2, 2, 1
    for a, b, c in zip(stacked, single, pairs):
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.candidates, c.candidates)


def test_a_full_stack_of_backgrounds_shares_one_solve():
    # a run at n=1024 scores hosts_per_stack(1024) hosts per solve, here with
    # a weak block (mean degree 0.5) in every eight; every block must meet
    # tol as in its own solve
    per_stack = communicability.hosts_per_stack(1024)
    assert per_stack > 1
    target = canonical_sparse_target(0)
    embedding = draw_embedding(1024, target.t, 5)
    hosts = [
        apply_embedding(
            generate(GraphGenSpec(model="er", n=1024, avg_degree=0.5 if b % 8 == 3 else 2.0, seed=90 + b)),
            target,
            embedding,
        )
        for b in range(per_stack)
    ]
    params = KrylovParams()
    stacked = expm_action(disjoint_union(hosts), np.ones(per_stack * 1024), params, blocks=per_stack)
    assert stacked.converged
    for host, block in zip(hosts, stacked.value.reshape(per_stack, 1024)):
        own = expm_action(host, np.ones(1024), params).value
        assert np.linalg.norm(block - own) / np.linalg.norm(own) <= params.tol
    summed = summed_total_communicability(iter(hosts), params)
    one_per_solve = ScoreVector(sum(total_communicability(h, params).scores for h in hosts), "tc_sum", per_stack)
    assert np.array_equal(top_k(summed, 20), top_k(one_per_solve, 20))


# Runs 0-2 of one pipeline and one baseline config at jobs=1, frozen from the
# two-driver code.  The pipeline config scores 3 backgrounds of 2048 nodes,
# frozen in stacks of 2 and 1 and now scored in one stack of 3, and neither
# method recovers every target node, so the pins cover seeds, stack order
# and selection.
_GOLDEN_PIPELINE = (
    (
        [1035, 555, 1968, 2020, 1468, 2005, 916, 486, 497, 2019, 641, 236, 1398, 2015, 107, 1884, 1731, 1496, 1302, 670],
        [151, 181, 212, 236, 405, 555, 641, 916, 976, 1020, 1385, 1398, 1468, 1482, 1485, 1835, 1884, 2015, 2019, 2020],
    ),
    (
        [1646, 867, 1761, 1933, 685, 1028, 1588, 483, 630, 199, 626, 373, 1344, 1001, 961, 1878, 241, 843, 1143, 1370],
        [143, 199, 226, 234, 373, 444, 626, 685, 867, 953, 993, 1001, 1076, 1344, 1532, 1588, 1646, 1878, 1933, 2039],
    ),
    (
        [1144, 198, 1674, 1912, 1961, 1139, 1939, 1508, 916, 806, 242, 549, 427, 9, 1544, 646, 1192, 1408, 1614, 1506],
        [198, 221, 242, 336, 427, 549, 646, 806, 1139, 1144, 1192, 1408, 1441, 1674, 1708, 1912, 1939, 1961, 1966, 2046],
    ),
)
_GOLDEN_BASELINE = (
    (
        [195, 97, 177, 155, 80, 20, 5, 35, 151, 173, 49, 103, 75, 172, 63, 64, 68, 119, 161, 56],
        [5, 57, 80, 97, 103, 155],
    ),
    (
        [176, 180, 3, 148, 161, 143, 197, 89, 123, 94, 100, 29, 187, 174, 81, 125, 170, 34, 15, 96],
        [3, 29, 63, 125, 143, 148, 161, 180, 197],
    ),
    (
        [163, 41, 16, 169, 72, 99, 18, 38, 43, 109, 96, 31, 125, 185, 140, 197, 0, 105, 141, 48],
        [18, 31, 41, 72, 86, 140, 169],
    ),
)


def _golden_cfg(background: GraphGenSpec, num_backgrounds: int, base_seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        background=background,
        target=canonical_sparse_target(0),
        num_backgrounds=num_backgrounds,
        runs=3,
        base_seed=base_seed,
    )


@pytest.mark.parametrize(
    "method, cfg, golden",
    [
        (run_pipeline, _golden_cfg(GraphGenSpec(model="er", n=2048, avg_degree=2.0), 3, 7), _GOLDEN_PIPELINE),
        (
            lambda cfg: run_baseline(cfg, r=5),
            _golden_cfg(GraphGenSpec(model="er", n=200, avg_degree=4.0), 2, 3),
            _GOLDEN_BASELINE,
        ),
    ],
    ids=["pipeline", "baseline"],
)
def test_golden_runs_pinned(method, cfg, golden):
    got = [(r.embedding.map.tolist(), r.candidates.tolist()) for r in method(cfg)]
    assert got == [(list(m), list(c)) for m, c in golden]


@pytest.mark.parametrize(
    "method", [run_pipeline, lambda cfg: run_baseline(cfg, r=5)], ids=["pipeline", "baseline"]
)
def test_edgeless_target_runs_on_plain_backgrounds(method):
    # an edgeless target adds no edge: the hosts are the backgrounds
    cfg = _small_cfg(target=TargetSpec(3, ()))
    results = method(cfg)
    assert len(results) == cfg.runs
    for i, r in enumerate(results):
        assert r.embedding.t == 3
        assert r.hits == int(np.isin(r.embedding.map, r.candidates).sum())
        if method is run_pipeline:
            backgrounds = [
                generate(dataclasses.replace(cfg.background, seed=background_seed(cfg.base_seed, i, b)))
                for b in range(cfg.num_backgrounds)
            ]
            assert np.array_equal(r.candidates, top_k(summed_total_communicability(backgrounds), 3))


def test_one_embedding_shared_across_backgrounds():
    # the embedding depends on the run only, not on how many backgrounds
    cfg1 = _small_cfg(num_backgrounds=1, runs=2)
    cfg4 = _small_cfg(num_backgrounds=4, runs=2)
    for r1, r4 in zip(run_pipeline(cfg1), run_pipeline(cfg4)):
        assert np.array_equal(r1.embedding.map, r4.embedding.map)


@pytest.mark.parametrize(
    "method", [run_pipeline, lambda cfg: run_baseline(cfg, r=5)], ids=["pipeline", "baseline"]
)
def test_timings_cover_phases(method):
    t0 = time.perf_counter()
    results = method(_small_cfg())
    wall = time.perf_counter() - t0
    for res in results:
        assert res.seconds.generation >= 0.0
        assert res.seconds.scoring > 0.0
        assert res.seconds.selection >= 0.0
    # hosts are built inside the scoring call: their time must not count twice
    summed = sum(r.seconds.generation + r.seconds.scoring + r.seconds.selection for r in results)
    assert summed <= wall


@pytest.mark.parametrize(
    "method", [run_pipeline, lambda cfg, jobs: run_baseline(cfg, jobs=jobs)], ids=["pipeline", "baseline"]
)
def test_jobs_below_one_rejected(method):
    with pytest.raises(ValueError, match="jobs"):
        method(_small_cfg(), jobs=0)


def test_denser_target_recovers_better():
    # same seeds, same backgrounds: a clique must beat the sparse target
    base = dict(
        background=GraphGenSpec(model="er", n=512, avg_degree=2.0),
        num_backgrounds=4,
        runs=12,
        base_seed=3,
    )
    dense = summarize_rates(run_pipeline(ExperimentConfig(target=clique(20), **base), jobs=4))
    sparse = summarize_rates(
        run_pipeline(ExperimentConfig(target=canonical_sparse_target(0), **base), jobs=4)
    )
    assert dense.mean >= sparse.mean


def test_more_backgrounds_help_sparse_target():
    base = dict(
        background=GraphGenSpec(model="er", n=512, avg_degree=2.0),
        target=canonical_sparse_target(0),
        runs=12,
        base_seed=3,
    )
    few = summarize_rates(run_pipeline(ExperimentConfig(num_backgrounds=1, **base), jobs=4))
    many = summarize_rates(run_pipeline(ExperimentConfig(num_backgrounds=12, **base), jobs=4))
    assert many.mean > few.mean


def test_summarize_rates_hand_values():
    from communifind import RunResult

    def fake(rate):
        e = Embedding(map=np.array([0, 1]))
        return RunResult(embedding=e, candidates=np.array([0, 1]), hits=int(2 * rate), rate=rate)

    rs = [fake(1.0), fake(0.5), fake(1.0), fake(0.0)]
    s = summarize_rates(rs)
    assert s.mean == pytest.approx(0.625)
    assert s.std == pytest.approx(float(np.std([1.0, 0.5, 1.0, 0.0], ddof=1)))
    assert s.perfect_fraction == pytest.approx(0.5)
    single = summarize_rates([fake(0.5)])
    assert single.std == 0.0


def test_summarize_rates_rejects_no_results():
    # a mean over no runs is not a rate: raise rather than return NaN
    with pytest.raises(ValueError, match="at least one run result"):
        summarize_rates([])
