"""Degree-corrected spectral baseline: matrix, blend, scan, split, pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from communifind import (
    ExperimentConfig,
    NumericalBreakdownError,
    FilterCoeffs,
    Graph,
    GraphGenSpec,
    ModularityMatrix,
    baseline_candidates,
    clique,
    draw_embedding,
    apply_embedding,
    eigen_l1_scores,
    generate,
    graphs,
    modularity,
    modularity_matrix,
    run_baseline,
    temporal_filter,
    two_means_split,
)
from communifind.identify import background_seed
from conftest import mixed_model_spec


# =====================================================================
# Degree-corrected matrix
# =====================================================================


def test_matrix_single_edge():
    b = modularity_matrix(clique(2).to_graph())
    assert b.to_dense() == pytest.approx(np.array([[-0.5, 0.5], [0.5, -0.5]]))


def test_matrix_triangle():
    b = modularity_matrix(clique(3).to_graph())
    expected = np.full((3, 3), 1.0 / 3.0) - np.eye(3)  # off-diag 1/3, diag -2/3
    assert b.to_dense() == pytest.approx(-expected * -1.0)
    assert np.diag(b.to_dense()) == pytest.approx([-2.0 / 3.0] * 3)


@pytest.mark.parametrize("index", [0, 4, 8, 13])
def test_matrix_rows_sum_to_zero(index):
    spec = mixed_model_spec(index, max_n=120)
    g = generate(spec)
    while g.edge_count == 0:
        # B is undefined without edges: the guard must refuse the draw, and
        # the property is then checked on the next seed of the same family
        with pytest.raises(ValueError):
            modularity_matrix(g)
        spec = replace(spec, seed=spec.seed + 1)
        g = generate(spec)
    b = modularity_matrix(g)
    assert np.abs(b @ np.ones(g.n)).max() <= 1e-9
    assert b.to_dense() == pytest.approx(b.to_dense().T)


def test_baseline_host_builds_adjacency_once_and_no_graph_rows(monkeypatch):
    g = generate(mixed_model_spec(2))
    b = modularity_matrix(g)
    assert "_csr" not in vars(g)
    rows = scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    assert np.array_equal(b.adjacency.indptr, rows.indptr) and np.array_equal(b.adjacency.indices, rows.indices)
    assert np.array_equal(b.adjacency.data, rows.data)
    built = []
    adjacency = graphs.adjacency
    monkeypatch.setattr(graphs, "adjacency", lambda h: built.append(h) or adjacency(h))
    cfg = ExperimentConfig(
        background=GraphGenSpec(model="er", n=64, avg_degree=4.0), target=clique(5), num_backgrounds=3, runs=1
    )
    assert len(run_baseline(cfg, r=3)) == 1
    assert len(built) == 3 and not any("_csr" in vars(h) for h in built)


def test_matrix_guards():
    with pytest.raises(ValueError):
        modularity_matrix(Graph.from_pairs(4, []))


# =====================================================================
# Window blend
# =====================================================================


def test_coeffs_must_sum_to_one():
    FilterCoeffs(c=(0.5, 0.5))
    FilterCoeffs(c=(1.0,))
    with pytest.raises(ValueError):
        FilterCoeffs(c=(0.5, 0.4))
    with pytest.raises(ValueError):
        FilterCoeffs(c=())


@pytest.mark.parametrize("c", [(float("nan"), 1.0), (float("inf"), float("-inf")), (float("nan"),), (1.0, 0.0, float("inf"))])
def test_coeffs_must_be_finite(c):
    # a NaN sum compares False against any tolerance, so it must fail the test
    with pytest.raises(ValueError, match="finite"):
        FilterCoeffs(c=c)


def test_uniform_coeffs():
    u = FilterCoeffs.uniform(4)
    assert len(u) == 4
    assert u.c == (0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        FilterCoeffs.uniform(0)


def test_blend_is_linear():
    g1 = generate(GraphGenSpec(model="er", n=40, avg_degree=4.0, seed=1))
    g2 = generate(GraphGenSpec(model="er", n=40, avg_degree=4.0, seed=2))
    m1, m2 = modularity_matrix(g1), modularity_matrix(g2)
    out = temporal_filter([m1, m2], FilterCoeffs(c=(0.75, 0.25)))
    assert out.to_dense() == pytest.approx(0.75 * m1.to_dense() + 0.25 * m2.to_dense(), rel=1e-12)
    # blended rows still sum to zero
    assert np.abs(out @ np.ones(40)).max() <= 1e-9


def test_blend_of_one_is_identity():
    m = modularity_matrix(generate(GraphGenSpec(model="ba", n=30, m=2, seed=3)))
    out = temporal_filter([m], FilterCoeffs(c=(1.0,)))
    assert np.array_equal(out.to_dense(), m.to_dense())


def test_blend_rejects_mismatches():
    m1 = modularity_matrix(generate(GraphGenSpec(model="er", n=30, avg_degree=3.0, seed=1)))
    m2 = modularity_matrix(generate(GraphGenSpec(model="er", n=31, avg_degree=3.0, seed=1)))
    with pytest.raises(ValueError):
        temporal_filter([m1], FilterCoeffs(c=(0.5, 0.5)))
    with pytest.raises(ValueError):
        temporal_filter([m1, m2], FilterCoeffs(c=(0.5, 0.5)))


# =====================================================================
# Localized-eigenvector scan
# =====================================================================


def _rank_one_matrix(vectors_and_values, n):
    m = np.zeros((n, n))
    for vec, val in vectors_and_values:
        v = np.asarray(vec, dtype=np.float64)
        v = v / np.linalg.norm(v)
        m += val * np.outer(v, v)
    return m


def test_scan_flags_the_spiky_eigenvector():
    n = 16
    delocalized = np.ones(n)
    spike = np.zeros(n)  # concentrated, zero-sum: orthogonal to the uniform vector
    spike[11] = 2.0
    spike[3] = spike[5] = -1.0
    m = _rank_one_matrix([(delocalized, 5.0), (spike, 4.0)], n)
    b = ModularityMatrix(
        n=n,
        adjacency=scipy.sparse.csr_matrix(m),
        degree_cols=np.zeros((n, 0)),
        weights=np.zeros(0),
    )
    scan = eigen_l1_scores(b, r=2)
    assert scan.eigenvalues == pytest.approx([5.0, 4.0])
    assert scan.norms[0] == pytest.approx(np.sqrt(n))  # uniform vector
    assert scan.norms[1] == pytest.approx(4.0 / np.sqrt(6.0))  # the spike
    assert scan.flagged_index == 1
    assert scan.seed_node == 11
    assert scan.coords.shape == (n, 2)


def test_scan_eigenvalues_descend():
    g = generate(GraphGenSpec(model="er", n=100, avg_degree=5.0, seed=7))
    scan = eigen_l1_scores(modularity_matrix(g), r=8)
    assert np.all(np.diff(scan.eigenvalues) <= 1e-12)
    assert scan.norms.shape == (8,)
    assert 0 <= scan.flagged_index < 8
    assert 0 <= scan.seed_node < 100


def test_scan_arpack_failure_is_numerical_breakdown():
    # a NaN weight makes every product NaN: ARPACK cannot even build its
    # Arnoldi factorization, which is an ArpackError but not a no-convergence
    g = generate(GraphGenSpec(model="er", n=100, avg_degree=5.0, seed=7))
    b = replace(modularity_matrix(g), weights=np.array([np.nan]))
    with pytest.raises(NumericalBreakdownError, match="eigenvector scan failed"):
        eigen_l1_scores(b, r=5)


def test_scan_r_bounds():
    b = modularity_matrix(clique(3).to_graph())
    eigen_l1_scores(b, r=1)
    eigen_l1_scores(b, r=3)
    with pytest.raises(ValueError):
        eigen_l1_scores(b, r=0)
    with pytest.raises(ValueError):
        eigen_l1_scores(b, r=4)


def _planted_clique_hosts():
    """Ten ER(n=512, avg 4) hosts with a 20-clique, and where it sits."""
    target = clique(20)
    for seed in range(10):
        background = generate(GraphGenSpec(model="er", n=512, avg_degree=4.0, seed=100 + seed))
        embedding = draw_embedding(512, 20, seed=200 + seed)
        yield apply_embedding(background, target, embedding), embedding


def test_scan_finds_planted_clique_seed():
    # flagged eigenvector's strongest node should sit inside the planted clique
    hits = 0
    for host, embedding in _planted_clique_hosts():
        scan = eigen_l1_scores(modularity_matrix(host), r=5)
        hits += int(scan.seed_node in set(embedding.map.tolist()))
    assert hits >= 7


def test_scan_nonconvergence_is_an_error(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(1), np.zeros((8, 1)))

    def no_split(*args, **kwargs):
        raise AssertionError("split on partial eigenvectors")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(modularity, "two_means_split", no_split)
    g = generate(GraphGenSpec(model="er", n=60, avg_degree=4.0, seed=1))
    with pytest.raises(NumericalBreakdownError):
        eigen_l1_scores(modularity_matrix(g), r=4)
    with pytest.raises(NumericalBreakdownError):
        baseline_candidates([g], FilterCoeffs.uniform(1), r=4)


# =====================================================================
# Matrix-free scan against the dense eigendecomposition
# =====================================================================


def _dense_b(hosts, c) -> np.ndarray:
    """Reference B = sum_l c_l (A_l - d_l d_l^T / 2E_l), formed densely."""
    return sum(
        w * (h.to_dense() - np.outer(h.degrees, h.degrees) / (2.0 * h.edge_count))
        for h, w in zip(hosts, c)
    )


def _dense_scan(dense: np.ndarray, r: int):
    """Reference scan on a full eigendecomposition:
    (eigenvalues, coords, L1 norms, flagged index, seed node)."""
    w, q = np.linalg.eigh(dense)
    coords = q[:, ::-1][:, :r]
    norms = np.abs(coords).sum(axis=0)
    flagged = int(np.argmin(norms))
    return w[::-1][:r], coords, norms, flagged, int(np.argmax(np.abs(coords[:, flagged])))


def _dense_candidates(hosts, coeffs: FilterCoeffs, r: int) -> np.ndarray:
    """Reference baseline_candidates on the dense B."""
    _, coords, _, _, seed_node = _dense_scan(_dense_b(hosts, coeffs.c), r)
    target_nodes, _ = two_means_split(coords, seed_node)
    return np.sort(target_nodes)


@pytest.mark.parametrize(
    "n, avg, window, r",
    [(40, 4.0, 1, 4), (100, 3.0, 2, 5), (256, 6.0, 3, 8), (512, 4.0, 2, 5)],
)
def test_scan_matches_dense_eigh(n, avg, window, r):
    hosts = [
        generate(GraphGenSpec(model="er", n=n, avg_degree=avg, seed=10 * n + l)) for l in range(window)
    ]
    b = temporal_filter([modularity_matrix(h) for h in hosts], FilterCoeffs.uniform(window))
    values, _, norms, flagged, seed_node = _dense_scan(b.to_dense(), r)
    scan = eigen_l1_scores(b, r)
    assert np.abs(scan.eigenvalues - values).max() <= 1e-9
    assert np.abs(scan.norms - norms).max() <= 1e-9
    assert scan.flagged_index == flagged
    assert scan.seed_node == seed_node
    assert scan.coords.shape == (n, r)


def test_matrix_free_b_matches_dense_b():
    h1 = generate(GraphGenSpec(model="er", n=50, avg_degree=4.0, seed=1))
    h2 = generate(GraphGenSpec(model="ba", n=50, m=2, seed=2))
    b = temporal_filter([modularity_matrix(h1), modularity_matrix(h2)], FilterCoeffs(c=(0.7, 0.3)))
    dense = _dense_b([h1, h2], (0.7, 0.3))
    assert np.abs(b.to_dense() - dense).max() <= 1e-12
    for x in np.random.default_rng(0).standard_normal((3, 50)):
        assert np.abs(b @ x - dense @ x).max() <= 1e-12


def test_baseline_candidates_match_dense_on_planted_cliques():
    for host, _ in _planted_clique_hosts():
        got = baseline_candidates([host], FilterCoeffs.uniform(1), r=5)
        assert np.array_equal(got, _dense_candidates([host], FilterCoeffs.uniform(1), 5))


# =====================================================================
# Two-means split
# =====================================================================


def test_split_micro_case():
    coords = np.array([[0.0], [0.0], [0.0], [10.0], [10.0]])
    target_nodes, noise_nodes = two_means_split(coords, seed_node=3)
    assert target_nodes.tolist() == [3, 4]
    assert noise_nodes.tolist() == [0, 1, 2]


def test_split_size_tie_goes_to_seed_cluster():
    coords = np.array([[0.0], [2.0]])
    target_nodes, noise_nodes = two_means_split(coords, seed_node=0)
    assert target_nodes.tolist() == [0]
    assert noise_nodes.tolist() == [1]


def test_split_distance_tie_joins_seed_cluster():
    # node 1 starts equidistant from both centroids and must join the seed side
    coords = np.array([[0.0], [2.0], [10.0]])
    target_nodes, noise_nodes = two_means_split(coords, seed_node=0)
    assert target_nodes.tolist() == [2]
    assert noise_nodes.tolist() == [0, 1]


def test_split_rejects_degenerate_input():
    with pytest.raises(ValueError):
        two_means_split(np.zeros((4, 2)), seed_node=0)
    with pytest.raises(ValueError):
        two_means_split(np.ones(4), seed_node=0)  # not 2-D
    with pytest.raises(ValueError):
        two_means_split(np.zeros((4, 1)) + np.arange(4)[:, None], seed_node=4)


def test_split_covers_all_nodes_once():
    rng = np.random.default_rng(1)
    coords = rng.standard_normal((50, 3))
    coords[:10] += 4.0  # make a clear small cluster
    target_nodes, noise_nodes = two_means_split(coords, seed_node=int(np.argmax(coords[:, 0])))
    merged = np.sort(np.concatenate([target_nodes, noise_nodes]))
    assert np.array_equal(merged, np.arange(50))
    assert target_nodes.size <= noise_nodes.size


# =====================================================================
# Baseline pipeline
# =====================================================================


def _baseline_cfg(**overrides) -> ExperimentConfig:
    defaults = dict(
        background=GraphGenSpec(model="er", n=128, avg_degree=3.0),
        target=clique(10),
        num_backgrounds=2,
        runs=3,
        base_seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_baseline_runs_match_dense_reference():
    cfg = _baseline_cfg(runs=6)
    coeffs = FilterCoeffs.uniform(cfg.num_backgrounds)
    for r in (5, 10):
        for run, res in enumerate(run_baseline(cfg, r=r)):
            hosts = [
                apply_embedding(
                    generate(replace(cfg.background, seed=background_seed(cfg.base_seed, run, b))),
                    cfg.target,
                    res.embedding,
                )
                for b in range(cfg.num_backgrounds)
            ]
            assert np.array_equal(res.candidates, _dense_candidates(hosts, coeffs, r))


def test_baseline_has_no_node_cap():
    # n = 5000 was past the dense path's cap of 2048 nodes
    cfg = ExperimentConfig(
        background=GraphGenSpec(model="er", n=5000, avg_degree=4.0),
        target=clique(20),
        num_backgrounds=2,
        runs=1,
    )
    (res,) = run_baseline(cfg, r=5)
    assert res.rate == 1.0


def test_baseline_candidates_deterministic():
    g1 = generate(GraphGenSpec(model="er", n=100, avg_degree=4.0, seed=1))
    g2 = generate(GraphGenSpec(model="er", n=100, avg_degree=4.0, seed=2))
    hosts = [g1, g2]
    a = baseline_candidates(hosts, FilterCoeffs.uniform(2), r=4)
    b = baseline_candidates(hosts, FilterCoeffs.uniform(2), r=4)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0)


def test_baseline_run_deterministic_across_jobs():
    cfg = _baseline_cfg(runs=4)
    a = run_baseline(cfg)
    b = run_baseline(cfg, jobs=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.embedding.map, y.embedding.map)
        assert np.array_equal(x.candidates, y.candidates)
        assert x.rate == y.rate
        assert np.isnan(x.margin) and np.isnan(y.margin)


def test_baseline_coeff_window_must_match():
    cfg = _baseline_cfg(num_backgrounds=3)
    with pytest.raises(ValueError):
        run_baseline(cfg, coeffs=FilterCoeffs.uniform(2))


def test_baseline_results_consistent():
    for r in run_baseline(_baseline_cfg()):
        assert r.hits == int(np.isin(r.embedding.map, r.candidates).sum())
        assert r.rate == r.hits / 10
        assert np.all(np.diff(r.candidates) > 0)
        # the baseline has no certificate
        assert np.isnan(r.margin)
