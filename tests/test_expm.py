"""Krylov matrix-exponential action against closed forms and the dense oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from communifind import (
    Graph,
    GraphGenSpec,
    KrylovParams,
    clique,
    disjoint_union,
    expm_action,
    expm_dense_oracle,
    generate,
)
from conftest import mixed_model_spec


def permute_graph(g: Graph, perm: np.ndarray) -> Graph:
    """Relabel node u as perm[u]."""
    pairs = [(int(perm[u]), int(perm[v])) for u, v in g.edge_pairs()]
    return Graph.from_pairs(g.n, pairs)


# =====================================================================
# Closed forms
# =====================================================================


def test_empty_graph_is_exact_identity_action():
    g = Graph.from_pairs(6, [])
    res = expm_action(g, np.ones(6))
    assert np.array_equal(res.value, np.ones(6))
    assert res.est_error == 0.0
    assert res.iterations == 1


def test_single_edge_matches_cosh_sinh():
    g = clique(2).to_graph()
    res = expm_action(g, np.ones(2))
    # exp([[0,1],[1,0]]) 1 = (cosh 1 + sinh 1) 1 = e 1
    assert res.value == pytest.approx([math.e, math.e], rel=1e-12)


def test_clique_row_sums_hit_breakdown_exactly():
    # ones is a dominant eigenvector of K20: the recurrence terminates after
    # one step with an invariant subspace, so the answer is exact
    g = clique(20).to_graph()
    res = expm_action(g, np.ones(20))
    assert res.est_error == 0.0
    expected = math.exp(19.0)
    assert res.value == pytest.approx(np.full(20, expected), rel=1e-12)


def test_dense_oracle_single_edge():
    m = expm_dense_oracle(clique(2).to_graph())
    expected = np.array(
        [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
    )
    assert m == pytest.approx(expected, rel=1e-14)


# =====================================================================
# Agreement with the dense oracle
# =====================================================================


@pytest.mark.parametrize("index", range(30))
def test_matches_dense_oracle_on_mixed_graphs(index):
    g = generate(mixed_model_spec(index, max_n=160))
    res = expm_action(g, np.ones(g.n), KrylovParams(m=30, tol=1e-10))
    reference = expm_dense_oracle(g).sum(axis=1)
    rel = np.linalg.norm(res.value - reference) / np.linalg.norm(reference)
    assert rel <= 1e-6


def test_random_vector_agreement():
    g = generate(GraphGenSpec(model="er", n=120, avg_degree=6.0, seed=5))
    rng = np.random.default_rng(42)
    v = rng.standard_normal(120)
    res = expm_action(g, v, KrylovParams(m=25, tol=1e-10))
    reference = expm_dense_oracle(g) @ v
    rel = np.linalg.norm(res.value - reference) / np.linalg.norm(reference)
    assert rel <= 1e-8


def test_restarted_cycles_match_oracle():
    # m far below what one cycle needs forces several restarts
    g = generate(GraphGenSpec(model="er", n=150, avg_degree=5.0, seed=3))
    res = expm_action(g, np.ones(150), KrylovParams(m=5, tol=1e-9, max_restarts=10))
    assert res.iterations > 5  # actually restarted
    reference = expm_dense_oracle(g).sum(axis=1)
    rel = np.linalg.norm(res.value - reference) / np.linalg.norm(reference)
    assert rel <= 1e-6


def test_unconverged_result_reports_honest_error():
    g = generate(GraphGenSpec(model="ba", n=400, m=8, seed=1))
    res = expm_action(g, np.ones(400), KrylovParams(m=3, tol=1e-12, max_restarts=0))
    assert np.all(np.isfinite(res.value))
    assert res.est_error > 1e-12


def test_est_error_within_tol_when_converged():
    g = generate(GraphGenSpec(model="sw", n=200, k=6, beta=0.1, seed=8))
    params = KrylovParams(m=40, tol=1e-9, max_restarts=6)
    res = expm_action(g, np.ones(200), params)
    assert res.est_error <= params.tol


# =====================================================================
# Structural properties
# =====================================================================


def test_linearity_in_the_vector():
    g = generate(GraphGenSpec(model="er", n=90, avg_degree=4.0, seed=13))
    v = np.linspace(1.0, 2.0, 90)
    a = expm_action(g, v, KrylovParams(tol=1e-12)).value
    b = expm_action(g, 3.5 * v, KrylovParams(tol=1e-12)).value
    assert b == pytest.approx(3.5 * a, rel=1e-10)


@pytest.mark.parametrize("index", [1, 4, 7])
def test_permutation_equivariance(index):
    g = generate(mixed_model_spec(index, max_n=80))
    rng = np.random.default_rng(index)
    perm = rng.permutation(g.n)
    h = permute_graph(g, perm)
    params = KrylovParams(tol=1e-12)
    x = expm_action(g, np.ones(g.n), params).value
    y = expm_action(h, np.ones(g.n), params).value
    assert y[perm] == pytest.approx(x, rel=1e-10)


def test_oracle_symmetric_nonnegative_diagonal_at_least_one():
    for index in (0, 3, 11):
        g = generate(mixed_model_spec(index, max_n=100))
        m = expm_dense_oracle(g)
        assert np.allclose(m, m.T, rtol=1e-10, atol=1e-12)
        assert m.min() >= 0.0
        # exp(A) diagonal counts closed walks, starting from the empty walk
        assert np.all(np.diag(m) >= 1.0 - 1e-12)


# =====================================================================
# Guards
# =====================================================================


def test_oracle_node_limit():
    g = Graph.from_pairs(513, [(0, 1)])
    with pytest.raises(ValueError, match="expm_action"):
        expm_dense_oracle(g)


def test_rejects_bad_vectors():
    g = clique(3).to_graph()
    with pytest.raises(ValueError):
        expm_action(g, np.zeros(3))
    with pytest.raises(ValueError):
        expm_action(g, np.ones(4))
    with pytest.raises(ValueError):
        expm_action(g, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        expm_action(g, np.ones((3, 1)))


def test_params_validation():
    with pytest.raises(ValueError):
        KrylovParams(m=1)
    with pytest.raises(ValueError):
        KrylovParams(tol=0.0)
    with pytest.raises(ValueError):
        KrylovParams(max_restarts=-1)


# =====================================================================
# Stacked graphs: every block must meet tol
# =====================================================================


def test_blocks_each_meet_tol():
    # the clique block dominates the norm of the stacked iterate: judged as
    # one vector the solve stops while the path block is still off by ~1e-6
    path = Graph.from_pairs(40, [(i, i + 1) for i in range(39)])
    g = disjoint_union([clique(12).to_graph(), path])
    want = expm_dense_oracle(path).sum(axis=1)
    params = KrylovParams(tol=1e-8)
    joint = expm_action(g, np.ones(52), params).value[12:]
    per_block = expm_action(g, np.ones(52), params, blocks=2)
    assert np.abs(joint / want - 1.0).max() > 1e-7
    assert np.abs(per_block.value[12:] / want - 1.0).max() <= 1e-8
    assert per_block.est_error <= params.tol


def test_blocks_must_divide_node_count():
    g = clique(6).to_graph()
    for blocks in (0, 4, 7):
        with pytest.raises(ValueError):
            expm_action(g, np.ones(6), blocks=blocks)
