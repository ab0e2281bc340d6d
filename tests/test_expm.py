"""Krylov matrix-exponential action against closed forms and the dense oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from communifind import (
    Graph,
    GraphGenSpec,
    KrylovParams,
    NumericalBreakdownError,
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


# =====================================================================
# Convergence flag
# =====================================================================


def _sw2000() -> Graph:
    return generate(GraphGenSpec(model="sw", n=2000, k=40, beta=0.1, seed=1))


def test_exhausted_budget_reports_not_converged():
    res = expm_action(_sw2000(), np.ones(2000), KrylovParams(m=4, max_restarts=1))
    assert not res.converged
    assert res.iterations == 8
    assert 1e-3 < res.est_error < 1e-2


def test_converged_solves_flagged():
    params = KrylovParams(tol=1e-8)
    res = expm_action(_sw2000(), np.ones(2000), params)
    assert res.converged
    assert res.est_error <= params.tol
    exact = expm_action(clique(20).to_graph(), np.ones(20))
    assert exact.converged and exact.est_error == 0.0


# =====================================================================
# Error paths
# =====================================================================


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_overflow_raises_breakdown():
    # exp(759) overflows: the exact one-step answer is not representable
    with pytest.raises(NumericalBreakdownError):
        expm_action(clique(760).to_graph(), np.ones(760))


def test_tridiagonal_eigensolver_failure_raises_breakdown(monkeypatch):
    def failing_dstevd(d, e):
        return np.zeros(d.size), np.eye(d.size), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing_dstevd)
    g = generate(GraphGenSpec(model="er", n=100, avg_degree=4.0, seed=2))
    with pytest.raises(NumericalBreakdownError, match="info=3"):
        expm_action(g, np.ones(100))


# =====================================================================
# Bit identity with the solver that forms the iterate at every step
# =====================================================================


def _reference_expm_action(g, v, params, blocks=1):
    """Restarted Lanczos that forms and tests the length-n iterate at every
    step, frozen as the solver stood before steps could skip it."""

    def first_col(h, tridiagonal):
        if h.shape[0] == 1:
            return np.exp(h[0, :1]).copy()
        if tridiagonal:
            w, q = scipy.linalg.eigh_tridiagonal(np.diag(h).copy(), np.diag(h, -1).copy())
            return q @ (np.exp(w) * q[0, :])
        return np.ascontiguousarray(scipy.linalg.expm(h)[:, 0])

    def relative_change(x, x_prev):
        change = np.linalg.norm((x - x_prev).reshape(blocks, -1), axis=1)
        size = np.linalg.norm(x.reshape(blocks, -1), axis=1)
        if np.any(size == 0.0):
            return np.inf
        return float(np.max(change / size))

    n = g.n
    v = np.asarray(v, dtype=np.float64)
    beta0 = float(np.linalg.norm(v))
    a = scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    cap = params.m * (params.max_restarts + 1)
    h = np.zeros((cap, cap))
    x_base = np.zeros(n)
    x_prev = None
    diff = np.inf
    v_cur = v / beta0
    connector = 0.0
    s = 0
    for cycle in range(params.max_restarts + 1):
        basis = np.empty((params.m, n))
        cycle_start = s
        if cycle:
            h[cycle_start, cycle_start - 1] = connector
        jloc = 0
        y = np.empty(0)
        for _j in range(params.m):
            basis[jloc] = v_cur
            jloc += 1
            w = a @ v_cur
            alpha = float(v_cur @ w)
            w -= alpha * v_cur
            if jloc > 1:
                w -= h[s, s - 1] * basis[jloc - 2]
            for _ in range(2):
                w -= basis[:jloc].T @ (basis[:jloc] @ w)
            h[s, s] = alpha
            s += 1
            y = first_col(h[:s, :s], cycle == 0)
            x = x_base + beta0 * (basis[:jloc].T @ y[cycle_start:s])
            if x_prev is not None:
                diff = relative_change(x, x_prev)
            x_prev = x
            beta = float(np.linalg.norm(w))
            if beta <= 1e-12 * max(1.0, abs(alpha)):
                return x, 0.0, s
            if diff <= params.tol:
                return x, diff, s
            if jloc < params.m:
                h[s - 1, s] = beta
                h[s, s - 1] = beta
            v_cur = w / beta
        x_base = x_base + beta0 * (basis.T @ y[cycle_start:s])
        connector = beta
    return x_prev, diff, s


def _er_stack():
    return disjoint_union(
        [generate(GraphGenSpec(model="er", n=1024, avg_degree=2.0, seed=40 + b)) for b in range(4)]
    ), 4


def _sw_stack():
    return disjoint_union(
        [generate(GraphGenSpec(model="sw", n=1024, k=40, beta=0.1, seed=50 + b)) for b in range(2)]
    ), 2


def _clique_path():
    path = Graph.from_pairs(40, [(i, i + 1) for i in range(39)])
    return disjoint_union([clique(12).to_graph(), path]), 2


@pytest.mark.parametrize(
    "host, params",
    [
        (_er_stack, KrylovParams()),
        (_sw_stack, KrylovParams()),
        (_clique_path, KrylovParams(tol=1e-8)),
        (lambda: (_sw2000(), 1), KrylovParams(m=4, max_restarts=8)),
        (lambda: (_sw2000(), 1), KrylovParams(m=5, max_restarts=6)),
        (lambda: (_sw2000(), 1), KrylovParams(m=8)),
        (lambda: (_sw2000(), 1), KrylovParams(m=4, max_restarts=1)),
        (lambda: (clique(20).to_graph(), 1), KrylovParams()),
    ],
    ids=["er-stack-4", "sw-stack-2", "clique-path", "restart-m4", "restart-m5", "restart-m8",
         "budget-exhausted", "invariant-subspace"],
)
def test_bit_identical_to_reference_loop(host, params):
    g, blocks = host()
    v = np.ones(g.n)
    value, est_error, iterations = _reference_expm_action(g, v, params, blocks)
    res = expm_action(g, v, params, blocks=blocks)
    assert np.array_equal(res.value, value)
    assert res.est_error == est_error
    assert res.iterations == iterations
