"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from communifind import (
    Graph,
    GraphGenSpec,
    expm_dense_oracle,
    generate,
)


def degrees(g: Graph) -> np.ndarray:
    """Degree of every node, counted from the edge pairs."""
    return np.bincount(g.edge_pairs().ravel(), minlength=g.n)


def neighbors(g: Graph, u: int) -> np.ndarray:
    """Row ``u`` of the graph's compressed sparse rows: its neighbors, ascending."""
    return g.indices[g.indptr[u] : g.indptr[u + 1]]


def validate_graph(g: Graph) -> None:
    """Assert the structural invariants every graph must satisfy."""
    assert g.indptr.shape == (g.n + 1,)
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert g.indices.size == 2 * g.edge_count
    if g.n:
        assert np.diff(g.indptr).min() >= 0
    for u in range(g.n):
        row = neighbors(g, u)
        # sorted, no duplicates, no self-loops, valid labels
        assert np.all(np.diff(row) > 0)
        assert not np.isin(u, row)
        if row.size:
            assert row.min() >= 0 and row.max() < g.n
        for v in row:  # symmetry
            assert g.has_edge(int(v), u)


def oracle_row_sums(g: Graph) -> np.ndarray:
    """Independent reference for total communicability: dense exp(A) row sums."""
    return expm_dense_oracle(g).sum(axis=1)


def mixed_model_spec(index: int, max_n: int = 200) -> GraphGenSpec:
    """Deterministic family of small specs cycling through all three models."""
    n = 8 + (index * 37) % (max_n - 7)
    model = ("er", "ba", "sw")[index % 3]
    if model == "er":
        avg = min((index % 8) + 0.5, float(n - 1))
        return GraphGenSpec(model="er", n=n, avg_degree=avg, seed=index)
    if model == "ba":
        return GraphGenSpec(model="ba", n=n, m=1 + index % 5, seed=index)
    k = 2 * (1 + index % 5)
    if k >= n:
        k = 2
    beta = (index % 11) / 10.0
    return GraphGenSpec(model="sw", n=n, k=k, beta=beta, seed=index)


@pytest.fixture(scope="session")
def small_graph_pool() -> list[Graph]:
    """A reusable pool of small mixed-model graphs."""
    return [generate(mixed_model_spec(i, max_n=120)) for i in range(24)]
