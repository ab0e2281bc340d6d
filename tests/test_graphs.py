"""Graph container, generators, targets, and edge-list IO."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from communifind import (
    EdgeListParseError,
    Graph,
    GraphGenSpec,
    TargetSpec,
    canonical_sparse_target,
    clique,
    density,
    disjoint_union,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_watts_strogatz,
    generate,
    is_connected,
    read_edge_list,
    write_edge_list,
)
from communifind import graphs as graphs_module
from communifind.rng import SeededRng, geometric_gaps
from conftest import mixed_model_spec, validate_graph


# =====================================================================
# Graph container
# =====================================================================


def test_from_pairs_canonicalizes_orientation():
    g = Graph.from_pairs(4, [(2, 0), (3, 1)])
    assert g.edge_count == 2
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert g.has_edge(1, 3)
    assert not g.has_edge(0, 1)


def test_from_pairs_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(0, 1), (1, 0)])
    # but duplicates merge when unioning is requested
    g = Graph.from_pairs(3, [(0, 1), (1, 0)], collapse_duplicates=True)
    assert g.edge_count == 1


def test_from_pairs_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(-1, 2)])


def test_empty_graph():
    g = Graph.from_pairs(5, [])
    validate_graph(g)
    assert g.edge_count == 0
    assert g.mean_degree == 0.0
    assert g.max_degree == 0


def test_neighbors_sorted_and_degrees():
    g = Graph.from_pairs(5, [(4, 0), (0, 2), (0, 1)])
    assert g.neighbors(0).tolist() == [1, 2, 4]
    assert g.degree(0) == 3
    assert g.degrees.tolist() == [3, 1, 1, 0, 1]


def test_edge_pairs_round_trip():
    pairs = [(0, 3), (1, 2), (2, 3)]
    g = Graph.from_pairs(4, pairs)
    assert [tuple(p) for p in g.edge_pairs()] == sorted(pairs)


def test_csr_rows_sorted_beyond_16_bit_labels():
    # labels past 16 bits, against an independent reference: a two-key
    # lexsort of both edge directions
    n = 70_000
    rng = np.random.default_rng(5)
    ends = rng.integers(0, n, size=(4000, 2))
    pairs = [tuple(p) for p in ends.tolist() if p[0] != p[1]]
    pairs += [(65535, 65536), (3, 69999), (65536, 69998), (65535, 1)]
    g = Graph.from_pairs(n, pairs, collapse_duplicates=True)
    us, vs = np.divmod(g.edge_codes(), n)
    rows, cols = np.concatenate([us, vs]), np.concatenate([vs, us])
    assert np.array_equal(g.indices, cols[np.lexsort((cols, rows))])
    assert np.array_equal(g.degrees, np.bincount(rows, minlength=n))


def _has_csr(g: Graph) -> bool:
    return "_csr" in vars(g)


def test_csr_built_once_then_cached(monkeypatch):
    g = Graph.from_pairs(5, [(4, 0), (0, 2), (0, 1)])
    assert not _has_csr(g)
    builds = []
    adjacency = graphs_module.adjacency
    monkeypatch.setattr(graphs_module, "adjacency", lambda g: builds.append(g.n) or adjacency(g))
    indptr, indices = g.indptr, g.indices
    assert g.neighbors(0).tolist() == [1, 2, 4] and g.degree(4) == 1
    assert g.indptr is indptr and g.indices is indices
    assert builds == [5]
    assert not indptr.flags.writeable and not indices.flags.writeable


@pytest.mark.parametrize("label", [-1, 4, 6])
def test_has_edge_rejects_labels_outside_range(label):
    # the code 0 * 4 + 6 would alias edge (1, 2)
    g = Graph.from_pairs(4, [(1, 2)])
    for u, v in ((0, label), (label, 0), (label, label)):
        with pytest.raises(ValueError, match=f"node label {label} out of range for n=4"):
            g.has_edge(u, v)


@pytest.mark.parametrize("label", [-1, 4])
def test_degree_rejects_labels_outside_range(label):
    g = Graph.from_pairs(4, [(1, 2)])
    with pytest.raises(ValueError, match=f"node label {label} out of range for n=4"):
        g.degree(label)


@pytest.mark.parametrize("label", [-1, 4])
def test_neighbors_rejects_labels_outside_range(label):
    g = Graph.from_pairs(4, [(1, 2)])
    with pytest.raises(ValueError, match=f"node label {label} out of range for n=4"):
        g.neighbors(label)


def test_edge_codes_are_the_stored_read_only_array():
    g = generate(mixed_model_spec(4))
    codes = g.edge_codes()
    assert codes.size == g.edge_count > 0 and codes is g.edge_codes()
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0] = 0
    assert not _has_csr(g)


def test_pickle_round_trip_is_read_only_without_cached_rows():
    g = generate(mixed_model_spec(4))
    g.indptr
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back is not g
    assert not _has_csr(back) and not back.edge_codes().flags.writeable
    assert np.array_equal(back.indices, g.indices) and not back.indices.flags.writeable


def test_disjoint_union_csr_is_offset_concatenation():
    # a 1-node graph first, an edgeless graph between two generated ones
    graphs = [
        Graph.from_pairs(1, []),
        generate(mixed_model_spec(3, max_n=60)),
        Graph.from_pairs(4, []),
        generate(mixed_model_spec(7, max_n=60)),
        generate(mixed_model_spec(11, max_n=60)),
        Graph.from_pairs(3, [(0, 2)]),
    ]
    u = disjoint_union(graphs)
    assert not _has_csr(u) and not any(_has_csr(g) for g in graphs)
    node_offsets = np.cumsum([0] + [g.n for g in graphs])
    entry_offsets = np.cumsum([0] + [g.indices.size for g in graphs])
    indptr = np.concatenate([[0]] + [g.indptr[1:] + off for g, off in zip(graphs, entry_offsets)])
    indices = np.concatenate([g.indices + off for g, off in zip(graphs, node_offsets)])
    assert u.n == node_offsets[-1] and u.edge_count == sum(g.edge_count for g in graphs)
    assert np.array_equal(u.indptr, indptr) and np.array_equal(u.indices, indices)
    validate_graph(u)


def test_disjoint_union_is_block_diagonal():
    a = Graph.from_pairs(3, [(0, 1), (1, 2)])
    b = Graph.from_pairs(4, [(0, 3)])
    c = Graph.from_pairs(2, [])
    u = disjoint_union([a, b, c])
    validate_graph(u)
    assert u == Graph.from_pairs(9, [(0, 1), (1, 2), (3, 6)])
    dense = u.to_dense()
    assert np.array_equal(dense[:3, :3], a.to_dense())
    assert np.array_equal(dense[3:7, 3:7], b.to_dense())
    assert dense[:3, 3:].sum() == 0 and dense[3:7, 7:].sum() == 0
    assert disjoint_union([a]) is a
    with pytest.raises(ValueError):
        disjoint_union([])


def test_is_connected_on_codes_builds_no_csr():
    block = clique(3).to_graph()
    two = disjoint_union([block, Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])])
    assert not is_connected(two) and is_connected(block)
    assert not _has_csr(two) and not _has_csr(block)
    assert is_connected(Graph.from_pairs(0, [])) and is_connected(Graph.from_pairs(1, []))
    assert not is_connected(Graph.from_pairs(2, []))


def test_to_dense_symmetric_binary():
    g = generate(mixed_model_spec(5))
    a = g.to_dense()
    assert np.array_equal(a, a.T)
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert a.sum() == 2 * g.edge_count


def test_density_values_and_guard():
    assert density(clique(20).to_graph()) == 1.0
    assert density(Graph.from_pairs(3, [(0, 1)])) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        density(Graph.from_pairs(1, []))


def test_generator_invariants_many_specs():
    # structural invariants over a large randomized family of specs
    for i in range(1000):
        g = generate(mixed_model_spec(i, max_n=40))
        validate_graph(g)


# =====================================================================
# Erdos-Renyi
# =====================================================================


def test_er_extremes():
    assert gen_erdos_renyi(GraphGenSpec(model="er", n=2, avg_degree=1.0, seed=0)) == clique(2).to_graph()
    g = gen_erdos_renyi(GraphGenSpec(model="er", n=30, avg_degree=0.0, seed=0))
    assert g.edge_count == 0
    full = gen_erdos_renyi(GraphGenSpec(model="er", n=9, avg_degree=8.0, seed=0))
    assert full.edge_count == 36


@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_er_extremes_equal_closed_forms(n):
    # references built here, not by the generator: no pair at avg 0, and
    # every pair in np.triu_indices order at avg n - 1, block j of a stack
    # shifted by j * n nodes
    us, vs = np.triu_indices(n, k=1)
    for avg, pairs in ((0.0, (us[:0], vs[:0])), (n - 1.0, (us, vs))):
        spec = GraphGenSpec(model="er", n=n, avg_degree=avg)
        for seed in (0, 5, 2**64 - 1):
            g = generate(dataclasses.replace(spec, seed=seed))
            assert g.n == n and g.edge_codes().tobytes() == (pairs[0].astype(np.int64) * n + pairs[1]).tobytes()
        for stack in (1, 2, 5):
            size = stack * n
            seeds = [(2**64 - 2 + 3 * j) & 0xFFFFFFFFFFFFFFFF for j in range(stack)]
            want = np.concatenate([(pairs[0] + o).astype(np.int64) * size + (pairs[1] + o) for o in range(0, size, n)])
            g = generate(spec, seeds)
            assert g.n == size and g.edge_codes().tobytes() == want.tobytes()


def test_er_deterministic_per_seed():
    spec = GraphGenSpec(model="er", n=200, avg_degree=3.0, seed=77)
    assert gen_erdos_renyi(spec) == gen_erdos_renyi(spec)
    other = GraphGenSpec(model="er", n=200, avg_degree=3.0, seed=78)
    assert gen_erdos_renyi(spec) != gen_erdos_renyi(other)


def test_er_mean_edge_count_matches_binomial():
    # E[edges] = C(n,2) p = 1024 at n=1024, avg_degree=2; check the 100-seed
    # mean against a 3-sigma band of the sampling distribution of the mean
    n, avg = 1024, 2.0
    p = avg / (n - 1)
    seeds = 100
    counts = [
        gen_erdos_renyi(GraphGenSpec(model="er", n=n, avg_degree=avg, seed=s)).edge_count
        for s in range(seeds)
    ]
    expected = n * (n - 1) / 2 * p
    sigma_mean = math.sqrt(n * (n - 1) / 2 * p * (1 - p) / seeds)
    assert abs(float(np.mean(counts)) - expected) <= 3 * sigma_mean


def _er_reference(n: int, avg: float, seed: int) -> list[int]:
    """Scalar gap-skipping loop: one uniform per gap, rows walked one by one."""
    p = avg / (n - 1)
    rng = SeededRng(seed)
    total = n * (n - 1) // 2
    codes = []
    pos, i, row_start = -1, 0, 0
    while True:
        pos += 1 + int(math.log(1.0 - rng.random()) / math.log1p(-p))
        if pos >= total:
            return codes
        while pos - row_start >= n - 1 - i:
            row_start += n - 1 - i
            i += 1
        codes.append(i * n + i + 1 + (pos - row_start))


@pytest.mark.parametrize("n,avg,seeds", [(60, 0.9 * 59, 20), (2000, 0.004, 50)])
def test_er_block_refill_high_and_tiny_p(n, avg, seeds, monkeypatch):
    # without its margin the first block holds ~ the expected number of gaps,
    # so about half the seeds need a refill; the result must equal the
    # one-draw-at-a-time loop
    monkeypatch.setattr(graphs_module, "_er_block_margin", lambda mean: 0.0)
    p = avg / (n - 1)
    total = n * (n - 1) // 2
    first_block = math.ceil(total * p)
    counts = []
    for seed in range(seeds):
        g = gen_erdos_renyi(GraphGenSpec(model="er", n=n, avg_degree=avg, seed=seed))
        codes = g.edge_codes()
        assert np.all(np.diff(codes) > 0)  # unique and sorted
        us, vs = np.divmod(codes, n)
        assert np.all(us < vs) and (codes.size == 0 or vs.max() < n)
        assert g.edge_count <= total
        assert codes.tolist() == _er_reference(n, avg, seed)
        counts.append(g.edge_count)
    assert max(counts) >= first_block  # the refill path ran
    sigma_mean = math.sqrt(total * p * (1 - p) / seeds)
    assert abs(float(np.mean(counts)) - total * p) <= 3 * sigma_mean


def _counted_draws(monkeypatch) -> list:
    # (rows, count) of every block of uniforms the ER generator draws
    draws = []
    uniforms = graphs_module.stacked_uniforms
    monkeypatch.setattr(
        graphs_module, "stacked_uniforms", lambda seeds, count: draws.append((len(seeds), count)) or uniforms(seeds, count)
    )
    return draws


def test_er_first_block_reaches_the_last_pair(monkeypatch):
    # the margin of the first block makes a second draw of gaps rare
    draws = _counted_draws(monkeypatch)
    for seed in range(20):
        draws.clear()
        g = gen_erdos_renyi(GraphGenSpec(model="er", n=1024, avg_degree=2.0, seed=seed))
        assert len(draws) == 1 and draws[0][0] == 1 and draws[0][1] > g.edge_count


def _searchsorted_decode(n: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decode by binary search over row starts that the closed form replaced."""
    i = np.arange(n, dtype=np.int64)
    row_start = i * (n - 1) - i * (i - 1) // 2
    us = np.searchsorted(row_start, positions, side="right") - 1
    return us, positions - row_start[us] + us + 1


def _isqrt_decode(n: int, position: int) -> tuple[int, int]:
    """Exact integer decode: the row holds the r pairs after the r(r - 1)/2 below it."""
    back = n * (n - 1) // 2 - 1 - position
    r = (1 + math.isqrt(8 * back + 1)) // 2
    u = n - 1 - r
    return u, position - (u * (n - 1) - u * (u - 1) // 2) + u + 1


def test_closed_form_decode_equals_searchsorted_decode():
    for n in range(2, 65):
        positions = np.arange(n * (n - 1) // 2, dtype=np.int64)
        us, vs = graphs_module._decode_pairs(n, positions)
        want_us, want_vs = _searchsorted_decode(n, positions)
        assert np.array_equal(us, want_us) and np.array_equal(vs, want_vs)


@pytest.mark.parametrize("n", [1024, 10**5, 10**7, 3 * 10**9])
def test_closed_form_decode_exact_at_scale(n):
    # the first and last pair of the first, middle and last rows; at
    # n = 3e9 the codes u * n + v still fit in int64, and no graph is built
    pairs = []
    for u in (0, n // 2, n - 2):
        pairs += [(u, u + 1), (u, n - 1)]
    positions = [u * (n - 1) - u * (u - 1) // 2 + v - u - 1 for u, v in pairs]
    us, vs = graphs_module._decode_pairs(n, np.array(positions, dtype=np.int64))
    assert list(zip(us.tolist(), vs.tolist())) == pairs
    assert [_isqrt_decode(n, k) for k in positions] == pairs


def _per_seed_union(spec: GraphGenSpec, seeds: list[int]) -> Graph:
    return disjoint_union([generate(dataclasses.replace(spec, seed=s)) for s in seeds])


def _assert_same_bytes(got: Graph, want: Graph) -> None:
    assert got.n == want.n
    assert got.edge_codes().tobytes() == want.edge_codes().tobytes()


@pytest.mark.parametrize(
    "spec, stack",
    [
        (GraphGenSpec(model="er", n=1024, avg_degree=2.0), 8),
        (GraphGenSpec(model="er", n=2048, avg_degree=2.0), 3),  # the golden pipeline's shape
        (GraphGenSpec(model="er", n=1024, avg_degree=2.0), 1),
        (GraphGenSpec(model="er", n=200, avg_degree=0.0), 4),
        (GraphGenSpec(model="er", n=40, avg_degree=39.0), 4),
        (GraphGenSpec(model="er", n=300, avg_degree=150.0), 5),
        (GraphGenSpec(model="sw", n=300, k=10, beta=0.2), 4),
        (GraphGenSpec(model="ba", n=300, m=3), 4),
    ],
    ids=["er-8", "er-3", "er-1", "er-empty", "er-complete", "er-dense", "sw-4", "ba-4"],
)
def test_stack_equals_union_of_per_seed_graphs(spec, stack):
    for first in (0, 8, 2**64 - 2):
        seeds = [(first + 7919 * j) & 0xFFFFFFFFFFFFFFFF for j in range(stack)]
        _assert_same_bytes(generate(spec, seeds), _per_seed_union(spec, seeds))


@pytest.mark.parametrize("n,avg,seeds", [(60, 0.9 * 59, 20), (2000, 0.004, 50)])
def test_er_stack_short_rows_draw_twice_the_gaps(n, avg, seeds, monkeypatch):
    # the specs of the refill test, without margin: about half the rows of a
    # stack end short of the last pair, and a stack with a short row draws
    # again with twice the gaps, as often as it takes
    monkeypatch.setattr(graphs_module, "_er_block_margin", lambda mean: 0.0)
    spec = GraphGenSpec(model="er", n=n, avg_degree=avg)
    per_seed = [generate(dataclasses.replace(spec, seed=s)) for s in range(seeds)]
    p = avg / (n - 1)
    total = n * (n - 1) // 2
    first_block = math.ceil(total * p)
    # a row is short when its first block's last position falls before the last pair
    gaps = [geometric_gaps(SeededRng(s).uniforms(first_block), p) for s in range(seeds)]
    short = [np.minimum(g, total).sum() + first_block - 1 < total for g in gaps]
    assert 0 < sum(short) < seeds
    draws = _counted_draws(monkeypatch)
    monkeypatch.setattr(graphs_module, "gen_erdos_renyi", lambda spec: pytest.fail("per-seed ER graph built"))
    for first in range(0, seeds, 5):
        stack = list(range(first, first + 5))
        draws.clear()
        got = generate(spec, stack)
        _assert_same_bytes(got, disjoint_union([per_seed[s] for s in stack]))
        for s in stack:
            assert per_seed[s].edge_codes().tolist() == _er_reference(n, avg, s)
        assert draws == [(5, first_block << i) for i in range(len(draws))]
        assert (len(draws) > 1) == any(short[s] for s in stack)


def test_er_stack_first_block_reaches_the_last_pair(monkeypatch):
    # as for one graph, the margin makes a short row rare: none of 20 stacks
    # of 8 at n=1024 draws twice
    draws = _counted_draws(monkeypatch)
    spec = GraphGenSpec(model="er", n=1024, avg_degree=2.0)
    for stack in range(20):
        g = generate(spec, range(8 * stack, 8 * stack + 8))
        assert g.n == 8 * 1024 and g.edge_count > 0
    assert len(draws) == 20 and all(rows == 8 for rows, _ in draws)


@pytest.mark.parametrize(
    "spec",
    [
        GraphGenSpec(model="er", n=100, avg_degree=2.0),
        GraphGenSpec(model="sw", n=100, k=4),
        GraphGenSpec(model="ba", n=100, m=2),
    ],
    ids=["er", "sw", "ba"],
)
def test_empty_seed_list_is_an_error(spec):
    with pytest.raises(ValueError, match="empty seed list"):
        generate(spec, [])
    with pytest.raises(ValueError, match="empty seed list"):
        generate(spec, iter(()))


@pytest.mark.parametrize("n,avg", [(1_500_000_000, 2e-9), (2_000_000_000, 1e-8), (3_000_000_000, 2e-9)])
def test_er_at_tiny_p_keeps_only_pairs_before_the_last(n, avg):
    # each gap is capped at the pair count, so a row's running sums past
    # the last pair can pass 2**63 and wrap negative; none of them may
    # become an edge, and none may end the draw early or late
    spec = GraphGenSpec(model="er", n=n, avg_degree=avg)
    edges = 0
    for seed in range(20):
        codes = generate(dataclasses.replace(spec, seed=seed)).edge_codes()
        us, vs = np.divmod(codes, n)
        assert np.all(np.diff(codes) > 0) and np.all(0 <= us) and np.all(us < vs) and np.all(vs < n)
        edges += codes.size
    mean = 20 * n * avg / 2
    assert abs(edges - mean) <= 6 * math.sqrt(mean) + 1


def test_node_counts_whose_codes_overflow_int64_are_rejected():
    big = graphs_module._MAX_NODES
    assert big * big <= 2**63 - 1 < (big + 1) ** 2
    spec = GraphGenSpec(model="er", n=big, avg_degree=0.0)
    assert generate(spec).n == big
    with pytest.raises(ValueError, match="int64"):
        GraphGenSpec(model="er", n=big + 1, avg_degree=2e-9)
    # a stack of len(seeds) * n nodes must fit too
    half = GraphGenSpec(model="er", n=big // 2, avg_degree=2e-9)
    _assert_same_bytes(generate(half, [1, 2]), _per_seed_union(half, [1, 2]))
    with pytest.raises(ValueError, match="int64"):
        generate(half, [1, 2, 3])
    with pytest.raises(ValueError, match="int64"):
        Graph._from_codes(big + 1, np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="int64"):
        Graph.from_pairs(big + 1, [])


def test_codes_decode_exactly_at_the_largest_node_count():
    # codes near 2**63 - 1 decode to their pairs, and re-base in a union,
    # with no rounding: checked against Python ints
    big = graphs_module._MAX_NODES
    top = [(big - 3, big - 2), (big - 3, big - 1), (big - 2, big - 1)]
    g = Graph.from_pairs(big, top)
    assert g.edge_pairs().tolist() == [list(p) for p in top]
    a = graphs_module.adjacency(g)
    assert sorted(zip(a.col.tolist(), a.row.tolist())) == sorted(top + [(v, u) for u, v in top])
    half = big // 2
    parts = [[(0, half - 1), (half - 2, half - 1)], [(half - 3, half - 1), (half - 2, half - 1)]]
    union = disjoint_union([Graph.from_pairs(half, p) for p in parts])
    want = sorted((u + i * half) * (2 * half) + (v + i * half) for i, p in enumerate(parts) for u, v in p)
    assert union.n == 2 * half
    assert union.edge_codes().tolist() == want


@pytest.mark.parametrize(
    "model, params",
    [("er", dict(avg_degree=2.0)), ("ba", dict(m=2)), ("sw", dict(k=4))],
)
@pytest.mark.parametrize("beta", [-0.1, 1.5, math.nan, math.inf])
def test_beta_outside_unit_interval_is_rejected_for_every_model(model, params, beta):
    # every spec carries beta into reports, whether or not its model reads it
    with pytest.raises(ValueError, match="beta"):
        GraphGenSpec(model=model, n=10, beta=beta, **params)
    for ok in (0.0, 1.0):
        assert GraphGenSpec(model=model, n=10, beta=ok, **params).beta == ok


def test_er_spec_validation():
    with pytest.raises(ValueError):
        GraphGenSpec(model="er", n=10, avg_degree=9.5)
    with pytest.raises(ValueError):
        GraphGenSpec(model="er", n=10, avg_degree=-0.1)
    with pytest.raises(ValueError):
        GraphGenSpec(model="er", n=1, avg_degree=0.0)
    with pytest.raises(ValueError):
        GraphGenSpec(model="er", n=10, avg_degree=2.0, m=3)
    with pytest.raises(ValueError):
        GraphGenSpec(model="er", n=10)
    with pytest.raises(ValueError):
        gen_erdos_renyi(GraphGenSpec(model="ba", n=10, m=2))


# =====================================================================
# Preferential attachment
# =====================================================================


def test_ba_smallest_cases():
    assert gen_barabasi_albert(GraphGenSpec(model="ba", n=3, m=2, seed=0)) == clique(3).to_graph()
    tree = gen_barabasi_albert(GraphGenSpec(model="ba", n=50, m=1, seed=4))
    assert tree.edge_count == 49
    assert is_connected(tree)


def test_ba_edge_count_identity_and_mean_degree():
    n, m = 1024, 10
    g = gen_barabasi_albert(GraphGenSpec(model="ba", n=n, m=m, seed=2))
    assert g.edge_count == m * (m + 1) // 2 + m * (n - m - 1)
    assert 19.0 <= g.mean_degree <= 20.0
    assert is_connected(g)


def test_ba_hubs_emerge():
    g = gen_barabasi_albert(GraphGenSpec(model="ba", n=800, m=4, seed=6))
    # preferential attachment grows degrees far above the attachment count
    assert g.max_degree > 8 * 4


def test_ba_deterministic():
    spec = GraphGenSpec(model="ba", n=300, m=3, seed=12)
    assert gen_barabasi_albert(spec) == gen_barabasi_albert(spec)


def test_ba_spec_validation():
    with pytest.raises(ValueError):
        GraphGenSpec(model="ba", n=5, m=0)
    with pytest.raises(ValueError):
        GraphGenSpec(model="ba", n=5, m=5)
    with pytest.raises(ValueError):
        GraphGenSpec(model="ba", n=5, m=2, avg_degree=1.0)


# =====================================================================
# Rewired ring lattice
# =====================================================================


def test_sw_pure_ring():
    g = gen_watts_strogatz(GraphGenSpec(model="sw", n=10, k=2, beta=0.0, seed=0))
    assert g.edge_count == 10
    for u in range(10):
        assert sorted(g.neighbors(u).tolist()) == sorted({(u - 1) % 10, (u + 1) % 10})
    g4 = gen_watts_strogatz(GraphGenSpec(model="sw", n=6, k=4, beta=0.0, seed=0))
    for u in range(6):
        expected = {(u + d) % 6 for d in (-2, -1, 1, 2)}
        assert set(g4.neighbors(u).tolist()) == expected


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_sw_edge_count_preserved(beta):
    n, k = 64, 6
    g = gen_watts_strogatz(GraphGenSpec(model="sw", n=n, k=k, beta=beta, seed=9))
    assert g.edge_count == n * k // 2
    validate_graph(g)


def test_sw_rewiring_changes_ring():
    ring = gen_watts_strogatz(GraphGenSpec(model="sw", n=100, k=4, beta=0.0, seed=1))
    rewired = gen_watts_strogatz(GraphGenSpec(model="sw", n=100, k=4, beta=0.5, seed=1))
    assert ring != rewired


def _sw_reference(n: int, k: int, beta: float, seed: int) -> Graph:
    """Adjacency-set rewiring that reads the same stream as the generator."""
    rng = SeededRng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for off in range(1, k // 2 + 1):
            adj[u].add((u + off) % n)
            adj[(u + off) % n].add(u)
    decisions = rng.uniforms(n * (k // 2)).tolist()
    for j, d in enumerate(decisions):
        u, old = j % n, (j % n + j // n + 1) % n
        if d >= beta or len(adj[u]) >= n - 1:
            continue
        while True:
            w = int(rng.random() * n)
            if w != u and w not in adj[u]:
                break
        adj[u].discard(old)
        adj[old].discard(u)
        adj[u].add(w)
        adj[w].add(u)
    return Graph.from_pairs(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


# (1000, 10, 1.0) rewires all 5000 lattice edges, so its endpoints take more
# than one _FEED_BLOCK of 4096 uniforms; (1024, 40, 0.1) is the benchmark's SW;
# every edge of (9, 8, 1.0) and a few of (13, 10, 1.0) find no endpoint to
# rewire to and stay
@pytest.mark.parametrize(
    "n,k,beta",
    [(9, 8, 1.0), (12, 8, 0.9), (13, 10, 1.0), (40, 6, 0.5), (300, 10, 0.1), (1000, 10, 1.0), (1024, 40, 0.1)],
)
def test_sw_matches_adjacency_set_reference(n, k, beta):
    for seed in range(10):
        spec = GraphGenSpec(model="sw", n=n, k=k, beta=beta, seed=seed)
        assert gen_watts_strogatz(spec) == _sw_reference(n, k, beta, seed)


# SHA-256 of the edge codes of the benchmark's SW and BA graphs, seeds 0-2,
# pinned before the SW lattice was cached and merged instead of sorted
_PINNED_CODES = {
    ("sw", 0): "9d10b7af004176ce03a034151f7ec575bd6a2690af1e8ec116259e56b36d0742",
    ("sw", 1): "0362e3f9da1c8bd76f52659673c5498ef7dd61ee04382fcd521c76420b85b7b6",
    ("sw", 2): "e4b952f87fcf2a046913a366879673e1e07e0e4b1d644f2385bac6f4a156fc99",
    ("ba", 0): "30930bdbeae4e8b051800f3a8a0a4e2013f301426544b65ab543d5f75bf51b34",
    ("ba", 1): "d2adb948d48d3b17cbe06ba0abf380dac7b9783bdece0f90cdb776910fecd6c6",
    ("ba", 2): "809cf9b62f506e6862c797fe4eaf9de28cb850e8697804e2b9f93a8147d8c9d9",
}


@pytest.mark.parametrize("model, seed", list(_PINNED_CODES))
def test_sw_and_ba_generators_pinned(model, seed):
    if model == "sw":
        spec = GraphGenSpec(model="sw", n=1024, k=40, beta=0.1, seed=seed)
    else:
        spec = GraphGenSpec(model="ba", n=1024, m=10, seed=seed)
    digest = hashlib.sha256(generate(spec).edge_codes().tobytes()).hexdigest()
    assert digest == _PINNED_CODES[model, seed]


def test_sw_lattice_is_cached_read_only():
    # two graphs of one (n, k) share the lattice, which no caller can change
    graphs_module._ring_lattice.cache_clear()
    for seed in range(2):
        gen_watts_strogatz(GraphGenSpec(model="sw", n=300, k=10, beta=0.1, seed=seed))
    assert graphs_module._ring_lattice.cache_info().hits == 1
    n, k = 300, 10
    lattice = graphs_module._ring_lattice(n, k)
    assert not lattice.flags.writeable
    ends = [(j % n, (j % n + j // n + 1) % n) for j in range(n * k // 2)]
    assert lattice.tolist() == sorted(min(u, v) * n + max(u, v) for u, v in ends)


@pytest.mark.parametrize("seed", range(5))
def test_sw_rewired_count_binomial(seed):
    # each of the nk/2 lattice edges is rewired with prob beta; an edge whose
    # ring distance exceeds k/2 is a rewired one (a rewire back onto a lattice
    # pair is rare at this n, and the slack of 5 covers it)
    n, k, beta = 2000, 10, 0.2
    g = gen_watts_strogatz(GraphGenSpec(model="sw", n=n, k=k, beta=beta, seed=seed))
    assert g.edge_count == n * k // 2
    us, vs = np.divmod(g.edge_codes(), n)
    dist = np.minimum(vs - us, n - (vs - us))
    rewired = int(np.count_nonzero(dist > k // 2))
    trials = n * k // 2
    sigma = math.sqrt(trials * beta * (1 - beta))
    assert trials * beta - 4 * sigma - 5 <= rewired <= trials * beta + 4 * sigma


def test_sw_spec_validation():
    with pytest.raises(ValueError):
        GraphGenSpec(model="sw", n=10, k=3)  # odd
    with pytest.raises(ValueError):
        GraphGenSpec(model="sw", n=10, k=10)  # k >= n
    with pytest.raises(ValueError):
        GraphGenSpec(model="sw", n=10, k=4, beta=1.5)
    with pytest.raises(ValueError):
        GraphGenSpec(model="sw", n=10, k=4, m=2)


# =====================================================================
# Targets
# =====================================================================


def test_clique_target():
    t = clique(20)
    assert t.t == 20
    assert t.edge_count == 190
    assert density(t.to_graph()) == 1.0
    with pytest.raises(ValueError):
        clique(1)


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec(1, ())
    with pytest.raises(ValueError):
        TargetSpec(3, ((0, 0),))
    with pytest.raises(ValueError):
        TargetSpec(3, ((0, 3),))
    with pytest.raises(ValueError):
        TargetSpec(3, ((0, 1), (1, 0)))
    # orientation is canonicalized
    t = TargetSpec(3, ((2, 0), (1, 0)))
    assert t.edges == ((0, 1), (0, 2))


def test_canonical_sparse_target_shape():
    t = canonical_sparse_target(0)
    assert t.t == 20
    assert t.edge_count == 21
    deg = t.degrees()
    assert deg.max() == 4
    assert deg.min() >= 1
    g = t.to_graph()
    assert is_connected(g)
    assert g.mean_degree == pytest.approx(2.1)
    assert density(g) == pytest.approx(21 / 190)


def test_canonical_sparse_target_pinned_for_seed_zero():
    # frozen output of the pinned construction; guards RNG/stream stability
    assert canonical_sparse_target(0).edges == (
        (0, 9), (0, 19), (1, 3), (1, 4), (1, 11), (1, 14), (2, 15),
        (3, 6), (4, 6), (4, 12), (5, 15), (6, 11), (7, 12), (8, 10),
        (9, 12), (9, 16), (10, 12), (10, 13), (11, 15), (13, 18), (15, 17),
    )


@pytest.mark.parametrize("seed", range(8))
def test_canonical_sparse_target_constraints_any_seed(seed):
    t = canonical_sparse_target(seed)
    assert t.t == 20 and t.edge_count == 21
    assert t.degrees().max() == 4
    assert is_connected(t.to_graph())
    assert canonical_sparse_target(seed) == t  # deterministic


def test_canonical_sparse_target_varies_with_seed():
    assert canonical_sparse_target(0) != canonical_sparse_target(1)


# =====================================================================
# Edge-list IO
# =====================================================================


def test_read_basic_path_graph():
    g = read_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.n == 3
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2)


def test_read_symmetrizes_and_ignores_comments():
    text = "# a comment\n\n2 1\n   \n0 2\n"
    g = read_edge_list(io.StringIO(text))
    assert g.n == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 0)


def test_read_nodes_header_keeps_isolated_nodes():
    g = read_edge_list(io.StringIO("# nodes: 7\n0 1\n"))
    assert g.n == 7
    assert g.degrees.tolist() == [1, 1, 0, 0, 0, 0, 0]


def test_read_num_nodes_override():
    g = read_edge_list(io.StringIO("0 1\n"), num_nodes=5)
    assert g.n == 5


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("0 1\n2 2\n", 2),           # self-loop
        ("0 1\n1 0\n", 2),           # duplicate after symmetrization
        ("0 1\nx 2\n", 2),           # non-integer token
        ("0 1\n1.5 2\n", 2),         # float token
        ("0 1 2\n", 1),              # wrong arity
        ("-1 2\n", 1),               # negative label
        ("# nodes: 2\n0 1\n0 3\n", 3),  # label beyond declared count
    ],
)
def test_read_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(EdgeListParseError) as exc_info:
        read_edge_list(io.StringIO(text))
    assert exc_info.value.line_no == bad_line
    assert f"line {bad_line}" in str(exc_info.value)


def test_write_emits_header_and_pairs():
    g = Graph.from_pairs(4, [(0, 1), (2, 3)])
    buf = io.StringIO()
    write_edge_list(g, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# nodes: 4"
    assert lines[1] == "# edges: 2"
    assert lines[2:] == ["0 1", "2 3"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_identity(spec_index):
    g = generate(mixed_model_spec(spec_index, max_n=40))
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    assert read_edge_list(buf) == g


def test_round_trip_empty_graph():
    g = Graph.from_pairs(12, [])
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    assert read_edge_list(buf) == g
