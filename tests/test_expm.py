"""Krylov matrix-exponential action against closed forms and the dense oracle."""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from communifind import (
    Graph,
    GraphGenSpec,
    KrylovParams,
    NumericalBreakdownError,
    ScoreVector,
    clique,
    disjoint_union,
    expm_action,
    expm_dense_oracle,
    generate,
    top_k,
)
from communifind import communicability, expm, graphs
from communifind.expm import _relative_change
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


def test_long_solve_matches_expm_multiply():
    # beyond 30 steps: one recurrence, no restart, under the default budget
    g = generate(GraphGenSpec(model="sw", n=4096, k=100, beta=0.02, seed=3))
    res = expm_action(g, np.ones(g.n))
    assert res.converged
    assert res.iterations > 30
    a = scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    reference = scipy.sparse.linalg.expm_multiply(a, np.ones(g.n))
    assert np.abs(res.value / reference - 1.0).max() <= 1e-7


def test_unconverged_result_reports_honest_error():
    g = generate(GraphGenSpec(model="ba", n=400, m=8, seed=1))
    res = expm_action(g, np.ones(400), KrylovParams(m=3, tol=1e-12))
    assert np.all(np.isfinite(res.value))
    assert res.est_error > 1e-12


def test_est_error_within_tol_when_converged():
    g = generate(GraphGenSpec(model="sw", n=200, k=6, beta=0.1, seed=8))
    params = KrylovParams(m=40, tol=1e-9)
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


def test_zero_node_graph_is_named_in_the_error():
    # ones(0) has the right length: the error is about the graph, not the vector
    with pytest.raises(ValueError, match="0 nodes"):
        expm_action(Graph.from_pairs(0, []), np.ones(0))


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
    with pytest.raises(ValueError, match="tol"):
        KrylovParams(tol=math.inf)


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


def test_zero_block_converges_with_the_other():
    # exp(A) 0 = 0 exactly: a block that stays zero must not hold the solve
    # to its budget
    g = generate(GraphGenSpec(model="er", n=200, avg_degree=4.0, seed=1))
    lone = expm_action(g, np.ones(200))
    res = expm_action(disjoint_union([g, g]), np.r_[np.ones(200), np.zeros(200)], blocks=2)
    assert res.converged
    assert res.iterations == lone.iterations
    assert np.all(res.value[200:] == 0.0)
    assert res.value[:200] == pytest.approx(lone.value, rel=1e-12)
    # a block that has just become zero still counts as changed
    assert _relative_change(np.r_[1.0, 0.0], np.r_[1.0, 0.0], 2) == 0.0
    assert _relative_change(np.r_[1.0, 0.0], np.r_[1.0, 1.0], 2) == np.inf


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
    res = expm_action(_sw2000(), np.ones(2000), KrylovParams(m=8))
    assert not res.converged
    assert res.iterations == 8
    assert 1e-3 < res.est_error < 1e-2


def test_huge_step_budget_keeps_the_solve():
    # the projected matrix grows with the basis, so a budget far beyond
    # memory allocates only what the solve uses
    for g in (_sw2000(), Graph.from_pairs(3, [(0, 1), (1, 2)])):
        default = expm_action(g, np.ones(g.n), KrylovParams(m=150))
        huge = expm_action(g, np.ones(g.n), KrylovParams(m=10**15))
        assert huge.value.tobytes() == default.value.tobytes()
        assert (huge.est_error, huge.iterations, huge.converged) == (default.est_error, default.iterations, True)


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


def test_overflow_raises_breakdown():
    # exp(759) overflows: the exact one-step answer is not representable
    with pytest.raises(NumericalBreakdownError):
        expm_action(clique(760).to_graph(), np.ones(760))


def test_overflowing_screen_warns_nothing_and_keeps_the_value():
    # exp(699) is finite, but the squares of the screen's norms overflow:
    # the inf they give forms the iterate on purpose, so no warning leaks
    g = clique(700).to_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = expm_action(g, np.ones(700))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loud = expm_action(g, np.ones(700))
    assert loud.converged and loud.value.tobytes() == quiet.value.tobytes()
    # exp amplifies the rounding of alpha = 699 by 699
    assert np.abs(loud.value / math.exp(699) - 1.0).max() <= 1e-10


def test_tridiagonal_eigensolver_failure_raises_breakdown(monkeypatch):
    def failing_dstevd(d, e):
        return np.zeros(d.size), np.eye(d.size), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing_dstevd)
    g = generate(GraphGenSpec(model="er", n=100, avg_degree=4.0, seed=2))
    with pytest.raises(NumericalBreakdownError, match="info=3"):
        expm_action(g, np.ones(100))


# =====================================================================
# Accuracy of the recurrence without reorthogonalization
# =====================================================================


def _er_stack():
    return disjoint_union(
        [generate(GraphGenSpec(model="er", n=1024, avg_degree=2.0, seed=40 + b)) for b in range(8)]
    ), 8


def _sw_stack():
    return disjoint_union(
        [generate(GraphGenSpec(model="sw", n=1024, k=40, beta=0.1, seed=50 + b)) for b in range(2)]
    ), 2


def _er_dense():
    return generate(GraphGenSpec(model="er", n=1024, avg_degree=39.0, seed=60)), 1


def _ba():
    return generate(GraphGenSpec(model="ba", n=1024, m=10, seed=70)), 1


# the headline solves, with the steps they took under full reorthogonalization
_HEADLINE = [(_er_stack, 15), (_sw_stack, 26), (_er_dense, 12), (_ba, 13)]
_HEADLINE_IDS = ["er-stack-8", "sw-stack-2", "er-avg-39", "ba-m-10"]


def _block_errors(value: np.ndarray, reference: np.ndarray, blocks: int) -> np.ndarray:
    diff = np.linalg.norm((value - reference).reshape(blocks, -1), axis=1)
    return diff / np.linalg.norm(reference.reshape(blocks, -1), axis=1)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_meets_tol_against_dense_oracle(tol):
    # small mixed graphs, and a stack of four whose third block is weak
    params = KrylovParams(tol=tol)
    for index in range(0, 60, 7):
        g = generate(mixed_model_spec(index, max_n=512))
        reference = expm_dense_oracle(g).sum(axis=1)
        res = expm_action(g, np.ones(g.n), params)
        assert res.converged
        assert _block_errors(res.value, reference, 1).max() <= tol
    stack = disjoint_union(
        [generate(GraphGenSpec(model="er", n=128, avg_degree=a, seed=s)) for s, a in enumerate((2.0, 2.0, 0.5, 4.0))]
    )
    res = expm_action(stack, np.ones(512), params, blocks=4)
    assert res.converged
    assert _block_errors(res.value, expm_dense_oracle(stack).sum(axis=1), 4).max() <= tol


@pytest.mark.parametrize("host, steps", _HEADLINE, ids=_HEADLINE_IDS)
def test_headline_solves_match_expm_multiply(host, steps):
    g, blocks = host()
    params = KrylovParams()
    res = expm_action(g, np.ones(g.n), params, blocks=blocks)
    assert res.converged
    assert res.iterations <= steps
    a = scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    reference = scipy.sparse.linalg.expm_multiply(a, np.ones(g.n))
    assert _block_errors(res.value, reference, blocks).max() <= params.tol
    summed = res.value.reshape(blocks, -1).sum(axis=0)
    want = reference.reshape(blocks, -1).sum(axis=0)
    assert np.array_equal(top_k(ScoreVector(summed, "tc_sum", blocks), 20), top_k(ScoreVector(want, "tc_sum", blocks), 20))


@pytest.mark.parametrize("host, steps", _HEADLINE, ids=_HEADLINE_IDS)
def test_screen_does_not_delay_the_stop(host, steps, monkeypatch):
    # with an infinite slack the screen never skips a step: every iterate is
    # formed and tested, and the stopping step and the bits must not change
    g, blocks = host()
    screened = expm_action(g, np.ones(g.n), blocks=blocks)
    monkeypatch.setattr(expm, "_SCREEN_SLACK", np.inf)
    every = expm_action(g, np.ones(g.n), blocks=blocks)
    assert every.iterations == screened.iterations
    assert np.array_equal(every.value, screened.value)
    assert every.est_error == screened.est_error


@pytest.mark.parametrize("host, steps", _HEADLINE, ids=_HEADLINE_IDS)
def test_bound_skips_projected_solves(host, steps, monkeypatch):
    calls = []
    first_col = expm._expm_first_col
    monkeypatch.setattr(expm, "_expm_first_col", lambda a, b: calls.append(a.size) or first_col(a, b))
    g, blocks = host()
    res = expm_action(g, np.ones(g.n), blocks=blocks)
    # no step skips its projected solve, and none is repeated: one a step,
    # in step order, sparse and dense spectra alike
    assert calls == list(range(1, res.iterations + 1))


def test_values_bit_identical_across_calls():
    # a second build of the same stack, so no state is shared between calls
    (g, blocks), (h, _) = _sw_stack(), _sw_stack()
    first = expm_action(g, np.ones(g.n), blocks=blocks)
    again = expm_action(h, np.ones(h.n), blocks=blocks)
    assert np.array_equal(first.value, again.value)
    assert (first.est_error, first.iterations) == (again.est_error, again.iterations)


# SHA-256 of the value bytes, the steps and est_error of each default
# headline solve, taken before expm_action had its certificate hook
_HEADLINE_BYTES = {
    "er-stack-8": ("5c63500450ba384e410d7a15880facd406bcbc6dbb95603a33526bbd75ac21cc", 15, 5.211160648844624e-09),
    "sw-stack-2": ("ee5a1e354aa6643ea8fdc0ca19947784087715c44d4dc6c91bb010b5be44d439", 26, 5.307823565926322e-09),
    "er-avg-39": ("0ce7c1447c0d489324d2b3bed1eadbc7ed08f1a0a60447629189e42c5b8bd7a3", 12, 1.6275708089838075e-09),
    "ba-m-10": ("bbe54cad346cc702003861cfacab6229b22e7c25dc847686e0307bf0fe1928ed", 13, 6.5668480703358264e-09),
}
# The rounding of the kernels a solve calls (numpy's exp, BLAS dot and gemv,
# LAPACK dstevd) on fixed inputs, where the digests were taken: numpy 2.4 and
# its bundled OpenBLAS with the Haswell kernels, on x86-64.  Other kernels
# round differently, and the digests do not apply there.
_KERNELS = "7cc58d1d943e2cdc49af6a15576a9ff608e24c9036fb46f16a6f24771406311d"


def _kernels() -> str:
    t = np.linspace(-40.0, 40.0, 97)
    a = np.sin(np.arange(4096.0)) + 1.5
    b = np.cos(np.arange(15 * 4096.0)).reshape(15, 4096)
    w, q, _ = scipy.linalg.lapack.dstevd(t[:15] / 7.0, t[20:34] / 9.0 + 5.0)
    parts = (np.exp(t), np.array([a @ a]), b.T @ t[:15], w, q)
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


@pytest.mark.parametrize("host, name", zip([host for host, _ in _HEADLINE], _HEADLINE_IDS), ids=_HEADLINE_IDS)
def test_solves_without_the_hook_keep_their_bytes(host, name):
    if _kernels() != _KERNELS:
        pytest.skip("this platform's exp, BLAS or LAPACK kernels round unlike those the digests were taken with")
    g, blocks = host()
    res = expm_action(g, np.ones(g.n), blocks=blocks)
    got = (hashlib.sha256(res.value.tobytes()).hexdigest(), res.iterations, res.est_error)
    assert got == _HEADLINE_BYTES[name]
    assert res.converged and not res.certified


class _Never:
    """A certificate hook that is offered every iterate from the first step
    whose projected change is at most 1e-2 on, and never stops the solve."""

    screen = 1e-2

    def __init__(self) -> None:
        self.offered = 0

    def __call__(self, x, x_prev) -> bool:
        self.offered += 1
        return False


@pytest.mark.parametrize("host, steps", _HEADLINE, ids=_HEADLINE_IDS)
def test_hook_that_never_stops_keeps_the_bytes(host, steps):
    # the hook forms more iterates, but tol is tested only where the plain
    # screen forms them: the solve ends as one without the hook
    g, blocks = host()
    plain = expm_action(g, np.ones(g.n), blocks=blocks)
    hook = _Never()
    hooked = expm_action(g, np.ones(g.n), blocks=blocks, _certify=hook)
    assert hook.offered >= 2
    assert hooked.value.tobytes() == plain.value.tobytes()
    assert (hooked.est_error, hooked.iterations, hooked.converged) == (plain.est_error, plain.iterations, True)
    assert not hooked.certified


def _counted_growths(monkeypatch) -> list:
    grown = []
    vstack = np.vstack
    monkeypatch.setattr(np, "vstack", lambda arrays: grown.append(len(arrays[0])) or vstack(arrays))
    return grown


def test_basis_growth_keeps_the_solve(monkeypatch):
    # a first block of 4 rows grows three times in the 26 steps of
    # sw-stack-2, which fit in the default block: the bits must not change
    g, blocks = _sw_stack()
    default = expm_action(g, np.ones(g.n), blocks=blocks)
    grown = _counted_growths(monkeypatch)
    monkeypatch.setattr(expm, "_BASIS_BYTES", 4 * 8 * g.n + 1)
    monkeypatch.setattr(expm, "_BASIS_MIN_ROWS", 1)
    small = expm_action(g, np.ones(g.n), blocks=blocks)
    assert len(grown) >= 2
    assert small.value.tobytes() == default.value.tobytes()
    assert (small.est_error, small.iterations) == (default.est_error, default.iterations)


def test_full_stack_certified_solve_stays_in_its_first_block(monkeypatch):
    # a memory-design check, not a correctness one: a full stack's first
    # block holds the floor's rows (8 MiB at n = 40960, above numpy's 4 MiB
    # huge-page threshold), and the certified solve of a full stack of
    # sparse backgrounds, like its plain solve to tol, grows no block
    per_stack = communicability.hosts_per_stack(1024)
    n = per_stack * 1024
    assert expm._basis_rows(n) == expm._BASIS_MIN_ROWS
    grown = _counted_growths(monkeypatch)
    g = generate(GraphGenSpec(model="er", n=1024, avg_degree=2.0), seeds=range(40, 40 + per_stack))
    got = communicability._certified_stacks([(g, per_stack)], KrylovParams(), k=20, backgrounds=per_stack)
    assert got.margin > 1.0 and got.scores.num_backgrounds == per_stack
    res = expm_action(g, np.ones(n), blocks=per_stack)
    assert res.converged and grown == []


# =====================================================================
# The coordinate product
# =====================================================================


def _star(leaves: int) -> Graph:
    # node 0 joined to every other node: codes 0 * n + v
    return Graph._from_codes(leaves + 1, np.arange(1, leaves + 1, dtype=np.int64))


_PRODUCT_GRAPHS = {
    "er": lambda: generate(GraphGenSpec(model="er", n=1024, avg_degree=2.0, seed=3)),
    "sw": lambda: generate(GraphGenSpec(model="sw", n=1024, k=40, beta=0.1, seed=3)),
    "ba": lambda: generate(GraphGenSpec(model="ba", n=1024, m=10, seed=3)),
    "er-stack-8": lambda: _er_stack()[0],
    "edgeless": lambda: Graph.from_pairs(7, []),
    "one-node": lambda: Graph.from_pairs(1, []),
    "isolated-nodes": lambda: Graph.from_pairs(9, [(1, 7), (7, 3), (3, 1), (7, 8)]),
    # labels past 16 bits in the node-order reference rows
    "star-70000": lambda: _star(70_000),
    "union-2": lambda: disjoint_union(
        [generate(GraphGenSpec(model="ba", n=1024, m=10, seed=3)), Graph.from_pairs(9, [(1, 7), (7, 3)])]
    ),
}


@pytest.mark.parametrize("make", _PRODUCT_GRAPHS.values(), ids=_PRODUCT_GRAPHS.keys())
def test_solve_operator_product_is_node_order_product(make):
    # bit for bit: a SciPy change to the coordinate product's accumulation
    # order fails here, before it moves any score
    g = make()
    a = graphs.adjacency(g)
    node_order = scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.standard_normal(g.n)
        assert np.array_equal(a @ x, node_order @ x)


def test_solve_builds_its_operator_once(monkeypatch):
    built = []
    adjacency = graphs.adjacency
    monkeypatch.setattr(graphs, "adjacency", lambda g: built.append(g) or adjacency(g))
    g, blocks = _er_stack()
    res = expm_action(g, np.ones(g.n), blocks=blocks)
    assert res.iterations > 1 and len(built) == 1 and built[0] is g
