"""Score vectors: closed forms, oracle agreement, aggregation, CSV output."""

from __future__ import annotations

import dataclasses
import gc
import io
import math
import weakref

import numpy as np
import pytest

from communifind import (
    ExperimentConfig,
    Graph,
    GraphGenSpec,
    KrylovNotConvergedError,
    KrylovParams,
    NumericalBreakdownError,
    ScoreVector,
    accumulate,
    canonical_sparse_target,
    clique,
    disjoint_union,
    expm_action,
    expm_dense_oracle,
    generate,
    run_pipeline,
    subgraph_centrality,
    summed_total_communicability,
    top_k,
    total_communicability,
    write_scores_csv,
)
from communifind import communicability, expm
from conftest import mixed_model_spec


# =====================================================================
# Closed forms
# =====================================================================


def test_closed_walk_score_single_edge():
    sv = subgraph_centrality(clique(2).to_graph())
    # exp([[0,1],[1,0]]) has cosh(1) on the diagonal
    assert sv.scores == pytest.approx([math.cosh(1.0)] * 2, rel=1e-14)
    assert sv.scores[0] == pytest.approx(1.5430806348152437, rel=1e-15)


def test_closed_walk_score_triangle():
    sv = subgraph_centrality(clique(3).to_graph())
    # spectrum {2, -1, -1} with equal diagonal weight: (e^2 + 2 e^-1) / 3
    expected = (math.exp(2.0) + 2.0 * math.exp(-1.0)) / 3.0
    assert expected == pytest.approx(2.7082716604245114, rel=1e-15)
    assert sv.scores == pytest.approx([expected] * 3, rel=1e-14)


def test_row_sum_score_single_edge():
    sv = total_communicability(clique(2).to_graph())
    assert sv.scores == pytest.approx([math.e, math.e], rel=1e-12)


def test_isolated_nodes_score_exactly_one():
    g = Graph.from_pairs(4, [(0, 1)])
    sv = total_communicability(g)
    assert sv.scores[2] == pytest.approx(1.0, rel=1e-12)
    assert sv.scores[3] == pytest.approx(1.0, rel=1e-12)


# =====================================================================
# Agreement with the dense oracle
# =====================================================================


@pytest.mark.parametrize("index", range(0, 24, 3))
def test_closed_walk_matches_oracle_diagonal(index):
    g = generate(mixed_model_spec(index, max_n=150))
    sv = subgraph_centrality(g)
    reference = np.diag(expm_dense_oracle(g))
    assert sv.scores == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("index", range(0, 24, 3))
def test_row_sum_matches_oracle(index):
    g = generate(mixed_model_spec(index, max_n=150))
    sv = total_communicability(g, KrylovParams(tol=1e-10))
    reference = expm_dense_oracle(g).sum(axis=1)
    rel = np.linalg.norm(sv.scores - reference) / np.linalg.norm(reference)
    assert rel <= 1e-8


def test_row_sum_is_the_ones_action():
    g = generate(mixed_model_spec(2, max_n=100))
    params = KrylovParams(tol=1e-9)
    sv = total_communicability(g, params)
    direct = expm_action(g, np.ones(g.n), params)
    assert np.array_equal(sv.scores, direct.value)


def test_scores_at_least_one():
    # every node contributes the length-0 walk, so scores cannot dip below 1
    for index in (1, 5, 9):
        g = generate(mixed_model_spec(index, max_n=200))
        assert total_communicability(g).scores.min() >= 1.0 - 1e-9
        if g.n <= 512:
            assert subgraph_centrality(g).scores.min() >= 1.0 - 1e-9


def test_dense_path_node_limit_points_at_krylov_path():
    g = Graph.from_pairs(600, [(0, 1)])
    with pytest.raises(ValueError, match="total_communicability"):
        subgraph_centrality(g)


# =====================================================================
# Score vector container
# =====================================================================


def test_score_vector_validation():
    with pytest.raises(ValueError):
        ScoreVector(scores=np.ones((2, 2)), kind="tc")
    with pytest.raises(ValueError):
        ScoreVector(scores=np.array([1.0, np.inf]), kind="tc")
    with pytest.raises(ValueError):
        ScoreVector(scores=np.ones(2), kind="bogus")
    with pytest.raises(ValueError):
        ScoreVector(scores=np.ones(2), kind="tc", num_backgrounds=0)


def test_score_vector_is_frozen_and_detached():
    owner = np.array([1.0, 2.0])
    sv = ScoreVector(scores=owner, kind="tc")
    with pytest.raises(ValueError):
        sv.scores[0] = 9.0
    owner[0] = 9.0  # caller's array must stay writable
    assert sv.scores[0] == 1.0


# =====================================================================
# Aggregation over backgrounds
# =====================================================================


@pytest.mark.parametrize("model", ["er", "ba", "sw"])
def test_summed_scores_match_per_graph_solves(model):
    # one solve on the stacked realizations equals the sum of separate solves
    specs = {
        "er": dict(avg_degree=3.0),
        "ba": dict(m=3),
        "sw": dict(k=6, beta=0.2),
    }[model]
    graphs = [generate(GraphGenSpec(model=model, n=150, seed=s, **specs)) for s in range(5)]
    params = KrylovParams(tol=1e-10)
    stacked = summed_total_communicability(graphs, params)
    separate = accumulate([total_communicability(g, params) for g in graphs])
    assert stacked.kind == "tc_sum" and stacked.num_backgrounds == 5
    assert np.abs(stacked.scores / separate.scores - 1.0).max() <= 1e-8
    oracle = sum(expm_dense_oracle(g).sum(axis=1) for g in graphs)
    assert np.abs(stacked.scores / oracle - 1.0).max() <= 1e-8


def test_summed_scores_single_graph_and_rejections(monkeypatch):
    g = clique(4).to_graph()
    assert summed_total_communicability([g]).scores == pytest.approx(np.full(4, math.exp(3.0)), rel=1e-12)
    with pytest.raises(ValueError):
        summed_total_communicability([])
    with pytest.raises(ValueError):
        summed_total_communicability(iter([]))
    with pytest.raises(ValueError):
        summed_total_communicability([g, clique(5).to_graph()])
    # stacks of two: the odd graph opens the second stack
    monkeypatch.setattr(communicability, "_STACK_NODES", 8)
    with pytest.raises(ValueError, match="same node count"):
        summed_total_communicability(iter([g, g, clique(5).to_graph(), g]))


def test_generator_input_is_scored_stack_by_stack(monkeypatch):
    # stacks of two 100-node graphs: a stack is drawn only after the previous
    # stack's solve, and each stack meets tol as the per-graph solves do
    monkeypatch.setattr(communicability, "_STACK_NODES", 250)
    graphs = [generate(GraphGenSpec(model="er", n=100, avg_degree=4.0, seed=s)) for s in range(5)]
    events, solves = [], []

    def drawn():
        for i, g in enumerate(graphs):
            events.append(f"draw {i}")
            yield g

    def recorded(g, v, params, *, blocks, _certify=None):
        events.append(f"solve {blocks}")
        solves.append(expm_action(g, v, params, blocks=blocks))
        return solves[-1]

    monkeypatch.setattr(communicability, "expm_action", recorded)
    params = KrylovParams()
    summed = summed_total_communicability(drawn(), params)
    assert events == ["draw 0", "draw 1", "solve 2", "draw 2", "draw 3", "solve 2", "draw 4", "solve 1"]
    assert summed.kind == "tc_sum" and summed.num_backgrounds == 5
    own = [expm_action(g, np.ones(100), params).value for g in graphs]
    blocks = np.concatenate([res.value for res in solves]).reshape(5, 100)
    for block, ref in zip(blocks, own):
        assert np.linalg.norm(block - ref) / np.linalg.norm(ref) <= params.tol
    assert np.array_equal(top_k(summed, 10), top_k(ScoreVector(sum(own), "tc_sum", 5), 10))


def test_total_communicability_of_a_zero_node_graph_names_the_graph():
    with pytest.raises(ValueError, match="0 nodes"):
        total_communicability(Graph.from_pairs(0, []))


def test_hosts_per_stack_reads_the_cap_at_call_time(monkeypatch):
    assert communicability.hosts_per_stack(1024) == 40
    assert communicability.hosts_per_stack(2048) == 20
    assert communicability.hosts_per_stack(10**5) == 1
    monkeypatch.setattr(communicability, "_STACK_NODES", 250)
    assert communicability.hosts_per_stack(100) == 2


def test_given_stacks_score_as_the_graphs_they_union():
    # the pipeline hands over stacks built as unions; scoring them is the
    # same solve as stacking the graphs one by one, bit for bit
    spec = GraphGenSpec(model="er", n=1024, avg_degree=2.0)
    per_stack = communicability.hosts_per_stack(1024)
    seeds = list(range(per_stack + 3))
    graphs = [generate(GraphGenSpec(model="er", n=1024, avg_degree=2.0, seed=s)) for s in seeds]
    stacks = [(generate(spec, seeds[:per_stack]), per_stack), (generate(spec, seeds[per_stack:]), 3)]
    parts = [communicability._solved(union, blocks, KrylovParams())[0] for union, blocks in stacks]
    summed = summed_total_communicability(graphs)
    assert summed.num_backgrounds == per_stack + 3
    assert summed.scores.tobytes() == (parts[0] + parts[1]).tobytes()
    with pytest.raises(ValueError, match="at least one graph"):
        summed_total_communicability(iter([]))
    with pytest.raises(ValueError, match="same node count"):
        summed_total_communicability([graphs[0], disjoint_union(graphs[:2])])


def test_plain_sums_solve_without_a_certificate_hook(monkeypatch):
    # a plain sum keeps no error estimate, so its solves run without a hook
    # (and their bytes are those of a recording solve); a run's earlier
    # stacks still record their change, and its last stack stops on its own
    hooks = []

    def recorded(g, v, params, *, blocks, _certify=None):
        hooks.append(_certify)
        return expm_action(g, v, params, blocks=blocks, _certify=_certify)

    monkeypatch.setattr(communicability, "_STACK_NODES", 250)
    monkeypatch.setattr(communicability, "expm_action", recorded)
    graphs = [generate(GraphGenSpec(model="er", n=100, avg_degree=4.0, seed=s)) for s in range(5)]
    summed = summed_total_communicability(graphs)
    total_communicability(graphs[0])
    assert hooks == [None] * 4
    hooks.clear()
    stacks = [(disjoint_union(graphs[:2]), 2), (disjoint_union(graphs[2:4]), 2), (graphs[4], 1)]
    parts = [communicability._solved(g, blocks, KrylovParams(), communicability._Change(blocks))[0] for g, blocks in stacks]
    assert summed.scores.tobytes() == (parts[0] + parts[1] + parts[2]).tobytes()
    hooks.clear()
    communicability._certified_stacks(iter(stacks), KrylovParams(), k=10, backgrounds=5)
    assert [type(hook) for hook in hooks] == [communicability._Change] * 2 + [communicability._Stop]


# =====================================================================
# The pipeline's certified top-k scores
# =====================================================================


def _recording_solves(monkeypatch, events, results=None):
    # ("stop", tol) is a solve under the last stack's certificate
    def recorded(g, v, params, *, blocks, _certify=None):
        events.append(("stop" if isinstance(_certify, communicability._Stop) else "solve", params.tol))
        result = expm_action(g, v, params, blocks=blocks, _certify=_certify)
        if results is not None:
            results.append(result)
        return result

    monkeypatch.setattr(communicability, "expm_action", recorded)


def _drawn(stacks, events):
    for i, stack in enumerate(stacks):
        events.append(("draw", i))
        yield stack


def _cycle():
    return Graph.from_pairs(12, [(i, (i + 1) % 12) for i in range(12)])


def test_margin_of_the_kth_gap():
    scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    assert communicability._margin(scores, 0.25, 2) == pytest.approx(2.0)  # gap 4 - 3
    assert communicability._margin(scores, 1.0, 4) == pytest.approx(0.5)  # gap 2 - 1
    assert communicability._margin(scores, 0.0, 2) == math.inf
    assert communicability._margin(scores, 1e9, 5) == math.inf  # k covers every node
    assert communicability._margin(np.array([2.0, 1.0, 1.0]), 0.0, 2) == 0.0  # a tie


def test_certified_run_solves_each_stack_once(monkeypatch):
    # the first stack is solved at tol, the last one at tol until its
    # certificate stops it; nothing is solved twice
    spec = GraphGenSpec(model="er", n=1024, avg_degree=2.0)
    stacks = [(generate(spec, [1, 2, 3]), 3), (generate(spec, [4, 5]), 2)]
    events, results = [], []
    _recording_solves(monkeypatch, events, results)
    params = KrylovParams()
    got = communicability._certified_stacks(_drawn(stacks, events), params, k=20, backgrounds=5)
    assert events == [("draw", 0), ("solve", params.tol), ("draw", 1), ("stop", params.tol)]
    assert got.margin > 1.0
    assert results[-1].certified and results[-1].converged and results[-1].est_error > params.tol
    assert got.scores.num_backgrounds == 5
    exact = summed_total_communicability([generate(dataclasses.replace(spec, seed=s)) for s in range(1, 6)], params)
    assert np.array_equal(top_k(got.scores, 20), top_k(exact, 20))


_TOL = KrylovParams().tol


@pytest.mark.parametrize(
    ("backgrounds", "solves", "blocks"),
    [(40, [("stop", _TOL)], [40]), (41, [("solve", _TOL), ("stop", _TOL)], [40, 1])],
    ids=["N40", "N41"],
)
def test_pipeline_run_solves_a_full_stack_once(monkeypatch, backgrounds, solves, blocks):
    # at n = 1024 a run's 40 sparse backgrounds are one stack, solved once
    # under the certificate; a 41st background makes a second stack, and
    # the full one is solved once at tol first
    events, results = [], []
    _recording_solves(monkeypatch, events, results)
    cfg = ExperimentConfig(
        background=GraphGenSpec(model="er", n=1024, avg_degree=2.0),
        target=canonical_sparse_target(0),
        num_backgrounds=backgrounds,
        runs=1,
        k=20,
    )
    assert len(run_pipeline(cfg)) == 1
    assert events == solves
    # a stack of b hosts is solved on b * 1024 nodes
    assert [res.value.size // 1024 for res in results] == blocks
    assert results[-1].certified


def test_exact_tie_keeps_the_scores_at_tol(monkeypatch):
    # every node of a cycle scores the same, and the solve is exact: the
    # gap is 0, so no certificate can stop the last stack, and the one solve
    # of each stack gives the scores at tol
    cycle = _cycle()
    stacks = [(disjoint_union([cycle, cycle]), 2), (cycle, 1)]
    events = []
    _recording_solves(monkeypatch, events)
    params = KrylovParams()
    got = communicability._certified_stacks(_drawn(stacks, events), params, k=3, backgrounds=3)
    assert events == [("draw", 0), ("solve", params.tol), ("draw", 1), ("stop", params.tol)]
    assert got.margin == 0.0
    monkeypatch.setattr(communicability, "_STACK_NODES", 2 * cycle.n)  # the same stacks, of 2 and 1
    assert got.scores.scores.tobytes() == summed_total_communicability([cycle] * 3, params).scores.tobytes()
    assert top_k(got.scores, 3).tolist() == [0, 1, 2]


def test_single_stack_tie_solves_once(monkeypatch):
    # a one-stack run's only solve, at tol, gives the scores at tol
    events = []
    _recording_solves(monkeypatch, events)
    params = KrylovParams()
    got = communicability._certified_stacks(_drawn([(_cycle(), 1)], events), params, k=3, backgrounds=1)
    assert events == [("draw", 0), ("stop", params.tol)]
    assert got.margin == 0.0
    assert got.scores.scores.tobytes() == summed_total_communicability([_cycle()], params).scores.tobytes()


def test_uncertified_run_solves_each_stack_once(monkeypatch):
    # two copies of one graph in each stack tie node i with node i + 200 bit
    # for bit, so k = 1 is never certified, yet no solve is exact: the last
    # stack runs on to tol, and no stack is solved again
    g = generate(GraphGenSpec(model="er", n=200, avg_degree=4.0, seed=3))
    twins = disjoint_union([g, g])
    stacks = [(twins, 1), (twins, 1)]
    events, results = [], []
    _recording_solves(monkeypatch, events, results)
    params = KrylovParams()
    got = communicability._certified_stacks(_drawn(stacks, events), params, k=1, backgrounds=2)
    assert events == [("draw", 0), ("solve", params.tol), ("draw", 1), ("stop", params.tol)]
    assert not results[1].certified and 0.0 < results[1].est_error <= params.tol
    assert got.margin == 0.0
    monkeypatch.setattr(communicability, "_STACK_NODES", twins.n)  # the same stacks, of one each
    assert got.scores.scores.tobytes() == summed_total_communicability([twins, twins], params).scores.tobytes()


def _projected_changes(monkeypatch) -> dict:
    # the screen's ratio step / upper at each step whose projected vector,
    # and its predecessor's, the solve computed
    ys = {}
    first_col = expm._expm_first_col

    def recorded(alphas, betas):
        ys[alphas.size] = first_col(alphas, betas)
        return ys[alphas.size]

    monkeypatch.setattr(expm, "_expm_first_col", recorded)

    def ratios():
        out = {}
        for s in sorted(ys):
            if s - 1 in ys:
                y, dy = ys[s], ys[s][:-1] - ys[s - 1]
                out[s] = math.sqrt(dy.dot(dy) + y[-1] ** 2) / math.sqrt(y.dot(y))
        return out

    return ratios


class _Always:
    screen = communicability._CERT_SCREEN

    def __call__(self, x, x_prev):
        return True


@pytest.mark.parametrize("model", ["sw", "er", "ba"])
def test_certified_stop_comes_no_earlier_than_the_cert_screen(model, monkeypatch):
    spec = {
        "sw": GraphGenSpec(model="sw", n=1024, k=40, beta=0.1, seed=5),
        "er": GraphGenSpec(model="er", n=1024, avg_degree=39.0, seed=6),
        "ba": GraphGenSpec(model="ba", n=1024, m=10, seed=7),
    }[model]
    g = generate(spec)
    params = KrylovParams()
    # a hook that certifies whatever it is offered stops the solve at the
    # first step whose projected change is at most _CERT_SCREEN
    ratios = _projected_changes(monkeypatch)
    res = expm_action(g, np.ones(g.n), params, _certify=_Always())
    first = min(s for s, r in ratios().items() if r <= communicability._CERT_SCREEN)
    assert res.certified and res.iterations == first
    # the run's own certificate stops there or later, and before tol
    ratios = _projected_changes(monkeypatch)
    results = []
    _recording_solves(monkeypatch, [], results)
    got = communicability._certified_stacks([(g, 1)], params, k=20, backgrounds=1)
    first = min(s for s, r in ratios().items() if r <= communicability._CERT_SCREEN)
    assert results[0].certified and got.margin > 1.0
    assert first <= results[0].iterations < expm_action(g, np.ones(g.n), params).iterations


def test_certified_stacks_need_the_stated_backgrounds():
    with pytest.raises(ValueError, match="only 1 of 2 backgrounds"):
        communicability._certified_stacks([(_cycle(), 1)], KrylovParams(), k=3, backgrounds=2)


def test_unconverged_earlier_stack_raises(monkeypatch):
    # an earlier stack whose solve does not converge raises with the
    # caller's tol, before the next stack is drawn
    g = generate(GraphGenSpec(model="sw", n=2000, k=40, beta=0.1, seed=1))
    events = []
    _recording_solves(monkeypatch, events)
    params = KrylovParams(m=4)
    with pytest.raises(KrylovNotConvergedError) as caught:
        communicability._certified_stacks(_drawn([(g, 1), (g, 1)], events), params, k=20, backgrounds=2)
    assert events == [("draw", 0), ("solve", params.tol)]
    assert caught.value.tol == params.tol and caught.value.iterations == 4


@pytest.mark.parametrize("tol", [1e-4, 1e-3])
def test_loose_user_tol_makes_one_pass(monkeypatch, tol):
    # a loose tol makes one solve per stack, under the certificate, as 1e-8 does
    g = generate(GraphGenSpec(model="ba", n=500, m=3, seed=2))
    params = KrylovParams(tol=tol)
    for graph, k in ((_cycle(), 3), (g, 3)):  # a tie and a certified set
        events = []
        _recording_solves(monkeypatch, events)
        got = communicability._certified_stacks(_drawn([(graph, 1)], events), params, k=k, backgrounds=1)
        assert events == [("draw", 0), ("stop", tol)]
        at_tol = summed_total_communicability([graph], params)
        assert np.array_equal(top_k(got.scores, k), top_k(at_tol, k))
    assert got.margin > 1.0


def test_earlier_stacks_are_released_before_the_last_solve(monkeypatch):
    # no stack is kept for a second solve: when the last stack's solve
    # starts, the unions of the earlier stacks are garbage
    spec = GraphGenSpec(model="er", n=1024, avg_degree=2.0)
    unions = []

    def built():
        for seeds in ([1, 2], [3, 4], [5]):
            union = generate(spec, seeds)
            unions.append(weakref.ref(union))
            yield union, len(seeds)

    events, alive = [], []
    _recording_solves(monkeypatch, events)
    recorded = communicability.expm_action

    def checked(g, v, params, *, blocks, _certify=None):
        if isinstance(_certify, communicability._Stop):
            gc.collect()
            alive.extend(ref() is not None for ref in unions[:-1])
        return recorded(g, v, params, blocks=blocks, _certify=_certify)

    monkeypatch.setattr(communicability, "expm_action", checked)
    params = KrylovParams()
    communicability._certified_stacks(built(), params, k=20, backgrounds=5)
    assert alive == [False, False]
    assert events == [("solve", params.tol), ("solve", params.tol), ("stop", params.tol)]


@pytest.mark.parametrize("graphs", [1, 2])
def test_unconverged_solves_raise(graphs):
    # expm_action returns the unconverged result; the scores refuse it
    g = generate(GraphGenSpec(model="sw", n=2000, k=40, beta=0.1, seed=1))
    params = KrylovParams(m=8)
    res = expm_action(disjoint_union([g] * graphs), np.ones(graphs * g.n), params, blocks=graphs)
    assert not res.converged
    with pytest.raises(KrylovNotConvergedError) as caught:
        if graphs == 1:
            total_communicability(g, params)
        else:
            summed_total_communicability([g] * graphs, params)
    assert isinstance(caught.value, NumericalBreakdownError)
    assert (caught.value.est_error, caught.value.tol, caught.value.iterations) == (res.est_error, params.tol, 8)
    assert "est_error" in str(caught.value) and "tol" in str(caught.value)


def test_accumulate_sums_entrywise():
    a = ScoreVector(scores=np.array([1.0, 2.0, 3.0]), kind="tc")
    b = ScoreVector(scores=np.array([10.0, 20.0, 30.0]), kind="tc")
    out = accumulate([a, b])
    assert out.kind == "tc_sum"
    assert out.num_backgrounds == 2
    assert out.scores == pytest.approx([11.0, 22.0, 33.0])


def test_accumulate_single_vector_keeps_values():
    a = ScoreVector(scores=np.array([4.0, 5.0]), kind="tc")
    out = accumulate([a])
    assert out.kind == "tc_sum" and out.num_backgrounds == 1
    assert np.array_equal(out.scores, a.scores)


def test_accumulate_is_sum_not_mean():
    vs = [ScoreVector(scores=np.full(3, 2.0), kind="tc") for _ in range(5)]
    assert accumulate(vs).scores == pytest.approx([10.0, 10.0, 10.0])


def test_accumulate_order_invariant():
    rng = np.random.default_rng(0)
    vs = [ScoreVector(scores=rng.uniform(1, 50, size=40), kind="tc") for _ in range(6)]
    fwd = accumulate(vs).scores
    rev = accumulate(vs[::-1]).scores
    assert fwd == pytest.approx(rev, rel=1e-12)


def test_accumulate_rejections():
    a = ScoreVector(scores=np.ones(3), kind="tc")
    with pytest.raises(ValueError):
        accumulate([])
    with pytest.raises(ValueError):
        accumulate([a, ScoreVector(scores=np.ones(4), kind="tc")])
    with pytest.raises(ValueError):
        accumulate([a, ScoreVector(scores=np.ones(3), kind="sc")])
    with pytest.raises(ValueError):
        accumulate([accumulate([a]), a])  # no re-accumulating a sum


# =====================================================================
# CSV output
# =====================================================================


def test_csv_layout():
    sv = ScoreVector(scores=np.array([1.5, 2.25]), kind="tc")
    buf = io.StringIO()
    write_scores_csv(sv, buf)
    assert buf.getvalue() == "node,score\n0,1.5\n1,2.25\n"


def test_csv_round_trips_doubles_exactly():
    rng = np.random.default_rng(3)
    scores = rng.uniform(1.0, 1e6, size=64)
    sv = ScoreVector(scores=scores, kind="tc")
    buf = io.StringIO()
    write_scores_csv(sv, buf)
    lines = buf.getvalue().splitlines()[1:]
    parsed = np.array([float(line.split(",")[1]) for line in lines])
    assert np.array_equal(parsed, sv.scores)
    assert [int(line.split(",")[0]) for line in lines] == list(range(64))
