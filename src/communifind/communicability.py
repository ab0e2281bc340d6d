"""Per-node communicability scores and their aggregation.

Two walk-based centralities of the adjacency exponential:

* subgraph centrality, the diagonal ``exp(A)_ii`` (closed walks), computed on
  a dense eigendecomposition path and therefore guarded to small graphs;
* total communicability, the row sums ``(exp(A) 1)_i`` (walks to everywhere),
  computed at scale through the Krylov action.

Scores from several background realizations are combined by plain entrywise
summation — never averaged — so that consistent structure reinforces while
incidental background fluctuations wash out.  Every total-communicability
score comes from one function, ``_summed_stacks``: one Krylov solve per
stack of up to :func:`hosts_per_stack` equal-size graphs, with the blocks
summed in order.  The pipeline builds its hosts as such stacks and scores
them directly; :func:`summed_total_communicability` stacks graphs given one
by one, and :func:`total_communicability` is its one-graph case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence, TextIO

import numpy as np

from .expm import KrylovNotConvergedError, KrylovParams, expm_action
from .graphs import Graph, disjoint_union

__all__ = [
    "ScoreKind",
    "ScoreVector",
    "subgraph_centrality",
    "total_communicability",
    "summed_total_communicability",
    "hosts_per_stack",
    "accumulate",
    "write_scores_csv",
]

ScoreKind = Literal["sc", "tc", "tc_sum"]

_SC_MAX_NODES = 512
# Graphs are scored in stacks of up to this many nodes, one Krylov solve per
# stack: twenty graphs at n=1024.  A stack pays fixed costs (its generation
# and embedding calls, the operator build) and each step one sparse product
# plus a fixed overhead (the tridiagonal eigensolver and the Python of the
# loop); stacking shares the fixed parts, and the cap bounds the memory of a
# solve.  On 40 sparse backgrounds (er avg 2, 2-vCPU VM) a run took ~19%
# less time in stacks of 20 than of 8, at ~5% more peak RSS; one stack of
# 40 took ~21% less time than 8, but 13-15% more peak RSS.  Stacking dense
# graphs can raise the steps of a solve instead (er avg 39: 12 steps alone,
# 25 in a stack of 8).  Larger graphs are scored one at a time.  Read
# through hosts_per_stack.
_STACK_NODES = 20480


@dataclass(frozen=True)
class ScoreVector:
    """One score per node, tagged with what the scores mean.

    kind "sc" is subgraph centrality, "tc" total communicability of a single
    graph, "tc_sum" an entrywise sum of total-communicability vectors over
    ``num_backgrounds`` realizations.
    """

    scores: np.ndarray
    kind: ScoreKind
    num_backgrounds: int = 1

    def __post_init__(self) -> None:
        # copy, so freezing never reaches back into a caller-owned array
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        if scores.ndim != 1:
            raise ValueError("scores must be one-dimensional")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if self.kind not in ("sc", "tc", "tc_sum"):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.num_backgrounds < 1:
            raise ValueError("num_backgrounds must be >= 1")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.scores.size


def subgraph_centrality(g: Graph) -> ScoreVector:
    """Diagonal of exp(A) via dense eigendecomposition (n <= 512).

    Uses the spectral form ``sum_k q_ik^2 exp(lambda_k)`` directly rather
    than extracting the diagonal of the full exponential.
    """
    if g.n > _SC_MAX_NODES:
        raise ValueError(
            f"subgraph centrality is computed densely and limited to n <= {_SC_MAX_NODES} "
            f"(got n={g.n}); use total_communicability for large graphs"
        )
    w, q = np.linalg.eigh(g.to_dense())
    diag = (q * q) @ np.exp(w)
    return ScoreVector(scores=diag, kind="sc", num_backgrounds=1)


def total_communicability(g: Graph, params: KrylovParams = KrylovParams()) -> ScoreVector:
    """Row sums of exp(A), i.e. the Krylov action of exp(A) on the all-ones vector.

    The one-graph case of :func:`summed_total_communicability`.  Raises
    :class:`~communifind.expm.KrylovNotConvergedError` when the solve does not
    meet ``params.tol`` within ``params.m`` steps.
    """
    return ScoreVector(scores=summed_total_communicability([g], params).scores, kind="tc", num_backgrounds=1)


def hosts_per_stack(n: int) -> int:
    """Graphs of ``n`` nodes per Krylov solve: as many as fit in ``_STACK_NODES``, at least one.

    Read at call time, so the graphs a run builds per stack and the blocks
    scored per solve follow one value of ``_STACK_NODES``.
    """
    return max(1, _STACK_NODES // max(n, 1))


def summed_total_communicability(
    graphs: Iterable[Graph], params: KrylovParams = KrylovParams()
) -> ScoreVector:
    """Entrywise sum of the row sums of exp(A) over equal-size graphs.

    exp of the block-diagonal matrix of the graphs acts on each block alone,
    so the blocks of exp(blockdiag(A_1..A_N)) 1 are the per-graph row sums.
    The graphs are consumed lazily, in stacks of up to
    :func:`hosts_per_stack` graphs, and one Krylov solve on the :func:`disjoint_union` of a stack
    scores all of its graphs; no graph of a stack is drawn before the solve
    of the previous stack.  ``tol`` must hold on every block, so each graph's
    scores converge as in its own solve; an input spanning several stacks
    therefore agrees within ``tol`` with one solve over all of it, not bit
    for bit.  Rounding in the shared projection is relative to the largest
    block, so the graphs should have comparable spectra, as realizations of
    one random-graph model do.  The blocks are summed in graph order.
    Raises :class:`~communifind.expm.KrylovNotConvergedError` when some block
    does not meet ``params.tol`` within ``params.m`` steps.
    """
    graphs = iter(graphs)
    first = next(graphs, None)
    if first is None:
        raise ValueError("summed_total_communicability needs at least one graph")
    per_stack = hosts_per_stack(first.n)

    def stacks() -> Iterator[tuple[Graph, int]]:
        stack = [first, *itertools.islice(graphs, per_stack - 1)]
        while stack:
            if any(g.n != first.n for g in stack):
                raise ValueError("all graphs must have the same node count")
            yield disjoint_union(stack), len(stack)
            stack = list(itertools.islice(graphs, per_stack))

    return _summed_stacks(stacks(), params)


def _summed_stacks(stacks: Iterable[tuple[Graph, int]], params: KrylovParams) -> ScoreVector:
    """:func:`summed_total_communicability` of stacks given as ``(union, blocks)``.

    Each union holds ``blocks`` equal graphs of the same node count, numbered
    one after another; it gets one Krylov solve, and its blocks are summed in
    order.
    """
    scores = None
    count = 0
    for union, blocks in stacks:
        n = union.n // blocks
        if scores is None:
            scores = np.zeros(n)
        elif n != scores.size:
            raise ValueError("all graphs must have the same node count")
        result = expm_action(union, np.ones(union.n), params, blocks=blocks)
        if not result.converged:
            raise KrylovNotConvergedError(result.est_error, params.tol, result.iterations)
        scores += result.value.reshape(blocks, n).sum(axis=0)
        count += blocks
    if scores is None:
        raise ValueError("summed_total_communicability needs at least one graph")
    return ScoreVector(scores=scores, kind="tc_sum", num_backgrounds=count)


def accumulate(vectors: Sequence[ScoreVector]) -> ScoreVector:
    """Entrywise sum of total-communicability vectors, in the order given.

    All inputs must be kind "tc" over the same node set.  No normalization
    is applied: the sum, not the mean, is the aggregate score.
    """
    if len(vectors) == 0:
        raise ValueError("accumulate needs at least one score vector")
    n = len(vectors[0])
    for sv in vectors:
        if sv.kind != "tc":
            raise ValueError(f"accumulate combines 'tc' vectors only, got {sv.kind!r}")
        if len(sv) != n:
            raise ValueError("all score vectors must have the same length")
    total = np.zeros(n)
    for sv in vectors:
        total += sv.scores
    return ScoreVector(scores=total, kind="tc_sum", num_backgrounds=len(vectors))


def write_scores_csv(sv: ScoreVector, out: TextIO) -> None:
    """Dump scores as CSV: header ``node,score``, 17 significant digits."""
    out.write("node,score\n")
    for node, score in enumerate(sv.scores):
        out.write(f"{node},{score:.17g}\n")
