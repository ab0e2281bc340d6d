"""Per-node communicability scores and their aggregation.

Two walk-based centralities of the adjacency exponential:

* subgraph centrality, the diagonal ``exp(A)_ii`` (closed walks), computed on
  a dense eigendecomposition path and therefore guarded to small graphs;
* total communicability, the row sums ``(exp(A) 1)_i`` (walks to everywhere),
  computed at scale through the Krylov action.

Scores from several background realizations are combined by plain entrywise
summation — never averaged — so that consistent structure reinforces while
incidental background fluctuations wash out.  Every total-communicability
score comes from one function, ``_summed_with_error``: one Krylov solve per
stack of up to :func:`hosts_per_stack` equal-size graphs, with the blocks
summed in order.  The pipeline builds its hosts as such stacks and scores
them through :func:`_certified_stacks`; :func:`summed_total_communicability`
stacks graphs given one by one, and :func:`total_communicability` is its
one-graph case.

The pipeline needs only the top-k set of the summed scores, so it first
solves a run's stacks at the loose tolerance ``_FIRST_TOL`` and keeps those
scores when they certify their own top-k set: the gap between the k-th and
the (k+1)-th score exceeds twice the error estimate of the sum.  Otherwise
it solves the same stacks again at ``params.tol``.  The estimate rests on
each solve's relative change between its last two iterates (Saad, SIAM J.
Numer. Anal. 1992), which is not a bound, so a certified set is the one the
scores at ``params.tol`` give only as far as that estimate holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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
# through hosts_per_stack.  The pipeline solves a stack once at _FIRST_TOL,
# and a second time at its tol only when the run's top-k set is not
# certified, so its stacks are kept for that second pass.
_STACK_NODES = 20480
# Tolerance of the pipeline's first pass over a run's stacks.  On 200 runs
# of each bench row (n = 1024, k = 20) at three base seeds, the first pass
# certified all but 0-6 er(avg 2) runs, every sw(k=40) run, all but 13-21
# er(avg 39) and 0-5 ba(m=10) runs, and its solves took 30-42% fewer steps
# than at 1e-8 (er avg 2: 15.3 -> 10.7; sw: 26.2 -> 16.1).
_FIRST_TOL = 1e-4


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


@dataclass(frozen=True)
class _Certified:
    """Summed scores of a run, with the margin of their top-k set.

    ``margin`` is gap / (2 err) (see :func:`_margin`); ``fell_back`` says
    whether the stacks were solved a second time, at ``params.tol``.
    """

    scores: ScoreVector
    margin: float
    fell_back: bool


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
    return _summed_with_error(stacks, params)[0]


def _summed_with_error(stacks: Iterable[tuple[Graph, int]], params: KrylovParams) -> tuple[ScoreVector, float]:
    """:func:`_summed_stacks`, and the error estimate of the sum.

    A solve's ``est_error`` bounds the relative change of each block's
    iterate, so each stack adds ``est_error`` times the sum of its blocks'
    norms: an estimate of the 2-norm, and so of the largest entry, of the
    error of the sum.
    """
    scores = None
    count = 0
    err = 0.0
    for union, blocks in stacks:
        n = union.n // blocks
        if scores is None:
            scores = np.zeros(n)
        elif n != scores.size:
            raise ValueError("all graphs must have the same node count")
        result = expm_action(union, np.ones(union.n), params, blocks=blocks)
        if not result.converged:
            raise KrylovNotConvergedError(result.est_error, params.tol, result.iterations)
        parts = result.value.reshape(blocks, n)
        scores += parts.sum(axis=0)
        err += result.est_error * float(np.linalg.norm(parts, axis=1).sum())
        count += blocks
    if scores is None:
        raise ValueError("summed_total_communicability needs at least one graph")
    return ScoreVector(scores=scores, kind="tc_sum", num_backgrounds=count), err


def _margin(scores: np.ndarray, err: float, k: int) -> float:
    """gap / (2 err) for the gap between the k-th and (k+1)-th largest score.

    Above 1 the top-k set is certified: no change of at most ``err`` per
    score can reorder the k-th and (k+1)-th.  inf when ``k`` covers every
    node or ``err`` is 0 with a positive gap; 0 on an exact tie, whose set
    the tie-break by node id decides, not the scores.
    """
    n = scores.size
    if k >= n:
        return math.inf
    below, kth = np.partition(scores, (n - k - 1, n - k))[n - k - 1 : n - k + 1]
    gap = float(kth - below)
    if gap == 0.0:
        return 0.0
    return gap / (2.0 * err) if err else math.inf


def _certified_stacks(stacks: Iterable[tuple[Graph, int]], params: KrylovParams, k: int) -> _Certified:
    """Summed scores of a run's stacks that settle its top-k set, in one or two passes.

    The first pass solves each stack at ``_FIRST_TOL``, as it comes, and
    keeps it.  Its scores stand when their margin exceeds 1; otherwise, or
    when a first-pass solve does not converge, the kept stacks and the rest
    are solved at ``params.tol``, as :func:`_summed_stacks` solves them.  With
    ``params.tol`` at or above ``_FIRST_TOL`` there is one pass, at
    ``params.tol``.  The margin returned is that of the scores returned.
    """
    stacks = iter(stacks)
    if params.tol < _FIRST_TOL:
        kept: list[tuple[Graph, int]] = []

        def keeping() -> Iterator[tuple[Graph, int]]:
            for stack in stacks:
                kept.append(stack)
                yield stack

        try:
            scores, err = _summed_with_error(keeping(), replace(params, tol=_FIRST_TOL))
        except KrylovNotConvergedError:
            pass
        else:
            margin = _margin(scores.scores, err, k)
            if margin > 1.0:
                return _Certified(scores, margin, fell_back=False)
        stacks = itertools.chain(kept, stacks)
    scores, err = _summed_with_error(stacks, params)
    return _Certified(scores, _margin(scores.scores, err, k), fell_back=params.tol < _FIRST_TOL)


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
