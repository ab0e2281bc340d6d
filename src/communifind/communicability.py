"""Per-node communicability scores and their aggregation.

Two walk-based centralities of the adjacency exponential:

* subgraph centrality, the diagonal ``exp(A)_ii`` (closed walks), computed on
  a dense eigendecomposition path and therefore guarded to small graphs;
* total communicability, the row sums ``(exp(A) 1)_i`` (walks to everywhere),
  computed at scale through the Krylov action.

Scores from several background realizations are combined by plain entrywise
summation — never averaged — so that consistent structure reinforces while
incidental background fluctuations wash out.  Every total-communicability
score is one Krylov solve per stack of up to :func:`hosts_per_stack`
equal-size graphs, with the blocks and then the stacks summed in order.
The pipeline builds its hosts as such stacks and scores them through
:func:`_certified_stacks`; :func:`summed_total_communicability` stacks
graphs given one by one, and :func:`total_communicability` is its one-graph
case.

The pipeline needs only the top-k set of the summed scores.  It solves each
of a run's stacks once, as it is drawn, at ``params.tol``; the last one
(the only one when a run's backgrounds fit one stack, up to forty at
n=1024) with a certificate hook in
:func:`~communifind.expm.expm_action`: from the first step whose projected
relative change is at most ``_CERT_SCREEN``, every iterate is tested, and
the first one whose sum certifies the top-k set stops the solve.  The set
is certified when the gap between the k-th and the (k+1)-th score exceeds
twice the error estimate of the sum, which adds over the stacks the
entrywise change of each stack's summed blocks between its last two
iterates (Saad's iterate-change estimate, SIAM J. Numer. Anal. 1992).  That
estimate is not a bound, so a certified set is the one the scores at
``params.tol`` give only as far as it holds.  A last stack that never
certifies ends at ``params.tol`` as a solve without the hook does, so the
run's scores are those at ``params.tol``.
"""

from __future__ import annotations

import itertools
import math
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
# stack: forty graphs at n=1024.  A stack pays fixed costs (its generation
# and embedding calls, the operator build) and each step one sparse product
# plus a fixed overhead (the tridiagonal eigensolver and the Python of the
# loop); stacking shares the fixed parts, and the cap bounds the memory of a
# solve.  A run of 40 sparse backgrounds (er avg 2) at n=1024 is one stack,
# solved once, under the certificate stop, in 7.1-7.3 steps: on a 2-vCPU VM
# it took ~15% less time per run than two stacks of 20 (whose first was then
# solved at 1e-4 in ~10.7 steps), at ~7.5% more peak RSS (the stack's
# vectors and operator; its first basis block is 25 rows, 8 MiB).  Under the
# stop, stacking dense graphs costs no time either: at N=40, stacks of 40
# scored er avg 39 runs ~10% and sw k=40 runs ~30% faster than stacks of
# 20, and ba m=10 runs as fast.  Larger graphs are scored one at a time.
# Read through hosts_per_stack.  The pipeline solves each stack of a run
# once, at its tol, and only the last one under the certificate stop.
_STACK_NODES = 40960
# Projected relative change of a step (the screen of expm_action) from which
# the solve of a run's last stack offers every iterate to its certificate.
# Each offer costs an iterate (a GEMV over the basis) and a margin.  On 100
# runs of each bench row the first offer certified in 94% of er(avg 2), all
# sw(k=40), 58% of er(avg 39) and 49% of ba(m=10) runs, and no certified
# stop took more than five offers.
_CERT_SCREEN = 1e-2


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

    ``margin`` is gap / (2 err) (see :func:`_margin`).
    """

    scores: ScoreVector
    margin: float


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
    one after another; it gets one Krylov solve, with no certificate hook,
    and its blocks are summed in order.
    """
    scores = None
    count = 0
    for union, blocks in stacks:
        part = _solved(union, blocks, params)[0]
        if scores is None:
            scores = np.zeros(part.size)
        elif part.size != scores.size:
            raise ValueError("all graphs must have the same node count")
        scores += part
        count += blocks
    if scores is None:
        raise ValueError("summed_total_communicability needs at least one graph")
    return ScoreVector(scores, "tc_sum", count)


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


class _Change:
    """Certificate hook of :func:`~communifind.expm.expm_action` that only records.

    It keeps the change of the last iterate pair offered to it, summed over
    the blocks entry by entry: ``max_i sum_b |x_b - x_prev_b|_i``, an
    estimate of the largest error of the stack's summed scores.  Its screen
    of 0 makes the solve form no iterate that it would not form without it.
    """

    screen = 0.0

    def __init__(self, blocks: int) -> None:
        self.blocks = blocks
        self.change = 0.0

    def __call__(self, x: np.ndarray, x_prev: np.ndarray) -> bool:
        self.change = float(np.abs(x - x_prev).reshape(self.blocks, -1).sum(axis=0).max())
        return False


class _Stop(_Change):
    """Certificate hook of a run's last stack: it stops the solve at the first
    iterate whose blocks, added to the sum ``scores`` of the earlier stacks
    with error estimate ``err``, certify the top-k set (margin above 1)."""

    screen = _CERT_SCREEN

    def __init__(self, blocks: int, scores: np.ndarray, err: float, k: int) -> None:
        super().__init__(blocks)
        self.scores = scores
        self.err = err
        self.k = k

    def __call__(self, x: np.ndarray, x_prev: np.ndarray) -> bool:
        super().__call__(x, x_prev)
        total = self.scores + x.reshape(self.blocks, -1).sum(axis=0)
        return _margin(total, self.err + self.change, self.k) > 1.0


def _solved(union: Graph, blocks: int, params: KrylovParams, hook: _Change | None = None) -> tuple[np.ndarray, float]:
    """One stack's blocks summed, and the change of that sum that ``hook`` recorded.

    The change is 0 without a hook and for an exact solve.  Raises
    :class:`~communifind.expm.KrylovNotConvergedError` when the solve does
    not converge.
    """
    result = expm_action(union, np.ones(union.n), params, blocks=blocks, _certify=hook)
    if not result.converged:
        raise KrylovNotConvergedError(result.est_error, params.tol, result.iterations)
    # an exact solve returns before the hook sees its last iterate
    return result.value.reshape(blocks, -1).sum(axis=0), hook.change if hook and result.est_error else 0.0


def _certified_stacks(
    stacks: Iterable[tuple[Graph, int]], params: KrylovParams, k: int, backgrounds: int
) -> _Certified:
    """Summed scores of a run's stacks, of ``backgrounds`` graphs in all, that settle its top-k set.

    Each stack is solved once, at ``params.tol``, as it is drawn: the
    earlier ones under the recording :class:`_Change` hook, and the stack
    that reaches ``backgrounds`` under the :class:`_Stop` hook,
    which ends the solve at the first iterate that certifies the sum: err
    adds, over the stacks, the entrywise change of each stack's summed
    blocks between its last two iterates.  A run that never certifies keeps
    the scores at ``params.tol``, :func:`_summed_stacks`' bytes.  The margin
    is that of the scores returned.
    """
    scores = None
    err = 0.0
    count = 0
    for union, blocks in stacks:
        if scores is None:
            scores = np.zeros(union.n // blocks)
        count += blocks
        last = count >= backgrounds
        part, change = _solved(union, blocks, params, _Stop(blocks, scores, err, k) if last else _Change(blocks))
        scores += part
        err += change
        if last:
            return _Certified(ScoreVector(scores, "tc_sum", count), _margin(scores, err, k))
    raise ValueError(f"the stacks hold only {count} of {backgrounds} backgrounds")


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
