"""Hide a target sub-graph in random backgrounds and try to find it again.

One experiment run draws a single random embedding of the target, overlays
it on ``num_backgrounds`` independently generated background graphs, sums
the per-node total-communicability scores across those realizations, and
selects the top-k nodes.  The hosts are built as they are scored, one Krylov
stack at a time: one :func:`~communifind.graphs.generate` call makes a
stack's backgrounds as one union graph, one :func:`apply_embedding` call
overlays the target on all of them, and one solve at ``krylov.tol``
scores the stack; the solve of the last stack stops early once the run's
sum certifies its top-k set.  The identification rate is the fraction of
target nodes recovered.  Seeds are derived deterministically from the base
seed and the run index, so results are reproducible and independent of how
runs are scheduled across worker processes.

One driver, :func:`_run`, executes a run of either method: the pipeline
here and the modularity baseline pass their own score and select steps.
"""

from __future__ import annotations

import atexit
import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from .communicability import ScoreVector, _Certified, _certified_stacks, hosts_per_stack
from .expm import KrylovParams
from .graphs import Graph, GraphGenSpec, TargetSpec, generate
from .rng import SeededRng, derive_seed

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "Embedding",
    "ExperimentConfig",
    "RunResult",
    "PhaseSeconds",
    "RateSummary",
    "draw_embedding",
    "apply_embedding",
    "top_k",
    "identification_rate",
    "run_pipeline",
    "summarize_rates",
    "run_seed",
    "embedding_seed",
    "background_seed",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_EMBED_STREAM = 0
_BACKGROUND_STREAM = 1

# The worker processes of run batches at jobs > 1 (see _map_runs): kept
# alive across calls, because starting a pool costs far more than handing
# a batch to a live one.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


# =====================================================================
# Embedding
# =====================================================================


@dataclass(frozen=True)
class Embedding:
    """Injective map from target node labels 0..t-1 to background node ids."""

    map: np.ndarray

    def __post_init__(self) -> None:
        # copy, so freezing never reaches back into a caller-owned array
        arr = np.array(self.map, dtype=np.int64, copy=True)
        if arr.ndim != 1:
            raise ValueError("embedding map must be one-dimensional")
        if np.unique(arr).size != arr.size:
            raise ValueError("embedding map must be injective")
        arr.flags.writeable = False
        object.__setattr__(self, "map", arr)

    def __reduce__(self):
        # rebuild through __init__, so an embedding sent back from a worker
        # process is read-only again
        return (Embedding, (self.map,))

    @property
    def t(self) -> int:
        return self.map.size


def draw_embedding(n: int, t: int, seed: int) -> Embedding:
    """Uniform injective placement of t target labels onto n background nodes."""
    if t > n:
        raise ValueError(f"cannot embed {t} target nodes into {n} background nodes")
    rng = SeededRng(seed)
    return Embedding(map=np.asarray(rng.sample(n, t), dtype=np.int64))


def apply_embedding(background: Graph, target: TargetSpec, embedding: Embedding, blocks: int = 1) -> Graph:
    """Union of the background with the target's edges mapped through the embedding.

    With ``blocks > 1`` the background is a stack of that many equal parts,
    numbered one after another (as :func:`~communifind.graphs.generate`
    builds them from several seeds), and the target is overlaid on every
    part through the same embedding: the result is the
    :func:`~communifind.graphs.disjoint_union` of the parts' overlays.
    Mapped target edges that already exist in the background merge silently
    (the union is still a simple graph); mapped node degrees rise
    accordingly.  The mapped edges go to the background's one overlay, which
    merges them into its sorted edge codes at binary-searched positions in
    one pass, so assembly is O(E) with no sort, and the host builds no CSR.
    """
    if embedding.t != target.t:
        raise ValueError("embedding size does not match target size")
    if blocks < 1 or background.n % blocks:
        raise ValueError(f"cannot split {background.n} nodes into {blocks} equal blocks")
    n = background.n // blocks
    if embedding.map.size and not 0 <= int(embedding.map.min()) <= int(embedding.map.max()) < n:
        raise ValueError("embedding maps outside the background graph")
    tedges = np.asarray(target.edges, dtype=np.int64).reshape(-1, 2)
    return background._overlay(embedding.map[tedges[:, 0]], embedding.map[tedges[:, 1]], blocks)


# =====================================================================
# Selection and scoring
# =====================================================================


def top_k(scores: ScoreVector, k: int) -> np.ndarray:
    """Ids of the k highest-scoring nodes, ties broken by ascending node id:
    the first k ids of a stable sort by (score descending, id ascending),
    returned sorted ascending."""
    s = scores.scores
    if not 1 <= k <= s.size:
        raise ValueError(f"k must lie in [1, {s.size}], got {k}")
    return np.sort(np.argsort(-s, kind="stable")[:k])


def identification_rate(candidates: np.ndarray, embedding: Embedding) -> float:
    """Fraction of embedded target nodes present among the candidates."""
    hits = int(np.isin(embedding.map, candidates).sum())
    return hits / embedding.t


# =====================================================================
# Experiment pipeline
# =====================================================================


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one identification experiment.

    ``background.seed`` is ignored: per-background seeds are derived from
    ``base_seed`` and the run index, one run reusing a single embedding
    across all its backgrounds.  ``k`` defaults to the target size.
    :func:`run_pipeline` solves every stack of a run once, at ``krylov.tol``;
    a certificate of the run's top-k set may stop the solve of its last
    stack first.
    """

    background: GraphGenSpec
    target: TargetSpec
    num_backgrounds: int
    runs: int
    base_seed: int = 0
    k: int | None = None
    krylov: KrylovParams = field(default_factory=KrylovParams)

    def __post_init__(self) -> None:
        if self.num_backgrounds < 1:
            raise ValueError(f"need num_backgrounds >= 1, got {self.num_backgrounds}")
        if self.runs < 1:
            raise ValueError(f"need runs >= 1, got {self.runs}")
        if self.target.t > self.background.n:
            raise ValueError("target does not fit into the background graph")
        if self.k is not None and not 1 <= self.k <= self.background.n:
            raise ValueError(f"k must lie in [1, n], got {self.k}")

    @property
    def effective_k(self) -> int:
        return self.k if self.k is not None else self.target.t


@dataclass
class PhaseSeconds:
    """Wall time of one run's phases.

    ``generation`` builds the hosts (background generation and embedding),
    timed per Krylov stack for the pipeline and per host for the baseline,
    ``scoring`` is the method's scoring of the hosts without generation, and
    ``selection`` picks the candidates: top-k for the pipeline, the
    two-means split for the baseline.  A host leaves generation as sorted
    edge codes; its adjacency operator is built while it is scored, so that
    build counts under ``scoring``: the pipeline builds the coordinate form
    of A once per Krylov stack, and the baseline a node-order CSR once per
    host.
    """

    generation: float = 0.0
    scoring: float = 0.0
    selection: float = 0.0


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single run: where the target sat, what was recovered,
    and how long each phase of the run took.

    ``margin`` is gap / (2 err) of the scores the candidates came from: the
    gap between the k-th and (k+1)-th summed score over the error estimate
    of the sum.  Above 1 it certifies the top-k set, as far as the solves'
    iterate-change estimate, which is not a bound, holds.  It is inf when k
    covers every node or the error is 0 with a gap, 0 on an exact tie, and
    nan for the baseline, which has no certificate.
    Everything but ``seconds`` is identical for any ``jobs``.
    """

    embedding: Embedding
    candidates: np.ndarray
    hits: int
    rate: float
    margin: float = math.nan
    seconds: PhaseSeconds = field(default_factory=PhaseSeconds)


@dataclass(frozen=True)
class RateSummary:
    mean: float
    std: float
    perfect_fraction: float


def run_seed(base_seed: int, run_index: int) -> int:
    """Seed of one run: base_seed + run_index (wrapped to 64 bits)."""
    return (base_seed + run_index) & _MASK64


def embedding_seed(base_seed: int, run_index: int) -> int:
    return derive_seed(run_seed(base_seed, run_index), _EMBED_STREAM, 0)


def background_seed(base_seed: int, run_index: int, background_index: int) -> int:
    return derive_seed(run_seed(base_seed, run_index), _BACKGROUND_STREAM, background_index)


def _hosts(
    cfg: ExperimentConfig, run_index: int, embedding: Embedding, times: PhaseSeconds, per_stack: int
) -> Iterator[tuple[Graph, int]]:
    """The run's host graphs, built on demand in stacks of up to ``per_stack``.

    A stack is the union of consecutive backgrounds, made by one
    :func:`~communifind.graphs.generate` call, with the target overlaid on
    each of them through ``embedding`` by one :func:`apply_embedding` call;
    it is yielded with its number of hosts.  Build times add to
    ``times.generation``, one stack at a time.
    """
    for start in range(0, cfg.num_backgrounds, per_stack):
        t0 = time.perf_counter()
        seeds = [
            background_seed(cfg.base_seed, run_index, b)
            for b in range(start, min(start + per_stack, cfg.num_backgrounds))
        ]
        stack = apply_embedding(generate(cfg.background, seeds), cfg.target, embedding, blocks=len(seeds))
        times.generation += time.perf_counter() - t0
        yield stack, len(seeds)


def _run(
    cfg: ExperimentConfig,
    run_index: int,
    score: Callable[[Iterator], Any],
    select: Callable[[Any], np.ndarray],
    stacked: bool = False,
) -> RunResult:
    """One run of a method: ``select(score(hosts))`` names the candidates.

    ``hosts`` are the run's host graphs one by one or, when ``stacked``,
    stacks of :func:`~communifind.communicability.hosts_per_stack` hosts as
    ``(union, blocks)`` pairs.  ``score`` consumes them as it goes, so its
    time less the hosts' build time is the scoring time.  Certified scores
    (the pipeline's) pass their margin on to the result.
    """
    times = PhaseSeconds()
    embedding = draw_embedding(
        cfg.background.n, cfg.target.t, embedding_seed(cfg.base_seed, run_index)
    )
    per_stack = hosts_per_stack(cfg.background.n) if stacked else 1
    t0 = time.perf_counter()
    stacks = _hosts(cfg, run_index, embedding, times, per_stack)
    scored = score(stacks if stacked else (host for host, _ in stacks))
    t1 = time.perf_counter()
    candidates = select(scored)
    times.selection = time.perf_counter() - t1
    times.scoring = t1 - t0 - times.generation
    hits = int(np.isin(embedding.map, candidates).sum())
    rate = hits / cfg.target.t
    return RunResult(
        embedding=embedding,
        candidates=candidates,
        hits=hits,
        rate=rate,
        margin=scored.margin if isinstance(scored, _Certified) else math.nan,
        seconds=times,
    )


def _pool_map(run: Callable[[int], object], runs: int, workers: int) -> list:
    """``[run(i) for i in range(runs)]`` on the shared pool of ``workers`` processes."""
    global _pool, _pool_workers
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        if _pool is not None and _pool_workers != workers:
            _pool.shutdown()
            _pool = None
        if _pool is None:
            _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
        pool = _pool
    try:
        return list(pool.map(run, range(runs), chunksize=-(-runs // workers)))
    except BrokenProcessPool:
        # a worker died; the next call starts a fresh pool
        with _pool_lock:
            if _pool is pool:
                _pool = None
        raise


@atexit.register
def _drop_pool() -> None:
    # concurrent.futures' own exit hook has stopped the workers by now; the
    # last reference goes while modules are intact, so the pool's finalizer
    # does not run during interpreter teardown
    global _pool
    _pool = None


def _map_runs(
    cfg: ExperimentConfig,
    jobs: int,
    score: Callable[[Iterator], Any],
    select: Callable[[Any], np.ndarray],
    stacked: bool = False,
) -> list[RunResult]:
    """``_run(cfg, i, score, select, stacked)`` for every run index i, in run order.

    With ``jobs == 1`` or a single run, the runs execute inline.  Otherwise
    they go to a module-wide pool of min(jobs, runs) worker processes, one
    chunk of consecutive runs per worker.  The pool is created on first use,
    kept for later calls, and replaced when its size changes or a worker
    dies; ``concurrent.futures`` shuts it down at interpreter exit.
    ``score`` and ``select`` are pickled, so they must be module-level
    functions or partials of them.

    Workers start with the platform's default method.  On Linux before
    Python 3.14 that is fork: a pool starts in milliseconds, where spawned
    workers would first import numpy and scipy, and the executor forks all
    its workers before it starts its own thread.  Forked workers keep the
    module state of the moment the pool was created: a later change to a
    module global, such as a test patching ``communicability._STACK_NODES``,
    does not reach them, so such tests run at ``jobs=1``.  Where the default
    is spawn or forkserver, a script that calls this with ``jobs > 1`` needs
    an ``if __name__ == "__main__":`` guard.
    """
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    run = functools.partial(_run, cfg, score=score, select=select, stacked=stacked)
    if jobs == 1 or cfg.runs == 1:
        return [run(i) for i in range(cfg.runs)]
    return _pool_map(run, cfg.runs, min(jobs, cfg.runs))


def run_pipeline(cfg: ExperimentConfig, *, jobs: int = 1) -> list[RunResult]:
    """Execute all runs of the experiment across ``jobs`` worker processes.

    Each of a run's stacks is solved once, at ``cfg.krylov.tol``, and the
    last one only until the run's summed scores certify its top-k set
    (:func:`~communifind.communicability._certified_stacks`, told the run's
    background count).  So a certified run's candidates are those of its
    scores at ``tol`` as far as the solves' error estimate holds, and an
    uncertified run's scores are those at ``tol``.  Results are identical
    for any ``jobs``, apart from their phase ``seconds``: every run derives
    its own seeds and results are collected in run order.
    """
    k = cfg.effective_k
    return _map_runs(
        cfg,
        jobs,
        score=functools.partial(_certified_stacks, params=cfg.krylov, k=k, backgrounds=cfg.num_backgrounds),
        select=functools.partial(_top_k_certified, k=k),
        stacked=True,
    )


def _top_k_certified(scored: _Certified, k: int) -> np.ndarray:
    """:func:`top_k` of a run's certified scores."""
    return top_k(scored.scores, k)


def summarize_rates(results: Sequence[RunResult]) -> RateSummary:
    """Mean and sample std of per-run rates, plus the fraction of perfect runs.

    An empty ``results`` has no rates to summarize and is an error.
    """
    rates = np.asarray([r.rate for r in results])
    if rates.size == 0:
        raise ValueError("summarize_rates needs at least one run result, got none")
    mean = float(rates.mean())
    std = float(rates.std(ddof=1)) if rates.size > 1 else 0.0
    perfect = float(np.mean(rates == 1.0))
    return RateSummary(mean=mean, std=std, perfect_fraction=perfect)
