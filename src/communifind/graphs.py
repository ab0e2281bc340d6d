"""Undirected graph container, random-graph generators, and edge-list IO.

Graphs are simple (no self-loops, no duplicate edges), undirected and
unweighted, with dense 0-based node labels.  A graph stores its edges as
sorted canonical codes ``u * n + v`` (u < v), and this module is the only
one that encodes, decodes or re-bases them: the generators emit them in
that form, a disjoint union concatenates them, :meth:`Graph._overlay`
merges endpoint pairs into every part of a stack, and :func:`_split` is the
one decoder.  :func:`generate` also builds a stack of graphs from several
seeds as their disjoint union.  Every ER graph, of any p, one seed's or a
stack's, comes from one vectorized pass (:func:`_er_stack`).

:func:`adjacency` is the one place that turns the codes into the adjacency
matrix A, in coordinate form with no sort.  A Krylov solve multiplies by it
directly (see :mod:`communifind.expm`); the modularity baseline, the
compressed sparse rows of :class:`Graph`, :func:`is_connected` and
:meth:`Graph.to_dense` all convert it.  A run of the pipeline therefore
builds no rows at all, and the baseline builds one CSR matrix per host.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence, TextIO

import numpy as np
import scipy.sparse

from .rng import SeededRng, geometric_gaps, stacked_uniforms

__all__ = [
    "Graph",
    "GraphGenSpec",
    "TargetSpec",
    "EdgeListParseError",
    "adjacency",
    "generate",
    "gen_erdos_renyi",
    "gen_barabasi_albert",
    "gen_watts_strogatz",
    "canonical_sparse_target",
    "clique",
    "density",
    "disjoint_union",
    "is_connected",
    "read_edge_list",
    "write_edge_list",
]

Model = Literal["er", "ba", "sw"]

# The largest node count whose edge codes u * n + v (< n * n) fit in int64.
_MAX_NODES = math.isqrt(2**63 - 1)


# =====================================================================
# Graph container
# =====================================================================


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph, stored as its sorted edge codes.

    Each undirected edge is kept once as the canonical code ``u * n + v``
    (u < v), in a read-only ascending array (:meth:`edge_codes`);
    ``edge_count`` is its length.  The compressed sparse rows
    ``indptr``/``indices`` hold both directions of every edge, with each
    row's neighbor list sorted ascending.  They are the CSR form of
    :func:`adjacency`, built on first use and then cached read-only, so a
    graph that is only generated, overlaid, stacked, scored and checked for
    connectivity never builds them.  Node labels passed to the accessors
    must lie in [0, n).
    """

    n: int
    _codes: np.ndarray

    # -------------------------------------------------------------- build

    @staticmethod
    def from_pairs(
        n: int,
        pairs: Iterable[tuple[int, int]] | np.ndarray,
        *,
        collapse_duplicates: bool = False,
    ) -> "Graph":
        """Build a graph from (u, v) pairs given in either orientation.

        Duplicate pairs (after canonicalization) raise unless
        ``collapse_duplicates`` is set, in which case they merge silently.
        """
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs, dtype=np.int64)
        if arr.size == 0:
            return Graph._from_codes(n, np.empty(0, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge pairs must form an (E, 2) array")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"edge endpoint out of range for n={n}")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        codes = np.unique(u * np.int64(n) + v)
        if not collapse_duplicates and codes.size != arr.shape[0]:
            raise ValueError("duplicate edges are not allowed")
        return Graph._from_codes(n, codes)

    @staticmethod
    def _from_codes(n: int, codes: np.ndarray) -> "Graph":
        """Wrap sorted, unique canonical edge codes ``u * n + v`` (u < v) as a graph.

        The array is frozen in place, not copied: callers pass one they own.
        """
        if n < 0:
            raise ValueError("node count must be nonnegative")
        _check_codes_fit(n)
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        codes.flags.writeable = False
        return Graph(n, codes)

    def _overlay(self, us: np.ndarray, vs: np.ndarray, blocks: int) -> "Graph":
        """This graph plus the edges ``(us[i], vs[i])`` in each of its ``blocks`` equal parts.

        Endpoints are labels within a part, and present edges merge.  The new
        codes, sorted and deduplicated, go into the graph's ascending codes at
        binary-searched positions: O(E) copying, no sort and no CSR.
        """
        offsets = np.arange(blocks, dtype=np.int64)[:, None] * (self.n // blocks)
        lo = np.minimum(us, vs) + offsets
        hi = np.maximum(us, vs) + offsets
        old = self._codes
        new = np.unique(lo * np.int64(self.n) + hi)
        at = np.searchsorted(old, new)
        fresh = old.take(at, mode="clip") != new if old.size else np.ones(new.size, dtype=bool)
        return Graph._from_codes(self.n, np.insert(old, at[fresh], new[fresh]))

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of :func:`adjacency` in CSR form, rows sorted, built once."""
        a = adjacency(self).tocsr()
        a.indptr.flags.writeable = False
        a.indices.flags.writeable = False
        return a.indptr, a.indices

    def __reduce__(self):
        # rebuild through _from_codes, so a graph sent to or from a worker
        # process is read-only again and its cached rows are not pickled
        return (Graph._from_codes, (self.n, self._codes))

    # -------------------------------------------------------------- views

    @property
    def edge_count(self) -> int:
        return int(self._codes.size)

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node label {u} out of range for n={self.n}")

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor list of ``u`` (read-only view)."""
        self._check_node(u)
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        code = min(u, v) * self.n + max(u, v)
        i = np.searchsorted(self._codes, code)
        return i < self._codes.size and self._codes[i] == code

    def edge_codes(self) -> np.ndarray:
        """Canonical codes ``u * n + v`` (u < v), ascending (the stored, read-only array)."""
        return self._codes

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as an (E, 2) array with u < v, lexicographic."""
        return np.column_stack(_split(self._codes, self.n))

    def to_dense(self) -> np.ndarray:
        """Dense float adjacency matrix."""
        return adjacency(self).toarray()

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.edge_count / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._codes, other._codes)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _split(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(us, vs)`` of the canonical codes ``u * n + v``; the
    subtraction takes half the time of a divmod."""
    us = codes // n
    return us, codes - us * n


def _check_codes_fit(n: int) -> None:
    """Reject a node count whose edge codes ``u * n + v`` cannot fit in int64."""
    if n > _MAX_NODES:
        raise ValueError(f"edge codes u * n + v need n <= {_MAX_NODES} to fit in int64, got n={n}")


def adjacency(g: Graph) -> scipy.sparse.coo_matrix:
    """The adjacency matrix A of ``g`` in coordinate form, built from the codes with no sort.

    The first half of the entries is (v, u) for every code u * n + v, the
    second half (u, v), both in code order.  Row x so lists its smaller
    neighbors ascending and then its larger ones ascending: the terms of a
    sorted CSR row, in that row's order.  SciPy's coordinate product adds
    ``y[row[k]] += x[col[k]]`` in stored order, starting from 0.0, so its
    results are those of the sorted rows bit for bit.  ``tocsr()`` is a
    stable counting sort by row, so it yields the sorted rows themselves.
    """
    n = g.n
    us, vs = _split(g.edge_codes(), n)
    # int32 below 2**31 nodes: given int64, scipy would cast them itself, at
    # twice the build time
    index = scipy.sparse.get_index_dtype(maxval=n)
    rows = np.concatenate([vs, us], dtype=index)
    cols = np.concatenate([us, vs], dtype=index)
    return scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Block-diagonal union: the nodes of ``graphs[i]`` follow those of the graphs before it.

    Each graph's codes are re-based to the union's node count and offset,
    and concatenated; they stay ascending because the blocks do.  The union
    of one graph is that graph itself: graphs are immutable.
    """
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    if len(graphs) == 1:
        return graphs[0]
    node_offsets = np.cumsum([0] + [g.n for g in graphs])
    total = np.int64(node_offsets[-1])
    parts = []
    for g, off in zip(graphs, node_offsets):
        us, vs = _split(g.edge_codes(), g.n)
        parts.append((us + off) * total + (vs + off))
    return Graph._from_codes(int(total), np.concatenate(parts))


def density(g: Graph) -> float:
    """Fraction of realized node pairs, 2E / (n (n - 1))."""
    if g.n < 2:
        raise ValueError("density requires at least two nodes")
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def is_connected(g: Graph) -> bool:
    """Whether every node is reachable from every other; the empty graph is connected.

    Connected components of :func:`adjacency`: no CSR of the graph is cached.
    """
    # imported here: no run of the pipeline checks connectivity, and the
    # import costs every start ~15 ms
    from scipy.sparse.csgraph import connected_components

    return g.n == 0 or connected_components(adjacency(g), directed=False, return_labels=False) == 1


# =====================================================================
# Generator specifications
# =====================================================================


@dataclass(frozen=True)
class GraphGenSpec:
    """Parameters of one random background graph.

    Exactly one family parameter must be set for the chosen model:
    ``avg_degree`` for Erdős–Rényi ("er"), ``m`` for preferential attachment
    ("ba"), ``k`` for the rewired ring lattice ("sw", with rewiring
    probability ``beta``).  Only "sw" reads ``beta``, but every model
    carries it into reports, so it must lie in [0, 1] for every model.
    ``n`` is bounded by the int64 edge codes (:data:`_MAX_NODES`).
    """

    model: Model
    n: int
    avg_degree: float | None = None
    m: int | None = None
    k: int | None = None
    beta: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("er", "ba", "sw"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        _check_codes_fit(self.n)
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.model == "er":
            if self.avg_degree is None or self.m is not None or self.k is not None:
                raise ValueError("model 'er' takes avg_degree only")
            if not 0.0 <= self.avg_degree <= self.n - 1:
                raise ValueError(f"avg_degree must lie in [0, n-1], got {self.avg_degree}")
        elif self.model == "ba":
            if self.m is None or self.avg_degree is not None or self.k is not None:
                raise ValueError("model 'ba' takes m only")
            if not 1 <= self.m < self.n:
                raise ValueError(f"m must lie in [1, n), got {self.m}")
        else:  # sw
            if self.k is None or self.avg_degree is not None or self.m is not None:
                raise ValueError("model 'sw' takes k (and optional beta) only")
            if self.k % 2 != 0 or not 2 <= self.k < self.n:
                raise ValueError(f"k must be even with 2 <= k < n, got {self.k}")

    def nominal_mean_degree(self) -> float:
        """Mean degree implied by the parameters (exact for 'ba' and 'sw')."""
        if self.model == "er":
            return float(self.avg_degree)
        if self.model == "ba":
            m = self.m
            edges = m * (m + 1) // 2 + m * (self.n - m - 1)
            return 2.0 * edges / self.n
        return float(self.k)


def generate(spec: GraphGenSpec, seeds: Iterable[int] | None = None) -> Graph:
    """The graph of ``spec`` or, given ``seeds``, a stack of graphs of ``spec``.

    ``generate(spec)`` is ``generate(spec, [spec.seed])``, and
    ``generate(spec, seeds)`` is the :func:`disjoint_union` of the graphs of
    ``replace(spec, seed=s)`` over ``seeds``, byte for byte.  This is the one
    dispatch on ``spec.model``: every ER graph or stack, of any p, is
    generated in one vectorized pass (:func:`_er_stack`), and a BA or SW
    stack unions its per-seed graphs.  An empty seed list is an error.
    """
    seeds = [spec.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ValueError("generate needs at least one seed, got an empty seed list")
    _check_codes_fit(len(seeds) * spec.n)
    if spec.model == "er":
        return _er_stack(spec, seeds)
    gen = gen_barabasi_albert if spec.model == "ba" else gen_watts_strogatz
    return disjoint_union([gen(dataclasses.replace(spec, seed=s)) for s in seeds])


def _er_block_margin(mean: float) -> float:
    """Gaps drawn in the first ER block beyond the ``mean`` successes expected:
    six standard deviations of the edge count, and 16 for small means."""
    return 6.0 * math.sqrt(mean) + 16.0


def _er_first_block(total: int, p: float) -> int:
    """Gaps in the first ER block over ``total`` pairs: the expected successes plus the margin."""
    return math.ceil(total * p + _er_block_margin(total * p))


def _decode_pairs(n: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(us, vs)`` of the pairs at lexicographic ``positions`` among the pairs of n nodes.

    Counted from the end, row u holds the r = n - 1 - u pairs that follow
    the r(r - 1)/2 pairs of the rows after it, so a pair with ``back`` pairs
    after it lies in the row of the largest r with r(r - 1)/2 <= back: the
    floor of 1/2 + sqrt(2 back + 1/4).  Shifted down by 1/4, that root is
    computed in floating point with an error far below 1/4 for any n whose
    codes fit in int64 (IEEE ``sqrt`` is correctly rounded), so its floor is
    r or r - 1, and one exact integer comparison settles which.  Counting
    from the end keeps the root exact near the last pair, where the forward
    root's argument, (2n - 1)^2 - 8k, cancels.
    """
    back = (n * (n - 1) // 2 - 1) - positions
    r = (np.sqrt(back * 2.0 + 0.25) + 0.25).astype(np.int64)
    back -= (r * (r - 1)) >> 1  # pairs after this one in its row, if r is right
    up = back >= r  # r is one short: the pair lies in the row before
    back -= r * up
    r += up
    return (n - 1) - r, (n - 1) - back


def gen_erdos_renyi(spec: GraphGenSpec) -> Graph:
    """G(n, p) with p = avg_degree / (n - 1).

    Pairs are enumerated in lexicographic order and successes located by
    geometric gap-skipping (Batagelj & Brandes 2005), so the cost is O(E)
    rather than O(n^2): the one-seed stack of :func:`_er_stack`.
    """
    if spec.model != "er":
        raise ValueError("gen_erdos_renyi requires an 'er' spec")
    return _er_stack(spec, [spec.seed])


def _er_stack(spec: GraphGenSpec, seeds: list[int]) -> Graph:
    """``generate(spec, seeds)`` for ER, of any p, in one 2-D pass.

    Row ``j`` of one ``(len(seeds), block)`` array holds the positions of
    ``seeds[j]``'s edges in the lexicographic enumeration of pairs: none for
    p <= 0, every pair for p >= 1.  Otherwise the row's uniforms
    (:func:`~communifind.rng.stacked_uniforms`) go through
    :func:`~communifind.rng.geometric_gaps`, capped at the pair count, and
    their cumulative sum along the row gives the positions.  The block holds
    the expected number of successes plus :func:`_er_block_margin`, so it
    almost always reaches the last pair; while some row ends short of it,
    the stack draws again with twice the gaps, which extend every row's
    gaps at the same counters.  Each row keeps its positions before its
    first one past the last pair (the sums after that one may overflow), so
    no graph depends on the block size or on the batching.  One
    :func:`_decode_pairs` call decodes the kept pairs of every row, and
    block ``j``'s codes are shifted by ``j * n`` nodes into the union's
    numbering.
    """
    n = spec.n
    p = spec.avg_degree / (n - 1)
    total = n * (n - 1) // 2
    rows = len(seeds)
    size = rows * n
    if p <= 0.0:
        positions = np.empty((rows, 0), dtype=np.int64)
        ends = np.zeros(rows, dtype=np.int64)
    elif p >= 1.0:
        positions = np.broadcast_to(np.arange(total, dtype=np.int64), (rows, total))
        ends = np.full(rows, total, dtype=np.int64)
    else:
        block = _er_first_block(total, p)
        while True:
            # in place: each fresh array of this size would cost its page faults
            gaps = geometric_gaps(stacked_uniforms(seeds, block), p)
            np.minimum(gaps, total, out=gaps)
            gaps += 1
            positions = np.cumsum(gaps, axis=1, out=gaps)
            positions -= 1
            # a row's first position past the last pair is at most
            # 2 * total < n * n, so exact; the sums after it may wrap around
            crossed = positions >= total
            ends = crossed.argmax(axis=1)
            if crossed[np.arange(rows), ends].all():
                break
            block *= 2
    kept = np.arange(positions.shape[1]) < ends[:, None]
    us, vs = _decode_pairs(n, positions[kept])  # row by row, so the codes ascend
    codes = us * size + vs
    # (u + o) * size + (v + o) for block offset o = j * n
    codes += np.repeat(np.arange(0, size, n, dtype=np.int64) * (size + 1), ends)
    return Graph._from_codes(size, codes)


_FEED_BLOCK = 4096  # uniforms per refill of a sequential draw loop


def _uniform_feed(rng: SeededRng) -> Iterator[float]:
    """Endless uniforms of ``rng`` in stream order, drawn a block at a time."""
    while True:
        yield from rng.uniforms(_FEED_BLOCK).tolist()


def gen_barabasi_albert(spec: GraphGenSpec) -> Graph:
    """Preferential attachment: seed clique on m + 1 nodes, then m edges per node.

    Each arriving node picks m distinct targets with probability proportional
    to current degree (repeated-node list sampling with rejection of
    duplicates, from uniforms drawn a block at a time).  The result is
    connected with exactly C(m+1, 2) + m (n - m - 1) edges.
    """
    if spec.model != "ba":
        raise ValueError("gen_barabasi_albert requires a 'ba' spec")
    n, m = spec.n, spec.m
    feed = _uniform_feed(SeededRng(spec.seed))
    # one entry per unit of degree; sampling an index uniformly is
    # degree-proportional sampling of the node stored there
    repeated: list[int] = [v for v in range(m + 1) for _ in range(m)]
    targets: list[int] = []
    for u in range(m + 1, n):
        size = len(repeated)
        chosen: list[int] = []
        while len(chosen) < m:
            pick = repeated[int(next(feed) * size)]
            if pick not in chosen:
                chosen.append(pick)
        targets.extend(chosen)
        repeated.extend(chosen)
        repeated.extend([u] * m)
    seed_u, seed_v = np.triu_indices(m + 1, k=1)
    arrivals = np.repeat(np.arange(m + 1, n, dtype=np.int64), m)
    codes = np.concatenate([seed_u * n + seed_v, np.asarray(targets, dtype=np.int64) * n + arrivals])
    return Graph._from_codes(n, np.sort(codes))


def gen_watts_strogatz(spec: GraphGenSpec) -> Graph:
    """Ring lattice with k/2 neighbors per side, each edge rewired with prob beta.

    Rewiring keeps the near endpoint and redraws the far one uniformly until
    it is neither the node itself nor an existing neighbor; a node already
    adjacent to everyone keeps its edge.  The edge count stays exactly n k / 2.

    Lattice edge ``j`` joins ``u = j % n`` to ``u + j // n + 1`` (mod n); the
    decisions for all of them come from one block of uniforms, and only the
    chosen edges are rewired in a loop.  A pair is adjacent when it is a
    lattice pair not yet removed, or a pair added by rewiring, so no
    adjacency sets are kept.  The loop reads its endpoints ``int(x * n)``
    from uniforms ``x`` drawn ``_FEED_BLOCK`` at a time.  The chosen edges'
    codes leave the cached lattice codes by binary search, and the added
    ones, with any chosen edge that stays, are merged in.
    """
    if spec.model != "sw":
        raise ValueError("gen_watts_strogatz requires an 'sw' spec")
    n, k, beta = spec.n, spec.k, spec.beta
    half = k // 2
    lattice = _ring_lattice(n, k)
    removed: set[int] = set()
    added: set[int] = set()
    gone = np.empty(0, dtype=np.int64)
    if beta > 0.0:
        rng = SeededRng(spec.seed)
        chosen = np.flatnonzero(rng.uniforms(n * half) < beta)
        near = chosen % n
        far = (chosen + chosen // n + 1) % n
        gone = np.minimum(near, far) * n + np.maximum(near, far)
        ends: list[int] = []  # pre-drawn endpoints, read from ends[at] on
        at = 0
        degree = [k] * n
        for u, old, pair in zip(near.tolist(), far.tolist(), gone.tolist()):
            if degree[u] >= n - 1:
                # no valid endpoint: the pair stays, adjacent, so no draw accepts it either way
                added.add(pair)
                continue
            while True:
                if at == len(ends):
                    ends = (rng.uniforms(_FEED_BLOCK) * n).astype(np.int64).tolist()
                    at = 0
                w = ends[at]
                at += 1
                dist = u - w if u > w else w - u
                if dist == 0:
                    continue
                code = u * n + w if u < w else w * n + u
                # accept a pair that is not adjacent: beyond the lattice's
                # ring distance or a removed lattice pair, and not added
                if (dist > half and n - dist > half or code in removed) and code not in added:
                    break
            removed.add(pair)
            degree[old] -= 1
            degree[w] += 1
            added.add(code)
    # the kept lattice codes are ascending already (and sorted needles search
    # ~1/3 faster); the added ones, none of them kept, are merged in
    kept = np.delete(lattice, np.searchsorted(lattice, np.sort(gone)))
    new = np.sort(np.fromiter(added, dtype=np.int64, count=len(added)))
    return Graph._from_codes(n, np.insert(kept, np.searchsorted(kept, new), new))


@functools.lru_cache(maxsize=8)
def _ring_lattice(n: int, k: int) -> np.ndarray:
    """The edge codes of :func:`gen_watts_strogatz`'s ring lattice, ascending,
    cached per ``(n, k)`` and read-only: edge ``j`` joins ``j % n`` to
    ``j % n + j // n + 1`` (mod n)."""
    near = np.tile(np.arange(n, dtype=np.int64), k // 2)
    far = (near + np.repeat(np.arange(1, k // 2 + 1, dtype=np.int64), n)) % n
    codes = np.sort(np.minimum(near, far) * n + np.maximum(near, far))
    codes.flags.writeable = False
    return codes


# =====================================================================
# Target sub-graphs
# =====================================================================


@dataclass(frozen=True)
class TargetSpec:
    """A small graph to hide: ``t`` nodes labelled 0..t-1 plus its edge set."""

    t: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError(f"target needs at least two nodes, got t={self.t}")
        canon = []
        for u, v in self.edges:
            if u == v:
                raise ValueError("target edges may not be self-loops")
            if not (0 <= u < self.t and 0 <= v < self.t):
                raise ValueError(f"target edge ({u}, {v}) out of range for t={self.t}")
            canon.append((min(u, v), max(u, v)))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate target edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.t, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def to_graph(self) -> Graph:
        return Graph.from_pairs(self.t, self.edges)


def clique(t: int) -> TargetSpec:
    """Complete graph on t nodes."""
    if t < 2:
        raise ValueError(f"clique needs t >= 2, got {t}")
    return TargetSpec(t, tuple((u, v) for u in range(t) for v in range(u + 1, t)))


_SPARSE_T = 20
_SPARSE_EDGES = 21
_SPARSE_MAX_DEGREE = 4


def canonical_sparse_target(seed: int = 0) -> TargetSpec:
    """Deterministic sparse target: 20 nodes, 21 edges, max degree exactly 4, connected.

    Construction is rejection sampling: a uniform random labelled tree
    (decoded from a random Prüfer sequence) capped at degree 4, plus two
    extra edges between non-adjacent nodes of degree < 4; attempts are
    discarded until the maximum degree is exactly 4.  Mean degree is
    2 * 21 / 20 = 2.1 by construction.
    """
    t = _SPARSE_T
    rng = SeededRng(seed)
    while True:
        seq = [rng.randrange(t) for _ in range(t - 2)]
        deg = [1] * t
        for x in seq:
            deg[x] += 1
        if max(deg) > _SPARSE_MAX_DEGREE:
            continue
        edges = _decode_pruefer(seq)
        for _ in range(_SPARSE_EDGES - (t - 1)):
            have = set(edges)
            candidates = [
                (u, v)
                for u in range(t)
                for v in range(u + 1, t)
                if deg[u] < _SPARSE_MAX_DEGREE and deg[v] < _SPARSE_MAX_DEGREE and (u, v) not in have
            ]
            u, v = candidates[rng.randrange(len(candidates))]
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
        if max(deg) == _SPARSE_MAX_DEGREE:
            return TargetSpec(t, tuple(edges))


def _decode_pruefer(seq: list[int]) -> list[tuple[int, int]]:
    """Standard Prüfer decoding; the tree spans 0..len(seq)+1."""
    t = len(seq) + 2
    deg = [1] * t
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(t) if deg[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[leaf] -= 1
        deg[x] -= 1
    a, b = [v for v in range(t) if deg[v] == 1]
    edges.append((a, b))
    return edges


# =====================================================================
# Edge-list IO
# =====================================================================


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_NODES_HEADER = "# nodes:"


def write_edge_list(g: Graph, out: TextIO) -> None:
    """Write one ``u v`` pair per line, preceded by a structured node-count header.

    The ``# nodes:`` header lets graphs with trailing isolated nodes (or no
    edges at all) survive a round trip; other ``#`` lines are free-form.
    """
    out.write(f"{_NODES_HEADER} {g.n}\n")
    out.write(f"# edges: {g.edge_count}\n")
    for u, v in g.edge_pairs():
        out.write(f"{u} {v}\n")


def read_edge_list(source: Iterable[str], *, num_nodes: int | None = None) -> Graph:
    """Parse an edge list: one ``u v`` pair per line, 0-based integer labels.

    Blank lines and ``#`` comments are skipped, except that a ``# nodes: N``
    header (as emitted by :func:`write_edge_list`) fixes the node count.  An
    explicit ``num_nodes`` argument overrides both the header and the
    max-label fallback.  Pairs are symmetrized; a repeated unordered pair,
    a self-loop, a non-integer token, or an out-of-range label is an error
    reported with its line number.
    """
    declared = num_nodes
    pairs: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    max_label = -1
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if num_nodes is None and line.lower().startswith(_NODES_HEADER):
                tail = line[len(_NODES_HEADER) :].strip()
                try:
                    declared = int(tail)
                except ValueError:
                    raise EdgeListParseError(line_no, f"bad node-count header {line!r}") from None
                if declared < 0:
                    raise EdgeListParseError(line_no, "node count must be nonnegative")
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected two tokens, got {len(tokens)}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer node label in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, "node labels must be nonnegative")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at node {u}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise EdgeListParseError(line_no, f"duplicate edge {pair} (first on line {seen[pair]})")
        seen[pair] = line_no
        pairs.append(pair)
        max_label = max(max_label, pair[1])
    n = declared if declared is not None else max_label + 1
    if max_label >= n:
        bad = next(ln for (a, b), ln in seen.items() if b >= n)
        raise EdgeListParseError(bad, f"node label exceeds declared node count {n}")
    return Graph.from_pairs(n, pairs)
