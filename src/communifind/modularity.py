"""Spectral modularity baseline for the same hidden-sub-graph task.

The modularity matrix B = A - d d^T / (2E) removes the degree-expected
connectivity; residual structure concentrates in a few eigenvectors.  Over a
window of background realizations the per-realization matrices are blended
with fixed coefficients, the top-r eigenvectors are scanned for the one with
the smallest L1 norm (localized eigenvectors are suspicious), and a 2-means
split of the node projections around that eigenvector's strongest node
separates candidate target nodes from the noise cloud.

B is never formed: a blend of N matrices is a sparse adjacency blend minus a
rank-N degree term, and ARPACK finds the top-r eigenvectors from products
with it, so the baseline has no node cap and no O(n^3) step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

from . import graphs
from .expm import NumericalBreakdownError
from .graphs import Graph
from .identify import ExperimentConfig, RunResult, _map_runs
from .rng import SeededRng

__all__ = [
    "ModularityMatrix",
    "FilterCoeffs",
    "EigenScan",
    "modularity_matrix",
    "temporal_filter",
    "eigen_l1_scores",
    "two_means_split",
    "baseline_candidates",
    "run_baseline",
]

_COEFF_SUM_TOL = 1e-9
_START_SEED = 0  # splitmix64 seed of the scan's start vector
_SPLIT_MAX_ITER = 100  # Lloyd iterations of the two-means split


@dataclass(frozen=True)
class ModularityMatrix:
    """Modularity matrix B = S - D diag(w) D^T, held as its sparse and low-rank parts.

    ``adjacency`` is the (blended) sparse adjacency S, ``degree_cols`` the
    n x N matrix D of the degree vectors it was built from and ``weights``
    their weights w (1/(2E) for one graph).  B is never formed: ``b @ x``
    costs one sparse product and two products with the N columns of D.
    """

    n: int
    adjacency: scipy.sparse.csr_matrix
    degree_cols: np.ndarray
    weights: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B x for a length-n vector x."""
        return self.adjacency @ x - self.degree_cols @ (self.weights * (self.degree_cols.T @ x))

    def to_dense(self) -> np.ndarray:
        """B as an n x n array."""
        return self.adjacency.toarray() - (self.degree_cols * self.weights) @ self.degree_cols.T


@dataclass(frozen=True)
class FilterCoeffs:
    """Blend weights over a window of realizations; finite, and must sum to one."""

    c: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.c) < 1:
            raise ValueError("need at least one coefficient")
        if not all(math.isfinite(x) for x in self.c):
            raise ValueError(f"coefficients must be finite, got {self.c!r}")
        total = sum(self.c)
        if not abs(total - 1.0) <= _COEFF_SUM_TOL:  # False for a NaN sum too
            raise ValueError(f"coefficients must sum to 1, got {total!r}")

    @staticmethod
    def uniform(window: int) -> "FilterCoeffs":
        if window < 1:
            raise ValueError("window must be >= 1")
        return FilterCoeffs(c=tuple(1.0 / window for _ in range(window)))

    def __len__(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class EigenScan:
    """Top-r eigenvector scan: L1 norms, the flagged (min-L1) eigenvector,
    the strongest node inside it, and the n x r node projection."""

    norms: np.ndarray
    flagged_index: int
    seed_node: int
    coords: np.ndarray
    eigenvalues: np.ndarray


def modularity_matrix(g: Graph) -> ModularityMatrix:
    """B = A - d d^T / (2E); rows sum to zero by construction.

    A is :func:`~communifind.graphs.adjacency` in CSR form and d its row
    lengths, so the graph caches no rows of its own.
    """
    if g.edge_count < 1:
        raise ValueError("modularity matrix needs at least one edge")
    a = graphs.adjacency(g).tocsr()
    d = np.diff(a.indptr).astype(np.float64)
    return ModularityMatrix(
        n=g.n,
        adjacency=a,
        degree_cols=d[:, None],
        weights=np.array([1.0 / (2.0 * g.edge_count)]),
    )


def temporal_filter(mats: Sequence[ModularityMatrix], coeffs: FilterCoeffs) -> ModularityMatrix:
    """Coefficient blend of a window of modularity matrices.

    ``mats[l]`` is weighted by ``coeffs.c[l]`` (index 0 = most recent).  Row
    sums stay zero because each input's do.  The degree columns are stacked,
    each one's weight scaled by its coefficient.
    """
    if len(mats) != len(coeffs):
        raise ValueError(f"window size {len(mats)} != coefficient count {len(coeffs)}")
    n = mats[0].n
    for m in mats:
        if m.n != n:
            raise ValueError("all matrices in the window must share the node set")
    return ModularityMatrix(
        n=n,
        adjacency=sum(c * m.adjacency for m, c in zip(mats, coeffs.c)),
        degree_cols=np.hstack([m.degree_cols for m in mats]),
        weights=np.concatenate([c * m.weights for m, c in zip(mats, coeffs.c)]),
    )


def eigen_l1_scores(b: ModularityMatrix, r: int = 10) -> EigenScan:
    """Scan the r leading eigenvectors for the most localized one.

    Eigenvectors are unit-L2, so the L1 norm ranges from 1 (a single spike)
    to sqrt(n) (fully delocalized); the minimum-L1 eigenvector is flagged
    and its largest-magnitude component names the seed anomalous node.

    ARPACK (``eigsh``) finds the r largest eigenpairs from products with B
    only, started from a fixed splitmix64 vector so reruns are identical.
    Eigenvector signs are arbitrary; the L1 norms, the seed node and the
    two-means distances do not depend on them.  ARPACK needs r < n, so
    r = n, reachable only on graphs of at most r nodes, forms B densely.
    A scan that ARPACK fails, by not converging or by any other ARPACK
    error, raises :class:`NumericalBreakdownError`.
    """
    if not 1 <= r <= b.n:
        raise ValueError(f"r must lie in [1, {b.n}], got {r}")
    if r == b.n:
        values, coords = np.linalg.eigh(b.to_dense())
    else:
        # imported on first use, so that importing the package does not pay for it
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        op = LinearOperator((b.n, b.n), matvec=b.__matmul__, dtype=np.float64)
        # not the all-ones vector: B maps it to zero, an exact eigenvector
        v0 = SeededRng(_START_SEED).uniforms(b.n) - 0.5
        try:
            values, coords = eigsh(op, k=r, which="LA", v0=v0)
        except ArpackError as exc:  # no convergence, or no Arnoldi factorization at all
            raise NumericalBreakdownError(f"eigenvector scan failed: {exc}") from exc
    order = np.argsort(-values, kind="stable")  # descending eigenvalue order
    values, coords = values[order], coords[:, order]
    norms = np.abs(coords).sum(axis=0)
    flagged = int(np.argmin(norms))
    seed_node = int(np.argmax(np.abs(coords[:, flagged])))
    return EigenScan(
        norms=norms,
        flagged_index=flagged,
        seed_node=seed_node,
        coords=coords,
        eigenvalues=values,
    )


def two_means_split(coords: np.ndarray, seed_node: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-cluster Lloyd split of node projections, seeded deterministically.

    Centroids start at the seed node's coordinates and the grand mean; ties
    in the distance comparison go to the seed cluster.  Returns
    (target_nodes, noise_nodes): the smaller cluster is the target, an exact
    size tie resolved to the cluster containing the seed node.  Degenerate
    input (all rows identical, or a cluster emptying out) is an error.
    """
    x = np.asarray(coords, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("coords must be an (n, r) array")
    n = x.shape[0]
    if not 0 <= seed_node < n:
        raise ValueError(f"seed node {seed_node} out of range")
    if np.all(x == x[0]):
        raise ValueError("cannot split: all node projections are identical")
    c_seed = x[seed_node].copy()
    c_noise = x.mean(axis=0)
    assign: np.ndarray | None = None
    for _ in range(_SPLIT_MAX_ITER):
        d_seed = ((x - c_seed) ** 2).sum(axis=1)
        d_noise = ((x - c_noise) ** 2).sum(axis=1)
        new_assign = d_noise < d_seed  # False (= seed cluster) wins ties
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        if assign.all() or not assign.any():
            raise ValueError("cannot split: one cluster is empty")
        c_seed = x[~assign].mean(axis=0)
        c_noise = x[assign].mean(axis=0)
    cluster_seed = np.flatnonzero(~assign)
    cluster_noise = np.flatnonzero(assign)
    if cluster_seed.size < cluster_noise.size:
        return cluster_seed, cluster_noise
    if cluster_noise.size < cluster_seed.size:
        return cluster_noise, cluster_seed
    if seed_node in cluster_seed:
        return cluster_seed, cluster_noise
    return cluster_noise, cluster_seed


def _scan(hosts: Iterable[Graph], coeffs: FilterCoeffs, r: int) -> EigenScan:
    """Eigenvector scan of the blended modularity matrices of the hosts."""
    mats = [modularity_matrix(h) for h in hosts]
    return eigen_l1_scores(temporal_filter(mats, coeffs), r)


def _split(scan: EigenScan) -> np.ndarray:
    """Sorted target side of the two-means split around the scan's seed node."""
    target_nodes, _ = two_means_split(scan.coords, scan.seed_node)
    return np.sort(target_nodes).astype(np.int64)


def baseline_candidates(
    hosts: Sequence[Graph], coeffs: FilterCoeffs, r: int = 10
) -> np.ndarray:
    """Candidate target nodes from a window of embedded host graphs."""
    return _split(_scan(hosts, coeffs, r))


def run_baseline(
    cfg: ExperimentConfig,
    *,
    coeffs: FilterCoeffs | None = None,
    r: int = 10,
    jobs: int = 1,
) -> list[RunResult]:
    """Run the modularity baseline under the same seeding scheme as the
    communicability pipeline, so per-run instances are directly comparable.

    ``cfg.num_backgrounds`` doubles as the filter window; ``coeffs`` defaults
    to the uniform blend.  Runs go through the same driver and worker pool
    as :func:`~communifind.identify.run_pipeline`; results are identical for
    any ``jobs``, apart from their phase ``seconds``.
    """
    if coeffs is None:
        coeffs = FilterCoeffs.uniform(cfg.num_backgrounds)
    if len(coeffs) != cfg.num_backgrounds:
        raise ValueError(
            f"coeffs: need one coefficient per background ({cfg.num_backgrounds}), got {len(coeffs)}"
        )
    return _map_runs(cfg, jobs, score=functools.partial(_scan, coeffs=coeffs, r=r), select=_split)
