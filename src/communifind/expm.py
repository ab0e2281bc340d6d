"""Action of the adjacency-matrix exponential on a vector.

The workhorse is :func:`expm_action`, a symmetric Lanczos approximation of
``exp(A) v`` with full reorthogonalization and a restart policy that keeps at
most ``m`` basis vectors in memory: when a cycle of ``m`` steps has not
converged, a fresh recurrence is started from the residual direction, and the
cycles stay coupled through a one-sided connector entry in a growing
block-triangular projection matrix.  Each completed cycle contributes
``beta0 * V_c @ exp(H)[block c, 0]`` with H as of that cycle's end — the next
cycles then approximate the remaining error, so discarding old bases loses
nothing.  :func:`expm_dense_oracle` is the independent dense reference used
to validate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .graphs import Graph

__all__ = [
    "KrylovParams",
    "ExpmResult",
    "NumericalBreakdownError",
    "expm_action",
    "expm_dense_oracle",
]

_ORACLE_MAX_NODES = 512


class NumericalBreakdownError(ArithmeticError):
    """A Krylov solve failed: a non-finite quantity appeared during the
    recurrence, or an eigensolver did not converge."""


@dataclass(frozen=True)
class KrylovParams:
    """Knobs of the Lanczos approximation.

    m: largest number of basis vectors held per cycle.
    tol: relative change between successive iterates accepted as converged.
    max_restarts: additional m-step cycles allowed after the first.
    """

    m: int = 30
    tol: float = 1e-8
    max_restarts: int = 4

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need m >= 2, got m={self.m}")
        if not self.tol > 0.0:
            raise ValueError(f"need tol > 0, got tol={self.tol}")
        if self.max_restarts < 0:
            raise ValueError(f"need max_restarts >= 0, got {self.max_restarts}")


@dataclass(frozen=True)
class ExpmResult:
    """Approximation of exp(A) v with its error estimate and step count."""

    value: np.ndarray
    est_error: float
    iterations: int


def _adjacency_csr(g: Graph) -> scipy.sparse.csr_matrix:
    data = np.ones(g.indices.size)
    return scipy.sparse.csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def _expm_first_col(h: np.ndarray, *, tridiagonal: bool) -> np.ndarray:
    """First column of exp(h) for the small projected matrix.

    Within the first cycle h is symmetric tridiagonal and a direct
    eigendecomposition is cheapest; once restarts add one-sided connector
    entries the matrix is no longer symmetric and the general dense
    exponential is used instead.
    """
    if h.shape[0] == 1:
        return np.exp(h[0, :1]).copy()
    if tridiagonal:
        w, q = scipy.linalg.eigh_tridiagonal(np.diag(h).copy(), np.diag(h, -1).copy())
        return q @ (np.exp(w) * q[0, :])
    return np.ascontiguousarray(scipy.linalg.expm(h)[:, 0])


def _relative_change(x: np.ndarray, x_prev: np.ndarray, blocks: int) -> float:
    """Largest ||x_b - x_prev_b|| / ||x_b|| over the ``blocks`` equal consecutive parts."""
    change = np.linalg.norm((x - x_prev).reshape(blocks, -1), axis=1)
    size = np.linalg.norm(x.reshape(blocks, -1), axis=1)
    if np.any(size == 0.0):
        return np.inf
    return float(np.max(change / size))


def expm_action(
    g: Graph, v: np.ndarray, params: KrylovParams = KrylovParams(), *, blocks: int = 1
) -> ExpmResult:
    """Approximate ``exp(A) v`` for the adjacency matrix A of ``g``.

    Parameters
    ----------
    g : Graph
        Input graph; A is its symmetric 0/1 adjacency matrix.
    v : ndarray, shape (n,)
        Nonzero finite vector to propagate.
    params : KrylovParams
        Subspace size, convergence tolerance and restart budget.
    blocks : int
        Number of equal consecutive parts of the iterate that must each meet
        ``tol``; use the number of graphs when ``g`` is a
        :func:`~communifind.graphs.disjoint_union`, so a small or weak block
        is not judged converged on the strength of a dominant one.

    Returns
    -------
    ExpmResult
        ``value`` is the approximation, ``est_error`` the largest relative
        change of a block of the final iterate (0.0 when an invariant
        subspace made the result exact), ``iterations`` the total Lanczos
        steps across all cycles.

    Raises
    ------
    ValueError
        If ``v`` has the wrong length, is identically zero, or is not finite,
        or if ``blocks`` does not divide the node count.
    NumericalBreakdownError
        If a non-finite intermediate appears (e.g. overflow of exp).
    """
    n = g.n
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"v must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v must be finite")
    if blocks < 1 or n % blocks:
        raise ValueError(f"blocks must be a positive divisor of n={n}, got {blocks}")
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        raise ValueError("cannot propagate the zero vector")

    a = _adjacency_csr(g)
    cap = params.m * (params.max_restarts + 1)
    h = np.zeros((cap, cap))  # projected matrix, grows one row/column per step
    x_base = np.zeros(n)  # frozen contribution of completed cycles
    x_prev: np.ndarray | None = None
    diff = np.inf
    v_cur = v / beta0
    connector = 0.0  # residual norm carried over a cycle boundary
    s = 0  # completed steps across all cycles

    for cycle in range(params.max_restarts + 1):
        basis = np.empty((params.m, n))
        cycle_start = s
        if cycle:
            # one-sided coupling into the previous cycle's last step
            h[cycle_start, cycle_start - 1] = connector
        jloc = 0
        y = np.empty(0)
        for _j in range(params.m):
            basis[jloc] = v_cur
            jloc += 1
            w = a @ v_cur
            alpha = float(v_cur @ w)
            w -= alpha * v_cur
            if jloc > 1:
                w -= h[s, s - 1] * basis[jloc - 2]
            # full reorthogonalization against the retained basis (two passes)
            for _ in range(2):
                w -= basis[:jloc].T @ (basis[:jloc] @ w)
            if not np.isfinite(alpha):
                raise NumericalBreakdownError("non-finite Lanczos coefficient")
            h[s, s] = alpha
            s += 1
            y = _expm_first_col(h[:s, :s], tridiagonal=cycle == 0)
            x = x_base + beta0 * (basis[:jloc].T @ y[cycle_start:s])
            if not np.all(np.isfinite(x)):
                raise NumericalBreakdownError("non-finite iterate (exp overflow?)")
            if x_prev is not None:
                diff = _relative_change(x, x_prev, blocks)
            x_prev = x
            beta = float(np.linalg.norm(w))
            if not np.isfinite(beta):
                raise NumericalBreakdownError("non-finite Lanczos coefficient")
            if beta <= 1e-12 * max(1.0, abs(alpha)):
                # invariant subspace reached: the approximation is exact
                return ExpmResult(value=x, est_error=0.0, iterations=s)
            if diff <= params.tol:
                return ExpmResult(value=x, est_error=diff, iterations=s)
            if jloc < params.m:
                h[s - 1, s] = beta
                h[s, s - 1] = beta
            v_cur = w / beta
        # cycle exhausted: freeze its contribution, exact for the projection
        # built so far; the next cycle approximates the remaining error
        x_base = x_base + beta0 * (basis.T @ y[cycle_start:s])
        connector = beta

    assert x_prev is not None
    return ExpmResult(value=x_prev, est_error=diff, iterations=s)


def expm_dense_oracle(g: Graph) -> np.ndarray:
    """Full ``exp(A)`` by dense symmetric eigendecomposition (reference path).

    Guarded to n <= 512: beyond that, form row sums with
    :func:`expm_action` instead of materializing the dense exponential.
    Rounding can leave tiny negative entries where the true value is zero,
    so the result is clipped at zero (the exact exponential of a nonnegative
    matrix is entrywise nonnegative).
    """
    if g.n > _ORACLE_MAX_NODES:
        raise ValueError(
            f"dense oracle is limited to n <= {_ORACLE_MAX_NODES} (got n={g.n}); "
            "use expm_action for large graphs"
        )
    w, q = np.linalg.eigh(g.to_dense())
    full = (q * np.exp(w)) @ q.T
    np.maximum(full, 0.0, out=full)
    return full
