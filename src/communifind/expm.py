"""Action of the adjacency-matrix exponential on a vector.

The workhorse is :func:`expm_action`, a plain symmetric Lanczos approximation
of ``exp(A) v``: one three-term recurrence of at most ``m`` steps, without
reorthogonalization (its docstring says why that is accurate).  It holds one
length-n basis vector per step taken, used only to form the iterate.
:func:`expm_dense_oracle` is the independent dense reference used to validate
it.

A step's sparse product runs over A in the coordinate form that
:func:`communifind.graphs.adjacency` builds once per solve from the graph's
ascending edge codes, with no sort.  Its entry order makes the products
those of the graph's sorted node-order rows bit for bit (the builder's
docstring says why).  On a 40 x 1024-node ER(avg 2) stack, one run's
backgrounds, the build takes ~0.3-1.2 ms, depending on the process's
earlier allocations, and a product ~0.10-0.17 ms (2-vCPU VM, 1 BLAS
thread).

Every basis vector has unit norm.  Were the basis orthonormal, the change
between successive iterates would be ``beta0 * ||y_s - [y_{s-1}; 0]||`` for
the projected vectors, and ``||x_s||`` would be ``beta0 * ||y_s||``.  Their
ratio estimates the relative change of the whole iterate, which in turn is
at most the largest change of a block.  While it is above ``2 * tol``, a step
keeps only its small projected vector and does not form the length-n
iterate.  The iterate (and, lazily, the previous one) is formed with the
same expressions whenever the ratio falls below, at the last step of the
budget, or on an invariant subspace.  Only a formed iterate is tested, so
the screen can delay a stop but never cause one; the tests check that it
delays none on the headline solves.  Every step pays for its screen with
y_s, an eigendecomposition of the s x s projected tridiagonal matrix
(``dstevd``: ~10-30 us at 5-15 steps).

A private hook (``_certify``, used by
:func:`communifind.communicability._certified_stacks`) can stop a solve
before ``tol``: from the first step whose projected change is at most the
hook's own, looser screen, every step forms its iterate and offers it, with
the previous one, to the hook.  ``tol`` is tested only where the plain
screen forms the iterate, so a solve the hook does not stop returns the
bytes of a solve without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np
import scipy.linalg.lapack

from . import graphs
from .graphs import Graph

__all__ = [
    "KrylovParams",
    "ExpmResult",
    "NumericalBreakdownError",
    "KrylovNotConvergedError",
    "expm_action",
    "expm_dense_oracle",
]

_ORACLE_MAX_NODES = 512
# Absolute slack of the screen, beyond the factor 2 on tol: it covers the
# rounding of forming the iterates, which matters only for tol near eps.
_SCREEN_SLACK = 1e-12
# The first basis block holds as many rows as fit below 4 MiB, the size from
# which numpy advises huge pages, so a short solve on a graph below 4 MiB at
# the floor's rows touches only its own rows; with 32 rows (5 MiB) on a
# 20480-node stack, peak RSS over 40-background runs read 0.1-2.4 MB higher.
# A full stack (40960 nodes) is over 4 MiB at the floor's rows: its block
# is 25 rows (8 MiB), and its certified solve (~7 steps), like its solve to
# 1e-8 (15 steps), stays inside it.  A 12-row floor, below 4 MiB there, lost
# on er-sparse-n40 (seed 37, 2-vCPU VM): 78.5 against 75.0 MB peak RSS and a
# parallel speed-up of 1.13-1.27 against 1.53-1.54; there a solve past 12
# steps copies its block into a larger one.  The floor also holds the
# slowest large single graphs measured (25 steps: BA m=2 at 1e5 nodes, SW
# k=40 at 5e4), so they grow no more often than with the former 32 rows.  A
# solve that outgrows the block doubles it, and the projected matrix with it.
_BASIS_BYTES = 1 << 22
_BASIS_MIN_ROWS = 25


class NumericalBreakdownError(ArithmeticError):
    """A Krylov solve failed: a non-finite quantity appeared during the
    recurrence, or an eigensolver did not converge."""


class KrylovNotConvergedError(NumericalBreakdownError):
    """A Krylov solve used its whole step budget without meeting ``tol``.

    Raised by the scoring functions, not by :func:`expm_action`, which
    returns such a result with ``converged=False``.
    """

    def __init__(self, est_error: float, tol: float, iterations: int) -> None:
        # the fields are the args, so the error pickles back from a worker
        super().__init__(est_error, tol, iterations)
        self.est_error = est_error
        self.tol = tol
        self.iterations = iterations

    def __str__(self) -> str:
        return (
            f"Krylov solve did not converge in {self.iterations} steps: "
            f"est_error={self.est_error:.3g} > tol={self.tol:.3g}"
        )


@dataclass(frozen=True)
class KrylovParams:
    """Knobs of the Lanczos approximation.

    m: most Lanczos steps per solve, and so most basis vectors held.
    tol: relative change between successive iterates accepted as converged;
    finite, since the change before the first pair of iterates counts as inf.
    """

    m: int = 150
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need m >= 2, got m={self.m}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"need a finite tol > 0, got tol={self.tol}")


@dataclass(frozen=True)
class ExpmResult:
    """Approximation of exp(A) v with its error estimate and step count.

    ``converged`` is True when ``tol`` was met, an invariant subspace made
    the result exact, or the caller's certificate hook stopped the solve
    within ``m`` steps, False when the step budget ran out first.
    ``certified`` is True when the hook, not ``tol``, stopped it; then
    ``est_error`` may exceed ``tol``.
    """

    value: np.ndarray
    est_error: float
    iterations: int
    converged: bool
    certified: bool = False


class _Certificate(Protocol):
    """The private stopping hook of :func:`expm_action`.

    From the first step whose projected relative change is at most
    ``screen`` on, the solve forms every iterate, and it calls the hook with
    each formed iterate and the one before; a True return stops the solve.
    """

    screen: float

    def __call__(self, x: np.ndarray, x_prev: np.ndarray) -> bool: ...


def _expm_first_col(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """First column of exp(T) for the symmetric tridiagonal T with diagonal
    ``alphas`` and off-diagonal ``betas``."""
    if alphas.size == 1:
        return np.exp(alphas)
    # the LAPACK driver scipy.linalg.eigh_tridiagonal selects, without its
    # argument checks: T holds only finite entries
    w, q, info = scipy.linalg.lapack.dstevd(alphas, betas)
    if info:
        raise NumericalBreakdownError(f"tridiagonal eigensolver failed (dstevd info={info})")
    return q @ (np.exp(w) * q[0, :])


def _basis_rows(n: int) -> int:
    """Rows of the first basis block of an ``n``-node solve, before the cap at ``m``."""
    return max(_BASIS_MIN_ROWS, (_BASIS_BYTES - 1) // (8 * n))


def _relative_change(x: np.ndarray, x_prev: np.ndarray, blocks: int) -> float:
    """Largest ||x_b - x_prev_b|| / ||x_b|| over the ``blocks`` equal consecutive parts.

    A block that is zero now and was zero before has not changed; one that
    has just become zero scores inf.
    """
    change = np.linalg.norm((x - x_prev).reshape(blocks, -1), axis=1)
    size = np.linalg.norm(x.reshape(blocks, -1), axis=1)
    zero_size = np.where(change == 0.0, 0.0, np.inf)
    return float(np.max(np.divide(change, size, out=zero_size, where=size != 0.0)))


def expm_action(
    g: Graph,
    v: np.ndarray,
    params: KrylovParams = KrylovParams(),
    *,
    blocks: int = 1,
    _certify: _Certificate | None = None,
) -> ExpmResult:
    """Approximate ``exp(A) v`` for the adjacency matrix A of ``g``.

    Plain Lanczos: the three-term recurrence without reorthogonalization,
    which is accurate for ``f(A) v`` although the basis loses orthogonality
    in floating point (Druskin, Greenbaum & Knizhnerman, "Using nonorthogonal
    Lanczos vectors in the computation of matrix functions", SIAM J. Sci.
    Comput. 1998; Musco, Musco & Sidford, "Stability of the Lanczos method
    for matrix function approximation", SODA 2018).  The solve first builds
    A in coordinate form from the edge codes (see the module docstring); a
    step then costs one sparse product with it, a few length-n vector
    operations and the eigendecomposition of the small tridiagonal matrix.
    Each new Lanczos vector is written straight into its basis row.

    Parameters
    ----------
    g : Graph
        Input graph; A is its symmetric 0/1 adjacency matrix.
    v : ndarray, shape (n,)
        Nonzero finite vector to propagate.
    params : KrylovParams
        Step budget and convergence tolerance.
    blocks : int
        Number of equal consecutive parts of the iterate that must each meet
        ``tol``; use the number of graphs when ``g`` is a
        :func:`~communifind.graphs.disjoint_union`, so a small or weak block
        is not judged converged on the strength of a dominant one.
    _certify : optional
        Private stopping hook of the pipeline's certified top-k scoring
        (:class:`_Certificate`).  From the first step whose projected
        relative change is at most ``_certify.screen`` on, every step forms
        its iterate, and the hook gets each formed iterate with the one
        before, ahead of the ``tol`` test; a True return ends the solve with
        ``certified`` set.  ``tol`` is still tested only at the steps that
        the screen of a solve without the hook forms, so a solve that the
        hook does not stop returns that solve's bytes.

    Returns
    -------
    ExpmResult
        ``value`` is the approximation, ``est_error`` the largest relative
        change of a block of the final iterate (0.0 when an invariant
        subspace made the result exact), ``iterations`` the Lanczos steps
        taken, ``converged`` whether ``tol`` was met (or the result is
        exact, or the hook stopped the solve) within ``params.m`` steps,
        ``certified`` whether the hook stopped it.

    Raises
    ------
    ValueError
        If ``g`` has no nodes, if ``v`` has the wrong length, is identically
        zero, or is not finite, or if ``blocks`` does not divide the node
        count.
    NumericalBreakdownError
        If a non-finite intermediate appears (e.g. overflow of exp).
    """
    n = g.n
    if n == 0:
        raise ValueError("the graph is empty (0 nodes): there is nothing to act on")
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

    a = graphs.adjacency(g)
    m = params.m
    rows = min(m, _basis_rows(n))
    basis = np.empty((rows, n))
    np.divide(v, beta0, out=basis[0])
    # the projected tridiagonal matrix, grown with the basis
    alphas = np.empty(rows)  # its diagonal
    betas = np.empty(rows)  # its off-diagonal
    scratch = np.empty(n)
    screen = 2.0 * params.tol + _SCREEN_SLACK
    certifying = False  # a step's projected change reached the hook's screen
    diff = np.inf
    # iterate of the previous step, or None when that step skipped it
    x_prev = None
    y_prev = np.empty(0)  # projected vector of the previous step

    for s in range(1, m + 1):  # s: steps taken, this one included
        v_cur = basis[s - 1]
        w = a @ v_cur
        alpha = float(v_cur @ w)
        # through one scratch vector: the same roundings as w -= alpha * v_cur
        w -= np.multiply(v_cur, alpha, out=scratch)
        if s > 1:
            w -= np.multiply(basis[s - 2], betas[s - 2], out=scratch)
        if not np.isfinite(alpha):
            raise NumericalBreakdownError("non-finite Lanczos coefficient")
        alphas[s - 1] = alpha
        beta = math.sqrt(w.dot(w))  # np.linalg.norm's expression, without its overhead
        if not np.isfinite(beta):
            raise NumericalBreakdownError("non-finite Lanczos coefficient")
        exact = beta <= 1e-12 * max(1.0, abs(alpha))
        # screen: step / upper estimates the relative change of the whole
        # iterate, at most the largest relative change of a block.  Basis
        # vectors have unit norm, so |x_i| <= beta0 * ||y||_1 <= sqrt(s) * upper
        # whether or not they are orthogonal, and below 1e300 a skipped x is
        # finite (sqrt(m) * 1e300 < 1.8e308 for any m below 1e16).
        # Comparisons with inf or nan are False, so a non-finite y forms x
        # and raises.  A y whose squares overflow makes upper inf on
        # purpose, which forms the iterate, and a y whose exp overflows
        # forms a non-finite iterate, which raises: no warning is due
        with np.errstate(over="ignore"):
            y = _expm_first_col(alphas[:s], betas[: s - 1])
            dy = y[:-1] - y_prev
            step = beta0 * math.sqrt(dy.dot(dy) + y[-1] ** 2)
            upper = beta0 * math.sqrt(y.dot(y))
        # plain: the screen of a solve without the hook forms this iterate
        plain = not (s < m and not exact and upper < 1e300 and step > screen * upper)
        certifying = certifying or (_certify is not None and step <= _certify.screen * upper)
        if not (plain or certifying):
            x_prev = None
        else:
            if x_prev is None and s > 1:
                x_prev = beta0 * (basis[: s - 1].T @ y_prev)
            x = beta0 * (basis[:s].T @ y)
            if not np.all(np.isfinite(x)):
                raise NumericalBreakdownError("non-finite iterate (exp overflow?)")
            if exact:
                # invariant subspace reached: the approximation is exact
                return ExpmResult(value=x, est_error=0.0, iterations=s, converged=True)
            stop = _certify is not None and x_prev is not None and _certify(x, x_prev)
            # tol is tested only where a solve without the hook tests it,
            # so a solve that the hook does not stop ends as that one
            if x_prev is not None and (plain or stop):
                diff = _relative_change(x, x_prev, blocks)
            x_prev = x
            if stop:
                return ExpmResult(value=x, est_error=diff, iterations=s, converged=True, certified=True)
            if plain and diff <= params.tol:
                return ExpmResult(value=x, est_error=diff, iterations=s, converged=True)
        y_prev = y
        if s < m:
            if s == len(basis):
                rows = min(s, m - s)
                basis = np.vstack((basis, np.empty((rows, n))))
                alphas = np.concatenate((alphas, np.empty(rows)))
                betas = np.concatenate((betas, np.empty(rows)))
            betas[s - 1] = beta
            np.divide(w, beta, out=basis[s])

    # the last step always forms its iterate
    return ExpmResult(value=x_prev, est_error=diff, iterations=m, converged=False)


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
