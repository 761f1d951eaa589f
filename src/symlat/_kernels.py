"""Numeric kernels of the Gaussian local-constant regressor, in numpy.

Both kernels build their exponents in a caller's buffer with one routine,
``_half_sq_dists``.  Both work on blocks of rows, so their working memory
stays linear in the number of training rows: ``nw_predict`` takes
PREDICT_CHUNK_ROWS queries at a time, and ``loo_cv_sse`` runs its bandwidth
grid on one cache-sized block of training rows before it moves to the next.
A row's arithmetic does not depend on the block it sits in, so the blocking
changes no result bit.
``loo_cv_sse`` abandons a grid point once its partial sum of squares proves
that it cannot be the minimum and reports it as ``+inf``; every sum it does
report has the bits of the full-grid computation.
``benchmarks/bench_kernels.py`` times them at six problem sizes and prints the
share of the LOO grid's block evaluations that were run.
"""

from __future__ import annotations

import numpy as np

from .errors import SymlatError

# Query rows evaluated together by ``nw_predict``: its working arrays hold
# two PREDICT_CHUNK_ROWS x n buffers, whatever the number of queries.
PREDICT_CHUNK_ROWS = 256

# Float budget of one ``loo_cv_sse`` row block, 512 KB per working buffer, so
# that the grid's passes over a block stay in a per-core L2 cache.
LOO_BLOCK_FLOATS = 1 << 16

# ``loo_cv_sse`` blocks hold a multiple of this many rows.  BLAS matrix-vector
# kernels take rows in groups (four in OpenBLAS's x86 dgemv) and sum leftover
# rows in another order, so aligned blocks give each row the bits it gets in
# one n-row product.
_LOO_ROW_GROUP = 8

# LOO exponents are raised to this floor before exponentiation.  Every row
# holds a weight of 1 (its shifted minimum), so a weight of exp(-700) ~ 1e-304
# is lost in its sums as an exact 0 would be, while np.exp takes a scalar
# path, up to 90 times slower, for results in or below the subnormal range.
_MIN_EXPONENT = -700.0

# ``nw_predict`` lowers every exponent below this to -inf before
# exponentiation.  exp(-750) is already exactly 0.0, as exp(-inf) is, so no
# weight changes, but np.exp reaches a result below the subnormal range on a
# scalar path about five times slower than the one for -inf.  At the
# bandwidths the estimator-compare workload selects, about a quarter of the
# exponents fall below it.
_ZERO_EXPONENT = -750.0


def _half_sq_dists(a: np.ndarray, x: np.ndarray, scales: np.ndarray,
                   out: np.ndarray, wb: np.ndarray) -> float:
    """Fill ``out`` with ``1/2 sum_k ((a_ik - x_jk) / s_k)^2`` for the rows
    of ``a`` against the rows of ``x``, using ``wb`` as scratch; return its
    largest entry.

    The squares are summed one coordinate at a time, in order, as a
    row-by-row ``(((a_i - x) / s) ** 2).sum(axis=1)`` sums them: far from the
    data one unit in the last place of a sum moves a weight ratio.  The
    first coordinate's squares go straight into ``out``, as ``0.0 + a`` is
    ``a``.
    """
    np.subtract.outer(a[:, 0], x[:, 0], out=out)
    out /= scales[0]
    out *= out
    for k in range(1, x.shape[1]):
        np.subtract.outer(a[:, k], x[:, k], out=wb)
        wb /= scales[k]
        wb *= wb
        out += wb
    out *= 0.5
    return out.max()


def nw_predict(xt: np.ndarray, yt: np.ndarray, xq: np.ndarray,
               h: np.ndarray) -> np.ndarray:
    """Gaussian-kernel locally-constant prediction.

    Per query the quadratic exponents (``_half_sq_dists`` at bandwidth ``h``)
    are shifted by their row minimum before exponentiation; the common factor
    cancels in the weight ratio, and when every other weight underflows the
    prediction degrades to the nearest training response instead of 0/0.
    Exponents below _ZERO_EXPONENT, whose weights are exactly 0.0, are
    lowered to -inf first.  Queries are taken PREDICT_CHUNK_ROWS at a
    time; each row's arithmetic does not depend on the others.
    """
    out = np.empty(xq.shape[0])
    w = np.empty((min(xq.shape[0], PREDICT_CHUNK_ROWS), xt.shape[0]))
    wb = np.empty_like(w)
    for start in range(0, xq.shape[0], PREDICT_CHUNK_ROWS):
        block = xq[start:start + PREDICT_CHUNK_ROWS]
        e, eb = w[:block.shape[0]], wb[:block.shape[0]]
        top = _half_sq_dists(block, xt, h, e, eb)
        # min - e is -(e - min) to the bit, and the shift only lowers
        # entries, so no exponent is below -top
        np.subtract(e.min(axis=1, keepdims=True), e, out=e)
        if -top < _ZERO_EXPONENT:
            np.copyto(e, -np.inf, where=e < _ZERO_EXPONENT)
        np.exp(e, out=e)
        out[start:start + block.shape[0]] = (e @ yt) / e.sum(axis=1)
    return out


def _distance_block(xt: np.ndarray, scales: np.ndarray, start: int, stop: int,
                    block: np.ndarray, wb: np.ndarray) -> float:
    """Fill ``block`` with ``D = 1/2 sum_k ((x_ik - x_jk) / s_k)^2`` for the
    rows ``start:stop`` against every row, its diagonal at infinity and each
    row shifted by its minimum, using ``wb`` as scratch; return the largest
    entry before the diagonal and the shift."""
    n = xt.shape[0]
    top = _half_sq_dists(xt[start:stop], xt, scales, block, wb)
    block.reshape(-1)[start::n + 1] = np.inf  # the block's own diagonal
    block -= block.min(axis=1, keepdims=True)
    return top


def _block_residuals(block: np.ndarray, wb: np.ndarray, top: float, c: float,
                     yt: np.ndarray, start: int, out: np.ndarray) -> None:
    """Write the leave-one-out residuals at multiplier ``c`` of the rows of a
    ``_distance_block`` that starts at row ``start`` into ``out``."""
    n = yt.shape[0]
    np.divide(block, -(c * c), out=wb)
    # The shift only lowers entries, so no finite exponent of the block falls
    # below -top / c^2, and the floor is skipped where that is above it.
    if top / -(c * c) < _MIN_EXPONENT:
        np.maximum(wb, _MIN_EXPONENT, out=wb)
    np.exp(wb, out=wb)
    wb.reshape(-1)[start::n + 1] = 0.0  # the floor may have given it exp(-700)
    out[:] = (wb @ yt) / wb.sum(axis=1) - yt[start:start + out.shape[0]]


def loo_cv_sse(xt: np.ndarray, yt: np.ndarray, scales: np.ndarray,
               cs: np.ndarray) -> np.ndarray:
    """Leave-one-out squared-error sums for the bandwidths ``c * scales``,
    one per multiplier ``c`` in ``cs``, with ``+inf`` for each multiplier
    whose sum is proven to exceed the least one.

    With ``D = 1/2 sum_k ((x_ik - x_jk) / s_k)^2`` the exponent at multiplier
    ``c`` is ``D / c^2``, so ``D`` is built once per block of rows (from
    per-dimension differences, which round more tightly than the Gram
    expansion).  Its diagonal is set to infinity, which leaves each row out of
    its own fit, and each row is shifted by its minimum: the row minimum
    scales with ``1/c^2`` too, so one shift serves every grid point, with the
    same nearest-response fallback as ``nw_predict``.

    Rows are taken in blocks of about LOO_BLOCK_FLOATS / n, rounded down to
    a multiple of _LOO_ROW_GROUP.  Every elementwise step and row sum is the
    one a single n x n block would make, and the aligned blocks keep each
    row's matrix-vector product in the same BLAS lane, so with a
    single-threaded BLAS each residual has the bits it gets in one block.
    Working memory is O(block x n + grid x n), not O(n^2).

    The grid is searched with early abandoning:

    1. The first block runs the whole grid.  The contenders are the points
       whose first-block sum is the smallest, ties kept.  This rule only
       picks which points share the cheap pass; the bound below decides what
       is dropped.
    2. One pass over the other blocks builds each distance block once and
       runs only the contenders; their sums are ``r @ r`` over the whole
       residual row.  The least of them, ``best``, sets the bound
       ``best * (1 + 1e-9)``.
    3. Every other point whose first-block sum is within the bound runs
       again over the other blocks, with its distance blocks rebuilt, and is
       dropped once its running sum passes the bound; a point that survives
       every block gets its ``r @ r``.  Dropped points read ``+inf``.

    The margin covers rounding.  A computed sum of nonnegative squares whose
    roundings nest at most k deep lies within a relative ``k u / (1 - k u)``
    of the exact sum of the same residuals (``u = 2^-53``, barring
    underflow): k <= n + 1 for ``r @ r`` and k <= 2n for a running sum over
    blocks, so at n < 1e6 both lie within 2.3e-10.  A partial sum above
    ``best * (1 + 1e-9)`` therefore bounds an exact sum, and so a computed
    full sum, strictly above ``best``: that point can neither be the least
    entry nor tie with it, and ``argmin`` with its lowest-index rule picks
    what it would pick over the full grid.  A non-finite sum raises
    ``SymlatError``, since the squared distances or the residuals overflowed
    and no multiplier can be chosen; it would otherwise read as abandoned.
    """
    n = xt.shape[0]
    rows = max(_LOO_ROW_GROUP, LOO_BLOCK_FLOATS // n // _LOO_ROW_GROUP * _LOO_ROW_GROUP)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # numpy takes a one-row product through dot, not gemv
    spans = list(zip(starts, starts[1:] + [n]))
    dist = np.empty((min(rows + 1, n), n))
    w = np.empty_like(dist)
    resid = np.empty((len(cs), n))

    def run(grid, start, stop):
        block, wb = dist[:stop - start], w[:stop - start]
        top = _distance_block(xt, scales, start, stop, block, wb)
        for i in grid:
            _block_residuals(block, wb, top, cs[i], yt, start, resid[i, start:stop])

    def sums(grid, start, stop):
        out = np.array([resid[i, start:stop] @ resid[i, start:stop] for i in grid])
        if not np.isfinite(out).all():
            raise SymlatError("leave-one-out sum of squares is not finite: the scaled "
                              "squared distances or the residuals overflow float64")
        return out

    grid = np.arange(len(cs))
    head = spans[0][1]
    run(grid, 0, head)
    running = sums(grid, 0, head)
    contender = running == running.min()
    for start, stop in spans[1:]:
        run(grid[contender], start, stop)
    sse = np.full(len(cs), np.inf)
    sse[contender] = sums(grid[contender], 0, n)
    bound = sse.min() * (1.0 + 1e-9)
    left = grid[~contender & (running <= bound)]
    for start, stop in spans[1:]:
        if not left.size:
            break
        run(left, start, stop)
        running[left] += sums(left, start, stop)
        left = left[running[left] <= bound]
    sse[left] = sums(left, 0, n)
    return sse
