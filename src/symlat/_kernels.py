"""Numeric kernels of the Gaussian local-constant regressor, in numpy.

Both kernels work on blocks of rows, so their working memory stays linear in
the number of training rows: ``nw_predict`` takes PREDICT_CHUNK_ROWS queries
at a time, and ``loo_cv_sse`` runs its whole bandwidth grid on one cache-sized
block of training rows before it moves to the next.  A row's arithmetic does
not depend on the block it sits in, so the blocking changes no result bit.
``benchmarks/bench_kernels.py`` times them at six problem sizes.
"""

from __future__ import annotations

import numpy as np

# Query rows evaluated together by ``nw_predict``: its working arrays hold
# PREDICT_CHUNK_ROWS x n x d differences, whatever the number of queries.
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


def nw_predict(xt: np.ndarray, yt: np.ndarray, xq: np.ndarray,
               h: np.ndarray) -> np.ndarray:
    """Gaussian-kernel locally-constant prediction.

    Per query the quadratic exponents are shifted by their row minimum before
    exponentiation; the common factor cancels in the weight ratio, and when
    every other weight underflows the prediction degrades to the nearest
    training response instead of 0/0.  Queries are taken PREDICT_CHUNK_ROWS
    at a time; each row's arithmetic does not depend on the others.
    """
    out = np.empty(xq.shape[0])
    for start in range(0, xq.shape[0], PREDICT_CHUNK_ROWS):
        block = xq[start:start + PREDICT_CHUNK_ROWS]
        diffs = block[:, None, :] - xt[None, :, :]
        diffs /= h
        w = np.einsum("qnd,qnd->qn", diffs, diffs)
        w *= 0.5
        w -= w.min(axis=1, keepdims=True)
        np.negative(w, out=w)
        np.exp(w, out=w)
        out[start:start + block.shape[0]] = (w @ yt) / w.sum(axis=1)
    return out


def loo_cv_sse(xt: np.ndarray, yt: np.ndarray, scales: np.ndarray,
               cs: np.ndarray) -> np.ndarray:
    """Leave-one-out squared-error sums for the bandwidths ``c * scales``,
    one per multiplier ``c`` in ``cs``.

    With ``D = 1/2 sum_k ((x_ik - x_jk) / s_k)^2`` the exponent at multiplier
    ``c`` is ``D / c^2``, so ``D`` is built once per block of rows (from
    per-dimension differences, which round more tightly than the Gram
    expansion).  Its diagonal is set to infinity, which leaves each row out of
    its own fit, and each row is shifted by its minimum: the row minimum
    scales with ``1/c^2`` too, so one shift serves every grid point, with the
    same nearest-response fallback as ``nw_predict``.

    Rows are taken in blocks of about LOO_BLOCK_FLOATS / n, rounded down to
    a multiple of _LOO_ROW_GROUP, and the whole grid runs on one block while
    it sits in cache; each grid point keeps the block's residuals, and the
    sums of squares are taken once every block is done.  Every elementwise
    step and row sum is the one a single n x n block would make, and the
    aligned blocks keep each row's matrix-vector product in the same BLAS
    lane, so with a single-threaded BLAS the result is bit-identical to one
    block.  Working memory is O(block x n + grid x n), not O(n^2).
    """
    n, d = xt.shape
    rows = max(_LOO_ROW_GROUP, LOO_BLOCK_FLOATS // n // _LOO_ROW_GROUP * _LOO_ROW_GROUP)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # numpy takes a one-row product through dot, not gemv
    dist = np.empty((min(rows + 1, n), n))
    w = np.empty_like(dist)
    resid = np.empty((len(cs), n))
    for start, stop in zip(starts, starts[1:] + [n]):
        block, wb = dist[:stop - start], w[:stop - start]
        block.fill(0.0)
        for k in range(d):
            np.subtract.outer(xt[start:stop, k], xt[:, k], out=wb)
            wb /= scales[k]
            wb *= wb
            block += wb
        block *= 0.5
        # The shift only lowers entries, so no finite exponent of the block
        # falls below -top / c^2, and the floor is skipped where that is above it.
        top = block.max()
        block.reshape(-1)[start::n + 1] = np.inf  # the block's own diagonal
        block -= block.min(axis=1, keepdims=True)
        for i, c in enumerate(cs):
            np.divide(block, -(c * c), out=wb)
            if top / -(c * c) < _MIN_EXPONENT:
                np.maximum(wb, _MIN_EXPONENT, out=wb)
            np.exp(wb, out=wb)
            wb.reshape(-1)[start::n + 1] = 0.0  # the floor may have given it exp(-700)
            resid[i, start:stop] = (wb @ yt) / wb.sum(axis=1) - yt[start:stop]
    return np.array([r @ r for r in resid])
