"""Numeric kernels of the Gaussian local-constant regressor, in numpy.

``benchmarks/bench_kernels.py`` times them at three problem sizes.
"""

from __future__ import annotations

import numpy as np

# Query rows evaluated together by ``nw_predict``: its working arrays hold
# PREDICT_CHUNK_ROWS x n x d differences, whatever the number of queries.
PREDICT_CHUNK_ROWS = 256

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
    ``c`` is ``D / c^2``, so ``D`` is built once (from per-dimension
    differences, which round more tightly than the Gram expansion).  Its
    diagonal is set to infinity, which leaves each row out of its own fit, and
    each row is shifted by its minimum: the row minimum scales with ``1/c^2``
    too, so one shift serves every grid point, with the same nearest-response
    fallback as ``nw_predict``.
    """
    n, d = xt.shape
    dist = np.zeros((n, n))
    step = np.empty((n, n))
    for k in range(d):
        np.subtract.outer(xt[:, k], xt[:, k], out=step)
        step /= scales[k]
        step *= step
        dist += step
    dist *= 0.5
    np.fill_diagonal(dist, np.inf)
    dist -= dist.min(axis=1, keepdims=True)
    w = step  # the difference buffer holds each grid point's weights
    sse = np.empty(len(cs))
    for i, c in enumerate(cs):
        np.divide(dist, -(c * c), out=w)
        np.maximum(w, _MIN_EXPONENT, out=w)
        np.exp(w, out=w)
        np.fill_diagonal(w, 0.0)  # the floor gave each row's own weight exp(-700)
        resid = (w @ yt) / w.sum(axis=1) - yt
        sse[i] = resid @ resid
    return sse
