"""Time the kernel-regression kernels at six problem sizes.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py

``nw_predict`` is timed at one bandwidth vector; ``loo_cv_sse`` is timed for
one whole bandwidth grid, the work of one ``select_bandwidth`` call.  Each
figure is the fastest of several repeats after one warm-up call, with BLAS
pinned to one thread as in ``perfbench/run.py``.  The last three sizes are
the fits of the ``estimator-compare`` benchmark workload.  Next to each LOO
time stands the peak of memory that ``tracemalloc`` saw during one more call.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from symlat import _kernels  # noqa: E402
from symlat.regression import (  # noqa: E402
    BANDWIDTH_GRID_SIZE,
    BANDWIDTH_SCALE_HI,
    BANDWIDTH_SCALE_LO,
)

# (training rows n, queries q, dimension d)
SIZES = ((200, 200, 3), (500, 1000, 3), (2000, 2000, 5),
         (600, 200, 3), (600, 200, 1), (300, 200, 1))


def bench(fn, *args, repeat=10):
    fn(*args)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    rng = np.random.default_rng(0)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    print(f"{'kernel':<28} {'size':<18} {'time':>10} {'peak':>10}")
    for n, q, d in SIZES:
        xt = rng.normal(size=(n, d))
        yt = rng.normal(size=n)
        xq = rng.normal(size=(q, d))
        scales = np.ones(d)
        t = bench(_kernels.nw_predict, xt, yt, xq, np.full(d, 0.5))
        print(f"{'nw_predict':<28} {f'n={n} q={q} d={d}':<18} {t * 1e3:>8.2f}ms")
        t = bench(_kernels.loo_cv_sse, xt, yt, scales, cs, repeat=3)
        peak = traced_peak(_kernels.loo_cv_sse, xt, yt, scales, cs)
        print(f"{f'loo_cv_sse ({cs.size}-point grid)':<28} {f'n={n} d={d}':<18} "
              f"{t * 1e3:>8.2f}ms {peak / 2 ** 20:>8.2f}MB")


if __name__ == "__main__":
    main()
