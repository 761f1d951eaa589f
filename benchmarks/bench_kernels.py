"""Time the kernel-regression kernels at three problem sizes.

Run:  python benchmarks/bench_kernels.py

``nw_predict`` is timed at one bandwidth vector; ``loo_cv_sse`` is timed for
one whole bandwidth grid, the work of one ``select_bandwidth`` call.  Each
figure is the fastest of several repeats after one warm-up call.
"""

import time

import numpy as np

from symlat import _kernels
from symlat.regression import BANDWIDTH_GRID_SIZE, BANDWIDTH_SCALE_HI, BANDWIDTH_SCALE_LO


def bench(fn, *args, repeat=10):
    fn(*args)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    rng = np.random.default_rng(0)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    print(f"{'kernel':<28} {'size':<18} {'time':>10}")
    for n, q, d in ((200, 200, 3), (500, 1000, 3), (2000, 2000, 5)):
        xt = rng.normal(size=(n, d))
        yt = rng.normal(size=n)
        xq = rng.normal(size=(q, d))
        scales = np.ones(d)
        t = bench(_kernels.nw_predict, xt, yt, xq, np.full(d, 0.5))
        print(f"{'nw_predict':<28} {f'n={n} q={q} d={d}':<18} {t * 1e3:>8.2f}ms")
        t = bench(_kernels.loo_cv_sse, xt, yt, scales, cs, repeat=3)
        print(f"{f'loo_cv_sse ({cs.size}-point grid)':<28} {f'n={n} d={d}':<18} "
              f"{t * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
