"""Time the kernel-regression kernels at six problem sizes, one
permutation test, the Haar-SO(3) sampler, and the group-action kernel at
three workload shapes.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py

``nw_predict`` is timed at two bandwidth vectors, half and a twentieth of the
feature scales; at the smaller one many weights underflow to subnormal numbers
or to 0, as about a quarter of them do at the bandwidths that the
``estimator-compare`` workload selects.  ``loo_cv_sse`` is timed for one whole bandwidth grid, the work of
one ``select_bandwidth`` call.  The first three sizes draw normal features
and responses with unit scales.  The last three are the fits of one
``estimator-compare`` workload op, on its scenario 1 data (n = 600) with
per-feature scales as ``select_bandwidth`` takes them: the plain fit on the
three features, and the fits on the radial coordinate of all rows and of the
second half (the split variant).  The permutation test runs at the shape of
the ``recovery-perm`` benchmark workload (n = 300, B = 100, m = 300, the C4
sampler of the non-identity quarter turns), through one
``PermutationTester``, so its pairing tables are built once, before the
timing.  ``sample_elements`` draws 2000 Haar-SO(3) rotations, and the
action kernel is timed as ``apply_elements`` on those draws of 3-d rows (the
batch shape of the ``search-sl3`` workload), as ``apply_elements`` on 1000
draws of the D4 sampler of ``d4_pixel_lattice(28)`` on 784-pixel rows (a
permutation action at the size of an MNIST image), and as ``apply_to_rows``
of the C4 quarter turn on that permutation test's 300 rows (the image each
pairing table holds).
``binom_tail`` is timed at the shape of one ``search-sl3`` test: m = 2000 and
the T = 20 threshold probabilities of the default grid of
``gaussian_noise(0.01)``, at counts of 2 (below the mode of every
probability's binomial) and of 565 (past it for the 6 smallest).
``so3_axes_lattice`` is built on 499 Fibonacci axes of the upper hemisphere
(501 nodes), the cost that bounds how fine a grid of axes a search can use,
and ``run_search`` runs breadth-first over that lattice with an oracle that
accepts every node but the top, leaving 499 surviving maxima: the search
layer's own cost, with no statistical test in it.
Each figure is the fastest of several repeats after one warm-up call, with
BLAS pinned to one thread as in ``perfbench/run.py``.  Next to each LOO,
permutation-test and lattice-build time stands the peak of memory that
``tracemalloc`` saw during one more call; each LOO call also shows the share
of its block-by-grid evaluations that early abandoning left to run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from symlat import _kernels  # noqa: E402
from symlat.builders import (  # noqa: E402
    cyclic_chain_lattice,
    d4_pixel_lattice,
    sl3_extended_lattice,
    so3_axes_lattice,
)
from symlat.groups import (  # noqa: E402
    FiniteElement,
    apply_elements,
    apply_to_rows,
    sample_elements,
)
from symlat.invariance import binom_tail, gaussian_noise, order_bound  # noqa: E402
from symlat.projections import radial_projection  # noqa: E402
from symlat.regression import (  # noqa: E402
    BANDWIDTH_GRID_SIZE,
    BANDWIDTH_SCALE_HI,
    BANDWIDTH_SCALE_LO,
    _feature_scales,
)
from symlat.scenarios import make_scenario  # noqa: E402
from symlat.search import OracleTester, PermutationTester, SearchConfig, run_search  # noqa: E402

# (training rows n, queries q, dimension d) of the normal-data problems
SIZES = ((200, 200, 3), (500, 1000, 3), (2000, 2000, 5))
# queries of each estimator-compare fit: the workload's held-out set
FIT_QUERIES = 200
# draws per exceedance test and noise level of the search-sl3 workload
SEARCH_M, SEARCH_SIGMA = 2000, 0.01
# axes of the timed lattice build
LATTICE_AXES = 499


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


def evaluated_share(xt, yt, scales, cs):
    """Share of the block-by-grid residual evaluations of one ``loo_cv_sse``
    call that were run, the rest having been abandoned."""
    starts, runs = set(), []
    build, residuals = _kernels._distance_block, _kernels._block_residuals

    def counted_build(*args):
        starts.add(args[2])
        return build(*args)

    def counted_residuals(*args):
        runs.append(args[3])
        return residuals(*args)

    _kernels._distance_block, _kernels._block_residuals = counted_build, counted_residuals
    try:
        _kernels.loo_cv_sse(xt, yt, scales, cs)
    finally:
        _kernels._distance_block, _kernels._block_residuals = build, residuals
    return len(runs) / (len(starts) * len(cs))


def fibonacci_axes(k):
    """``k`` unit axes spread evenly over the upper hemisphere."""
    i = np.arange(k) + 0.5
    z = 1.0 - i / k
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def problems(rng):
    """(training rows, responses, scales, queries) of each timed size."""
    for n, q, d in SIZES:
        yield rng.normal(size=(n, d)), rng.normal(size=n), np.ones(d), rng.normal(size=(q, d))
    train = make_scenario("1").sample_train(rng, 600)
    radial = radial_projection(3).apply(train.X)[0]
    for xt, yt in ((train.X, train.Y), (radial, train.Y), (radial[300:], train.Y[300:])):
        yield xt, yt, _feature_scales(xt), rng.normal(size=(FIT_QUERIES, xt.shape[1]))


def main():
    rng = np.random.default_rng(0)
    cs = np.geomspace(BANDWIDTH_SCALE_LO, BANDWIDTH_SCALE_HI, BANDWIDTH_GRID_SIZE)
    print(f"{'kernel':<28} {'size':<18} {'time':>10} {'peak':>10} {'evaluated':>10}")
    for xt, yt, scales, xq in problems(rng):
        (n, d), q = xt.shape, len(xq)
        for factor in (0.5, 0.05):
            t = bench(_kernels.nw_predict, xt, yt, xq, factor * scales)
            print(f"{f'nw_predict (h = {factor} s)':<28} {f'n={n} q={q} d={d}':<18} "
                  f"{t * 1e3:>8.2f}ms")
        t = bench(_kernels.loo_cv_sse, xt, yt, scales, cs, repeat=3)
        peak = traced_peak(_kernels.loo_cv_sse, xt, yt, scales, cs)
        share = evaluated_share(xt, yt, scales, cs)
        print(f"{f'loo_cv_sse ({cs.size}-point grid)':<28} {f'n={n} d={d}':<18} "
              f"{t * 1e3:>8.2f}ms {peak / 2 ** 20:>8.2f}MB {share:>10.0%}")
    chain = cyclic_chain_lattice([1, 2, 4])
    c4 = chain.node_by_label("C4")
    data = make_scenario("fd-rotation", 2, 0.05).sample_train(rng, 300)
    tester = PermutationTester(data, order_bound(), m=300, B=100)

    def perm_test():
        tester.test_node(chain, c4, 0.05, np.random.default_rng(1))

    t = bench(perm_test)
    peak = traced_peak(perm_test)
    print(f"{'permutation test (C4)':<28} {'n=300 B=100 m=300':<18} "
          f"{t * 1e3:>8.2f}ms {peak / 2 ** 20:>8.2f}MB")
    sl3 = sl3_extended_lattice()
    so3 = sl3.node_by_label("SO3").sampler
    t = bench(sample_elements, so3, np.random.default_rng(2), 2000)
    print(f"{'sample_elements (haar-so3)':<28} {'m=2000':<18} {t * 1e6:>8.1f}us")
    draws = sample_elements(so3, rng, 2000)
    t = bench(apply_elements, sl3.action, draws, rng.normal(size=(2000, 3)))
    print(f"{'apply_elements (haar-so3)':<28} {'m=2000 d=3':<18} {t * 1e6:>8.1f}us")
    pixels = d4_pixel_lattice(28)
    draws = sample_elements(pixels.node_by_label("D4").sampler, rng, 1000)
    t = bench(apply_elements, pixels.action, draws, rng.normal(size=(1000, 784)))
    print(f"{'apply_elements (d4-pixels)':<28} {'m=1000 d=784':<18} {t * 1e6:>8.1f}us")
    quarter = FiniteElement(chain.action.group.table, 1)
    t = bench(apply_to_rows, chain.action, quarter, data.X)
    print(f"{'apply_to_rows (C4 quarter)':<28} {'n=300 d=2':<18} {t * 1e6:>8.1f}us")
    noise = gaussian_noise(SEARCH_SIGMA)
    ps = np.array([noise.p_exceed(float(t)) for t in noise.default_thresholds()])
    for count in (2, 565):
        ks = np.full(ps.size, count, dtype=np.int64)
        t = bench(binom_tail, SEARCH_M, ks, ps)
        print(f"{'binom_tail':<28} {f'm={SEARCH_M} T={ps.size} k={count}':<18} "
              f"{t * 1e6:>8.1f}us")
    axes = fibonacci_axes(LATTICE_AXES)
    t = bench(so3_axes_lattice, axes, repeat=3)
    peak = traced_peak(so3_axes_lattice, axes)
    print(f"{'so3_axes_lattice':<28} {f'K={LATTICE_AXES} axes':<18} "
          f"{t * 1e3:>8.2f}ms {peak / 2 ** 20:>8.2f}MB")
    lattice = so3_axes_lattice(axes)
    all_but_top = OracleTester(lambda lat, node: node.node_id != lat.top)
    t = bench(run_search, lattice, all_but_top, SearchConfig())
    print(f"{'run_search (breadth)':<28} {f'K={LATTICE_AXES} axes':<18} {t * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
