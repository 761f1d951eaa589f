"""symlat end-to-end benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-sl3 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs a fixed set of ops untraced and then traced, and prints
the per-layer metrics.  The last line of output is one JSON object with the
metrics; the line before it (``perfbench-info``) carries the quality figures,
the result digest, the wall-clock figures, the tail percentile and the
environment.  ``--tiny`` shrinks every size for the smoke check
(``perfbench/smoke.py``).

The workload runs in this process with BLAS pinned to one thread, so its peak
memory and set-up time are its own.  Set-up is measured here and in
SETUP_PROBES fresh ``--setup-only`` copies of this script, and the median is
reported.

Times in the result line are CPU time of this process (plus any children it
waited for).  The workload is single-threaded, so on an idle machine that is
its wall time; on a shared virtual machine it leaves out the time the host
gives to other guests, which moved wall-clock figures by 10-40% between runs.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

from spans import Patches, Tracer, cpu_clock  # noqa: E402
from workloads import TINY_OPS, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
# A probe is killed if it outlives this, so the run ends within 180 s.
PROBE_TIMEOUT_S = 10
# A run stops starting ops this long after its loop began, whatever its quota.
HARD_STOP_S = 120.0


def setup(workload, seed: int, tiny: bool, scratch: Path):
    """Import symlat and build the workload's config, as a CLI call does."""
    ini = scratch / f"{workload.name}.ini"
    ini.write_text(workload.config_text(seed, tiny), encoding="utf-8")
    start = cpu_clock()
    import symlat
    from symlat.config import load_config
    from symlat.experiments import run_experiment
    cfg = load_config(ini)
    setup_s = cpu_clock() - start
    src = (Path.cwd() / "src").resolve()
    if Path(symlat.__file__).resolve().parent.parent != src:
        raise SystemExit(f"symlat was imported from {symlat.__file__}, not from {src}")
    return cfg, run_experiment, setup_s


class Capture:
    """Keeps each search's estimate and p-values, for the checks and the digest.

    It wraps ``run_search`` where ``experiments`` and ``regression`` look it up
    and costs one Python call per search, in traced and untraced ops alike.
    """

    def __init__(self):
        self.searches = []
        self._patches = Patches()

    def install(self):
        from symlat import experiments, regression
        for module in (experiments, regression):
            self._patches.wrap(module, "run_search", self._wrapper)

    def _wrapper(self, fn):
        def captured(lattice, tester, config):
            result = fn(lattice, tester, config)
            labels = [node.label for node in lattice.nodes]
            in_lattice = 0 <= result.estimate < len(labels)
            self.searches.append((
                in_lattice, result.estimate, labels[result.estimate] if in_lattice else None,
                [(node_id, outcome.p_value)
                 for node_id, outcome in sorted(result.outcomes.items())]))
            return result
        return captured


def _call(fn, *args):
    return fn(*args)


class OpRunner:
    """Runs op i (master seed = workload seed + i) and judges its outputs."""

    def __init__(self, workload, cfg, run_experiment, seed: int, out_dir: Path):
        self.workload = workload
        self.cfg = cfg
        self.run_experiment = run_experiment
        self.seed = seed
        self.out_dir = out_dir
        self.capture = Capture()
        self.capture.install()

    def run(self, i: int, timer=None):
        """Returns (CPU seconds, wall seconds, outcome) of op i; ``outcome`` is
        None for a failed op."""
        cfg = dataclasses.replace(self.cfg, seed=self.seed + i)
        self.capture.searches.clear()
        cpu, wall = cpu_clock(), time.perf_counter()
        try:
            paths = (timer or _call)(self.run_experiment, cfg, self.out_dir)
        except Exception as exc:  # a raising op is a failed op, not a crash
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            paths = None
        cpu, wall = cpu_clock() - cpu, time.perf_counter() - wall
        if paths is None:
            return cpu, wall, None
        return cpu, wall, self._judge(i, Path(paths["csv"]).read_bytes())

    def _judge(self, i: int, csv_bytes: bytes):
        """Outcome dict, or None when the op's outputs break a correctness rule."""
        searches = list(self.capture.searches)
        problems = []
        if not searches:
            problems.append("no search ran")
        for in_lattice, estimate, _, pvals in searches:
            if not in_lattice:
                problems.append(f"estimate {estimate} is not a lattice node")
            for node_id, p in pvals:
                if not 0.0 <= p <= 1.0:  # also false for NaN
                    problems.append(f"p-value {p!r} at node {node_id}")
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        mspes = ()
        if self.workload.has_mspe:
            if len(rows) != 1:
                problems.append(f"{len(rows)} result rows, expected 1")
            else:
                row = rows[0]
                mspes = tuple(float(row[f"mspe_{k}"]) for k in "ABC")
                if not all(math.isfinite(v) for v in mspes):
                    problems.append(f"MSPE not finite: {mspes}")
                labels = tuple(s[2] for s in searches)
                if labels != (row["node_B"], row["node_C"]):
                    problems.append(f"searched nodes {labels} differ from the CSV")
        if problems:
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        digest = hashlib.sha256()
        for _, _, label, pvals in searches:
            digest.update(label.encode())
            digest.update(repr(pvals).encode())
        digest.update(csv_bytes)
        return {"recovered": searches[0][2] == self.workload.true_label,
                "mspe": mspes, "digest": digest.hexdigest()}


def tail(times):
    """Time at the highest percentile with at least ten ops beyond it; the
    slowest op when fewer than eleven ran."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def quality(outcomes, workload):
    """Quality figures and digest over a fixed leading run of ops."""
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update((o["digest"] if o else "failed").encode())
    ok = [o for o in outcomes if o]
    out = {"quality_ops": len(outcomes),
           "failed_ops_frac": (len(outcomes) - len(ok)) / len(outcomes),
           "recovery_rate": sum(o["recovered"] for o in ok) / len(outcomes),
           "digest": digest.hexdigest()}
    if workload.has_mspe and ok:
        for k, key in enumerate(("mspe_plain", "mspe_full", "mspe_split")):
            out[key] = statistics.fmean(o["mspe"][k] for o in ok)
    return out


def environment():
    import numpy
    import scipy
    import symlat
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernel_backend": symlat.KERNEL_BACKEND,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def timed_run(runner, seconds: float, quota: int):
    """Closed loop, one client: ops until the window ends and the quota is met.

    Returns per-op CPU and wall times, outcomes, and the window's CPU and
    wall duration."""
    cpus, walls, outcomes = [], [], []
    cpu0, wall0 = cpu_clock(), time.perf_counter()
    while (time.perf_counter() - wall0 < seconds or len(outcomes) < quota) \
            and time.perf_counter() - wall0 < HARD_STOP_S:
        cpu, wall, outcome = runner.run(len(outcomes))
        cpus.append(cpu)
        walls.append(wall)
        outcomes.append(outcome)
    return cpus, walls, outcomes, cpu_clock() - cpu0, time.perf_counter() - wall0


def traced_run(runner, count: int):
    """Each op untraced, then again traced, so both see the same machine state.

    Returns the per-layer metrics and the untraced and traced outcome lists."""
    tracer = Tracer()
    plain, traced = [], []
    for i in range(count):
        plain.append(runner.run(i))
        tracer.install()
        try:
            traced.append(runner.run(i, timer=tracer.op))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = metrics["trace.op_s"] / sum(p[0] for p in plain) - 1.0
    return metrics, [p[2] for p in plain], [t[2] for t in traced]


def setup_probe(argv) -> float:
    """Set-up time of a fresh copy of this script."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv,
                           "--setup-only"], stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up, print it and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "symlat" / "__init__.py").is_file():
        print("perfbench: run from the root of a symlat checkout (src/symlat is missing)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch_root = Path.cwd() / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root, prefix="perfbench-") as scratch:
        scratch = Path(scratch)
        cfg, run_experiment, setup_s = setup(workload, args.seed, args.tiny, scratch)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = OpRunner(workload, cfg, run_experiment, args.seed, scratch / "out")
        warm = runner.run(0)[2]
        quota = TINY_OPS if args.tiny else workload.fixed_ops
        info = {"workload": workload.name, "seed": args.seed, "environment": environment()}
        if args.trace:
            metrics, plain, traced = traced_run(runner, quota)
            info.update(quality(plain, workload))
            attempted = len(plain) + len(traced)
            failed = sum(o is None for o in plain + traced)
            correct = (failed == 0 and warm == plain[0]
                       and [o["digest"] for o in plain] == [o["digest"] for o in traced])
            results = {m: {"value": v, "unit": "count" if isinstance(v, int) else
                           ("ratio" if m == "trace.overhead_frac" else "s")}
                       for m, v in metrics.items()}
        else:
            cpus, walls, outcomes, window_cpu, window_wall = timed_run(
                runner, args.seconds, quota)
            info.update(quality(outcomes[:quota], workload))
            tail_cpu, tail_pct = tail(cpus)
            info.update({"ops": len(cpus), "op_tail_percentile": tail_pct,
                         "ops_per_s": len(walls) / window_wall,
                         "op_s_p50": statistics.median(walls), "op_s_tail": tail(walls)[0]})
            attempted = len(cpus)
            failed = sum(o is None for o in outcomes)
            correct = failed == 0 and warm == outcomes[0]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_s] + [setup_probe(argv) for _ in range(SETUP_PROBES)]
            results = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_cpu_s": {"value": len(cpus) / window_cpu, "unit": "1/s"},
                "op_cpu_s_p50": {"value": statistics.median(cpus), "unit": "s"},
                "op_cpu_s_tail": {"value": tail_cpu, "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        print("perfbench-info " + json.dumps(info, sort_keys=True))
        print(json.dumps({"correct": bool(correct), "attempted": attempted,
                          "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
