"""Smoke check of the benchmark itself, at tiny sizes (under a minute).

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that two traced runs print every
per-layer metric with its unit and repeat every count exactly, that the traced
self times add up to the traced op time, that tracing adds at most
OVERHEAD_LIMIT to the untraced op time (so the self times account for the
untraced op within that share), and that all three runs agree on the result
digest.  It also checks that the benchmark refuses to run, without printing a
result, where there is no symlat source.  Exits 1 at the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SEED = 7
# Largest |trace.overhead_frac| accepted.  Measured at these tiny sizes on a
# 2-vCPU virtual machine: up to 0.16 on recovery-perm, whose many small calls
# make the per-span cost largest, and under 0.10 on the other workloads.
OVERHEAD_LIMIT = 0.25


class CheckFailed(Exception):
    pass


def check(ok: bool, *detail) -> None:
    if not ok:
        raise CheckFailed(" ".join(str(d) for d in detail))


def run(workload: str, trace: int, cwd: Path | None = None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def parse(proc):
    check(proc.returncode == 0, "exit code", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("perfbench-info "))
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    check(result["correct"] is True and result["failed"] == 0, result)
    return info, result


def check_metrics(result, declared) -> None:
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    check(set(metrics) == names, "metric names differ:", sorted(set(metrics) ^ names))
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], m["name"], "unit", got["unit"], "!=", m["unit"])
        check(isinstance(got["value"], (int, float)), m["name"], got)


def check_workload(name: str, bench: dict) -> None:
    info0, untraced = parse(run(name, 0))
    check_metrics(untraced, bench["end_to_end"])
    (info1, traced1), (info2, traced2) = parse(run(name, 1)), parse(run(name, 1))
    m1, m2 = traced1["metrics"], traced2["metrics"]
    for traced in (traced1, traced2):
        check_metrics(traced, bench["per_layer"])
    for c in (m["name"] for m in bench["per_layer"] if m["unit"] == "count"):
        check(m1[c]["value"] == m2[c]["value"], name, c, m1[c], m2[c])
    check(m1["trace.ops"]["value"] > 0, name, "traced no ops")
    for m in (m1, m2):
        self_sum = sum(m[k]["value"] for k in SELF_TIME_METRICS)
        op_s = m["trace.op_s"]["value"]
        overhead = m["trace.overhead_frac"]["value"]
        check(abs(self_sum - op_s) <= 1e-9 * (1.0 + op_s), name, "self times", self_sum,
              "!= traced op time", op_s)
        check(abs(overhead) <= OVERHEAD_LIMIT, name, "tracing overhead", overhead,
              "beyond", OVERHEAD_LIMIT)
    check(info0["digest"] == info1["digest"] == info2["digest"], name, "digests differ")
    print(f"ok {name}: digest {info0['digest'][:16]} "
          f"overhead {m1['trace.overhead_frac']['value']:+.3f}")


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for name in WORKLOADS:
            check_workload(name, bench)
        scratch = Path.cwd() / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            bare = Path(bare)
            shutil.copy("BENCHMARK.json", bare)
            for path in bench["paths"]:
                shutil.copytree(path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(next(iter(WORKLOADS)), 0, cwd=bare)
            check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                  "ran without the symlat source:", proc.stdout)
        print("ok refuses to run without the symlat source")
    except CheckFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
