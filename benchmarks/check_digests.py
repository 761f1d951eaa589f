"""Check that the shipped configs and the benchmark workloads still give
their recorded results, byte for byte.

Run from the root of a checkout:

    python benchmarks/check_digests.py            # compare with the record
    python benchmarks/check_digests.py --record   # rewrite the record

Each ``configs/*.ini`` runs through the CLI at its own seed with
``--format csv``, once at ``--jobs 1`` and once at ``--jobs 2``, each in a
fresh output directory, and the SHA-256 of every file it writes is taken.
The seed-1 result digest of each ``perfbench`` workload is read from one
``perfbench/run.py --trace 1`` run.  BLAS is pinned to one thread throughout.

The two ``--jobs`` runs must always agree.  The record,
``benchmarks/digests.json``, is compared only in the environment it was taken
in (the numpy, scipy and BLAS versions it names), because BLAS builds can
differ in the last bit; anywhere else the script says that it is not
comparing.  Any difference is printed with its config and file, and the exit
status is 1.  A change that alters a result on purpose rewrites the record in
the same commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "benchmarks" / "digests.json"
WORKLOADS = ("search-sl3", "estimator-compare", "recovery-perm")
JOBS = (1, 2)
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def environment() -> dict:
    """The versions the digests depend on."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def config_digests(config: Path, jobs: int) -> dict[str, str]:
    """SHA-256 of every file one CLI run of ``config`` writes, by file name."""
    kind = re.search(r"^kind\s*=\s*(\S+)", config.read_text(), re.MULTILINE).group(1)
    with tempfile.TemporaryDirectory(prefix="symlat-digests-") as out:
        subprocess.run([sys.executable, "-m", "symlat.cli", kind, "--config", str(config),
                        "--out", out, "--jobs", str(jobs), "--format", "csv"],
                       env=ENV, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).rglob("*")) if p.is_file()}


def workload_digest(workload: str) -> str:
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    info = next(line for line in run.stdout.splitlines()
                if line.startswith("perfbench-info "))
    return json.loads(info.split(" ", 1)[1])["digest"]


def compute() -> tuple[dict, list[str]]:
    configs, problems = {}, []
    for config in sorted((ROOT / "configs").glob("*.ini")):
        runs = {jobs: config_digests(config, jobs) for jobs in JOBS}
        print(f"{config.name}: {len(runs[1])} files", flush=True)
        for name in sorted(set(runs[1]) | set(runs[2])):
            if runs[1].get(name) != runs[2].get(name):
                problems.append(f"{config.name}: {name} differs between --jobs 1 and --jobs 2")
        configs[config.name] = runs[1]
    workloads = {w: workload_digest(w) for w in WORKLOADS}
    return {"configs": configs, "perfbench_seed_1": workloads}, problems


def compare(recorded: dict, got: dict) -> list[str]:
    problems = []
    for config in sorted(set(recorded["configs"]) | set(got["configs"])):
        want, have = recorded["configs"].get(config, {}), got["configs"].get(config, {})
        for name in sorted(set(want) | set(have)):
            if name not in have:
                problems.append(f"{config}: {name} was not written")
            elif name not in want:
                problems.append(f"{config}: {name} is not in the record")
            elif want[name] != have[name]:
                problems.append(f"{config}: {name} differs from the record")
    for workload in WORKLOADS:
        want, have = recorded["perfbench_seed_1"].get(workload), got["perfbench_seed_1"][workload]
        if want != have:
            problems.append(f"perfbench {workload}: digest {have} is not the recorded {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {RECORD.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    env = environment()
    got, problems = compute()
    if args.record:
        if problems:
            print("\n".join(problems))
            return 1
        RECORD.write_text(json.dumps({"environment": env, **got}, indent=2,
                                     sort_keys=True) + "\n")
        print(f"recorded {RECORD.relative_to(ROOT)}")
        return 0
    recorded = json.loads(RECORD.read_text())
    if recorded["environment"] != env:
        print(f"not comparing with the record: it was taken with {recorded['environment']}, "
              f"this is {env}; checked only that --jobs 1 and --jobs 2 agree")
    else:
        problems += compare(recorded, got)
    print("\n".join(problems) if problems else "digests match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
