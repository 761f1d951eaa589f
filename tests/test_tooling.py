"""The benchmark's tracer wraps symlat call sites by name, its workloads are
config texts, and the README lists the config keys; a rename, a config key
that stops parsing or a key the README leaves out must fail here."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from symlat.config import _KEYS, load_config
from symlat.experiments import run_experiment

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, folder=PERFBENCH):
    spec = importlib.util.spec_from_file_location(f"{folder.name}_{name}", folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # a dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    sites = _load("spans").layer_sites()
    assert sites
    for owner, attr, name, _ in sites:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"


def test_benchmark_scripts_import(monkeypatch):
    # a name a script imports and symlat no longer has fails here, not only
    # when the script runs; bench_kernels pins BLAS threads in os.environ
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    for name in ("bench_kernels", "check_digests"):
        assert callable(_load(name, ROOT / "benchmarks").main)


def test_every_workload_config_loads(tmp_path):
    for name, workload in _load("workloads").WORKLOADS.items():
        for tiny in (True, False):
            path = tmp_path / f"{name}.ini"
            path.write_text(workload.config_text(1, tiny=tiny))
            assert load_config(path).seed == 1


# counters that one tiny op of each workload must move; the smoke check only
# compares counts between runs, so a call that goes around a traced name
# would read 0 in every run and pass it
REACHED = {
    "search-sl3": ("groups.sample_calls", "groups.rows_applied", "data.nn_queries",
                   "invariance.tests", "invariance.binom_tail_calls"),
    "estimator-compare": ("groups.sample_calls", "groups.rows_applied", "data.nn_queries",
                          "invariance.tests", "invariance.binom_tail_calls"),
    "recovery-perm": ("groups.sample_calls", "invariance.tests"),
}


def test_every_traced_layer_is_reached(tmp_path):
    spans, workloads = _load("spans"), _load("workloads")
    assert set(REACHED) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workload.config_text(1, tiny=True))
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.op(run_experiment, load_config(path), tmp_path / name)
        finally:
            tracer.uninstall()
        counts = tracer.metrics()
        for counter in REACHED[name]:
            assert counts[counter] > 0, f"{name}: {counter} reads 0"


def test_the_cli_reaches_every_module():
    # a module that the command line never imports is reached by nothing
    # but its own tests
    src = ROOT / "src"
    probe = "import sys, symlat.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(proc.stdout.split())
    modules = {f"symlat.{p.stem}" for p in (src / "symlat").glob("*.py") if p.stem != "__init__"}
    assert modules
    assert modules <= loaded, sorted(modules - loaded)


def test_readme_config_grammar_lists_every_key():
    # the README's ini block says its keys are the only ones accepted, so it
    # must name each key the parser accepts, and no other
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    listed, section = {}, None
    for line in blocks[0].splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section = listed.setdefault(head.group(1), set())
        elif re.match(r"\w+ =", line):
            section.add(line.split("=")[0].strip().lower())
    assert listed == {name: set(keys) for name, keys in _KEYS.items()}
