"""The benchmark's tracer wraps symlat call sites by name, and its workloads
are config texts; a rename or a config key that stops parsing must fail here."""

import importlib.util
import sys
from pathlib import Path

from symlat.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # a dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    sites = _load("spans").layer_sites()
    assert sites
    for owner, attr, name, _ in sites:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"


def test_every_workload_config_loads(tmp_path):
    for name, workload in _load("workloads").WORKLOADS.items():
        for tiny in (True, False):
            path = tmp_path / f"{name}.ini"
            path.write_text(workload.config_text(1, tiny=tiny))
            assert load_config(path).seed == 1
