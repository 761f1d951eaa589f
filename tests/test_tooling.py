"""The benchmark's tracer wraps symlat call sites by name; a rename must fail here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_call_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = spans.layer_sites()
    assert sites
    for owner, attr, name, _ in sites:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"
