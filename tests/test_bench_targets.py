"""The benchmark's tracer wraps qmg from outside; every name it wraps must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for pairs in tracing.TARGETS.values()
        for owner, attr in pairs
        if not callable(getattr(owner, attr, None))
    ]
    assert tracing.TARGETS and missing == []
