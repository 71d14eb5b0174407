"""The benchmark's hook contract, checked without running the benchmark.

``bench/tracing.py`` swaps module attributes of the package for timing
wrappers. A rename of any of them breaks the benchmark; this check finds
that in about a second.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_every_hooked_name_is_an_attribute_of_its_owner():
    tracing = load_tracing()
    patches = tracing.Probe(tracing.Tracer()).patches()
    assert len(patches) > 3  # traced runs hook more than the always-on three
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in patches
               if name not in owner.__dict__]
    assert missing == []
