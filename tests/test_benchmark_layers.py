"""The benchmark's per-layer tracer names functions that exist in starkchain."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_tracing_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.LAYERS:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"starkchain.{module_name}")
        assert callable(getattr(module, func_name, None)), name
