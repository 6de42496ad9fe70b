"""The benchmark's workloads and per-layer tracer still fit the starkchain they run."""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

from starkchain import config_from_dict
from starkchain.propagation import TrajectoryRecord

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark_module(name: str):
    """Load benchmarks/<name>.py as a standalone module, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_layers_resolve_to_callables():
    tracing = load_benchmark_module("tracing")
    for name in tracing.LAYERS:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"starkchain.{module_name}")
        assert callable(getattr(module, func_name, None)), name


def test_workload_configs_load_under_their_presets():
    workloads = load_benchmark_module("workloads")
    obc = config_from_dict(workloads.OBC_CONFIG, preset="desk")
    assert obc.schedule.early_stop and obc.save_trajectories
    pbc = config_from_dict(workloads.PBC_CONFIG, preset="paper")
    assert pbc.schedule.steps == 10000 and pbc.analyses.cft_fit
    refit = config_from_dict(workloads.collapse_config())
    assert refit.collapse_options.bootstrap_n == workloads.COLLAPSE_BOOTSTRAP


def test_trajectory_record_keeps_the_traced_converged_field():
    assert "propagation.run_trajectory.converged" in load_benchmark_module("tracing").COUNTERS
    assert "converged" in {f.name for f in fields(TrajectoryRecord)}
