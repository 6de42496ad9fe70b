"""Per-layer tracing of starkchain from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper at
every module attribute of the loaded starkchain modules that holds it, so
calls through `from .model import build_hamiltonian` style imports are
traced as well as calls through the defining module.  The program's files
are not touched.

Each wrapper records calls, inclusive time and self time (its duration minus
the time its traced children took) in memory.  Pool workers are forked from
the traced process, so they inherit the wrappers; after a fork the child
starts from empty counters and rewrites `<trace_dir>/worker-<pid>.json`
whenever one of its outermost traced calls returns.  `Tracer.collect()` adds
those files to the parent's own counters.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# Traced functions as "<starkchain module>.<function>"; each gives .calls and .self_s.
LAYERS = (
    "model.build_hamiltonian",
    "spectral.biorthogonal_eigendecomposition",
    "spectral.average_fractal_dimension",
    "propagation.make_propagator",
    "propagation.step_qr",
    "propagation.correlation_matrix",
    "propagation.run_trajectory",
    "entanglement.half_chain_entropy",
    "entanglement.mutual_information",
    "entanglement.entropy_profile",
    "entanglement.steady_state_entropy",
    "scaling.fit_collapse",
    "scaling.collapse_quality",
    "sweep.run_sweep",
    "sweep.write_csv",
    "sweep.sha256_file",
    "export.export_figure_data",
    "cli.main",
)

# Counters recorded beside the call and time figures of the layers.
COUNTERS = (
    "propagation.make_propagator.expm_calls",
    "propagation.step_qr.flop",
    "propagation.run_trajectory.converged",
    "sweep.bytes_written",
)


def step_qr_flop(state) -> int:
    """Real floating-point operations of one step_qr call, from the array sizes.

    Complex matmul (L x L) @ (L x N): 8 L^2 N.  Householder QR of the L x N
    product with the explicit Q factor: 4 x (4 L N^2 - 4/3 N^3) = 16 L N^2 - 16/3 N^3.
    """
    L, N = state.orbitals.shape
    return int(8 * L * L * N + 16 * L * N * N - (16 * N ** 3) // 3)


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.worker = False
        self.reset()

    def reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, total_s, self_s
        self.counters = {name: 0 for name in COUNTERS}
        self.stack = []  # one [child time] cell per open span

    def _after_fork(self):
        self.reset()
        self.worker = True

    def flush(self):
        """Write this worker process's cumulative counters."""
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "counters": self.counters}))
        os.replace(tmp, path)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time = [0.0]
            tracer.stack.append(child_time)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child_time[0]
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                if returned:
                    tracer._count(name, args, kwargs, result)
                if tracer.worker and not tracer.stack:
                    tracer.flush()
            return result

        return traced

    def _count(self, name, args, kwargs, result):
        c = self.counters
        if name == "propagation.make_propagator":
            method = kwargs.get("method", args[2] if len(args) > 2 else "eig")
            if method == "expm":
                c["propagation.make_propagator.expm_calls"] += 1
        elif name == "propagation.step_qr":
            c["propagation.step_qr.flop"] += step_qr_flop(args[0])
        elif name == "propagation.run_trajectory":
            c["propagation.run_trajectory.converged"] += int(bool(result.converged))
        elif name == "sweep.run_sweep":
            c["sweep.bytes_written"] += sum(int(f["bytes"]) for f in result["files"])

    def install(self):
        """Wrap every traced function at each starkchain module attribute that holds it."""
        import starkchain.cli  # noqa: F401  (cli and export are not imported by the package)
        import starkchain.export  # noqa: F401

        modules = [m for n, m in list(sys.modules.items())
                   if n == "starkchain" or n.startswith("starkchain.")]
        for name in LAYERS:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"starkchain.{module_name}"], func_name)
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        os.register_at_fork(after_in_child=self._after_fork)

    def collect(self) -> dict:
        """This process's counters plus those its workers wrote."""
        stats = {k: list(v) for k, v in self.stats.items()}
        counters = dict(self.counters)
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            for k, v in data["stats"].items():
                for i in range(3):
                    stats[k][i] += v[i]
            for k, v in data["counters"].items():
                counters[k] += v
        return {"stats": stats, "counters": counters}


def layer_metrics(collected: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) from collected counters."""
    out = {}
    stats = collected["stats"]
    for name in LAYERS:
        calls, _total, self_s = stats[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    c = collected["counters"]
    out["propagation.make_propagator.expm_calls"] = (
        c["propagation.make_propagator.expm_calls"], "count")
    qr_s = stats["propagation.step_qr"][1]
    gflops = c["propagation.step_qr.flop"] / qr_s / 1e9 if qr_s > 0 else 0.0
    out["propagation.step_qr.gflop_per_s"] = (gflops, "GFLOP/s")
    out["propagation.run_trajectory.converged"] = (
        c["propagation.run_trajectory.converged"], "count")
    out["sweep.bytes_written"] = (c["sweep.bytes_written"], "bytes")
    return out
