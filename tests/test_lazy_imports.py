"""Modules that only some runs need stay unloaded until a run needs them.

scipy.optimize serves only the collapse fit, and concurrent.futures.process
only a sweep with a worker pool.  Each check runs in a fresh interpreter, since
the test process may have loaded both already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY = ("scipy.optimize", "concurrent.futures.process")


def run_fresh(script: str) -> list:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_stepping_loads_neither_optimizer_nor_pool_and_a_fit_still_works():
    lines = run_fresh(f"""
        import sys

        import numpy as np

        import starkchain
        import starkchain.cli
        from starkchain import ModelParams, Schedule, ScalingDataset, fit_collapse, run_trajectory

        lazy = {LAZY!r}
        print([m for m in lazy if m in sys.modules])
        run_trajectory(ModelParams(-0.5, 0.1, 16), Schedule(dt=10.0, steps=40, sample_stride=10))
        print([m for m in lazy if m in sys.modules])

        x = np.linspace(-1.5, 2.5, 7)
        data = ScalingDataset.from_points(
            (L, 0.15 + xi * L ** (-1 / 1.9), L ** (2.0 / 1.9) * (1 / (1 + xi * xi) + 0.5))
            for L in (16, 32, 64) for xi in x)
        fit = fit_collapse(data, init=(0.12, 1.5, 1.6), bootstrap_n=0)
        print(np.isfinite([fit.delta_c, fit.nu, fit.zeta, fit.quality]).all())
        print("scipy.optimize" in sys.modules)
    """)
    assert lines == ["[]", "[]", "True", "True"]
