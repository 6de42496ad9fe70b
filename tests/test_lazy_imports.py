"""Modules that only some runs need stay unloaded until a run needs them.

Importing starkchain loads no scipy at all, and no starkchain code loads
scipy.optimize: the collapse fit runs its own Nelder-Mead.  scipy.linalg
serves only the biorthogonal spectrum (the step matrix is built with numpy),
and concurrent.futures.process only a sweep with a worker pool.  Each check
runs in a fresh interpreter, since the test process may have loaded them all
already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY = ("scipy.optimize", "scipy.linalg", "concurrent.futures.process")


def run_fresh(script: str) -> list:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy's version goes into each manifest, read when the manifest is written
    lines = run_fresh("""
        import sys

        import starkchain
        import starkchain.cli

        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    assert lines == ["[]"]


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
        print([m for m in lazy if m in sys.modules])
    """)
    assert lines == ["[]", "[]", "True", "[]"]


def test_simulate_export_and_verify_never_load_scipy_linalg(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "gamma_values": [-0.5], "delta_values": [0.1, 0.2], "sizes": [8],
        "schedule": {"dt": 10.0, "steps": 40, "sample_stride": 10},
        "analyses": {"cft_fit": True}, "save_trajectories": True}))
    # enough sizes and deltas for the collapse fits to run their simplex
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "gamma_values": [-0.5, -0.3], "delta_values": [0.05, 0.1, 0.15, 0.2, 0.3],
        "sizes": [6, 8, 10], "schedule": {"dt": 10.0, "steps": 40, "sample_stride": 10},
        "analyses": {"collapse": True},
        "collapse_options": {"window_min_delta": None, "bootstrap_n": 2}}))
    # The tripwire records every import of a watched module, in this process and
    # in the sweep's forked workers, and otherwise leaves the import alone.
    lines = run_fresh(f"""
        import contextlib
        import io
        import json
        import os
        import sys

        import starkchain
        import starkchain.cli
        from starkchain import ModelParams, biorthogonal_eigendecomposition, build_hamiltonian

        watched = ("scipy.linalg", "scipy.optimize")
        attempts = {str(tmp_path / "attempts.txt")!r}

        class Tripwire:
            def find_spec(self, name, path=None, target=None):
                if name in watched:
                    with open(attempts, "a") as fh:
                        print(os.getpid(), name, file=fh)
                return None

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = starkchain.cli.main(list(argv))
            print(argv[0], code, [m for m in watched if m in sys.modules])

        sys.meta_path.insert(0, Tripwire())
        print("import", 0, [m for m in watched if m in sys.modules])
        out = {str(tmp_path)!r}
        for workers in ("1", "2"):
            run("simulate", "--config", {str(config)!r}, "--output", f"{{out}}/w{{workers}}",
                "--workers", workers)
        run("export", "--kind", "entropy_profile", "--output", f"{{out}}/w2",
            "--gamma", "-0.5", "--delta", "0.1", "--size", "8")
        run("verify", "--input", f"{{out}}/w2/traj_g-0.5_d0.1_L8.npz")
        run("simulate", "--config", {str(grid)!r}, "--output", f"{{out}}/pd")
        run("collapse", "--config", {str(grid)!r}, "--output", f"{{out}}/pd")
        run("spectral", "--config", {str(grid)!r}, "--output", f"{{out}}/sp")
        sys.meta_path.pop(0)
        print(os.path.exists(attempts))
        with open(f"{{out}}/pd/collapse.json") as fh:
            print(sorted(key for key, fit in json.load(fh).items() if "delta_c" in fit))

        biorthogonal_eigendecomposition(build_hamiltonian(ModelParams(-0.5, 0.1, 8)))
        print([m for m in watched if m in sys.modules])
    """)
    assert lines == ["import 0 []", "simulate 0 []", "simulate 0 []", "export 0 []",
                     "verify 0 []", "simulate 0 []", "collapse 0 []", "spectral 0 []",
                     "False", "['-0.3', '-0.5']", "['scipy.linalg']"]
