"""One round of a workload in a fresh process: set up, then call `starkchain.cli.main`.

    python3 benchmarks/round.py --workload NAME --outdir DIR [--trace] [--setup-only]

Set-up is everything before the first timed call: importing starkchain with
numpy and scipy, writing the config and inputs, and one warm-up LAPACK call.
Each CLI call is timed from entering `cli.main` to its return, after its last
output is written.  With --trace the per-layer tracer is installed during
set-up.  The result goes to DIR/round.json; the program's own printing goes
to DIR/cli.log.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import starkchain.cli  # noqa: E402

import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for workers (Linux KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(starkchain.__file__).resolve().parents:
        sys.exit(f"starkchain was imported from {starkchain.__file__}, not from {src}")
    outdir = Path(args.outdir)
    workloads.write_inputs(args.workload, outdir)
    calls = workloads.cli_calls(args.workload, outdir)
    a = np.random.default_rng(0).standard_normal((64, 32))
    np.linalg.qr(a)  # warm-up: loads the LAPACK code paths
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(outdir / "trace")
        tracer.trace_dir.mkdir(exist_ok=True)
        tracer.install()
    setup_s = time.perf_counter() - T_START

    result = {"setup_s": setup_s, "wall_s": 0.0, "exit_codes": []}
    if not args.setup_only:
        cli_main = starkchain.cli.main
        with open(outdir / "cli.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in calls:
                t0 = time.perf_counter()
                code = cli_main(argv)
                result["wall_s"] += time.perf_counter() - t0
                result["exit_codes"].append(code)
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.collect()
    (outdir / "round.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
