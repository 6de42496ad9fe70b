"""Benchmark of the starkchain CLI: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 benchmarks/run.py --workload obc-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the program is imported from ./src).
A run first starts SETUP_PROBES fresh processes that only set up, then runs
whole rounds of the workload, each round in a fresh process, until another
round would end past --seconds (at least one round; with --trace 1, at least
one untraced and one traced round).  After every round the
program's outputs are checked (checks.py).

--trace 0 reports the end-to-end metrics: the median round wall_s, the median
setup_s over all set-ups, and the median peak_rss_mb.  --trace 1 runs one
untraced round, then traced rounds, and reports the per-layer metrics of the
median traced round plus the tracing overhead against the untraced round.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import layer_metrics  # noqa: E402

SETUP_PROBES = 4
ROUND_TIMEOUT_S = 170
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, outdir: Path, *flags: str) -> dict:
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "round.py"), "--workload", workload,
           "--outdir", str(outdir), *flags]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads((outdir / "round.json").read_text())


def check_round(workload: str, outdir: Path, oracle) -> checks.Outcome:
    try:
        if workload == "obc-sweep":
            return checks.check_obc(outdir, oracle)
        if workload == "pbc-ring":
            return checks.check_pbc(outdir, oracle)
        return checks.check_collapse(outdir)
    except (OSError, KeyError, ValueError, IndexError) as err:
        return checks.Outcome(attempted=1, problems=[f"outputs unreadable: {err!r}"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="kept for the command line; every workload's inputs are fixed "
                             "(see workloads.py)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "starkchain" / "cli.py").is_file():
        print(f"no starkchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH_DIR / "out" / args.workload
    if work.exists():
        shutil.rmtree(work)
    oracle = {"obc-sweep": checks.load_references,
              "pbc-ring": checks.pbc_intervals}.get(args.workload, lambda: None)()

    setups = [run_child(args.workload, work / f"setup-{i}", "--setup-only")["setup_s"]
              for i in range(SETUP_PROBES)]

    rounds = []
    attempted = failed = 0
    problems: list = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) > 0
        outdir = work / f"round-{len(rounds)}"
        t0 = time.perf_counter()
        try:
            result = run_child(args.workload, outdir, *(["--trace"] if traced else []))
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            problems.append(str(err))
            break
        outcome = check_round(args.workload, outdir, oracle)
        if any(code != 0 for code in result["exit_codes"]):
            outcome.problems.append(f"cli exit codes {result['exit_codes']}")
        if not outcome.problems:  # a round with problems stays for inspection
            shutil.rmtree(outdir)
        result["traced"] = traced
        result["duration_s"] = time.perf_counter() - t0
        rounds.append(result)
        attempted += outcome.attempted
        failed += len(outcome.failed)
        problems += outcome.problems
        if len(rounds) == 1:
            for line in outcome.failed:
                print(f"failed: {line}")
        print(f"round {len(rounds) - 1}{' (traced)' if traced else ''}: "
              f"wall_s {result['wall_s']:.3f}, setup_s {result['setup_s']:.3f}, "
              f"peak_rss_mb {result.get('peak_rss_mb', 0.0):.1f}")
        setups.append(result["setup_s"])
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["duration_s"] for r in rounds)
        if problems or (len(rounds) > args.trace and elapsed + typical > args.seconds):
            break

    for p in problems:
        print(f"problem: {p}")
    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    metrics = {}
    if not args.trace and plain:
        metrics["wall_s"] = {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                                  "unit": "MB"}
    elif traced_rounds and plain:
        per_round = [layer_metrics(r["trace"]) for r in traced_rounds]
        for name, (_value, unit) in per_round[0].items():
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_round),
                             "unit": unit}
        traced_wall = statistics.median(r["wall_s"] for r in traced_rounds)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_wall / plain_wall - 1.0),
                                         "unit": "%"}
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed, "
          f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
    correct = not problems and bool(metrics)
    if correct:
        shutil.rmtree(work)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
