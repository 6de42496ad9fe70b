"""Command-line entry point.

Verbs: simulate (grid sweep), collapse (refit saved rows), spectral (fractal
dimensions and analytic boundaries), export (plot-ready tables), verify
(invariant suite on a saved trajectory file).  The phase diagram is simulate
with the collapse analysis on, then spectral into the same directory.

Exit codes: 0 success, 1 partial (some rows failed or a check failed),
2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _add_common(p: argparse.ArgumentParser, *flags: str):
    from .sweep import PRESETS

    options = {
        "--config": {"required": True, "help": "JSON sweep configuration"},
        "--output": {"help": "output directory (overrides config)"},
        "--workers": {"type": int, "help": "parallel workers (overrides config)"},
        "--preset": {"choices": tuple(PRESETS), "help": "schedule preset"},
        "--seed": {"type": int, "help": "collapse/bootstrap seed (overrides config)"},
    }
    for flag in ("--config", "--output", *flags):
        p.add_argument(flag, **options[flag])


def _load(args):
    from .sweep import load_config

    given = vars(args)  # a verb's namespace holds only the flags it takes
    config = load_config(args.config, preset=given.get("preset"))
    if args.output:
        config = replace(config, output_dir=args.output)
    if given.get("workers") is not None:
        config = replace(config, workers=args.workers)
    if given.get("seed") is not None:
        config = replace(
            config, collapse_options=replace(config.collapse_options, seed=args.seed)
        )
    return config


def _manifest_exit(manifest: dict) -> int:
    return EXIT_OK if manifest["status"] == "complete" else EXIT_PARTIAL


def cmd_simulate(args) -> int:
    from .sweep import run_sweep

    config = _load(args)
    manifest = run_sweep(config)
    print(f"wrote {len(manifest['files'])} files to {config.output_dir} "
          f"({manifest['status']})")
    return _manifest_exit(manifest)


def cmd_collapse(args) -> int:
    from .sweep import refit_collapse

    fits = refit_collapse(_load(args))
    if not fits:
        print("no usable rows for any configured gamma", file=sys.stderr)
        return EXIT_PARTIAL
    failed = False
    for key, fit in sorted(fits.items()):
        if "error" in fit:
            print(f"gamma={key}: collapse failed: {fit['error']}", file=sys.stderr)
            failed = True
        else:
            print(f"gamma={key}: delta_c={fit['delta_c']:.4f} +- {fit['delta_c_err']:.4f}  "
                  f"nu={fit['nu']:.3f}  zeta={fit['zeta']:.3f}  quality={fit['quality']:.3e}")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_spectral(args) -> int:
    from .sweep import run_spectral

    run_spectral(_load(args))  # runs no grid, so no row of its own can fail
    print("spectral map written")
    return EXIT_OK


def cmd_export(args) -> int:
    from .export import export_figure_data

    path = export_figure_data(args.kind, args.output, out_path=args.out, gamma=args.gamma,
                              delta=args.delta, size=args.size)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .propagation import PURITY_TOL, trajectory_invariants
    from .sweep import read_trajectory

    checks = trajectory_invariants(**read_trajectory(Path(args.input)))  # arrays by name
    ok = True
    for name, value in checks.items():
        passed = value <= (PURITY_TOL if name == "purity_symmetry" else args.atol)
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:18s} {value:.3e}")
    return EXIT_OK if ok else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    from .export import EXPORT_KINDS

    parser = argparse.ArgumentParser(
        prog="starkchain",
        description="Nonunitary free-fermion dynamics on a tilted nonreciprocal chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, flags in (  # collapse and spectral run no grid
        ("simulate", cmd_simulate, ("--workers", "--preset", "--seed")),
        ("collapse", cmd_collapse, ("--seed",)),
        ("spectral", cmd_spectral, ()),
    ):
        p = sub.add_parser(name)
        _add_common(p, *flags)
        p.set_defaults(func=fn)

    p = sub.add_parser("export")
    p.add_argument("--kind", required=True, choices=EXPORT_KINDS)
    p.add_argument("--output", required=True, help="sweep output directory to read")
    p.add_argument("--out", help="path of the table to write")
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--size", type=int)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify")
    p.add_argument("--input", required=True, help="saved trajectory .npz")
    p.add_argument("--atol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
