"""The three benchmark workloads: their inputs and the CLI calls that run them.

Each workload is a list of `starkchain` CLI calls made in one fresh process
(see round.py).  `write_inputs` builds the config and any input files;
`cli_calls` lists the argument vectors for `cli.main`.  No workload's inputs
depend on the benchmark's --seed, so every seed runs the same work.

- obc-sweep: the README grid under open boundaries (the paper's main
  figure), desk preset.  The grid is fixed by the figure.
- pbc-ring: the periodic ring at delta = 0.001, paper preset, followed by
  exports.
- collapse-refit: `starkchain collapse` on synthetic rows that follow the
  scaling ansatz, with 2% noise drawn from a fixed generator seed: two
  datasets of 36 points, one per gamma label.  The noise draw and the
  bootstrap seed set the optimizer's path, and with it the work: over five
  draws a round ranged from 7,200 to 8,400 `collapse_quality` calls.  Drawn
  from --seed, that alone spread `wall_s` as widely as the host's own drift,
  so the draw is fixed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GAMMA = -0.5
SIZES = (32, 64, 96, 128)
OBC_DELTAS = (0.001, 0.05, 0.1, 0.15, 0.2, 0.3)
PBC_DELTA = 0.001
WORKERS = 2

# Synthetic collapse data: the shape of `synthetic_collapse` in tests/test_scaling.py.
PLANTED = (0.15, 1.9, 2.0)  # delta_c, nu, zeta
COLLAPSE_X_GRID = np.linspace(-1.5, 2.5, 9)
COLLAPSE_NOISE = 0.02
COLLAPSE_INIT = (0.12, 1.5, 1.6)
COLLAPSE_GAMMAS = (-0.5, -0.4)  # labels only: every dataset has the planted values
# bootstrap_n = 100 (the README value) takes about 70 s per fit on one core;
# 4 resamples keep a round of two fits near 12 s, so that a 40 s run makes
# three rounds, while still giving the error bars the check uses.
COLLAPSE_SEED = 0  # the noise draw and the bootstrap seed
COLLAPSE_BOOTSTRAP = 4

ROW_COLUMNS = ("gamma", "delta", "L", "boundary", "s_half_steady",
               "s_half_raw_final", "converged", "wall_time_s")

OBC_CONFIG = {
    "gamma_values": [GAMMA],
    "delta_values": list(OBC_DELTAS),
    "sizes": list(SIZES),
    "boundary": "open",
    "schedule": {"dt": 10.0, "steps": 2000, "early_stop": True, "sample_stride": 50},
    "smoothing": {"sigma": 20.0, "tail_fraction": 0.25},
    "analyses": {"collapse": False, "mutual_info": True, "fractal": True,
                 "density_movie": False},
    "save_trajectories": True,
    "workers": WORKERS,
}

PBC_CONFIG = {
    "gamma_values": [GAMMA],
    "delta_values": [PBC_DELTA],
    "sizes": list(SIZES),
    "boundary": "periodic",
    "analyses": {"cft_fit": True},
    "workers": WORKERS,
}


def collapse_config() -> dict:
    return {
        "gamma_values": list(COLLAPSE_GAMMAS),
        "delta_values": [PLANTED[0]],
        "sizes": list(SIZES),
        "collapse_options": {"init": list(COLLAPSE_INIT), "window_min_delta": None,
                             "bootstrap_n": COLLAPSE_BOOTSTRAP, "seed": COLLAPSE_SEED},
    }


def synthetic_collapse_rows(seed: int) -> list:
    """(gamma, L, delta, S) rows on the scaling ansatz: 36 per gamma label, 2% noise from the seed."""
    delta_c, nu, zeta = PLANTED
    rng = np.random.default_rng(seed)
    rows = []
    for gamma in COLLAPSE_GAMMAS:
        for L in SIZES:
            deltas = delta_c + COLLAPSE_X_GRID * L ** (-1.0 / nu)
            s = L ** (zeta / nu) * (1.0 / (1.0 + COLLAPSE_X_GRID ** 2) + 0.5)
            s = s * (1.0 + COLLAPSE_NOISE * rng.uniform(-1, 1, size=s.shape))
            rows.extend((gamma, L, float(d), float(v)) for d, v in zip(deltas, s))
    return rows


def write_inputs(workload: str, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "obc-sweep":
        config = OBC_CONFIG
    elif workload == "pbc-ring":
        config = PBC_CONFIG
    else:
        config = collapse_config()
        lines = [",".join(ROW_COLUMNS)]
        for gamma, L, delta, s in synthetic_collapse_rows(COLLAPSE_SEED):
            lines.append(f"{gamma!r},{delta!r},{L},open,{s!r},{s!r},true,0.0")
        (outdir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (outdir / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")


def cli_calls(workload: str, outdir: Path) -> list:
    out = str(outdir)
    cfg = str(outdir / "config.json")
    if workload == "obc-sweep":
        return [["simulate", "--config", cfg, "--preset", "desk",
                 "--workers", str(WORKERS), "--output", out]]
    if workload == "pbc-ring":
        point = ["--gamma", repr(GAMMA), "--delta", repr(PBC_DELTA)]
        calls = [["simulate", "--config", cfg, "--preset", "paper",
                  "--workers", str(WORKERS), "--output", out],
                 ["export", "--kind", "s_vs_L", "--output", out, *point]]
        calls += [["export", "--kind", "entropy_profile", "--output", out, *point,
                   "--size", str(L)] for L in SIZES]
        return calls
    return [["collapse", "--config", cfg, "--output", out]]


WORKLOADS = ("obc-sweep", "pbc-ring", "collapse-refit")
