"""Config-driven grid runner: trajectories over (gamma, delta, L) with persistence.

Outputs are plain CSV/JSON/NPZ files in an output directory, listed in a
manifest with content hashes.  Each grid point's files are written by the
process that ran it as soon as the point finishes; the manifest is written
last.  Runs are deterministic: at a fixed BLAS thread count, a rerun with an
identical config (including seed) produces byte-identical files, independent
of the worker count.  Wall-clock timing is therefore only recorded when
`record_timings` is enabled, since real timings vary between runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from itertools import product
from pathlib import Path
from typing import get_type_hints

import numpy as np
import scipy

from .entanglement import (entropy_profile, mutual_information, standard_probe_regions,
                           steady_state_entropy)
from .model import Boundary, ModelParams, build_hamiltonian
from .propagation import (Schedule, TrajectoryError, _check_field_types, _is_number,
                          run_trajectory)
from .scaling import (DEFAULT_BOUNDS, DEFAULT_INIT, ScalingDataset, cft_log_fit, fit_collapse,
                      power_law_fit)
from .spectral import average_fractal_dimension, phase_boundaries


@dataclass(frozen=True)
class Smoothing:
    sigma: float = 20.0
    tail_fraction: float = 0.25

    def __post_init__(self):
        _check_field_types(self, "smoothing")
        if not self.sigma > 0 or not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("smoothing needs sigma > 0 and tail_fraction in (0, 1]")


@dataclass(frozen=True)
class Analyses:
    collapse: bool = False
    power_law: bool = False
    cft_fit: bool = False
    fractal: bool = False
    mutual_info: bool = False
    density_movie: bool = False

    def __post_init__(self):
        _check_field_types(self, "analyses")


def _is_seq(v, n: int) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == n


def _is_float_key(key) -> bool:
    try:
        float(key)
    except (TypeError, ValueError):
        return False
    return True


@dataclass(frozen=True)
class CollapseOptions:
    init: tuple = DEFAULT_INIT
    bounds: tuple = DEFAULT_BOUNDS
    window_min_delta: object = 0.1   # scalar, or {gamma: value} mapping
    bootstrap_n: int = 100
    seed: int = 7

    def __post_init__(self):
        _check_field_types(self, "collapse_options")
        for name in ("bootstrap_n", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"collapse_options {name} must be >= 0")
        if not (_is_seq(self.bounds, 3) and all(
                _is_seq(b, 2) and all(map(_is_number, b)) and b[0] < b[1] for b in self.bounds)):
            raise ValueError(f"collapse_options bounds must be 3 (lo, hi) pairs with lo < hi, "
                             f"got {self.bounds!r}")
        if not (_is_seq(self.init, 3) and all(
                _is_number(v) and np.isfinite(v) and lo <= v <= hi
                for v, (lo, hi) in zip(self.init, self.bounds))):
            raise ValueError(f"collapse_options init must be 3 finite numbers inside bounds "
                             f"{self.bounds!r}, got {self.init!r}")
        object.__setattr__(self, "init", tuple(self.init))
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        w = self.window_min_delta
        if isinstance(w, dict):
            ok = all(_is_number(v) and _is_float_key(k) for k, v in w.items())
        else:
            ok = w is None or _is_number(w)
        if not ok:
            raise ValueError(f"collapse_options window_min_delta must be None, a number, "
                             f"or a mapping from gamma to numbers, got {w!r}")

    def min_delta_for(self, gamma: float) -> float | None:
        w = self.window_min_delta
        if w is None:
            return None
        if isinstance(w, dict):
            for key, val in w.items():
                if np.isclose(float(key), gamma):
                    return float(val)
            return None
        return float(w)


@dataclass(frozen=True)
class SweepConfig:
    gamma_values: tuple[float, ...]
    delta_values: tuple[float, ...]
    sizes: tuple[int, ...]
    boundary: Boundary = Boundary.OPEN
    schedule: Schedule = field(default_factory=Schedule)
    smoothing: Smoothing = field(default_factory=Smoothing)
    analyses: Analyses = field(default_factory=Analyses)
    collapse_options: CollapseOptions = field(default_factory=CollapseOptions)
    output_dir: str = "out"
    workers: int = 1
    record_timings: bool = False
    save_trajectories: bool = False

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        _check_field_types(self)
        if not self.gamma_values or not self.delta_values or not self.sizes:
            raise ValueError("gamma_values, delta_values and sizes must be nonempty")
        if any(L % 2 != 0 for L in self.sizes):
            raise ValueError("all sizes must be even")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        for g, d, L in product(self.gamma_values, self.delta_values, self.sizes):
            try:
                ModelParams(g, d, L, self.boundary)
            except ValueError as err:
                raise ValueError(f"grid point gamma={g!r}, delta={d!r}, L={L!r}: {err}") from None


PRESETS = {
    "paper": {"schedule": {"dt": 10.0, "steps": 10000, "early_stop": False}},
    "desk": {"schedule": {"dt": 10.0, "steps": 2000, "early_stop": True}},
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _check_keys(section: dict, cls, where: str):
    """Reject keys that are not fields of `cls`, and missing fields without a default."""
    known = {f.name: f for f in fields(cls)}
    for name in section:
        if name not in known:
            raise ValueError(f"unknown key {name!r} in {where}; choose from {sorted(known)}")
    for name, f in known.items():
        if name not in section and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {name!r} in {where}")


def config_from_dict(raw: dict, preset: str | None = None) -> SweepConfig:
    """Build a SweepConfig from a JSON-style dict, optionally under a preset."""
    data: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        data = _merge(data, PRESETS[preset])
    if not isinstance(raw, dict):
        raise ValueError(f"config must be an object, got {raw!r}")
    data = _merge(data, raw)
    _check_keys(data, SweepConfig, "config")
    for key, cls in get_type_hints(SweepConfig).items():
        if is_dataclass(cls) and key in data:
            section = data[key]
            if not isinstance(section, dict):
                raise ValueError(f"config section {key!r} must be an object, got {section!r}")
            _check_keys(section, cls, f"config section {key!r}")
            data[key] = cls(**section)
    return SweepConfig(**data)


def load_config(path, preset: str | None = None) -> SweepConfig:
    """Read a JSON config file into a SweepConfig."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return config_from_dict(raw, preset=preset)


def config_as_dict(config: SweepConfig) -> dict:
    out = asdict(config)
    out["boundary"] = config.boundary.value
    return out


# ---------------------------------------------------------------------------
# serialization helpers

def format_cell(value) -> str:
    """Deterministic CSV cell: floats in 17-digit scientific notation."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17e}"
    return str(value)


def write_csv(path: Path, header: list, rows: list, comments: list | None = None):
    lines = []
    for c in comments or []:
        lines.append(f"# {c}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path) -> list[dict]:
    """Rows of a write_csv file as header-keyed strings, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def point_tag(gamma: float, delta: float, length: int) -> str:
    return f"g{gamma:g}_d{delta:g}_L{length}"


def write_profile_csv(path: Path, prof: np.ndarray, length: int):
    """Write an entropy_profile table: one row (l, S(1..l), L) per cut."""
    write_csv(path, ["l", "s_l", "L"], [[int(l), s, length] for l, s in prof])


def write_density_csv(path: Path, steps: np.ndarray, dens: np.ndarray):
    """Write sampled densities long-form: one row (step, site, n) per sample and site."""
    write_csv(path, ["step", "site", "n"],
              [[int(steps[i]), site + 1, dens[i, site]]
               for i in range(len(steps)) for site in range(dens.shape[1])])


# ---------------------------------------------------------------------------
# single grid point

ROW_COLUMNS = [
    "gamma", "delta", "L", "boundary",
    "s_half_steady", "s_half_raw_final", "converged", "wall_time_s",
]


def _run_point(config: SweepConfig, gamma: float, delta: float, length: int) -> dict:
    """Run one trajectory and write the point's own files into the output directory.

    Returns the point's row: its scalars, its mutual information and CFT fit,
    and the paths written, but no array, so a pool worker sends back only a
    few hundred bytes.  A failing trajectory is recorded in the row instead of
    raising; a failing write raises.
    """
    t0 = time.perf_counter()
    result = {
        "gamma": gamma, "delta": delta, "L": length,
        "boundary": config.boundary.value,
        "s_half_steady": float("nan"), "s_half_raw_final": float("nan"),
        "converged": False, "wall_time_s": 0.0, "error": None,
        "mi_steady": None, "cft_fit": None, "files": [],
    }
    mi_steps: list = []
    mi_vals: list = []
    want_mi = config.analyses.mutual_info and length % 8 == 0
    if want_mi:
        region_a, region_b = standard_probe_regions(length)

        def on_sample(step, state, C):
            mi_steps.append(step)
            mi_vals.append(mutual_information(C, region_a, region_b))
    else:
        on_sample = None

    try:
        params = ModelParams(gamma=gamma, delta=delta, length=length,
                             boundary=config.boundary)
        record = run_trajectory(params, config.schedule, on_sample=on_sample)
    except (TrajectoryError, ValueError) as err:
        result["error"] = str(err)
        return result

    sm = config.smoothing
    result["s_half_steady"] = steady_state_entropy(record, sm.sigma, sm.tail_fraction)
    result["s_half_raw_final"] = float(record.ee_series[-1])
    result["converged"] = bool(record.converged)
    if config.record_timings:
        result["wall_time_s"] = time.perf_counter() - t0

    if want_mi and mi_vals:
        n_tail = max(1, int(round(sm.tail_fraction * len(mi_vals))))
        result["mi_steady"] = float(np.mean(mi_vals[-n_tail:]))

    outdir = Path(config.output_dir)
    tag = point_tag(gamma, delta, length)
    files = result["files"]
    if config.analyses.cft_fit:
        prof = entropy_profile(record.final_correlation)
        path = outdir / f"profile_{tag}.csv"
        write_profile_csv(path, prof, length)
        files.append(path)
        try:
            fit = cft_log_fit(prof, length)
            result["cft_fit"] = {"c": fit.c, "const": fit.const,
                                 "rms_residual": fit.rms_residual}
        except ValueError as err:
            result["cft_fit"] = {"error": str(err)}

    if config.analyses.density_movie:
        path = outdir / f"density_{tag}.csv"
        write_density_csv(path, record.density_steps, record.density_series)
        files.append(path)

    if config.save_trajectories or config.analyses.cft_fit or config.analyses.density_movie:
        detail = {
            "gamma": np.float64(gamma),
            "delta": np.float64(delta),
            "length": np.int64(length),
            "periodic": np.int64(config.boundary is Boundary.PERIODIC),
            "dt": np.float64(record.dt),
            "steps": np.int64(record.steps),
            "converged": np.int64(record.converged),
            "ee_series": record.ee_series,
            "density_steps": record.density_steps,
            "density_series": record.density_series,
            "final_correlation": record.final_correlation,
        }
        if want_mi and mi_vals:
            detail["mi_steps"] = np.asarray(mi_steps, dtype=int)
            detail["mi_series"] = np.asarray(mi_vals)
        path = outdir / f"traj_{tag}.npz"
        np.savez(path, **detail)
        files.append(path)
    return result


def _sorted_grid(config: SweepConfig) -> list:
    return [
        (g, d, L)
        for g in sorted(config.gamma_values)
        for d in sorted(config.delta_values)
        for L in sorted(config.sizes)
    ]


def _run_grid(config: SweepConfig) -> tuple[list, list | None]:
    """Rows in grid order, and the fractal rows when that analysis is on.

    A pool gets the points longest-first (descending L, ties in grid order), so
    the largest point never starts last, and the fractal map as one more task:
    the calling process then does no numerical work.
    """
    grid = _sorted_grid(config)
    fractal = config.analyses.fractal
    if config.workers == 1 or len(grid) == 1:
        return ([_run_point(config, *pt) for pt in grid],
                _fractal_rows(config) if fractal else None)
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

    order = sorted(range(len(grid)), key=lambda i: -grid[i][2])
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        futures = {i: pool.submit(_run_point, config, *grid[i]) for i in order}
        fractal_future = pool.submit(_fractal_rows, config) if fractal else None
        return ([futures[i].result() for i in range(len(grid))],
                fractal_future.result() if fractal else None)


# ---------------------------------------------------------------------------
# output emitters

def _output_dir(config: SweepConfig) -> Path:
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


# Names of the analysis files a sweep may write besides sweep.csv, as glob patterns.
COLLAPSE_OUTPUTS = ("collapse.json", "collapse_g*.csv")
ANALYSIS_OUTPUTS = ("mutual_info.csv", "power_law.json", *COLLAPSE_OUTPUTS, "fractal.csv",
                    "cft_fit.json", "profile_*.csv", "density_*.csv", "traj_*.npz")


def _clear_outputs(outdir: Path, patterns: tuple):
    """Delete the files in `outdir` that match any of `patterns`."""
    for pattern in patterns:
        for stale in outdir.glob(pattern):
            stale.unlink()


def _start_run(config: SweepConfig) -> Path:
    """Make the output directory and delete an earlier run's results in it.

    Workers write each point's files as it finishes, so this runs before the
    grid starts; the directory then holds only this run's results, and holds a
    manifest only once the run has finished.  Export tables (fig_*) stay.
    """
    outdir = _output_dir(config)
    _clear_outputs(outdir, ("manifest.json", "sweep.csv", *ANALYSIS_OUTPUTS))
    return outdir


def _emit_results(config: SweepConfig, outdir: Path, results: list,
                  fractal: list | None) -> tuple[list, dict]:
    """Write sweep.csv and the whole-run analyses; return all files and the collapse fits.

    The per-point files are already written; their paths come from the rows.
    """
    path = outdir / "sweep.csv"
    write_csv(path, ROW_COLUMNS, [[r[c] for c in ROW_COLUMNS] for r in results])
    files = [path, *(p for r in results for p in r["files"])]
    ok = [r for r in results if r["error"] is None]

    if config.analyses.mutual_info:
        mi_rows = [
            [r["gamma"], r["delta"], r["L"], r["mi_steady"]]
            for r in ok if r["mi_steady"] is not None
        ]
        if mi_rows:
            path = outdir / "mutual_info.csv"
            write_csv(path, ["gamma", "delta", "L", "mi"], mi_rows)
            files.append(path)

    if config.analyses.power_law:
        fits = {}
        for g in sorted(config.gamma_values):
            for d in sorted(config.delta_values):
                pts = [(r["L"], r["s_half_steady"]) for r in ok
                       if r["gamma"] == g and r["delta"] == d
                       and r["s_half_steady"] > 0]
                if len(pts) >= 3:
                    pts.sort()
                    fit = power_law_fit([p[0] for p in pts], [p[1] for p in pts])
                    fits[f"gamma={g:g},delta={d:g}"] = {
                        "beta": fit.beta, "stderr": fit.stderr, "n_sizes": len(pts),
                    }
        if fits:
            path = outdir / "power_law.json"
            write_json(path, fits)
            files.append(path)

    collapse_fits = {}
    if config.analyses.collapse:
        collapse_files, collapse_fits = _emit_collapse(config, outdir, ok)
        files.extend(collapse_files)

    if fractal is not None:
        files.append(_emit_fractal(outdir, fractal))

    if config.analyses.cft_fit:
        fit_entries = {point_tag(r["gamma"], r["delta"], r["L"]): r["cft_fit"] for r in ok}
        if fit_entries:
            path = outdir / "cft_fit.json"
            write_json(path, fit_entries)
            files.append(path)

    return files, collapse_fits


def _emit_collapse(config: SweepConfig, outdir: Path, rows: list) -> tuple[list, dict]:
    """Fit each configured gamma's finite rows; return the files written and the fits.

    The order of `rows` sets the bootstrap resamples.  Earlier collapse files in
    `outdir` are removed first, so it holds exactly this call's fits.
    """
    _clear_outputs(outdir, COLLAPSE_OUTPUTS)
    files = []
    fits = {}
    for g in sorted(config.gamma_values):
        pts = [
            (r["L"], r["delta"], r["s_half_steady"])
            for r in rows if r["gamma"] == g and np.isfinite(r["s_half_steady"])
        ]
        if not pts:
            continue
        data = ScalingDataset.from_points(pts)
        min_d = config.collapse_options.min_delta_for(g)
        data = data.restrict_delta(min_delta=min_d)
        try:
            fit = fit_collapse(
                data,
                init=config.collapse_options.init,
                bounds=config.collapse_options.bounds,
                bootstrap_n=config.collapse_options.bootstrap_n,
                seed=config.collapse_options.seed,
            )
        except ValueError as err:
            fits[f"{g:g}"] = {"error": str(err)}
            continue
        fits[f"{g:g}"] = fit.as_dict()
        x, y = data.rescaled(fit.delta_c, fit.nu, fit.zeta)
        order = np.lexsort((x,))
        path = outdir / f"collapse_g{g:g}.csv"
        write_csv(
            path, ["x", "y", "L", "delta"],
            [[x[i], y[i], int(data.sizes[i]), data.deltas[i]] for i in order],
            comments=[f"delta_c={fit.delta_c:.17e} nu={fit.nu:.17e} zeta={fit.zeta:.17e}"],
        )
        files.append(path)
    if fits:
        path = outdir / "collapse.json"
        write_json(path, fits)
        files.append(path)
    return files, fits


def _fractal_rows(config: SweepConfig) -> list:
    """Mean fractal dimension of H over the (gamma, delta) grid at the largest size."""
    L = max(config.sizes)
    return [
        [g, d, L, average_fractal_dimension(
            build_hamiltonian(ModelParams(g, d, L, config.boundary)))]
        for g in sorted(config.gamma_values) for d in sorted(config.delta_values)
    ]


def _emit_fractal(outdir: Path, rows: list) -> Path:
    path = outdir / "fractal.csv"
    write_csv(path, ["gamma", "delta", "L", "gamma_bar"], rows)
    return path


def _emit_boundaries(config: SweepConfig, outdir: Path, fits: dict) -> Path:
    """Per-gamma fitted delta_c (NaN without a fit in `fits`) and analytic boundaries."""
    nan = float("nan")
    L = max(config.sizes)
    rows = []
    for g in sorted(config.gamma_values):
        fit = fits.get(f"{g:g}", {})
        try:
            pb = phase_boundaries(g, L)
            d1, d2 = pb.delta_i, pb.delta_ii
        except ValueError:
            d1, d2 = nan, nan
        rows.append([g, fit.get("delta_c", nan), fit.get("delta_c_err", nan), d1, d2])
    path = outdir / "boundaries.csv"
    write_csv(path, ["gamma", "delta_c", "delta_c_err", "delta_i", "delta_ii"], rows)
    return path


# Environment variables that set the BLAS thread count.  Past double precision's
# reach (large L) the rounding order, and with it the output, depends on it.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _runtime() -> dict:
    """What besides the config can change output bytes: thread settings, cores, versions."""
    return {
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _finish(config: SweepConfig, outdir: Path, results: list, files: list) -> dict:
    """Write manifest.json, last of the run's files, and return it."""
    errors = [
        {"gamma": r["gamma"], "delta": r["delta"], "L": r["L"], "error": r["error"]}
        for r in results if r["error"] is not None
    ]
    manifest = {
        "config": config_as_dict(config),
        "status": "partial" if errors else "complete",
        "row_errors": errors,
        "runtime": _runtime(),
        "files": [
            {"path": p.name, "sha256": sha256_file(p), "bytes": p.stat().st_size}
            for p in sorted(files, key=lambda p: p.name)
        ],
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# runners

def run_sweep(config: SweepConfig) -> dict:
    """Run the full (gamma, delta, L) grid and persist rows plus analyses.

    Returns the manifest dict; the manifest file lists every output with its
    SHA-256.  A failing grid point is recorded in its row and in the manifest
    but does not abort the rest of the sweep.
    """
    outdir = _start_run(config)
    results, fractal = _run_grid(config)
    files, _ = _emit_results(config, outdir, results, fractal)
    return _finish(config, outdir, results, files)


def run_phase_diagram(config: SweepConfig) -> dict:
    """Half-chain entropy heat map over (gamma, delta) plus fitted/analytic boundaries.

    Writes what run_sweep writes with the collapse analysis switched on, plus
    phase_diagram.csv (the heat map at the largest configured size) and
    boundaries.csv (the per-gamma collapse estimate of the transition point
    next to the analytic skin-effect and tilt-localization boundaries).
    """
    if len(config.gamma_values) < 2 or len(config.delta_values) < 2:
        raise ValueError("phase diagram needs at least 2 gamma and 2 delta values")
    outdir = _start_run(config)
    results, fractal = _run_grid(config)
    with_collapse = replace(config, analyses=replace(config.analyses, collapse=True))
    files, fits = _emit_results(with_collapse, outdir, results, fractal)

    l_max = max(config.sizes)
    grid_rows = [[r["gamma"], r["delta"], r["s_half_steady"]]
                 for r in results if r["error"] is None and r["L"] == l_max]
    path = outdir / "phase_diagram.csv"
    write_csv(path, ["gamma", "delta", "s_half"], grid_rows)
    files.append(path)
    files.append(_emit_boundaries(config, outdir, fits))
    return _finish(config, outdir, results, files)


def run_spectral(config: SweepConfig) -> dict:
    """Average fractal dimension over the grid plus analytic boundaries."""
    outdir = _output_dir(config)
    files = [_emit_fractal(outdir, _fractal_rows(config)),
             _emit_boundaries(config, outdir, {})]
    return _finish(config, outdir, [], files)


def refit_collapse(config: SweepConfig) -> dict:
    """Refit the collapse on the output directory's sweep.csv, rows in file order.

    Returns the fits by gamma key; an empty dict means no configured gamma had
    a finite row, and then nothing was written.
    """
    outdir = Path(config.output_dir)
    path = outdir / "sweep.csv"
    if not path.exists():
        raise FileNotFoundError(f"no sweep rows at {path}; run simulate first")
    rows = [
        {"gamma": float(r["gamma"]), "delta": float(r["delta"]), "L": int(r["L"]),
         "s_half_steady": float(r["s_half_steady"])}
        for r in read_csv(path)
    ]
    return _emit_collapse(config, outdir, rows)[1]
