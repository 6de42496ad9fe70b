"""Config-driven grid runner: trajectories over (gamma, delta, L) with persistence.

Outputs are plain CSV/JSON/NPZ files in an output directory, each format read
back by one reader here, beside its writer.  The names a run may write are one
list of glob patterns, RUN_OUTPUTS: the grid run (simulate) deletes every file
matching them before its first point, and every verb that writes into the
directory (simulate, spectral, collapse) ends by writing manifest.json, which
lists each file in the directory that matches them with its content hash.  Each
grid point's files are written by the process that ran it as soon as the point
finishes; the manifest is written last.  collapse.json alone holds the collapse
fits, delta_c among them (a fit replaces only its gamma's entry);
boundaries.csv, which spectral alone writes, holds only the analytic
boundaries, and its writer reads no file.  The phase diagram is simulate with
the collapse analysis on, then spectral: its S_half map is the finite rows of
sweep.csv at the largest L.  The manifest carries the config and runtime of the
verb that wrote it; a verb that runs no grid copies the grid's config (as
grid_config) and row errors, which set the status, from the manifest already in
the directory, and reads it, like every input it reads, before its first write.
A point's traj_*.npz, the whole trajectory, is written only under
save_trajectories: every other output reads the tail of the entropy series or
the final state, so without it each trajectory forms the half-chain entropy
only over the tail that the steady reducer reads.  Runs are deterministic: at a
fixed BLAS thread count, a rerun with an identical config (including seed)
produces byte-identical files, independent of the worker count.  Wall-clock
timing is therefore only recorded when `record_timings` is enabled, since real
timings vary between runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zipfile
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from itertools import product
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .entanglement import (_tail_length, entropy_profile, mutual_information,
                           standard_probe_regions, steady_state_entropy, steady_state_start)
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


@dataclass(frozen=True)
class CollapseOptions:
    init: tuple = DEFAULT_INIT
    bounds: tuple = DEFAULT_BOUNDS
    window_min_delta: float | None = 0.1
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
        if not (w is None or _is_number(w)):
            raise ValueError(f"collapse_options window_min_delta must be null or a number, "
                             f"got {w!r}")


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
        if self.analyses.mutual_info:  # its probe regions are L/8 sites long
            for L in self.sizes:
                if L % 8 != 0:
                    raise ValueError(f"mutual_info needs every size divisible by 8, got L = {L}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        tagged = {}
        for g, d, L in product(self.gamma_values, self.delta_values, self.sizes):
            try:
                ModelParams(g, d, L, self.boundary)
            except ValueError as err:
                raise ValueError(f"grid point gamma={g!r}, delta={d!r}, L={L!r}: {err}") from None
            tag = point_tag(g, d, L)  # names the point's files, so it must be unique
            if tag in tagged:
                raise ValueError(f"grid points (gamma, delta, L) = {tagged[tag]!r} and "
                                 f"{(g, d, L)!r} share the file tag {tag!r}")
            tagged[tag] = (g, d, L)


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
    lines = [f"# {c}" for c in comments or []] + [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path, columns: dict) -> list[dict]:
    """Rows of a write_csv file in file order, each {name: type(cell)} for `columns`' items.

    A row whose cell count is not the header's, that lacks a column or whose cell
    does not parse raises OSError naming the file and line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line.rstrip("\n").split(",")) for n, line in enumerate(fh, 1)
                 if line.strip() and not line.startswith("#")]
    header = lines[0][1] if lines else []
    rows = []
    for n, cells in lines[1:]:
        if len(cells) != len(header):
            raise OSError(f"{path}, line {n}: {len(cells)} cells under a header of {len(header)}")
        row = dict(zip(header, cells))
        try:
            rows.append({name: cast(row[name]) for name, cast in columns.items()})
        except KeyError as err:
            raise OSError(f"{path}, line {n}: no column {err}") from None
        except ValueError as err:
            raise OSError(f"{path}, line {n}: {err}") from None
    return rows


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: Path) -> dict:
    """The object in a write_json file, or {} when there is no file; OSError if it holds none."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    except ValueError as err:
        raise OSError(f"{path} is not JSON data: {err}") from None
    if not isinstance(payload, dict):
        raise OSError(f"{path} holds no JSON object")
    return payload


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

    The half-chain entropy is formed only from the first step the steady
    reducer reads (steady_state_start), or at every step under
    save_trajectories, so a saved traj_*.npz holds a whole, finite ee_series.
    Returns the point's row: its scalars, its mutual information and CFT fit,
    but no array, so a pool worker sends back only a few hundred bytes.  A
    failing trajectory is recorded in the row instead of raising; a failing
    write raises.
    """
    t0 = time.perf_counter()
    result = {
        "gamma": gamma, "delta": delta, "L": length,
        "boundary": config.boundary.value,
        "s_half_steady": float("nan"), "s_half_raw_final": float("nan"),
        "converged": False, "wall_time_s": 0.0, "error": None,
        "mi_steady": None, "cft_fit": None,
    }
    mi_steps: list = []
    mi_vals: list = []
    want_mi = config.analyses.mutual_info
    if want_mi:
        region_a, region_b = standard_probe_regions(length)

        def on_sample(step, state, C):
            mi_steps.append(step)
            mi_vals.append(mutual_information(C, region_a, region_b))
    else:
        on_sample = None

    sm = config.smoothing
    entropy_from = 0 if config.save_trajectories else steady_state_start(
        config.schedule.steps + 1, sm.sigma, sm.tail_fraction)
    try:
        params = ModelParams(gamma=gamma, delta=delta, length=length,
                             boundary=config.boundary)
        record = run_trajectory(params, config.schedule, on_sample=on_sample,
                                entropy_from=entropy_from)
    except (TrajectoryError, ValueError) as err:
        result["error"] = str(err)
        return result

    result["s_half_steady"] = steady_state_entropy(record, sm.sigma, sm.tail_fraction)
    result["s_half_raw_final"] = float(record.ee_series[-1])
    result["converged"] = bool(record.converged)
    if config.record_timings:
        result["wall_time_s"] = time.perf_counter() - t0

    if want_mi and mi_vals:
        n_tail = _tail_length(len(mi_vals), sm.tail_fraction)
        result["mi_steady"] = float(np.mean(mi_vals[-n_tail:]))

    outdir = Path(config.output_dir)
    tag = point_tag(gamma, delta, length)
    if config.analyses.cft_fit:
        prof = entropy_profile(record.final_correlation)
        write_profile_csv(outdir / f"profile_{tag}.csv", prof, length)
        try:
            fit = cft_log_fit(prof, length)
            result["cft_fit"] = {"c": fit.c, "const": fit.const,
                                 "rms_residual": fit.rms_residual}
        except ValueError as err:
            result["cft_fit"] = {"error": str(err)}

    if config.analyses.density_movie:
        write_density_csv(outdir / f"density_{tag}.csv", record.density_steps,
                          record.density_series)

    if config.save_trajectories:
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
        np.savez(outdir / f"traj_{tag}.npz", **detail)
    return result


def read_trajectory(path: Path) -> dict:
    """A traj_*.npz file's final_correlation, density_series, ee_series and `length` (an int).

    A file that is missing, is not .npz data, lacks one of these arrays or holds
    one of the wrong shape (`length` an integer scalar L, the others as `shape_ok`
    says) raises OSError naming the file and the arrays.
    """
    wanted = ("final_correlation", "density_series", "ee_series", "length")
    with open(path, "rb") as fh:  # a missing file is an I/O error (exit 3)
        try:
            data = np.load(fh)
            missing = [name for name in wanted if name not in getattr(data, "files", ())]
            arrays = {name: data[name] for name in wanted if name not in missing}
        except (ValueError, EOFError, zipfile.BadZipFile):  # not .npy or .npz data
            raise OSError(f"{path} is not a saved trajectory: not .npz data") from None
    if missing:
        raise OSError(f"{path} is not a saved trajectory: it lacks {', '.join(missing)}")
    if arrays["length"].ndim or arrays["length"].dtype.kind not in "iu":
        raise OSError(f"{path} is not a saved trajectory: wrong shape of length")
    L = arrays["length"] = int(arrays["length"])
    shape_ok = {"final_correlation": lambda s: s == (L, L),
                "density_series": lambda s: s[1:] == (L,) and s[0] > 0,  # one sample or more
                "ee_series": lambda s: len(s) == 1 and s[0] > 0}
    wrong = [n for n, ok in shape_ok.items() if not ok(arrays[n].shape)]
    if wrong:
        raise OSError(f"{path} is not a saved trajectory: wrong shape of {', '.join(wrong)}")
    return arrays


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


# Names of every file a run writes besides manifest.json, as glob patterns.  This
# is the one record of a run's files: what a grid run clears before it starts and
# what every manifest lists.
RUN_OUTPUTS = ("sweep.csv", "boundaries.csv", "mutual_info.csv", "power_law.json",
               "collapse.json", "collapse_g*.csv", "fractal.csv", "cft_fit.json",
               "profile_*.csv", "density_*.csv", "traj_*.npz")


def _start_run(config: SweepConfig) -> Path:
    """Make the output directory and delete an earlier run's results in it.

    It deletes manifest.json and every file matching RUN_OUTPUTS: sweep.csv,
    spectral's boundaries.csv, the analysis files and the per-point profile_*,
    density_* and traj_* files.  Workers write each point's files as it
    finishes, so this runs before the grid starts; the directory then holds
    only this run's results, and holds a manifest only once the run has
    finished.  Other files, such as export tables (fig_*), stay.
    """
    outdir = _output_dir(config)
    for pattern in ("manifest.json", *RUN_OUTPUTS):
        for stale in outdir.glob(pattern):
            stale.unlink()
    return outdir


def _emit_results(config: SweepConfig, outdir: Path, results: list,
                  fractal: list | None):
    """Write sweep.csv and the whole-run analyses; the per-point files are already written."""
    write_csv(outdir / "sweep.csv", ROW_COLUMNS, [[r[c] for c in ROW_COLUMNS] for r in results])
    ok = [r for r in results if r["error"] is None]

    if config.analyses.mutual_info:
        mi_rows = [
            [r["gamma"], r["delta"], r["L"], r["mi_steady"]]
            for r in ok if r["mi_steady"] is not None
        ]
        if mi_rows:
            write_csv(outdir / "mutual_info.csv", ["gamma", "delta", "L", "mi"], mi_rows)

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
            write_json(outdir / "power_law.json", fits)

    if config.analyses.collapse:
        _emit_collapse(config, outdir, ok)

    if fractal is not None:
        _emit_fractal(outdir, fractal)

    if config.analyses.cft_fit:
        fit_entries = {point_tag(r["gamma"], r["delta"], r["L"]): r["cft_fit"] for r in ok}
        if fit_entries:
            write_json(outdir / "cft_fit.json", fit_entries)


def _emit_collapse(config: SweepConfig, outdir: Path, rows: list) -> dict:
    """Fit each configured gamma's finite rows, write the fits, and return them.

    The order of `rows` sets the bootstrap resamples.  Each configured gamma's
    collapse.json entry and collapse_g*.csv are replaced by this call's fit, or
    removed when it has no rows; other gammas' stay, and collapse.json is
    deleted once it holds no entry.  The returned dict holds this call's fits.
    """
    entries = read_json(outdir / "collapse.json")
    opts = config.collapse_options
    fits = {}
    for g in sorted(config.gamma_values):
        entries.pop(f"{g:g}", None)
        (outdir / f"collapse_g{g:g}.csv").unlink(missing_ok=True)
        pts = [
            (r["L"], r["delta"], r["s_half_steady"])
            for r in rows if r["gamma"] == g and np.isfinite(r["s_half_steady"])
        ]
        if not pts:
            continue
        data = ScalingDataset.from_points(pts).restrict_delta(min_delta=opts.window_min_delta)
        try:
            fit = fit_collapse(data, init=opts.init, bounds=opts.bounds,
                               bootstrap_n=opts.bootstrap_n, seed=opts.seed)
        except ValueError as err:
            fits[f"{g:g}"] = {"error": str(err)}
            continue
        fits[f"{g:g}"] = fit.as_dict()
        x, y = data.rescaled(fit.delta_c, fit.nu, fit.zeta)
        order = np.lexsort((x,))
        write_csv(
            outdir / f"collapse_g{g:g}.csv", ["x", "y", "L", "delta"],
            [[x[i], y[i], int(data.sizes[i]), data.deltas[i]] for i in order],
            comments=[f"delta_c={fit.delta_c:.17e} nu={fit.nu:.17e} zeta={fit.zeta:.17e}"],
        )
    entries.update(fits)
    if entries:
        write_json(outdir / "collapse.json", entries)
    else:
        (outdir / "collapse.json").unlink(missing_ok=True)
    return fits


def _fractal_rows(config: SweepConfig) -> list:
    """Mean fractal dimension of H over the (gamma, delta) grid at the largest size."""
    L = max(config.sizes)
    return [
        [g, d, L, average_fractal_dimension(
            build_hamiltonian(ModelParams(g, d, L, config.boundary)))]
        for g in sorted(config.gamma_values) for d in sorted(config.delta_values)
    ]


def _emit_fractal(outdir: Path, rows: list):
    write_csv(outdir / "fractal.csv", ["gamma", "delta", "L", "gamma_bar"], rows)


def _emit_boundaries(outdir: Path, gammas, l_max: int):
    """boundaries.csv: the analytic (gamma, delta_i, delta_ii) per gamma at size l_max,
    NaN where undefined.  It reads nothing; the fitted delta_c is in collapse.json."""
    rows = []
    for g in sorted(gammas):
        try:
            pb = phase_boundaries(g, l_max)
            rows.append([g, pb.delta_i, pb.delta_ii])
        except ValueError:
            rows.append([g, float("nan"), float("nan")])
    write_csv(outdir / "boundaries.csv", ["gamma", "delta_i", "delta_ii"], rows)


# Environment variables that set the BLAS thread count.  Past double precision's
# reach (large L) the rounding order, and with it the output, depends on it.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _runtime() -> dict:
    """What besides the config can change output bytes: thread settings, cores, versions."""
    import scipy  # here alone, so that importing the package loads no scipy
    return {
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _grid_record(results: list) -> dict:
    """A grid run's record for its manifest: the rows that failed."""
    return {"row_errors": [
        {"gamma": r["gamma"], "delta": r["delta"], "L": r["L"], "error": r["error"]}
        for r in results if r["error"] is not None]}


def _earlier_grid_record(outdir: Path) -> dict:
    """The grid's record from the manifest already in `outdir`, for a verb that runs
    no grid: its row errors, and its config as grid_config.  Read it before the
    verb's first write, so a manifest that does not parse stops the verb first."""
    earlier = read_json(outdir / "manifest.json")
    return {"grid_config": earlier.get("grid_config", earlier.get("config")),
            "row_errors": earlier.get("row_errors", [])}


def _finish(config: SweepConfig, outdir: Path, record: dict) -> dict:
    """Write manifest.json, last of the run's files, and return it.

    It lists every file in `outdir` that matches RUN_OUTPUTS, with its hash,
    beside `record`, the grid's record (_grid_record or _earlier_grid_record),
    whose row errors set the status.
    """
    owned = {p for pattern in RUN_OUTPUTS for p in outdir.glob(pattern)}
    manifest = {
        "config": config_as_dict(config),
        **record,
        "status": "partial" if record["row_errors"] else "complete",
        "runtime": _runtime(),
        "files": [
            {"path": p.name, "sha256": sha256_file(p), "bytes": p.stat().st_size}
            for p in sorted(owned, key=lambda p: p.name)
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
    _emit_results(config, outdir, results, fractal)
    return _finish(config, outdir, _grid_record(results))


def run_spectral(config: SweepConfig) -> dict:
    """Average fractal dimension over the grid plus analytic boundaries.

    Writes fractal.csv and boundaries.csv over any earlier ones and returns
    the rewritten manifest; it reads only the earlier manifest, and the
    directory's other run files stay.
    """
    outdir = _output_dir(config)
    record = _earlier_grid_record(outdir)
    _emit_boundaries(outdir, config.gamma_values, max(config.sizes))
    _emit_fractal(outdir, _fractal_rows(config))
    return _finish(config, outdir, record)


def refit_collapse(config: SweepConfig) -> dict:
    """Refit the collapse on the output directory's sweep.csv, rows in file order.

    Reads sweep.csv and the earlier manifest before its first write, replaces
    the configured gammas' collapse.json entries and tables, rewrites the
    manifest, and returns this refit's fits by gamma key; an empty dict means
    no configured gamma had a finite row.  boundaries.csv is left as it is.
    """
    outdir = Path(config.output_dir)
    rows = read_csv(outdir / "sweep.csv",
                    {"gamma": float, "delta": float, "L": int, "s_half_steady": float})
    record = _earlier_grid_record(outdir)
    fits = _emit_collapse(config, outdir, rows)
    _finish(config, outdir, record)
    return fits
