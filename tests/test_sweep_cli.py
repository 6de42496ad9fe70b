import concurrent.futures
import dataclasses
import fnmatch
import hashlib
import json
import os
import shutil
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy

from starkchain import (ModelParams, SweepConfig, config_from_dict, run_spectral, run_sweep,
                        run_trajectory)
from starkchain.cli import build_parser, main as cli_main
from starkchain.export import export_figure_data
from starkchain.scaling import power_law_fit
from starkchain import propagation
from starkchain import sweep as sweep_mod
from starkchain.sweep import (ROW_COLUMNS, Analyses, CollapseOptions, Schedule, Smoothing,
                              point_tag, read_csv, write_csv)

FAST = {
    "gamma_values": [-0.5],
    "delta_values": [0.15],
    "sizes": [16],
    "schedule": {"dt": 10.0, "steps": 120, "sample_stride": 20},
    "workers": 1,
}


def read_bytes_map(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def failed_point(gamma, delta, length) -> dict:
    """A grid-point result as _run_point records a failure."""
    return {"gamma": gamma, "delta": delta, "L": length, "boundary": "open",
            "s_half_steady": float("nan"), "s_half_raw_final": float("nan"),
            "converged": False, "wall_time_s": 0.0, "error": "synthetic failure",
            "mi_steady": None, "cft_fit": None}


def test_single_point_sweep_smoke(tmp_path):
    cfg = config_from_dict({**FAST, "gamma_values": [0.0], "delta_values": [0.0],
                            "output_dir": str(tmp_path / "out")})
    manifest = run_sweep(cfg)
    assert manifest["status"] == "complete"
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "gamma,delta,L,boundary,s_half_steady,s_half_raw_final,converged,wall_time_s"
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert cells[3] == "open"
    assert float(cells[4]) > 0.5  # entangling quench
    assert cells[7] == "0.00000000000000000e+00"  # timings off by default


def test_sweep_rows_sorted_and_complete(tmp_path):
    cfg = config_from_dict({
        **FAST,
        "gamma_values": [-0.5, 0.0],
        "delta_values": [0.3, 0.1],
        "sizes": [8, 16],
        "output_dir": str(tmp_path / "out"),
    })
    run_sweep(cfg)
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    keys = [(float(r.split(",")[0]), float(r.split(",")[1]), int(r.split(",")[2]))
            for r in rows]
    assert keys == sorted(keys)
    assert len(keys) == 8


def test_manifest_lists_hashes(tmp_path):
    import hashlib

    cfg = config_from_dict({**FAST, "output_dir": str(tmp_path / "out")})
    manifest = run_sweep(cfg)
    for entry in manifest["files"]:
        path = tmp_path / "out" / entry["path"]
        assert path.exists()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
        assert path.stat().st_size == entry["bytes"]
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert saved["files"] == manifest["files"]


def test_sweep_determinism_and_worker_independence(tmp_path):
    base = {
        **FAST,
        "gamma_values": [-0.5, 0.0],
        "sizes": [8, 16],
        "analyses": {"mutual_info": True, "density_movie": True},
        "save_trajectories": True,
    }
    cfg1 = config_from_dict({**base, "output_dir": str(tmp_path / "a")})
    cfg4 = config_from_dict({**base, "output_dir": str(tmp_path / "c"), "workers": 4})
    run_sweep(cfg1)
    a = read_bytes_map(tmp_path / "a")
    run_sweep(cfg1)  # rerun with the identical config, same directory
    b = read_bytes_map(tmp_path / "a")
    run_sweep(cfg4)
    c = read_bytes_map(tmp_path / "c")
    assert a.keys() == b.keys() == c.keys()
    for name in a:
        assert a[name] == b[name], f"rerun changed {name}"
        if name != "manifest.json":
            assert a[name] == c[name], f"worker count changed {name}"
    # manifests differ only in the recorded worker count
    ma = json.loads(a["manifest.json"])
    mc = json.loads(c["manifest.json"])
    assert ma["files"] == mc["files"]


def test_row_failure_isolation(tmp_path):
    # the config rejects every grid point that ModelParams would reject (odd or
    # too small sizes, negative delta), so no config makes a point fail: inject a
    # failing point instead and check that it is recorded without aborting others.
    cfg = config_from_dict({
        **FAST,
        "gamma_values": [0.0],
        "delta_values": [0.0, 0.1],
        "output_dir": str(tmp_path / "out"),
    })

    original = sweep_mod._run_point

    def flaky(config, gamma, delta, length):
        if delta == 0.1:
            return failed_point(gamma, delta, length)
        return original(config, gamma, delta, length)

    sweep_mod._run_point = flaky
    try:
        manifest = run_sweep(cfg)
    finally:
        sweep_mod._run_point = original
    assert manifest["status"] == "partial"
    assert manifest["row_errors"] == [
        {"gamma": 0.0, "delta": 0.1, "L": 16, "error": "synthetic failure"}
    ]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3  # both grid points present


def test_simulate_with_collapse_fits_each_gamma_once(tmp_path, monkeypatch):
    calls = []
    real_fit = sweep_mod.fit_collapse

    def counting_fit(data, **kwargs):
        calls.append(len(data))
        return real_fit(data, **kwargs)

    monkeypatch.setattr(sweep_mod, "fit_collapse", counting_fit)
    cfg = config_from_dict({
        "gamma_values": [-0.5, -0.3],
        "delta_values": [0.05, 0.1, 0.15, 0.2, 0.3],
        "sizes": [8, 12, 16],
        "schedule": {"dt": 10.0, "steps": 60, "sample_stride": 20},
        "analyses": {"collapse": True},
        "collapse_options": {"window_min_delta": None, "bootstrap_n": 0},
        "output_dir": str(tmp_path / "out"),
    })
    manifest = run_sweep(cfg)
    assert calls == [15, 15]  # one fit per gamma, on its 5 x 3 points
    paths = [entry["path"] for entry in manifest["files"]]
    assert len(paths) == len(set(paths))
    assert {"collapse.json", "collapse_g-0.5.csv", "collapse_g-0.3.csv"} <= set(paths)


def test_simulate_with_collapse_keeps_no_earlier_fit(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    stale = {"delta_c": 0.2, "delta_c_err": 0.01}
    (out / "collapse.json").write_text(json.dumps({"-0.5": stale, "-0.3": stale}))
    monkeypatch.setattr(sweep_mod, "_run_point",
                        lambda config, g, d, L: failed_point(g, d, L))
    cfg = config_from_dict({
        "gamma_values": [-0.5, -0.3],
        "delta_values": [0.05, 0.3],
        "sizes": [8],
        "analyses": {"collapse": True},
        "output_dir": str(out),
    })
    assert run_sweep(cfg)["status"] == "partial"
    assert not (out / "collapse.json").exists()  # no fit this run, and the stale ones are gone


def test_spectral_runner(tmp_path):
    cfg = config_from_dict({
        "gamma_values": [-0.5, 0.0],
        "delta_values": [0.001, 1.0, 20.0],
        "sizes": [32],
        "output_dir": str(tmp_path / "out"),
    })
    manifest = run_spectral(cfg)
    assert manifest["status"] == "complete"
    rows = (tmp_path / "out" / "fractal.csv").read_text().splitlines()
    assert rows[0] == "gamma,delta,L,gamma_bar"
    vals = {}
    for r in rows[1:]:
        g, d, L, gb = r.split(",")
        vals[(float(g), float(d))] = float(gb)
    assert vals[(-0.5, 1.0)] > vals[(-0.5, 20.0)]


def test_exports_and_formats(tmp_path):
    out = tmp_path / "out"
    cfg = config_from_dict({
        "gamma_values": [-0.5],
        "delta_values": [0.1, 0.15],
        "sizes": [16],
        "schedule": {"dt": 10.0, "steps": 150, "sample_stride": 30},
        "analyses": {"mutual_info": True, "cft_fit": True, "density_movie": True},
        "output_dir": str(out),
    })
    run_sweep(cfg)

    p = export_figure_data("s_vs_delta", out, gamma=-0.5)
    assert p.read_text().splitlines()[0] == "delta,L,s_half"
    p = export_figure_data("s_vs_L", out, delta=0.15)
    assert p.read_text().splitlines()[0] == "L,s_half,delta"
    p = export_figure_data("mutual_info", out, gamma=-0.5)
    assert p.read_text().splitlines()[0] == "delta,L,mi"
    p = export_figure_data("entropy_profile", out, gamma=-0.5, delta=0.15, size=16)
    lines = p.read_text().splitlines()
    assert lines[0] == "l,s_l,L"
    assert len(lines) == 16  # l = 1..15
    p = export_figure_data("density_heatmap", out, gamma=-0.5, delta=0.15, size=16)
    assert p.read_text().splitlines()[0] == "step,site,n"
    svg = p.with_suffix(".svg")
    assert svg.exists() and svg.read_text().startswith("<svg")


@pytest.mark.parametrize("kind, source, header", [
    ("s_vs_delta", "sweep.csv", ROW_COLUMNS), ("s_vs_L", "sweep.csv", ROW_COLUMNS),
    ("mutual_info", "mutual_info.csv", ["gamma", "delta", "L", "mi"]),
])
def test_row_exports_need_gamma_when_the_table_holds_more_than_one(tmp_path, capsys, kind,
                                                                   source, header):
    def row(gamma, value):
        cells = {"gamma": gamma, "delta": 0.1, "L": 8, "boundary": "open", "s_half_steady": value,
                 "s_half_raw_final": value, "converged": True, "wall_time_s": 0.0, "mi": value}
        return [cells[c] for c in header]

    write_csv(tmp_path / source, header, [row(-0.5, 1.0), row(-0.3, 2.0)])
    point = ["--delta", "0.1"] if kind == "s_vs_L" else []
    assert cli_main(["export", "--kind", kind, "--output", str(tmp_path), *point]) == 2
    says = f"{kind} export needs --gamma: {source} holds more than one gamma"
    assert says in capsys.readouterr().err
    assert not (tmp_path / f"fig_{kind}.csv").exists()
    assert cli_main(["export", "--kind", kind, "--output", str(tmp_path), *point,
                     "--gamma", "-0.3"]) == 0
    lines = (tmp_path / f"fig_{kind}.csv").read_text().splitlines()
    assert len(lines) == 2 and "2.00000000000000000e+00" in lines[1].split(",")


@pytest.mark.parametrize("kind, source, header, filters, says", [
    ("s_vs_delta", "sweep.csv", ROW_COLUMNS, ["--gamma", "-0.4"], "gamma = -0.4"),
    ("s_vs_L", "sweep.csv", ROW_COLUMNS, ["--gamma", "-0.5", "--delta", "0.07"],
     "gamma = -0.5 and delta = 0.07"),
    ("mutual_info", "mutual_info.csv", ["gamma", "delta", "L", "mi"], ["--gamma", "-0.4"],
     "gamma = -0.4"),
])
def test_a_row_export_whose_filter_matches_no_row_writes_nothing(tmp_path, capsys, kind, source,
                                                                  header, filters, says):
    cells = {"gamma": -0.5, "delta": 0.1, "L": 8, "boundary": "open", "s_half_steady": 1.0,
             "s_half_raw_final": 1.0, "converged": True, "wall_time_s": 0.0, "mi": 1.0}
    write_csv(tmp_path / source, header, [[cells[c] for c in header]])
    assert cli_main(["export", "--kind", kind, "--output", str(tmp_path), *filters]) == 2
    assert f"{kind} export: no row of {source} has {says}" in capsys.readouterr().err
    assert not (tmp_path / f"fig_{kind}.csv").exists()


@pytest.mark.parametrize("kind, flags, says", [
    ("s_vs_delta", ["--gamma", "-0.5", "--delta", "0.1", "--size", "8"], "--delta, --size"),
    ("s_vs_L", ["--gamma", "-0.5", "--delta", "0.1", "--size", "8"], "--size"),
    ("mutual_info", ["--gamma", "-0.5", "--size", "8"], "--size"),
    ("fractal_map", ["--gamma", "-0.5"], "--gamma"),
])
def test_an_export_flag_its_kind_does_not_read_writes_nothing(tmp_path, capsys, kind, flags,
                                                               says):
    cells = {"gamma": -0.5, "delta": 0.1, "L": 8, "boundary": "open", "s_half_steady": 1.0,
             "s_half_raw_final": 1.0, "converged": True, "wall_time_s": 0.0, "mi": 1.0,
             "gamma_bar": 0.5}
    for source, header in (("sweep.csv", ROW_COLUMNS),
                           ("mutual_info.csv", ["gamma", "delta", "L", "mi"]),
                           ("fractal.csv", ["gamma", "delta", "L", "gamma_bar"])):
        write_csv(tmp_path / source, header, [[cells[c] for c in header]])
    assert cli_main(["export", "--kind", kind, "--output", str(tmp_path), *flags]) == 2
    assert f"{kind} export does not read {says}" in capsys.readouterr().err
    assert not list(tmp_path.glob("fig_*"))
    # without the unread flags the same export writes its table
    read = [f for i in range(0, len(flags), 2) if flags[i] not in says
            for f in flags[i:i + 2]]
    assert cli_main(["export", "--kind", kind, "--output", str(tmp_path), *read]) == 0
    assert list(tmp_path.glob("fig_*.csv"))


def test_export_missing_inputs_listed(tmp_path):
    with pytest.raises(FileNotFoundError, match="sweep.csv"):
        export_figure_data("s_vs_delta", tmp_path, gamma=-0.5)
    with pytest.raises(FileNotFoundError, match=point_tag(-0.5, 0.15, 16)):
        export_figure_data("entropy_profile", tmp_path, gamma=-0.5, delta=0.15, size=16)


def test_config_presets_and_validation(tmp_path):
    cfg = config_from_dict(FAST, preset="desk")
    assert cfg.schedule.steps == 120  # explicit config overrides the preset
    cfg = config_from_dict({k: v for k, v in FAST.items() if k != "schedule"},
                           preset="desk")
    assert cfg.schedule.steps == 2000 and cfg.schedule.early_stop
    cfg = config_from_dict({k: v for k, v in FAST.items() if k != "schedule"},
                           preset="paper")
    assert cfg.schedule.steps == 10000 and not cfg.schedule.early_stop

    with pytest.raises(ValueError, match="even"):
        config_from_dict({**FAST, "sizes": [7]})
    with pytest.raises(ValueError, match="nonempty"):
        config_from_dict({**FAST, "gamma_values": []})
    with pytest.raises((ValueError, KeyError)):
        config_from_dict({**FAST, "boundary": "moebius"})


def test_mutual_info_rejects_a_size_that_is_not_a_multiple_of_8(tmp_path, capsys):
    raw = {**FAST, "sizes": [12, 16], "analyses": {"mutual_info": True}}
    assert run_verb("simulate", raw, tmp_path / "out") == 2
    assert "mutual_info needs every size divisible by 8, got L = 12" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before the run starts
    config_from_dict({**raw, "analyses": {"mutual_info": False}})  # the sizes alone are fine


def test_cli_simulate_collapse_verify_export(tmp_path):
    out = tmp_path / "cli_out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "gamma_values": [-0.5],
        "delta_values": [0.15],
        "sizes": [16],
        "schedule": {"dt": 10.0, "steps": 150, "sample_stride": 30},
        "save_trajectories": True,
        "output_dir": str(out),
    }))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert (out / "sweep.csv").exists()

    traj = out / f"traj_{point_tag(-0.5, 0.15, 16)}.npz"
    assert traj.exists()
    assert cli_main(["verify", "--input", str(traj)]) == 0

    assert cli_main([
        "export", "--kind", "s_vs_delta", "--output", str(out), "--gamma", "-0.5",
    ]) == 0


def test_cli_exit_codes(tmp_path):
    # config error
    bad = tmp_path / "bad.json"
    bad.write_text("{\"gamma_values\": []}")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    # io error
    assert cli_main(["verify", "--input", str(tmp_path / "nope.npz")]) == 3
    assert cli_main([
        "export", "--kind", "s_vs_delta", "--output", str(tmp_path / "void"),
    ]) == 3


def synthetic_collapse_rows(gamma) -> list:
    """Sweep rows for one gamma that follow the exact scaling ansatz."""
    rows = []
    x_grid = np.linspace(-1.2, 2.0, 7)
    for L in (32, 64, 96, 128):
        deltas = 0.15 + x_grid * L ** (-1.0 / 1.9)
        s = L ** (2.0 / 1.9) * (1.0 / (1.0 + x_grid**2) + 0.5)
        for d, v in zip(deltas, s):
            rows.append([gamma, d, L, "open", v, v, True, 0.0])
    return rows


def test_cli_collapse_on_synthetic_rows(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_csv(out / "sweep.csv", ROW_COLUMNS, synthetic_collapse_rows(-0.5))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "gamma_values": [-0.5],
        "delta_values": [0.05, 0.1, 0.15, 0.2, 0.3],
        "sizes": [32, 64, 96, 128],
        "collapse_options": {"window_min_delta": None, "bootstrap_n": 10, "seed": 3},
        "output_dir": str(out),
    }))
    assert cli_main(["collapse", "--config", str(cfg_path)]) == 0
    fits = json.loads((out / "collapse.json").read_text())["-0.5"]
    assert fits["delta_c"] == pytest.approx(0.15, abs=0.02)

    # the rescaled table carries the fit in its header
    lines = (out / "collapse_g-0.5.csv").read_text().splitlines()
    assert lines[0].startswith("# delta_c=")
    assert lines[1] == "x,y,L,delta"


def test_cli_collapse_without_rows_for_configured_gamma(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    write_csv(out / "sweep.csv", ROW_COLUMNS,
              [[-0.5, d, L, "open", 1.0, 1.0, True, 0.0]
               for d in (0.1, 0.2) for L in (32, 64)])
    # a previous run's fit for another gamma must not be reported as this run's
    (out / "collapse.json").write_text(json.dumps({"-0.5": {
        "delta_c": 0.15, "delta_c_err": 0.01, "nu": 1.9, "zeta": 2.0, "quality": 1e-3,
    }}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "gamma_values": [-0.3], "delta_values": [0.1], "sizes": [32],
        "output_dir": str(out),
    }))
    assert cli_main(["collapse", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert "no usable rows" in captured.err
    assert "delta_c" not in captured.out


def test_cli_collapse_refit_without_rows_removes_earlier_fit(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "gamma_values": [-0.3],
        "delta_values": [0.05, 0.1, 0.15, 0.2, 0.3],
        "sizes": [32, 64, 96, 128],
        "collapse_options": {"window_min_delta": None, "bootstrap_n": 2, "seed": 3},
        "output_dir": str(out),
    }))
    write_csv(out / "sweep.csv", ROW_COLUMNS, synthetic_collapse_rows(-0.3))
    assert cli_main(["collapse", "--config", str(cfg_path)]) == 0
    assert (out / "collapse_g-0.3.csv").exists()

    # the rows now hold another gamma: the refit writes nothing and exits 1,
    # and the first fit must not survive to be read as this one's
    write_csv(out / "sweep.csv", ROW_COLUMNS, synthetic_collapse_rows(-0.5))
    assert cli_main(["collapse", "--config", str(cfg_path)]) == 1
    assert not (out / "collapse_g-0.3.csv").exists()
    assert not (out / "collapse.json").exists()


def test_point_tag_stability():
    assert point_tag(-0.5, 0.15, 64) == "g-0.5_d0.15_L64"
    assert point_tag(0.0, 1e-05, 128) == "g0_d1e-05_L128"


def test_sweep_worker_independence_on_mixed_sizes(tmp_path):
    base = {
        **FAST,
        "delta_values": [0.1, 0.3],
        "sizes": [8, 16, 24],
        "analyses": {"mutual_info": True, "cft_fit": True},
        "save_trajectories": True,
    }
    run_sweep(config_from_dict({**base, "output_dir": str(tmp_path / "w1")}))
    run_sweep(config_from_dict({**base, "output_dir": str(tmp_path / "w2"), "workers": 2}))
    a = read_bytes_map(tmp_path / "w1")
    b = read_bytes_map(tmp_path / "w2")
    assert a.keys() == b.keys()
    for name in a:
        if name != "manifest.json":
            assert a[name] == b[name], f"worker count changed {name}"
    ma = json.loads(a["manifest.json"])
    mb = json.loads(b["manifest.json"])
    assert ma["config"].pop("workers") == 1 and mb["config"].pop("workers") == 2
    assert ma["config"].pop("output_dir") != mb["config"].pop("output_dir")
    assert ma == mb


def test_pool_gets_longest_points_first(tmp_path, monkeypatch):
    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, config, gamma, delta, length):
            from concurrent.futures import Future

            submitted.append((gamma, delta, length))
            future = Future()
            future.set_result(failed_point(gamma, delta, length))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = config_from_dict({**FAST, "gamma_values": [0.0, -0.5], "delta_values": [0.3, 0.1],
                            "sizes": [16, 8, 24], "workers": 2,
                            "output_dir": str(tmp_path / "out")})
    run_sweep(cfg)
    grid = [(g, d, L) for g in (-0.5, 0.0) for d in (0.1, 0.3) for L in (8, 16, 24)]
    assert submitted == sorted(grid, key=lambda pt: -pt[2])
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [(float(r.split(",")[0]), float(r.split(",")[1]), int(r.split(",")[2]))
            for r in rows] == grid


@pytest.mark.parametrize("section,field,value", [
    ("schedule", "plateau_window", 0),
    ("schedule", "smooth_sigma", 0.0),
    ("smoothing", "sigma", 0.0),
    ("smoothing", "tail_fraction", 0.0),
    ("collapse_options", "bootstrap_n", 2.5),
    ("collapse_options", "bootstrap_n", -1),
    ("collapse_options", "seed", "7"),
    ("collapse_options", "init", [0.15, 1.9]),
    ("collapse_options", "init", [0.15, 10.0, 2.0]),
    ("collapse_options", "init", [0.15, float("nan"), 2.0]),
    ("collapse_options", "bounds", [[0.005, 1.0], [4.0, 0.5], [0.5, 4.0]]),
    ("collapse_options", "bounds", [[0.005, 1.0], [0.5, 4.0]]),
    ("collapse_options", "window_min_delta", "x"),
    ("collapse_options", "window_min_delta", {"-0.5": 0.1}),
    ("collapse_options", "neighbors", 5),
    ("schedule", "stepz", 100),
    ("smoothing", "sigmaa", 1.0),
    ("analyses", "colapse", True),
    ("analyses", "cft_fit", "false"),
    ("analyses", "collapse", 1),
    ("schedule", "early_stop", "false"),
    ("schedule", "steps", 2.5),
    ("schedule", "steps", True),
    ("schedule", "sample_stride", "7"),
    ("schedule", "dt", "10"),
    ("schedule", "dt", True),
    ("schedule", "dt", float("nan")),
    ("smoothing", "sigma", "20"),
    ("smoothing", "tail_fraction", True),
])
def test_cli_rejects_invalid_smoothing_before_stepping(tmp_path, monkeypatch, section, field,
                                                       value):
    def no_stepping(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(sweep_mod, "run_trajectory", no_stepping)
    raw = {**FAST, "output_dir": str(tmp_path / "out")}
    raw[section] = {**raw.get(section, {}), field: value}
    with pytest.raises(ValueError, match=field):
        config_from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**raw, "schedule": {"early_stop": True,
                                                        **raw["schedule"]}}))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,message", [
    ("worker", 4, "unknown key 'worker' in config"),
    ("output", "x", "unknown key 'output' in config"),
    ("record_timings", "false", "record_timings must be true or false"),
    ("save_trajectories", 1, "save_trajectories must be true or false"),
    ("workers", "2", "workers must be an int"),
    ("workers", 2.0, "workers must be an int"),
    ("workers", True, "workers must be an int"),
    ("sizes", [16.7, "24"], "sizes must be a list, each item an int"),
    ("sizes", [16.0], "sizes must be a list, each item an int"),
    ("gamma_values", [True], "gamma_values must be a list, each item a number"),
    ("gamma_values", -0.5, "gamma_values must be a list"),
    ("delta_values", ["0.1"], "delta_values must be a list, each item a number"),
    ("output_dir", 5, "output_dir must be a string"),
    ("delta_values", [-0.1], "delta=-0.1.*delta must be >= 0"),
    ("sizes", [0], "L=0.*length must be >= 2"),
    ("delta_values", [float("nan")], "delta=nan.*must be finite"),
    ("gamma_values", [float("nan")], "gamma=nan.*must be finite"),
    ("delta_values", [0.1, 0.1000001, 0.1], r"0\.1, 16\) and \(-0\.5, 0\.1000001, 16\)"),
    ("delta_values", [0.15, 0.15], r"\(-0\.5, 0\.15, 16\) and \(-0\.5, 0\.15, 16\)"),
    ("gamma_values", [-0.5, -0.5000000001], "share the file tag 'g-0.5_d0.15_L16'"),
    ("sizes", [16, 16], "share the file tag 'g-0.5_d0.15_L16'"),
])
def test_cli_rejects_invalid_top_level_before_stepping(tmp_path, monkeypatch, key, value,
                                                       message):
    def no_stepping(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(sweep_mod, "run_trajectory", no_stepping)
    raw = {**FAST, "output_dir": str(tmp_path / "out"), key: value}
    with pytest.raises(ValueError, match=message):
        config_from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


# One value of the wrong type for each declared scalar type.
WRONG_TYPE = {bool: ["true", 1], int: [2.5, "2", True], float: ["1.0", True], str: [5]}


@pytest.mark.parametrize("cls", [Schedule, Smoothing, Analyses, CollapseOptions, SweepConfig])
def test_every_typed_field_rejects_a_wrong_type(cls):
    base = ({"gamma_values": (-0.5,), "delta_values": (0.15,), "sizes": (16,)}
            if cls is SweepConfig else {})
    hints = typing.get_type_hints(cls)
    checked = 0
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            wrong_values = [[w] for w in WRONG_TYPE[typing.get_args(hint)[0]]]
        else:
            wrong_values = WRONG_TYPE.get(hint, [])
        for wrong in wrong_values:
            with pytest.raises(ValueError, match=f.name):
                cls(**{**base, f.name: wrong})
            checked += 1
    assert checked > 0


def test_integral_grid_values_write_the_same_bytes(tmp_path):
    outs = []
    for name, deltas in (("ints", [0, 1]), ("floats", [0.0, 1.0])):
        out = tmp_path / name
        run_sweep(config_from_dict({**FAST, "delta_values": deltas, "output_dir": str(out)}))
        outs.append(out)
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    manifests = [(out / "manifest.json").read_text().replace(str(out), "OUT") for out in outs]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("raw", [[FAST], "cfg", 5])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, raw):
    with pytest.raises(ValueError, match="config must be an object"):
        config_from_dict(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


def test_config_section_must_be_an_object():
    with pytest.raises(ValueError, match="'schedule' must be an object"):
        config_from_dict({**FAST, "schedule": 5})


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_nonpositive_workers(tmp_path, workers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "output_dir": str(tmp_path / "out")}))
    assert cli_main(["simulate", "--config", str(cfg_path), "--workers", workers]) == 2
    assert not (tmp_path / "out").exists()


def test_simulate_clears_earlier_analysis_outputs(tmp_path):
    out = tmp_path / "out"
    base = {
        "gamma_values": [-0.5],
        "delta_values": [0.1, 0.15, 0.2, 0.25, 0.3],
        "sizes": [8, 16, 24],
        "schedule": {"dt": 10.0, "steps": 120, "sample_stride": 20},
        "collapse_options": {"window_min_delta": None, "bootstrap_n": 2, "seed": 3},
        "output_dir": str(out),
    }
    point = ["--gamma", "-0.5", "--delta", "0.15", "--size", "16"]
    exports = [
        ["export", "--kind", "mutual_info", "--output", str(out), "--gamma", "-0.5"],
        ["export", "--kind", "entropy_profile", "--output", str(out), *point],
    ]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**base, "save_trajectories": True, "analyses": {
        "collapse": True, "mutual_info": True, "cft_fit": True}}))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert (out / "collapse_g-0.5.csv").exists()
    assert [cli_main(call) for call in exports] == [0, 0]
    (out / "notes.txt").write_text("kept")

    cfg_path.write_text(json.dumps(base))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert [cli_main(call) for call in exports] == [3, 3]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["path"] for f in manifest["files"]] == ["diagnostics.csv", "sweep.csv"]
    # export tables and files the sweep never writes stay
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "fig_mutual_info.csv",
        f"fig_profile_{point_tag(-0.5, 0.15, 16)}.csv",
        "manifest.json", "notes.txt", "sweep.csv",
    ]


def test_sweep_and_export_tables_are_byte_equal(tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "sizes": [8, 16], "output_dir": str(out),
                                    "analyses": {"cft_fit": True, "density_movie": True}}))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    for L in (8, 16):
        tag = point_tag(-0.5, 0.15, L)
        point = ["--output", str(out), "--gamma", "-0.5", "--delta", "0.15", "--size", str(L)]
        assert cli_main(["export", "--kind", "entropy_profile", *point]) == 0
        assert cli_main(["export", "--kind", "density_heatmap", *point]) == 0
        for name in ("profile", "density"):
            ours = (out / f"{name}_{tag}.csv").read_bytes()
            assert ours == (out / f"fig_{name}_{tag}.csv").read_bytes(), (name, L)


# Long enough that the steady reducer reads only the tail of each entropy
# series: the last 500 + 80 of its 2,001 entries.
TAIL_READ = {
    **FAST,
    "delta_values": [0.1, 0.3],
    "sizes": [8, 16, 24],
    "schedule": {"dt": 10.0, "steps": 2000, "sample_stride": 100},
    "analyses": {"mutual_info": True, "cft_fit": True, "density_movie": True,
                 "power_law": True},
}


def test_a_sweep_writes_the_same_tables_whether_or_not_it_saves_trajectories(tmp_path):
    files = {}
    for save in (False, True):
        out = tmp_path / f"save_{save}"
        manifest = run_sweep(config_from_dict({**TAIL_READ, "output_dir": str(out),
                                               "save_trajectories": save}))
        files[save] = {f["path"]: f["sha256"] for f in manifest["files"]}
    saved = {f"traj_{point_tag(-0.5, d, L)}.npz" for d in (0.1, 0.3) for L in (8, 16, 24)}
    assert saved | {"power_law.json", "mutual_info.csv", "cft_fit.json"} <= set(files[True])
    assert files[False] == {name: h for name, h in files[True].items() if name not in saved}
    assert not list((tmp_path / "save_False").glob("traj_*"))
    for name in saved:  # a saved trajectory holds every entry of its entropy series
        with np.load(tmp_path / "save_True" / name) as data:
            assert data["ee_series"].shape == (2001,) and np.isfinite(data["ee_series"]).all()


@pytest.mark.parametrize("save, formed", [(False, 580), (True, 2001)])
def test_a_point_forms_the_entropy_only_where_it_is_read(tmp_path, monkeypatch, save, formed):
    calls = []
    real = propagation.half_chain_entropy_from_orbitals
    monkeypatch.setattr(propagation, "half_chain_entropy_from_orbitals",
                        lambda Q: calls.append(Q.shape) or real(Q))
    sweep_mod._run_point(config_from_dict({**TAIL_READ, "output_dir": str(tmp_path),
                                           "save_trajectories": save}), -0.5, 0.1, 8)
    assert len(calls) == formed


def test_power_law_fits_each_point_with_three_positive_sizes(tmp_path, monkeypatch):
    base = {**FAST, "delta_values": [0.1, 0.3], "sizes": [8, 12, 16],
            "analyses": {"power_law": True}}

    def fits_and_rows(name):
        out = tmp_path / name
        run_sweep(config_from_dict({**base, "output_dir": str(out)}))
        rows = sweep_mod.read_csv(out / "sweep.csv",
                                  {"delta": float, "L": int, "s_half_steady": float})
        return json.loads((out / "power_law.json").read_text()), rows

    def expected(rows, delta):
        pts = sorted((r["L"], r["s_half_steady"]) for r in rows
                     if r["delta"] == delta and r["s_half_steady"] > 0)
        fit = power_law_fit([p[0] for p in pts], [p[1] for p in pts])
        return {"beta": fit.beta, "stderr": fit.stderr, "n_sizes": len(pts)}

    fits, rows = fits_and_rows("all")
    assert fits == {f"gamma=-0.5,delta={d:g}": expected(rows, d) for d in (0.1, 0.3)}
    listed = {f["path"] for f in assert_manifest_describes(tmp_path / "all")["files"]}
    assert "power_law.json" in listed

    # with S = 0 at (delta 0.3, L 16), delta 0.3 keeps two positive sizes and drops out
    run_point = sweep_mod._run_point

    def zero_at_l16(config, gamma, delta, length):
        result = run_point(config, gamma, delta, length)
        if delta == 0.3 and length == 16:
            result["s_half_steady"] = 0.0
        return result

    monkeypatch.setattr(sweep_mod, "_run_point", zero_at_l16)
    fits_cut, rows_cut = fits_and_rows("cut")
    assert fits_cut == {"gamma=-0.5,delta=0.1": expected(rows_cut, 0.1)}
    assert fits_cut["gamma=-0.5,delta=0.1"] == fits["gamma=-0.5,delta=0.1"]


@pytest.mark.parametrize("record_timings", [True, False])
def test_record_timings_sets_wall_time_column(tmp_path, record_timings):
    out = tmp_path / "out"
    run_sweep(config_from_dict({**FAST, "sizes": [8, 16], "output_dir": str(out),
                                "record_timings": record_timings}))
    cells = [r["wall_time_s"] for r in sweep_mod.read_csv(out / "sweep.csv", {"wall_time_s": str})]
    assert len(cells) == 2
    if record_timings:
        assert all(float(c) > 0 for c in cells)
    else:
        assert cells == ["0.00000000000000000e+00"] * 2


EVERY_POINT_ANALYSIS = {
    **FAST,
    "delta_values": [0.1, 0.3],
    "sizes": [8, 16],
    "analyses": {"mutual_info": True, "cft_fit": True, "density_movie": True, "fractal": True},
    "save_trajectories": True,
}


def holds_an_array(value) -> bool:
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, dict):
        return any(holds_an_array(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(holds_an_array(v) for v in value)
    return False


def test_point_row_holds_no_array_and_the_point_writes_its_own_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg = config_from_dict({**EVERY_POINT_ANALYSIS, "output_dir": str(out)})
    row = sweep_mod._run_point(cfg, -0.5, 0.15, 16)
    assert row["error"] is None and row["mi_steady"] is not None
    assert not holds_an_array(row)
    tag = point_tag(-0.5, 0.15, 16)
    assert sorted(p.name for p in out.iterdir()) == [
        f"density_{tag}.csv", f"profile_{tag}.csv", f"traj_{tag}.npz"]
    assert set(row["cft_fit"]) in ({"c", "const", "rms_residual"}, {"error"})


@pytest.mark.parametrize("boundary,engines", [
    ("periodic", {8: "eigenbasis", 16: "eigenbasis"}),
    ("open", {8: "eigenbasis", 16: "stepper"}),  # the open chain's R grows with L
])
def test_diagnostics_name_each_points_engine_and_condition(tmp_path, boundary, engines):
    out = tmp_path / "out"
    raw = {**FAST, "delta_values": [0.001], "sizes": sorted(engines), "boundary": boundary,
           "output_dir": str(out)}
    run_sweep(config_from_dict(raw))
    assert (out / "diagnostics.csv").read_text().splitlines()[0] == (
        "gamma,delta,L,engine,eigenbasis_cond")
    rows = read_csv(out / "diagnostics.csv", {"L": int, "engine": str, "eigenbasis_cond": float})
    assert {r["L"]: r["engine"] for r in rows} == engines
    for r in rows:
        rec = propagation.run_trajectory(ModelParams(-0.5, 0.001, r["L"], boundary),
                                         Schedule(**FAST["schedule"]))
        assert (r["engine"], r["eigenbasis_cond"]) == (rec.engine, rec.eigenbasis_cond)


def test_diagnostics_read_inf_when_eig_fails(tmp_path, monkeypatch):
    def failing_eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    out = tmp_path / "out"
    run_sweep(config_from_dict({**FAST, "sizes": [8], "output_dir": str(out)}))
    assert (out / "diagnostics.csv").read_text().splitlines()[1:] == [
        "-5.00000000000000000e-01,1.49999999999999994e-01,8,stepper,inf"]


def test_every_listed_file_is_byte_equal_across_worker_counts(tmp_path):
    manifests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        manifests.append(run_sweep(config_from_dict(
            {**EVERY_POINT_ANALYSIS, "output_dir": str(out), "workers": workers})))
    files = [{f["path"]: f["sha256"] for f in m["files"]} for m in manifests]
    assert files[0] == files[1]
    tags = [point_tag(-0.5, d, L) for d in (0.1, 0.3) for L in (8, 16)]
    assert set(files[0]) == {"sweep.csv", "diagnostics.csv", "mutual_info.csv", "fractal.csv",
                             "cft_fit.json",
                             *(f"{kind}_{tag}.{ext}" for tag in tags for kind, ext in
                               (("traj", "npz"), ("profile", "csv"), ("density", "csv")))}
    for name in files[0]:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_pool_run_does_no_numerical_work_in_the_calling_process(tmp_path, monkeypatch):
    main_pid = os.getpid()

    def only_in_a_worker(real):
        def call(*args, **kwargs):
            assert os.getpid() != main_pid, f"{real.__name__} ran in the calling process"
            return real(*args, **kwargs)
        return call

    for name in ("run_trajectory", "entropy_profile", "average_fractal_dimension"):
        monkeypatch.setattr(sweep_mod, name, only_in_a_worker(getattr(sweep_mod, name)))
    raw = {**EVERY_POINT_ANALYSIS, "gamma_values": [-0.5, -0.3], "workers": 2}
    assert run_sweep(config_from_dict({**raw, "output_dir": str(tmp_path / "s")}))[
        "status"] == "complete"


def test_stale_point_files_outside_the_grid_are_gone_after_a_run(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    stale_tag = point_tag(0.9, 0.9, 8)
    stale = [out / f"traj_{stale_tag}.npz", out / f"profile_{stale_tag}.csv"]
    for path in stale:
        path.write_text("an earlier run")
    manifest = run_sweep(config_from_dict({**EVERY_POINT_ANALYSIS, "output_dir": str(out),
                                           "workers": 2}))
    assert not any(stale_tag in f["path"] for f in manifest["files"])
    assert not any(path.exists() for path in stale)


def test_no_manifest_or_earlier_rows_while_the_grid_runs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = config_from_dict({**FAST, "sizes": [8, 16], "output_dir": str(out)})
    run_sweep(cfg)
    earlier = [out / "manifest.json", out / "sweep.csv"]
    assert all(path.exists() for path in earlier)
    seen = []
    run_point = sweep_mod._run_point

    def watching(config, gamma, delta, length):
        seen.append([path.exists() for path in earlier])
        return run_point(config, gamma, delta, length)

    monkeypatch.setattr(sweep_mod, "_run_point", watching)
    run_sweep(cfg)
    assert seen == [[False, False], [False, False]]
    assert all(path.exists() for path in earlier)


def test_manifest_records_the_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    manifest = run_sweep(config_from_dict({**FAST, "output_dir": str(tmp_path / "out")}))
    runtime = manifest["runtime"]
    assert runtime["OMP_NUM_THREADS"] == "1" and runtime["MKL_NUM_THREADS"] is None
    assert "OPENBLAS_NUM_THREADS" in runtime
    assert runtime["cpu_count"] == os.cpu_count()
    assert runtime["numpy"] == np.__version__ and runtime["scipy"] == scipy.__version__


# A grid small enough to run in about a second, but with the 3 sizes and 5
# deltas per gamma that the collapse fit needs.
EVERY_ANALYSIS = {
    "gamma_values": [-0.5, -0.3],
    "delta_values": [0.05, 0.1, 0.15, 0.2, 0.3],
    "sizes": [8, 16, 24],
    "schedule": {"dt": 10.0, "steps": 60, "sample_stride": 20},
    "analyses": {name: True for name in ("collapse", "power_law", "cft_fit", "fractal",
                                         "mutual_info", "density_movie")},
    "collapse_options": {"window_min_delta": None, "bootstrap_n": 2, "seed": 3},
    "save_trajectories": True,
}


def owned_by_a_run(name: str) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in sweep_mod.RUN_OUTPUTS)


def assert_manifest_describes(out: Path) -> dict:
    """The manifest lists exactly the directory's run files, each with its hash and size."""
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["path"]: f for f in manifest["files"]}
    assert sorted(listed) == sorted(p.name for p in out.iterdir() if owned_by_a_run(p.name))
    for name, entry in listed.items():
        data = (out / name).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest(), name
        assert entry["bytes"] == len(data), name
    return manifest


def run_verb(verb: str, raw: dict, out: Path, *extra: str) -> int:
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(raw))
    return cli_main([verb, "--config", str(cfg_path), "--output", str(out), *extra])


def test_every_file_a_verb_writes_is_a_run_output_and_in_its_manifest(tmp_path):
    runs = {"simulate": tmp_path / "simulate", "spectral": tmp_path / "spectral",
            "collapse": tmp_path / "collapse"}
    runs["collapse"].mkdir()
    for verb, out in runs.items():
        if verb == "collapse":
            shutil.copy(runs["simulate"] / "sweep.csv", out / "sweep.csv")
        assert run_verb(verb, EVERY_ANALYSIS, out) == 0, verb
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert [name for name in written if not owned_by_a_run(name)] == [], verb
        assert_manifest_describes(out)  # so it lists exactly the files written
    tag = point_tag(-0.3, 0.2, 16)
    assert {"sweep.csv", "mutual_info.csv", "power_law.json", "collapse.json",
            "collapse_g-0.5.csv", "fractal.csv", "cft_fit.json", f"profile_{tag}.csv",
            f"density_{tag}.csv", f"traj_{tag}.npz"} <= set(os.listdir(runs["simulate"]))
    assert {"fractal.csv", "boundaries.csv"} <= set(os.listdir(runs["spectral"]))


def test_collapse_after_simulate_rewrites_the_manifest(tmp_path):
    out = tmp_path / "out"
    raw = {**EVERY_ANALYSIS, "gamma_values": [-0.5], "analyses": {"collapse": True}}
    assert run_verb("simulate", raw, out) == 0
    before = (out / "collapse.json").read_bytes()
    assert run_verb("collapse", raw, out, "--seed", "4") == 0
    assert (out / "collapse.json").read_bytes() != before  # other bootstrap resamples
    manifest = assert_manifest_describes(out)
    assert manifest["config"]["collapse_options"]["seed"] == 4
    assert manifest["status"] == "complete" and manifest["row_errors"] == []


def test_spectral_into_a_partial_sweep_keeps_its_files_and_status(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_point = sweep_mod._run_point

    def fail_at_l16(config, gamma, delta, length):
        if length == 16:
            return failed_point(gamma, delta, length)
        return run_point(config, gamma, delta, length)

    monkeypatch.setattr(sweep_mod, "_run_point", fail_at_l16)
    raw = {**FAST, "sizes": [8, 16], "analyses": {"cft_fit": True}}
    swept = run_sweep(config_from_dict({**raw, "output_dir": str(out)}))
    assert swept["status"] == "partial"
    assert run_verb("spectral", raw, out) == 0  # no row of its own failed
    manifest = assert_manifest_describes(out)
    assert manifest["status"] == "partial" and manifest["row_errors"] == swept["row_errors"]
    assert {f["path"] for f in manifest["files"]} == {
        "sweep.csv", "diagnostics.csv", "cft_fit.json",
        f"profile_{point_tag(-0.5, 0.15, 8)}.csv", "fractal.csv", "boundaries.csv"}
    # the failed point has no diagnostics row
    assert [(r["L"], r["engine"]) for r in read_csv(out / "diagnostics.csv",
                                                     {"L": int, "engine": str})] == [
        (8, "eigenbasis")]
    # without an earlier manifest there is no failed row to keep
    fresh = run_spectral(config_from_dict({**raw, "output_dir": str(tmp_path / "fresh")}))
    assert fresh["status"] == "complete" and fresh["row_errors"] == []


def test_simulate_into_a_spectral_directory_removes_its_tables(tmp_path):
    out = tmp_path / "out"
    raw = {**FAST, "gamma_values": [-0.5, -0.3], "delta_values": [0.05, 0.3], "sizes": [8],
           "output_dir": str(out)}
    run_spectral(config_from_dict(raw))
    assert (out / "fractal.csv").exists() and (out / "boundaries.csv").exists()
    manifest = run_sweep(config_from_dict(raw))
    assert not (out / "fractal.csv").exists() and not (out / "boundaries.csv").exists()
    assert [f["path"] for f in manifest["files"]] == ["diagnostics.csv", "sweep.csv"]


# A 2-gamma phase diagram that runs in about a second, with the 5 deltas and 3
# sizes per gamma that the collapse fit needs.
PHASE = {
    "gamma_values": [-0.5, -0.3],
    "delta_values": [0.05, 0.1, 0.15, 0.2, 0.3],
    "sizes": [8, 12, 16],
    "schedule": {"dt": 10.0, "steps": 60, "sample_stride": 20},
    "analyses": {"collapse": True},
    "collapse_options": {"window_min_delta": None, "bootstrap_n": 2, "seed": 3},
}


@pytest.fixture(scope="module")
def phase_template(tmp_path_factory) -> Path:
    """The phase diagram: simulate with the collapse analysis on, then spectral."""
    out = tmp_path_factory.mktemp("phase") / "out"
    assert run_verb("simulate", PHASE, out) == 0
    grid_manifest = json.loads((out / "manifest.json").read_text())
    assert "grid_config" not in grid_manifest  # a grid run states its config once
    assert run_verb("spectral", PHASE, out) == 0
    assert json.loads((out / "manifest.json").read_text())["grid_config"] == grid_manifest[
        "config"]
    return out


@pytest.fixture
def phase_dir(phase_template, tmp_path) -> Path:
    """A fresh copy of the phase diagram's output directory."""
    out = tmp_path / "out"
    shutil.copytree(phase_template, out)
    return out


def test_the_phase_diagram_holds_every_part(phase_dir):
    rows = read_csv(phase_dir / "sweep.csv", {"gamma": float, "delta": float, "L": int,
                                              "s_half_steady": float})
    cells = [(r["gamma"], r["delta"]) for r in rows
             if r["L"] == max(PHASE["sizes"]) and np.isfinite(r["s_half_steady"])]  # S_half map
    assert cells == [(g, d) for g in PHASE["gamma_values"] for d in PHASE["delta_values"]]
    bounds = (phase_dir / "boundaries.csv").read_text().splitlines()
    assert bounds[0] == "gamma,delta_i,delta_ii"  # delta_c is in collapse.json alone
    assert len(bounds) == 3
    assert sorted(json.loads((phase_dir / "collapse.json").read_text())) == ["-0.3", "-0.5"]
    assert_manifest_describes(phase_dir)


def test_phase_diagram_then_collapse_then_spectral_keep_one_record(phase_dir):
    grid_config = json.loads((phase_dir / "manifest.json").read_text())["grid_config"]
    boundaries = (phase_dir / "boundaries.csv").read_bytes()
    for verb, extra in (("collapse", ("--seed", "4")), ("spectral", ())):
        assert run_verb(verb, PHASE, phase_dir, *extra) == 0, verb
        # the analytic boundaries do not follow the fit: delta_c is in collapse.json alone
        assert (phase_dir / "boundaries.csv").read_bytes() == boundaries, verb
        manifest = assert_manifest_describes(phase_dir)
        assert manifest["grid_config"] == grid_config, verb
        assert manifest["config"]["output_dir"] == str(phase_dir), verb


def test_collapse_with_new_bounds_moves_delta_c_in_collapse_json_alone(phase_dir):
    before = json.loads((phase_dir / "collapse.json").read_text())
    boundaries = (phase_dir / "boundaries.csv").read_bytes()
    options = {**PHASE["collapse_options"], "bounds": [[0.05, 1.0], [0.5, 4.0], [0.5, 4.0]]}
    raw = {**PHASE, "sizes": [8], "collapse_options": options}
    assert run_verb("collapse", raw, phase_dir) == 0
    after = json.loads((phase_dir / "collapse.json").read_text())
    assert after["-0.5"]["delta_c"] != before["-0.5"]["delta_c"]  # off the old lower bound
    assert (phase_dir / "boundaries.csv").read_bytes() == boundaries
    assert_manifest_describes(phase_dir)


def test_one_gamma_collapse_keeps_the_other_gammas_fit(phase_dir, capsys):
    kept_table = (phase_dir / "collapse_g-0.3.csv").read_bytes()
    kept_fit = json.loads((phase_dir / "collapse.json").read_text())["-0.3"]
    capsys.readouterr()
    assert run_verb("collapse", {**PHASE, "gamma_values": [-0.5]}, phase_dir,
                    "--seed", "4") == 0
    assert "gamma=-0.3" not in capsys.readouterr().out  # it reports this call's fits only
    assert (phase_dir / "collapse_g-0.3.csv").read_bytes() == kept_table
    fits = json.loads((phase_dir / "collapse.json").read_text())
    assert sorted(fits) == ["-0.3", "-0.5"]
    assert json.dumps(fits["-0.3"], sort_keys=True) == json.dumps(kept_fit, sort_keys=True)
    assert_manifest_describes(phase_dir)


def test_collapse_on_a_sweep_without_rows_leaves_boundaries_alone(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_csv(out / "sweep.csv", ROW_COLUMNS, [])
    (out / "boundaries.csv").write_text("earlier\n")
    assert run_verb("collapse", FAST, out) == 1  # no usable rows
    assert (out / "boundaries.csv").read_text() == "earlier\n"


def test_collapse_on_a_sweep_without_rows_removes_the_fits(phase_dir):
    boundaries = (phase_dir / "boundaries.csv").read_bytes()
    write_csv(phase_dir / "sweep.csv", ROW_COLUMNS, [])
    assert run_verb("collapse", PHASE, phase_dir) == 1  # no usable rows
    assert not (phase_dir / "collapse.json").exists()
    assert not list(phase_dir.glob("collapse_g*.csv"))
    assert (phase_dir / "boundaries.csv").read_bytes() == boundaries
    assert_manifest_describes(phase_dir)


# The arrays verify, the one reader of a saved trajectory, reads besides length.
VERIFY_ARRAYS = ("final_correlation", "density_series", "ee_series")


def test_cli_verify_on_a_file_that_is_not_a_trajectory_is_an_io_error(tmp_path, capsys):
    other = tmp_path / "other.npz"
    np.savez(other, x=np.zeros(3))
    payloads = {"other": other.read_bytes(), "text": b"not a trajectory\n", "empty": b"",
                "cut": other.read_bytes()[:100]}
    for name, payload in payloads.items():
        path = tmp_path / name / f"traj_{point_tag(-0.5, 0.15, 4)}.npz"
        path.parent.mkdir()
        path.write_bytes(payload)
        assert cli_main(["verify", "--input", str(path)]) == 3, name
        err = capsys.readouterr().err
        assert str(path) in err, name
        if name == "other":  # the message names the missing arrays
            assert f"it lacks {', '.join(VERIFY_ARRAYS)}, length" in err


def test_cli_verify_on_a_trajectory_of_the_wrong_shapes_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / f"traj_{point_tag(-0.5, 0.15, 4)}.npz"
    np.savez(bad, final_correlation=np.zeros(3), density_series=np.zeros(3),
             ee_series=np.zeros(3), length=4)
    assert cli_main(["verify", "--input", str(bad)]) == 3
    assert (f"{bad} is not a saved trajectory: wrong shape of final_correlation, density_series"
            in capsys.readouterr().err)
    # a sound trajectory with one array reshaped names that array alone: no
    # sample and no entropy are wrong shapes too
    good = {"final_correlation": np.eye(4) * 0.5, "density_series": np.full((2, 4), 0.5),
            "ee_series": np.zeros(2), "length": 4}
    for name, shape in (("final_correlation", (4, 2)), ("density_series", (2, 3)),
                        ("density_series", (0, 4)), ("ee_series", (2, 1)),
                        ("ee_series", (0,)), ("length", (1,))):
        np.savez(bad, **{**good, name: np.zeros(shape)})
        assert cli_main(["verify", "--input", str(bad)]) == 3, (name, shape)
        err = capsys.readouterr().err.rstrip()
        assert err.endswith(f"{bad} is not a saved trajectory: wrong shape of {name}"), (
            name, shape)


def test_cli_verify_fails_a_trajectory_with_a_nan_entropy(tmp_path, capsys):
    rec = run_trajectory(ModelParams(-0.5, 0.15, 8), Schedule(dt=10.0, steps=40,
                                                             sample_stride=20))
    path = tmp_path / "traj.npz"
    ee = rec.ee_series.copy()
    ee[1] = np.nan
    np.savez(path, final_correlation=rec.final_correlation,
             density_series=rec.density_series, ee_series=ee, length=8)
    assert cli_main(["verify", "--input", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if "ee_nonnegative" in line] == [
        ["FAIL", "ee_nonnegative"]]


def test_cli_verify_fails_a_trajectory_with_a_nan_correlation(tmp_path, capsys):
    C = 0.5 * np.eye(4)
    C[0, 1] = np.nan
    path = tmp_path / "traj.npz"
    np.savez(path, final_correlation=C, density_series=np.full((1, 4), 0.5),
             ee_series=np.zeros(1), length=4)
    assert cli_main(["verify", "--input", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if "spectrum_range" in line] == [
        ["FAIL", "spectrum_range", "inf"]]


def broken_tables(path: Path, column: str, blank: str = "delta") -> dict:
    """The CSV at `path` broken three ways, by name: without `column`, with an
    empty `blank` cell in its last row, and with its last row one cell short."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    drop, emptied = header.index(column), header.index(blank)

    def text(lines):
        return "".join(",".join(cells) + "\n" for cells in lines)

    return {
        f"no {column}": text([c for i, c in enumerate(cells) if i != drop]
                             for cells in (header, *rows)),
        f"empty {blank}": text([header, *rows[:-1],
                                ["" if i == emptied else c for i, c in enumerate(rows[-1])]]),
        "short row": text([header, *rows[:-1], rows[-1][:-1]]),
    }


def misshapen_tables(path: Path) -> dict:
    """The point table at `path` with every cell sound but its rows not those of
    its size, by name: no row, its last row gone, its first two rows swapped,
    and its first cell (the cut, or the step of the first sample) changed."""
    header, *rows = path.read_text().splitlines()
    first = rows[0].split(",")
    return {name: "\n".join(lines) + "\n" for name, lines in (
        ("no row", [header]), ("row gone", [header, *rows[:-1]]),
        ("rows swapped", [header, rows[1], rows[0], *rows[2:]]),
        ("first cell", [header, ",".join(["7", *first[1:]]), *rows[1:]]))}


POINT_4 = ["--gamma", "-0.5", "--delta", "0.15", "--size", "4"]


@pytest.mark.parametrize("source, column, blank, calls", [
    ("sweep.csv", "s_half_steady", "delta",
     (["collapse"], ["export", "--kind", "s_vs_delta"])),
    ("fractal.csv", "gamma_bar", "delta", (["export", "--kind", "fractal_map"],)),
    (f"profile_{point_tag(-0.5, 0.15, 4)}.csv", "s_l", "l",
     (["export", "--kind", "entropy_profile", *POINT_4],)),
    (f"density_{point_tag(-0.5, 0.15, 4)}.csv", "n", "site",
     (["export", "--kind", "density_heatmap", *POINT_4],)),
])
def test_reading_a_malformed_table_is_an_io_error_naming_the_file(tmp_path, capsys, source,
                                                                   column, blank, calls):
    good = tmp_path / "good.csv"
    if source == "sweep.csv":
        write_csv(good, ROW_COLUMNS, synthetic_collapse_rows(-0.5))
    elif source == "fractal.csv":
        write_csv(good, ["gamma", "delta", "L", "gamma_bar"],
                  [[-0.5, d, 16, 0.5] for d in (0.1, 0.2, 0.3)])
    elif source.startswith("profile"):
        sweep_mod.write_profile_csv(good, np.array([[1, 0.3], [2, 0.6], [3, 0.3]]), 4)
    else:
        sweep_mod.write_density_csv(good, np.array([0, 20]), np.array([[0, 1, 0, 1],
                                                                       [0.4, 0.6, 0.3, 0.7]]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**PHASE, "gamma_values": [-0.5]}))
    point_table = source.startswith(("profile", "density"))
    cases = {name: (text, ", line ") for name, text in broken_tables(good, column, blank).items()}
    if point_table:  # the sweep's tables of one point: one row per cut, or per sample and site
        cases.update((name, (text, " is not a ")) for name, text in misshapen_tables(good).items())
    for name, (text, says) in cases.items():
        out = tmp_path / name.replace(" ", "_")
        out.mkdir()
        (out / source).write_text(text)
        for call in calls:
            config = ["--config", str(cfg)] if call[0] == "collapse" else []
            assert cli_main([*call, "--output", str(out), *config]) == 3, (name, call)
            assert f"{out / source}{says}" in capsys.readouterr().err, (name, call)
            assert not any(p.name.startswith("fig_") for p in out.iterdir()), (name, call)
    if point_table:  # the sound table is copied as it is
        (tmp_path / source).write_bytes(good.read_bytes())
        assert cli_main([*calls[0], "--output", str(tmp_path)]) == 0
        assert (tmp_path / f"fig_{source}").read_bytes() == good.read_bytes()


def test_a_malformed_input_stops_collapse_and_spectral_before_they_write(phase_dir):
    kept = read_bytes_map(phase_dir)
    for verb, name, text in (("collapse", "collapse.json", "["),
                             ("collapse", "manifest.json", "{"),
                             ("spectral", "manifest.json", "{")):
        (phase_dir / name).write_text(text)
        assert run_verb(verb, PHASE, phase_dir) == 3, (verb, name)
        assert read_bytes_map(phase_dir) == {**kept, name: text.encode()}, (verb, name)
        (phase_dir / name).write_bytes(kept[name])


@pytest.mark.parametrize("verb, name, text", [
    ("collapse", "boundaries.csv", "gamma,delta_i,delta_ii\n-0.5,0.1\n"),
    ("spectral", "collapse.json", "[]"),
])
def test_collapse_and_spectral_do_not_read_each_others_file(phase_dir, verb, name, text):
    (phase_dir / name).write_text(text)
    assert run_verb(verb, PHASE, phase_dir) == 0
    assert (phase_dir / name).read_text() == text
    assert_manifest_describes(phase_dir)


@pytest.mark.parametrize("verb, flag, value", [
    ("collapse", "--workers", "2"), ("collapse", "--preset", "paper"),
    ("spectral", "--workers", "2"), ("spectral", "--preset", "paper"),
    ("spectral", "--seed", "9"),
])
def test_collapse_and_spectral_reject_the_flags_they_do_not_read(tmp_path, capsys, verb, flag,
                                                                 value):
    with pytest.raises(SystemExit) as exit_:
        cli_main([verb, "--config", str(tmp_path / "cfg.json"), flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # argparse stops it before it reads or writes


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--config", "cfg.json"],
    ["export", "--kind", "collapse", "--output", "out", "--gamma", "-0.5"],
])
def test_the_removed_verb_and_export_kind_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_fractal_map_export_pivots_fractal_csv_into_gamma_delta_order(tmp_path):
    write_csv(tmp_path / "fractal.csv", ["gamma", "delta", "L", "gamma_bar"],
              [[-0.3, 0.2, 16, 0.4], [-0.5, 0.2, 16, 0.6], [-0.5, 0.1, 16, 0.9]])
    path = export_figure_data("fractal_map", tmp_path)
    assert path == tmp_path / "fig_fractal_map.csv"
    header, *lines = path.read_text().splitlines()
    assert header == "gamma,delta,gamma_bar"
    table = [[float(cell) for cell in line.split(",")] for line in lines]
    assert [row[:2] for row in table] == [[-0.5, 0.1], [-0.5, 0.2], [-0.3, 0.1], [-0.3, 0.2]]
    values = [row[2] for row in table]
    assert values[:2] + values[3:] == [0.9, 0.6, 0.4] and np.isnan(values[2])  # no (-0.3, 0.1)
    svg = path.with_suffix(".svg").read_text()
    assert svg.startswith("<svg") and svg.count("<rect") == 4
    assert svg.count('fill="#777777"') == 1  # the missing pair


def test_preset_choices_are_the_presets(monkeypatch):
    monkeypatch.setitem(sweep_mod.PRESETS, "tiny", {"schedule": {"steps": 10}})
    args = build_parser().parse_args(["simulate", "--config", "c.json", "--preset", "tiny"])
    assert args.preset == "tiny"
