import concurrent.futures
import dataclasses
import json
import os
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy

from starkchain import SweepConfig, config_from_dict, run_phase_diagram, run_spectral, run_sweep
from starkchain.cli import main as cli_main
from starkchain.export import export_figure_data
from starkchain.scaling import power_law_fit
from starkchain import sweep as sweep_mod
from starkchain.sweep import (ROW_COLUMNS, Analyses, CollapseOptions, Schedule, Smoothing,
                              point_tag, write_csv)

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
            "mi_steady": None, "cft_fit": None, "files": []}


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


def test_phase_diagram_outputs(tmp_path):
    cfg = config_from_dict({
        "gamma_values": [-0.5, -0.3],
        "delta_values": [0.05, 0.3],
        "sizes": [8, 16],
        "schedule": {"dt": 10.0, "steps": 100, "sample_stride": 25},
        "output_dir": str(tmp_path / "out"),
    })
    run_phase_diagram(cfg)
    out = tmp_path / "out"
    grid = out / "phase_diagram.csv"
    assert grid.exists()
    lines = grid.read_text().splitlines()
    assert lines[0] == "gamma,delta,s_half"
    assert len(lines) == 5  # 2x2 cells at the largest size
    for line in lines[1:]:
        assert np.isfinite(float(line.split(",")[2]))
    bounds = (out / "boundaries.csv").read_text().splitlines()
    assert bounds[0] == "gamma,delta_c,delta_c_err,delta_i,delta_ii"
    assert len(bounds) == 3


def test_phase_diagram_fits_each_gamma_once(tmp_path, monkeypatch):
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
    manifest = run_phase_diagram(cfg)
    assert calls == [15, 15]  # one fit per gamma, on its 5 x 3 points
    paths = [entry["path"] for entry in manifest["files"]]
    assert len(paths) == len(set(paths))
    assert {"collapse.json", "collapse_g-0.5.csv", "collapse_g-0.3.csv"} <= set(paths)


def test_phase_diagram_boundaries_use_only_this_runs_fits(tmp_path, monkeypatch):
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
        "output_dir": str(out),
    })
    assert run_phase_diagram(cfg)["status"] == "partial"
    rows = (out / "boundaries.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert np.isnan(float(row.split(",")[1]))  # no fit this run: delta_c is NaN


def test_phase_diagram_needs_2x2():
    cfg = config_from_dict({**FAST, "output_dir": "unused"})
    with pytest.raises(ValueError, match="2 gamma"):
        run_phase_diagram(cfg)


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
        "analyses": {"mutual_info": True, "density_movie": True},
        "save_trajectories": True,
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

    # the rescaled table and the figure export carry the fit in their headers
    assert (out / "collapse_g-0.5.csv").exists()
    p = export_figure_data("collapse", out, gamma=-0.5)
    lines = p.read_text().splitlines()
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
    # and the first fit must not survive to be exported as this one's
    write_csv(out / "sweep.csv", ROW_COLUMNS, synthetic_collapse_rows(-0.5))
    assert cli_main(["collapse", "--config", str(cfg_path)]) == 1
    assert not (out / "collapse_g-0.3.csv").exists()
    assert not (out / "collapse.json").exists()
    assert cli_main([
        "export", "--kind", "collapse", "--output", str(out), "--gamma", "-0.3",
    ]) != 0


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
    ("collapse_options", "window_min_delta", {"-0.5": "x"}),
    ("collapse_options", "window_min_delta", {"gamma": 0.1}),
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
        ["export", "--kind", "collapse", "--output", str(out), "--gamma", "-0.5"],
        ["export", "--kind", "mutual_info", "--output", str(out), "--gamma", "-0.5"],
        ["export", "--kind", "entropy_profile", "--output", str(out), *point],
    ]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**base, "save_trajectories": True,
                                    "analyses": {"collapse": True, "mutual_info": True}}))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert (out / "collapse_g-0.5.csv").exists()
    assert [cli_main(call) for call in exports] == [0, 0, 0]
    (out / "notes.txt").write_text("kept")

    cfg_path.write_text(json.dumps(base))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert [cli_main(call) for call in exports] == [3, 3, 3]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["path"] for f in manifest["files"]] == ["sweep.csv"]
    # export tables and files the sweep never writes stay
    assert sorted(p.name for p in out.iterdir()) == [
        "fig_collapse_g-0.5.csv", "fig_mutual_info.csv",
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


def test_power_law_fits_each_point_with_three_positive_sizes(tmp_path, monkeypatch):
    base = {**FAST, "delta_values": [0.1, 0.3], "sizes": [8, 12, 16],
            "analyses": {"power_law": True}}

    def fits_and_rows(name):
        out = tmp_path / name
        run_sweep(config_from_dict({**base, "output_dir": str(out)}))
        rows = sweep_mod.read_csv(out / "sweep.csv")
        return json.loads((out / "power_law.json").read_text()), rows

    def expected(rows, delta):
        pts = sorted((int(r["L"]), float(r["s_half_steady"])) for r in rows
                     if float(r["delta"]) == delta and float(r["s_half_steady"]) > 0)
        fit = power_law_fit([p[0] for p in pts], [p[1] for p in pts])
        return {"beta": fit.beta, "stderr": fit.stderr, "n_sizes": len(pts)}

    fits, rows = fits_and_rows("all")
    assert fits == {f"gamma=-0.5,delta={d:g}": expected(rows, d) for d in (0.1, 0.3)}

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
    cells = [r["wall_time_s"] for r in sweep_mod.read_csv(out / "sweep.csv")]
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


def test_point_row_holds_no_array_and_names_the_files_written(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg = config_from_dict({**EVERY_POINT_ANALYSIS, "output_dir": str(out)})
    row = sweep_mod._run_point(cfg, -0.5, 0.15, 16)
    assert row["error"] is None and row["mi_steady"] is not None
    assert not holds_an_array(row)
    tag = point_tag(-0.5, 0.15, 16)
    assert sorted(p.name for p in row["files"]) == [
        f"density_{tag}.csv", f"profile_{tag}.csv", f"traj_{tag}.npz"]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in row["files"])
    assert set(row["cft_fit"]) in ({"c", "const", "rms_residual"}, {"error"})


def test_every_listed_file_is_byte_equal_across_worker_counts(tmp_path):
    manifests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        manifests.append(run_sweep(config_from_dict(
            {**EVERY_POINT_ANALYSIS, "output_dir": str(out), "workers": workers})))
    files = [{f["path"]: f["sha256"] for f in m["files"]} for m in manifests]
    assert files[0] == files[1]
    tags = [point_tag(-0.5, d, L) for d in (0.1, 0.3) for L in (8, 16)]
    assert set(files[0]) == {"sweep.csv", "mutual_info.csv", "fractal.csv", "cft_fit.json",
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
    assert run_phase_diagram(config_from_dict({**raw, "output_dir": str(tmp_path / "p")}))[
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
