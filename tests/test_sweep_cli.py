import json
from pathlib import Path

import numpy as np
import pytest

from starkchain import SweepConfig, config_from_dict, run_phase_diagram, run_spectral, run_sweep
from starkchain.cli import main as cli_main
from starkchain.export import export_figure_data
from starkchain import sweep as sweep_mod
from starkchain.sweep import ROW_COLUMNS, Analyses, Schedule, point_tag, write_csv

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
            "mi_steady": None, "detail": None}


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
    # odd size is rejected by the config, so break a row via schedule instead:
    # delta is fine; use a gamma=1 chain (valid) and a negative-delta injection
    # through a handcrafted config dict is blocked by validation, so instead
    # check that a raising analysis point is recorded without aborting others.
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
