"""Plot-ready tables (and minimal SVG heat maps) from saved sweep outputs.

Every kind reads tables that an analysis of the sweep wrote, never a saved
trajectory: each needs its analysis switched on in the run.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from .sweep import point_tag, read_csv, write_csv

EXPORT_KINDS = (
    "s_vs_delta", "s_vs_L", "entropy_profile", "mutual_info",
    "density_heatmap", "fractal_map",
)

# Row-table kinds: the source file, the filters that apply (each --gamma/--delta
# given), and each output column as (source column, type, header).  Rows are
# written in (delta, L) order, ties in file order.
_ROW_TABLES = {
    "s_vs_delta": ("sweep.csv", ("gamma",),
                   [("delta", float, "delta"), ("L", int, "L"),
                    ("s_half_steady", float, "s_half")]),
    "s_vs_L": ("sweep.csv", ("gamma", "delta"),
               [("L", int, "L"), ("s_half_steady", float, "s_half"),
                ("delta", float, "delta")]),
    "mutual_info": ("mutual_info.csv", ("gamma",),
                    [("delta", float, "delta"), ("L", int, "L"), ("mi", float, "mi")]),
}


def svg_heatmap(values: np.ndarray, path: Path):
    """Write a bare-bones SVG heat map of a 2D array (row 0 at the top), 6 px a cell."""
    cell = 6
    v = np.asarray(values, dtype=float)
    finite = v[np.isfinite(v)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    # three-anchor colormap: dark blue -> teal -> yellow
    anchors = np.array([[68, 1, 84], [33, 145, 140], [253, 231, 37]], dtype=float)

    def color(x: float) -> str:
        if not np.isfinite(x):
            return "#777777"
        t = (x - lo) / span
        seg, frac = (0, 2 * t) if t < 0.5 else (1, 2 * t - 1)
        rgb = anchors[seg] * (1 - frac) + anchors[seg + 1] * frac
        r, g, b = (int(round(c)) for c in rgb)
        return f"#{r:02x}{g:02x}{b:02x}"

    rows, cols = v.shape
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
        f'height="{rows * cell}" viewBox="0 0 {cols * cell} {rows * cell}">'
    ]
    for i in range(rows):
        for j in range(cols):
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" '
                f'height="{cell}" fill="{color(v[i, j])}"/>'
            )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def export_figure_data(kind: str, output_dir, out_path=None, gamma: float | None = None,
                       delta: float | None = None, size: int | None = None) -> Path:
    """Write one plot-ready table of the given kind from saved sweep outputs.

    Reads the files that `run_sweep` or `run_spectral` wrote in `output_dir`
    with sweep's readers, which raise OSError naming a missing or malformed
    file.  A row kind whose --gamma or --delta matches no row raises
    ValueError and writes nothing.  entropy_profile and density_heatmap copy
    the point's profile_*.csv (cft_fit) or density_*.csv (density_movie) once
    its rows are those of a table of that size.  Returns the path written; density_heatmap and
    fractal_map also write an SVG heat map next to the table.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; choose from {EXPORT_KINDS}")
    outdir = Path(output_dir)

    if kind in _ROW_TABLES:
        source, filters, columns = _ROW_TABLES[kind]
        wanted = {"gamma": gamma, "delta": delta}
        types = {**dict.fromkeys(filters, float), **{col: cast for col, cast, _ in columns}}
        rows = read_csv(outdir / source, types)
        if gamma is None and len({r["gamma"] for r in rows}) > 1:  # the output has no gamma column
            raise ValueError(f"{kind} export needs --gamma: {source} holds more than one gamma")
        rows = [r for r in rows
                if all(wanted[k] is None or np.isclose(r[k], wanted[k]) for k in filters)]
        given = [f"{k} = {wanted[k]:g}" for k in filters if wanted[k] is not None]
        if given and not rows:
            raise ValueError(f"{kind} export: no row of {source} has {' and '.join(given)}")
        rows.sort(key=lambda r: (r["delta"], r["L"]))
        path = Path(out_path) if out_path else outdir / f"fig_{kind}.csv"
        write_csv(path, [header for _, _, header in columns],
                  [[r[col] for col, _, _ in columns] for r in rows])
        return path

    if kind in ("entropy_profile", "density_heatmap"):
        if gamma is None or delta is None or size is None:
            raise ValueError(f"{kind} export needs gamma, delta and size")
        stem = "profile" if kind == "entropy_profile" else "density"
        src = outdir / f"{stem}_{point_tag(gamma, delta, size)}.csv"
        if kind == "entropy_profile":
            rows = read_csv(src, {"l": int, "s_l": float, "L": int})
            if [(r["l"], r["L"]) for r in rows] != [(l, size) for l in range(1, size)]:
                raise OSError(f"{src} is not a profile of the cuts 1..{size - 1} of L = {size}")
        else:
            rows = read_csv(src, {"step": int, "site": int, "n": float})
            blocks = [rows[i:i + size] for i in range(0, len(rows), size)]
            if not rows or any([r["site"] for r in b] != list(range(1, size + 1))
                               or len({r["step"] for r in b}) != 1 for b in blocks):
                raise OSError(f"{src} is not a density table of steps x {size} sites 1..{size}")
        path = Path(out_path) if out_path else outdir / f"fig_{src.name}"
        shutil.copyfile(src, path)
        if kind == "density_heatmap":
            svg_heatmap(np.array([[r["n"] for r in b] for b in blocks]), path.with_suffix(".svg"))
        return path

    # fractal_map
    rows = read_csv(outdir / "fractal.csv", dict.fromkeys(("gamma", "delta", "gamma_bar"), float))
    gammas = sorted({r["gamma"] for r in rows})
    deltas = sorted({r["delta"] for r in rows})
    grid = np.full((len(gammas), len(deltas)), np.nan)
    for r in rows:
        grid[gammas.index(r["gamma"]), deltas.index(r["delta"])] = r["gamma_bar"]
    table = [[r_g, r_d, grid[i, j]]
             for i, r_g in enumerate(gammas) for j, r_d in enumerate(deltas)]
    path = Path(out_path) if out_path else outdir / "fig_fractal_map.csv"
    write_csv(path, ["gamma", "delta", "gamma_bar"], table)
    svg_heatmap(grid, path.with_suffix(".svg"))
    return path
