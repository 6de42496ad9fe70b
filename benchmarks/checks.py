"""Checks of the program's outputs, made apart from the program.

Each workload's check reads the files its CLI calls wrote and returns an
`Outcome`: how many operations were attempted, which failed, and any
problem that makes the round incorrect.

- An operation (a grid point, or a fitted gamma) fails when its output
  misses an independent reference: the mpmath half-chain entropies in
  obc_references.json, the periodic ring's dominant-mode interval, or the
  parameters planted in the synthetic collapse data.
- A problem is a property the method must have that the output lacks
  (Hermitian idempotent C with trace L/2, entropies within [0, (L/2) ln 2],
  a mirror-symmetric profile, the CFT central charge), or an output that is
  missing, unreadable, or does not match its manifest hash.  Any problem
  makes the result incorrect.

No starkchain code is used here: the references, the oracle and the
property checks are this file's own numpy/scipy code.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.linalg

import workloads as wl

REFERENCES = Path(__file__).with_name("obc_references.json")
REFERENCE_TOL = 1e-6      # acceptance criterion 2's tolerance
PROPERTY_TOL = 1e-8
PBC_WINDOW = 0.01         # distance allowed from the dominant-mode interval
CFT_C_RANGE = (0.9, 1.1)
PLANTED_TOL = (0.02, 0.25, 0.25)  # test_fit_collapse_recovers_planted_parameters


@dataclass
class Outcome:
    attempted: int = 0
    failed: list = field(default_factory=list)    # one description per failed operation
    problems: list = field(default_factory=list)  # property violations: round incorrect


def read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def manifest_problems(outdir: Path) -> list:
    """The manifest must list complete status and every file with its hash and size."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    problems = [] if manifest["status"] == "complete" else [f"status {manifest['status']}"]
    for entry in manifest["files"]:
        data = (outdir / entry["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{entry['path']} does not match its manifest entry")
    return problems


def point_tag(gamma: float, delta: float, length: int) -> str:
    return f"g{gamma:g}_d{delta:g}_L{length}"


# --------------------------------------------------------------------------
# property checks

def correlation_problems(C: np.ndarray, L: int, tol: float = PROPERTY_TOL) -> list:
    """C of a pure half-filled Slater state: Hermitian, idempotent, trace L/2."""
    out = []
    herm = float(np.max(np.abs(C - C.conj().T)))
    idem = float(np.max(np.abs(C @ C - C)))
    trace = float(abs(np.trace(C).real - L / 2))
    for name, value in (("hermiticity", herm), ("idempotency", idem), ("trace", trace)):
        if not value <= tol:
            out.append(f"{name} residual {value:.2e} > {tol:g}")
    return out


def entropy_range_problems(values, L: int) -> list:
    """Half-chain entropies lie in [0, (L/2) ln 2]."""
    v = np.asarray(values, dtype=float)
    top = 0.5 * L * np.log(2.0)
    if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > top:
        return [f"entropy outside [0, {top:.4f}]: range {v.min():.6g}..{v.max():.6g}"]
    return []


def profile_asymmetry(profile) -> float:
    """max |S_l - S_{L-l}| over a profile given as (l, S_l) rows for l = 1..L-1."""
    s = np.asarray(profile, dtype=float)[:, 1]
    return float(np.max(np.abs(s - s[::-1])))


# --------------------------------------------------------------------------
# obc-sweep

def load_references(path: Path = REFERENCES) -> dict:
    """(delta, L) -> {step: S} from obc_references.json."""
    data = json.loads(path.read_text())
    steps = data["steps"]
    return {
        (p["delta"], p["L"]): {n: float(s) for n, s in zip(steps, p["s_half"])}
        for p in data["points"]
    }


def reference_misses(ee_series, refs: dict, tol: float = REFERENCE_TOL) -> list:
    """Steps at which the program's entropy series misses the reference by more than tol."""
    ee = np.asarray(ee_series, dtype=float)
    return [(n, float(ee[n]), want) for n, want in sorted(refs.items())
            if not abs(ee[n] - want) <= tol]


def check_obc(outdir: Path, references: dict) -> Outcome:
    out = Outcome()
    out.problems += manifest_problems(outdir)
    rows = read_rows(outdir / "sweep.csv")
    grid = [(d, L) for d in wl.OBC_DELTAS for L in wl.SIZES]
    if sorted((float(r["delta"]), int(r["L"])) for r in rows) != sorted(grid):
        out.problems.append("sweep.csv does not hold the 24 grid points")
    for r in rows:
        out.problems += entropy_range_problems(
            [float(r["s_half_steady"]), float(r["s_half_raw_final"])], int(r["L"]))
    for delta, L in grid:
        out.attempted += 1
        with np.load(outdir / f"traj_{point_tag(wl.GAMMA, delta, L)}.npz") as data:
            ee = data["ee_series"]
            C = data["final_correlation"]
        out.problems += [f"delta={delta:g} L={L}: {p}" for p in
                         correlation_problems(C, L) + entropy_range_problems(ee, L)]
        misses = reference_misses(ee, references[(delta, L)])
        if misses:
            n, got, want = misses[0]
            out.failed.append(f"delta={delta:g} L={L}: step {n} gives {got:.6f}, "
                              f"reference {want:.6f} ({len(misses)} of "
                              f"{len(references[(delta, L)])} steps miss)")
    mi = read_rows(outdir / "mutual_info.csv")
    if len(mi) != len(grid) or min(float(r["mi"]) for r in mi) < -PROPERTY_TOL:
        out.problems.append("mutual_info.csv: missing rows or negative mutual information")
    fractal = read_rows(outdir / "fractal.csv")
    if len(fractal) != len(wl.OBC_DELTAS) or not all(
            0.0 <= float(r["gamma_bar"]) <= 1.0 for r in fractal):
        out.problems.append("fractal.csv: missing rows or a dimension outside [0, 1]")
    return out


# --------------------------------------------------------------------------
# pbc-ring

def ring_hamiltonian(gamma: float, delta: float, L: int) -> np.ndarray:
    """The periodic chain as the README defines it (J_L above, J_R below the diagonal)."""
    j_left, j_right = -(1.0 - gamma), -(1.0 + gamma)
    H = np.diag(delta * np.arange(1, L + 1)).astype(complex)
    i = np.arange(L - 1)
    H[i, i + 1] = j_left
    H[i + 1, i] = j_right
    H[L - 1, 0] = j_left
    H[0, L - 1] = j_right
    return H


def span_entropy(vectors: np.ndarray) -> float:
    """Half-chain entropy of the Slater state spanned by the columns."""
    Q, _ = np.linalg.qr(vectors)
    half = Q.shape[0] // 2
    lam = np.linalg.eigvalsh(Q[:half] @ Q[:half].conj().T)
    lam = lam[(lam > 0) & (lam < 1)]
    return float(-np.sum(lam * np.log(lam) + (1 - lam) * np.log1p(-lam)))


def dominant_mode_interval(H: np.ndarray, n: int, tol: float = 1e-9) -> tuple:
    """Range of half-chain entropies of the n right eigenmodes with the largest Im E.

    Under no-jump evolution each mode grows as e^{Im E t}, so the long-time
    state fills the modes above the n-th level; if that level is degenerate,
    every way of filling it from its eigenvectors is allowed.
    """
    energies, vectors = scipy.linalg.eig(H)
    order = np.argsort(-energies.imag, kind="stable")
    im = energies.imag[order]
    vectors = vectors[:, order]
    level = im[n - 1]
    above = np.flatnonzero(im > level + tol)
    level_modes = np.flatnonzero(np.abs(im - level) <= tol)
    values = [span_entropy(vectors[:, [*above, *pick]])
              for pick in combinations(level_modes, n - above.size)]
    return min(values), max(values)


def pbc_intervals() -> dict:
    return {L: dominant_mode_interval(ring_hamiltonian(wl.GAMMA, wl.PBC_DELTA, L), L // 2)
            for L in wl.SIZES}


def outside_interval(value: float, interval: tuple, window: float = PBC_WINDOW) -> bool:
    lo, hi = interval
    return not (lo - window <= value <= hi + window)


def central_charge(sizes, values) -> float:
    """c from the least-squares fit S = (c/3) ln L + b."""
    slope = np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.asarray(values), 1)[0]
    return float(3.0 * slope)


def check_pbc(outdir: Path, intervals: dict) -> Outcome:
    out = Outcome()
    out.problems += manifest_problems(outdir)
    rows = {int(r["L"]): float(r["s_half_steady"]) for r in read_rows(outdir / "sweep.csv")}
    if sorted(rows) != list(wl.SIZES):
        out.problems.append("sweep.csv does not hold the 4 ring sizes")
        return out
    exported = {int(r["L"]): float(r["s_half"]) for r in read_rows(outdir / "fig_s_vs_L.csv")}
    if exported != rows:
        out.problems.append("fig_s_vs_L.csv differs from sweep.csv")
    for L in wl.SIZES:
        out.attempted += 1
        S = rows[L]
        out.problems += entropy_range_problems([S], L)
        if outside_interval(S, intervals[L]):
            lo, hi = intervals[L]
            out.failed.append(f"L={L}: S={S:.4f} outside [{lo:.4f}, {hi:.4f}] +- {PBC_WINDOW}")
        tag = point_tag(wl.GAMMA, wl.PBC_DELTA, L)
        for name in (f"profile_{tag}.csv", f"fig_profile_{tag}.csv"):
            prof = [(float(r["l"]), float(r["s_l"])) for r in read_rows(outdir / name)]
            if len(prof) != L - 1 or profile_asymmetry(prof) > PROPERTY_TOL:
                out.problems.append(f"{name}: not a mirror-symmetric profile of {L - 1} cuts")
    c = central_charge(wl.SIZES, [rows[L] for L in wl.SIZES])
    if not CFT_C_RANGE[0] <= c <= CFT_C_RANGE[1]:
        out.problems.append(f"fitted c = {c:.3f} outside {CFT_C_RANGE}")
    return out


# --------------------------------------------------------------------------
# collapse-refit

def collapse_misses(fit: dict, planted=wl.PLANTED, tol=PLANTED_TOL) -> list:
    """Parameters the fit misses by more than max(3 sigma, tol), and a clipped fit."""
    misses = []
    for key, err_key, want, floor in zip(("delta_c", "nu", "zeta"),
                                         ("delta_c_err", "nu_err", "zeta_err"),
                                         planted, tol):
        allowed = max(3.0 * fit[err_key], floor)
        if not abs(fit[key] - want) <= allowed:
            misses.append(f"{key} = {fit[key]:.4f}, planted {want} +- {allowed:.4f}")
    if fit["clipped"]:
        misses.append("fit pinned at a bound")
    return misses


def check_collapse(outdir: Path) -> Outcome:
    out = Outcome()
    fits = json.loads((outdir / "collapse.json").read_text())
    for gamma in wl.COLLAPSE_GAMMAS:
        out.attempted += 1
        fit = fits.get(f"{gamma:g}", {"error": "no fit"})
        if "error" in fit:
            out.problems.append(f"gamma={gamma:g}: collapse failed: {fit['error']}")
            continue
        misses = collapse_misses(fit)
        if misses:
            out.failed.append(f"gamma={gamma:g}: " + "; ".join(misses))
        table = read_rows(outdir / f"collapse_g{gamma:g}.csv")
        if len(table) != len(wl.SIZES) * len(wl.COLLAPSE_X_GRID):
            out.problems.append(f"gamma={gamma:g}: collapse table does not hold the 36 points")
    return out
