"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Trajectory-based criteria share a cached steady-state runner (6000 steps of
dt = 10 with plateau early-stop, well above the desk preset's 2000-step floor
and inside every stated runtime budget).  Assertions use the criteria's stated
tolerances; measured values are printed so a failing line documents itself.
"""

import json

import numpy as np
import pytest

from starkchain import (
    Boundary,
    ModelParams,
    Schedule,
    SlaterState,
    average_fractal_dimension,
    build_hamiltonian,
    config_from_dict,
    correlation_matrix,
    fit_collapse,
    hermitize_similarity,
    init_z2_state,
    jump_consistency_report,
    make_propagator,
    mutual_information,
    phase_boundaries,
    power_law_fit,
    run_sweep,
    run_trajectory,
    standard_probe_regions,
    steady_state_entropy,
    step_qr,
    subsystem_entropy,
    validate_correlation,
)
from starkchain import effective_from_jumps
from starkchain.entanglement import half_chain_entropy
from starkchain.scaling import ScalingDataset

from oracles import (
    dominant_mode_fillings,
    exact_evolution_ee,
    fock_entropy,
    fock_state_from_orbitals,
    random_slater_orbitals,
)
from test_scaling import synthetic_collapse

NSTEPS = 6000
_steady_cache: dict = {}
_mi_cache: dict = {}


def steady(gamma: float, delta: float, length: int,
           boundary: Boundary = Boundary.OPEN) -> float:
    key = (gamma, delta, length, boundary)
    if key not in _steady_cache:
        rec = run_trajectory(
            ModelParams(gamma, delta, length, boundary),
            Schedule(dt=10.0, steps=NSTEPS, sample_stride=200, early_stop=True),
        )
        _steady_cache[key] = steady_state_entropy(rec)
    return _steady_cache[key]


def mi_steady(gamma: float, delta: float, length: int) -> float:
    key = (gamma, delta, length)
    if key not in _mi_cache:
        region_a, region_b = standard_probe_regions(length)
        series = []

        def on_sample(step, state, C):
            series.append(mutual_information(C, region_a, region_b))

        run_trajectory(
            ModelParams(gamma, delta, length),
            Schedule(dt=10.0, steps=NSTEPS, sample_stride=10),
            on_sample=on_sample,
            entropy_from=NSTEPS + 1,  # only the samples' C is read
        )
        tail = series[-(len(series) // 4):]
        _mi_cache[key] = float(np.mean(tail))
    return _mi_cache[key]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_correlation_invariants():
    worst = 0.0
    for gamma in (0.0, -0.5):
        for delta in (0.0, 0.15, 5.0):
            residuals = []

            def on_sample(step, state, C):
                checks = validate_correlation(C, 16, atol=1e-8)
                residuals.append(max(v for k, v in checks.items() if k != "ok"))

            run_trajectory(
                ModelParams(gamma, delta, 32),
                Schedule(dt=10.0, steps=500, sample_stride=10),
                on_sample=on_sample,
            )
            worst = max(worst, max(residuals))
    ok = worst <= 1e-8
    assert report(1, ok, f"max invariant residual {worst:.2e} (tol 1e-8)"), worst


def test_criterion_02_qr_matches_exact_exponential():
    params = ModelParams(-0.5, 0.15, 8)
    H = build_hamiltonian(params)
    dt, steps = 0.5, 100
    oracle = exact_evolution_ee(H.matrix, init_z2_state(8).orbitals, dt, steps)
    prop = make_propagator(H, dt)
    state = init_z2_state(8)
    series = [half_chain_entropy(correlation_matrix(state))]
    for _ in range(steps):
        state = step_qr(state, prop)
        series.append(half_chain_entropy(correlation_matrix(state)))
    dev = float(np.max(np.abs(np.asarray(series) - oracle)))
    ok = dev < 1e-6
    assert report(2, ok, f"max |QR - exact| over t<=50: {dev:.2e} (tol 1e-6)"), dev


def test_criterion_03_fock_space_oracle():
    rng = np.random.default_rng(20240831)
    worst = 0.0
    for _ in range(5):
        orbitals = random_slater_orbitals(8, 4, rng)
        C = (orbitals @ orbitals.conj().T).T
        psi = fock_state_from_orbitals(orbitals)
        for ell in (2, 4, 6):
            s_corr = subsystem_entropy(C, range(1, ell + 1))
            s_fock = fock_entropy(psi, ell, 8)
            worst = max(worst, abs(s_corr - s_fock))
    ok = worst < 1e-8
    assert report(3, ok, f"max |corr-EE - Fock-EE| {worst:.2e} (tol 1e-8)"), worst


def test_criterion_04_similarity_spectral_equality():
    worst_pair = 0.0
    worst_imag = 0.0
    for delta in (0.05, 0.15, 1.0):
        H = build_hamiltonian(ModelParams(-0.5, delta, 64))
        M, _ = hermitize_similarity(H)
        w = np.linalg.eigvals(H.matrix)
        worst_imag = max(worst_imag, float(np.max(np.abs(w.imag))))
        diff = np.abs(np.sort(w.real) - np.linalg.eigvalsh(M))
        worst_pair = max(worst_pair, float(np.max(diff)))
    ok = worst_pair < 1e-8 and worst_imag < 1e-8
    assert report(4, ok, f"spectral diff {worst_pair:.2e}, max |Im| {worst_imag:.2e} (tol 1e-8)")


def test_criterion_05_skin_effect_area_law():
    vals = {L: steady(-0.5, 0.001, L) for L in (32, 64, 96)}
    spread = max(vals.values()) - min(vals.values())
    ok = all(v < 0.5 for v in vals.values()) and spread < 0.2
    detail = ", ".join(f"L={L}: {v:.3f}" for L, v in vals.items())
    assert report(5, ok, f"{detail}; spread {spread:.3f} (need each < 0.5, spread < 0.2)")


def test_criterion_06_critical_power_law():
    sizes = (32, 64, 96, 128)
    vals = [steady(-0.5, 0.15, L) for L in sizes]
    fit = power_law_fit(sizes, vals)
    ok = 0.5 <= fit.beta <= 1.3
    detail = ", ".join(f"L={L}: {v:.3f}" for L, v in zip(sizes, vals))
    assert report(6, ok, f"beta = {fit.beta:.3f} +- {fit.stderr:.3f} from [{detail}] (need beta in [0.5, 1.3])")


def test_criterion_07_tilt_area_law():
    sizes = (32, 64, 96, 128)
    vals = {L: steady(-0.5, 5.0, L) for L in sizes}
    spread = max(vals.values()) - min(vals.values())
    ok = all(v < 0.5 for v in vals.values()) and spread < 0.2
    detail = ", ".join(f"L={L}: {v:.3f}" for L, v in vals.items())
    assert report(7, ok, f"{detail}; spread {spread:.3f} (need each < 0.5, spread < 0.2)")


def test_criterion_08_periodic_volume_law():
    """PBC steady state against the dominant-mode oracle, and its log law.

    The name is kept so the criterion stays traceable, but no volume law is
    asserted: at delta = 0.001 the ring is the clean Hatano-Nelson ring up to
    delta * L <= 0.13, whose long-time state fills the L/2 modes with the
    largest Im E.  That state is a Fermi sea with c = 1 (Kawabata, Numasawa &
    Ryu, PRX 13, 021007 (2023)), not a volume law.  The last filled level is
    a degenerate pair (k near 0 and pi), so the oracle gives an interval.
    """
    sizes = (32, 64, 96, 128)
    vals = [steady(-0.5, 0.001, L, Boundary.PERIODIC) for L in sizes]
    bounds = []
    for L in sizes:
        fillings = dominant_mode_fillings(
            build_hamiltonian(ModelParams(-0.5, 0.001, L, Boundary.PERIODIC)), L // 2
        )
        bounds.append((min(fillings), max(fillings)))
    in_interval = all(lo - 0.01 <= v <= hi + 0.01 for v, (lo, hi) in zip(vals, bounds))
    c = 3.0 * float(np.polyfit(np.log(sizes), vals, 1)[0])
    fit = power_law_fit(sizes, vals)
    ok = in_interval and 0.9 <= c <= 1.1
    detail = ", ".join(
        f"L={L}: {v:.3f} vs [{lo:.4f}, {hi:.4f}]" for L, v, (lo, hi) in zip(sizes, vals, bounds)
    )
    assert report(
        8, ok,
        f"{detail}; c = {c:.3f} from S = (c/3) ln L + b, beta = {fit.beta:.3f} "
        f"(need each within 0.01 of its oracle interval, c in [0.9, 1.1])"
    )


def test_dominant_mode_oracle_matches_plane_waves():
    # at delta = 0 the ring is translation invariant: E(k) = -2 cos k + 2i gamma sin k,
    # so for gamma < 0 the dominant modes are the plane waves with sin k < 0, and the
    # degenerate level Im E = 0 holds k = 0 and k = pi
    L = 32
    oracle = dominant_mode_fillings(
        build_hamiltonian(ModelParams(-0.5, 0.0, L, Boundary.PERIODIC)), L // 2
    )
    ks = 2 * np.pi * np.arange(L) / L
    sea = ks[np.sin(ks) < -1e-9]
    closed_form = []
    for k_last in (0.0, np.pi):
        k = np.append(sea, k_last)
        waves = np.exp(1j * np.outer(np.arange(L), k)) / np.sqrt(L)
        closed_form.append(half_chain_entropy(correlation_matrix(SlaterState(waves))))
    assert len(sea) == L // 2 - 1 and len(oracle) == 2
    assert np.allclose(sorted(oracle), sorted(closed_form), rtol=0, atol=1e-10)


COLLAPSE_DELTAS = (0.10, 0.125, 0.15, 0.175, 0.20, 0.25, 0.30)


def _collapse_fit_for(gamma: float, deltas, sizes, init, seed=7):
    points = [(L, d, steady(gamma, d, L)) for d in deltas for L in sizes]
    data = ScalingDataset.from_points(points)
    return fit_collapse(data, init=init, bootstrap_n=100, seed=seed)


def test_criterion_09_collapse_fit():
    # synthetic recovery first: planted parameters within bootstrap error
    rng = np.random.default_rng(17)
    synth = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    sfit = fit_collapse(synth, init=(0.12, 1.6, 1.7), bootstrap_n=100, seed=11)
    synth_ok = (
        abs(sfit.delta_c - 0.15) <= 3 * sfit.errors[0] + 1e-3
        and abs(sfit.nu - 1.9) <= 3 * sfit.errors[1] + 1e-2
        and abs(sfit.zeta - 2.0) <= 3 * sfit.errors[2] + 1e-2
    )

    fit = _collapse_fit_for(-0.5, COLLAPSE_DELTAS, (32, 64, 96, 128), (0.15, 1.9, 2.0))
    range_ok = 0.08 <= fit.delta_c <= 0.25
    ok = synth_ok and range_ok
    assert report(
        9, ok,
        f"measured delta_c = {fit.delta_c:.3f} +- {fit.errors[0]:.3f}, nu = {fit.nu:.2f}, "
        f"zeta = {fit.zeta:.2f}, clipped = {fit.clipped} (need delta_c in [0.08, 0.25]); "
        f"synthetic recovery ({sfit.delta_c:.3f}, {sfit.nu:.2f}, {sfit.zeta:.2f}) vs "
        f"(0.15, 1.9, 2.0), clipped = {sfit.clipped} {'ok' if synth_ok else 'off'}"
    )


def test_criterion_10_mutual_information_peak():
    i_peak = mi_steady(-0.5, 0.15, 64)
    i_low = mi_steady(-0.5, 0.001, 64)
    i_high = mi_steady(-0.5, 5.0, 64)
    ok = (
        i_peak > 5.0 * max(i_low, i_high)
        and i_low < 0.05
        and i_high < 0.05
    )
    assert report(
        10, ok,
        f"I(0.15) = {i_peak:.4f} vs I(0.001) = {i_low:.2e}, I(5) = {i_high:.2e} "
        f"(need peak > 5x others, others < 0.05)"
    )


def test_criterion_11_fractal_dimension_ordering():
    vals = {}
    for delta in (0.001, 1.0, 20.0):
        H = build_hamiltonian(ModelParams(-0.5, delta, 128))
        vals[delta] = average_fractal_dimension(H)
    pb = phase_boundaries(-0.5, 128)
    ordering = vals[1.0] > vals[0.001] and vals[1.0] > vals[20.0]
    boundaries_ok = (
        pb.delta_i == pytest.approx(0.0736, abs=1e-4)
        and pb.delta_ii == pytest.approx(3.464, abs=1e-3)
        and pb.delta_i < 1.0 < pb.delta_ii
    )
    ok = ordering and boundaries_ok
    assert report(
        11, ok,
        f"Gamma-bar: {vals[0.001]:.3f} (d=0.001), {vals[1.0]:.3f} (d=1), "
        f"{vals[20.0]:.3f} (d=20); delta_I = {pb.delta_i:.4f}, delta_II = {pb.delta_ii:.3f}"
    )


def test_criterion_12_delta_c_monotonic_in_gamma():
    windows = {
        -0.3: ((0.04, 0.055, 0.07, 0.09, 0.12, 0.15, 0.19), (0.08, 1.9, 2.0)),
        -0.5: (COLLAPSE_DELTAS, (0.15, 1.9, 2.0)),
        -0.7: ((0.16, 0.20, 0.24, 0.28, 0.33, 0.40, 0.48), (0.26, 1.9, 2.0)),
    }
    sizes = (32, 64, 96)
    fits = {gamma: _collapse_fit_for(gamma, deltas, sizes, init)
            for gamma, (deltas, init) in windows.items()}
    ok = fits[-0.3].delta_c < fits[-0.5].delta_c < fits[-0.7].delta_c
    assert report(
        12, ok,
        "; ".join(
            f"gamma={g}: delta_c = {f.delta_c:.3f}, nu = {f.nu:.2f}, zeta = {f.zeta:.2f}, "
            f"clipped = {f.clipped}" for g, f in fits.items()
        )
        + " (need delta_c strictly increasing in |gamma|)"
    )


def test_criterion_13_jump_operator_consistency():
    params0 = ModelParams(0.0, 0.3, 16)
    exact_match = np.array_equal(
        effective_from_jumps(params0).matrix, build_hamiltonian(params0).matrix
    )
    rep = jump_consistency_report(ModelParams(0.5, 0.0, 16))
    bulk_uniform = rep.bulk_loss_spread < 1e-12
    bulk_value = abs(rep.bulk_loss - (-0.5)) < 1e-12
    half_asym = abs(rep.gamma_effective - 0.25) < 1e-12
    ok = exact_match and bulk_uniform and bulk_value and half_asym
    assert report(
        13, ok,
        f"gamma=0 exact: {exact_match}; bulk loss {rep.bulk_loss:.3f} "
        f"(spread {rep.bulk_loss_spread:.1e}); gamma_eff = {rep.gamma_effective:.3f} "
        f"= gamma/2 convention"
    )


def test_criterion_14_byte_determinism(tmp_path):
    base = {
        "gamma_values": [-0.5, 0.0],
        "delta_values": [0.15],
        "sizes": [16],
        "schedule": {"dt": 10.0, "steps": 150, "sample_stride": 30},
        "analyses": {"mutual_info": True, "density_movie": True},
        "save_trajectories": True,
        "output_dir": str(tmp_path / "run"),
    }
    cfg = config_from_dict(base)
    run_sweep(cfg)
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    run_sweep(cfg)
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    cfg_w = config_from_dict({**base, "workers": 3, "output_dir": str(tmp_path / "w")})
    run_sweep(cfg_w)
    third = {p.name: p.read_bytes() for p in sorted((tmp_path / "w").iterdir())}

    rerun_identical = first == second
    worker_independent = all(
        first[name] == third[name] for name in first if name != "manifest.json"
    ) and json.loads(first["manifest.json"])["files"] == json.loads(third["manifest.json"])["files"]
    ok = rerun_identical and worker_independent
    assert report(
        14, ok,
        f"rerun byte-identical: {rerun_identical}; worker-count independent: {worker_independent}"
    )
