import numpy as np
import pytest

from starkchain import (
    Boundary,
    ModelParams,
    Schedule,
    biorthogonal_eigendecomposition,
    build_hamiltonian,
    cft_log_fit,
    correlation_matrix,
    density_profile,
    entropy_profile,
    init_z2_state,
    make_propagator,
    run_trajectory,
    step_qr,
    steady_state_entropy,
    subsystem_entropy,
    trajectory_invariants,
    validate_correlation,
)
from starkchain import propagation
from starkchain.entanglement import half_chain_entropy

from oracles import exact_evolution_ee


def test_z2_state_basics():
    state = init_z2_state(4)
    assert state.orbitals.shape == (4, 2)
    assert np.array_equal(state.orbitals[:, 0], [0, 1, 0, 0])
    assert np.array_equal(state.orbitals[:, 1], [0, 0, 0, 1])
    C = correlation_matrix(state)
    assert np.allclose(density_profile(C), [0, 1, 0, 1])
    assert half_chain_entropy(C) == pytest.approx(0.0, abs=1e-9)


def test_z2_correlation_is_diagonal():
    C = correlation_matrix(init_z2_state(8))
    assert np.allclose(C, np.diag([0, 1] * 4))


def test_z2_requires_even_length():
    with pytest.raises(ValueError, match="even"):
        init_z2_state(5)


def test_correlation_transpose_convention():
    # single particle in (e1 + i e2)/sqrt(2): <c_1^dag c_2> = i/2
    orb = np.array([[1.0], [1.0j]]) / np.sqrt(2)
    from starkchain import SlaterState

    C = correlation_matrix(SlaterState(orb))
    assert C[0, 0] == pytest.approx(0.5)
    assert C[1, 1] == pytest.approx(0.5)
    assert C[0, 1] == pytest.approx(0.5j)
    assert C[1, 0] == pytest.approx(-0.5j)


def test_propagator_diagonal_hamiltonian():
    params = ModelParams(0.0, 0.7, 6)
    H = np.diag(0.7 * np.arange(1, 7)).astype(complex)
    prop = make_propagator(H, dt=0.3)
    assert np.allclose(prop.step_matrix, np.diag(np.exp(-1j * 0.7 * np.arange(1, 7) * 0.3)))
    del params


def test_propagator_unitary_at_gamma_zero():
    H = build_hamiltonian(ModelParams(0.0, 0.2, 12))
    P = make_propagator(H, dt=1.5).step_matrix
    assert np.max(np.abs(P @ P.conj().T - np.eye(12))) < 1e-10


def test_propagator_two_site_analytic():
    # H = [[0, J_L], [J_R, 0]] exponentiates through omega = sqrt(J_L J_R)
    jl, jr = -0.5, -1.5
    H = np.array([[0, jl], [jr, 0]], dtype=complex)
    dt = 0.37
    omega = np.sqrt(jl * jr)
    expected = np.cos(omega * dt) * np.eye(2) - 1j * np.sin(omega * dt) / omega * H
    P = make_propagator(H, dt).step_matrix
    assert np.allclose(P, expected, atol=1e-12)
    assert omega == pytest.approx(0.8660254, abs=1e-7)


def relative_expm_error(H, dt: float) -> float:
    """Relative 1-norm distance of make_propagator's step matrix from scipy's expm."""
    import scipy.linalg

    exact = scipy.linalg.expm(-1j * dt * H.matrix)
    P = make_propagator(H, dt).step_matrix
    return np.linalg.norm(P - exact, 1) / np.linalg.norm(exact, 1)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("delta", [0.001, 0.05, 0.1, 0.15, 0.2, 0.3])
@pytest.mark.parametrize("length", [32, 64, 96, 128])
def test_propagator_matches_scipy_expm_on_workload_matrices(boundary, delta, length):
    # every step matrix of the benchmark grids: scaled 2^-s with s = 2..7
    H = build_hamiltonian(ModelParams(-0.5, delta, length, boundary))
    assert relative_expm_error(H, 10.0) < 1e-13


def test_propagator_matches_scipy_expm_without_scaling():
    H = build_hamiltonian(ModelParams(-0.5, 0.1, 8))
    assert np.linalg.norm(0.5 * H.matrix, 1) < propagation.THETA_13  # s = 0: no squaring
    assert relative_expm_error(H, 0.5) < 1e-13


def test_propagator_unitary_to_rounding_at_workload_scale():
    H = build_hamiltonian(ModelParams(0.0, 0.3, 128))
    P = make_propagator(H, dt=10.0).step_matrix
    assert np.linalg.norm(P.conj().T @ P - np.eye(128), 2) <= 1e-12


def test_propagator_expm_matches_eig():
    H = build_hamiltonian(ModelParams(-0.5, 0.15, 16))
    P1 = make_propagator(H, dt=2.0).step_matrix
    P2 = biorthogonal_eigendecomposition(H).evolution_operator(2.0)
    assert np.max(np.abs(P1 - P2)) < 1e-8


def test_propagator_finite_in_near_defective_regime():
    # deep skin regime: left/right overlaps collapse below 1e-12, so there is
    # no biorthogonal mode expansion (test_spectral covers that it raises)
    H = build_hamiltonian(ModelParams(-0.5, 0.001, 96))
    assert np.all(np.isfinite(make_propagator(H, dt=10.0).step_matrix))


def test_step_qr_r_diagonal_convention_and_norms():
    H = build_hamiltonian(ModelParams(0.0, 0.0, 10))
    prop = make_propagator(H, dt=0.8)
    state = init_z2_state(10)
    for _ in range(20):
        new = step_qr(state, prop)
        # unitary evolution: R is diagonal with unit-modulus entries
        M = prop.step_matrix @ state.orbitals
        R = np.linalg.qr(M)[1]
        off = R - np.diag(np.diagonal(R))
        assert np.max(np.abs(off)) < 1e-8
        assert np.max(np.abs(np.abs(np.diagonal(R)) - 1.0)) < 1e-8
        state = new
    assert np.max(np.abs(state.orbitals.conj().T @ state.orbitals - np.eye(5))) < 1e-10
    assert state.time == pytest.approx(20 * 0.8)


def test_tilt_only_evolution_keeps_number_basis():
    # pure tilt: the alternating state is an eigenstate family, entropy stays 0
    params = ModelParams(0.0, 2.0, 8)
    H = np.diag(2.0 * np.arange(1, 9)).astype(complex)
    prop = make_propagator(H, dt=1.0)
    state = init_z2_state(8)
    for _ in range(30):
        state = step_qr(state, prop)
        C = correlation_matrix(state)
        assert np.allclose(density_profile(C), [0, 1] * 4, atol=1e-10)
        assert half_chain_entropy(C) < 1e-9
    del params


@pytest.mark.parametrize("gamma,delta,L,dt,steps", [
    (-0.5, 0.15, 8, 0.5, 100),
    (0.3, 0.4, 10, 1.0, 50),
])
def test_qr_evolution_matches_exact_exponential_oracle(gamma, delta, L, dt, steps):
    params = ModelParams(gamma, delta, L)
    H = build_hamiltonian(params)
    oracle = exact_evolution_ee(H.matrix, init_z2_state(L).orbitals, dt, steps)
    prop = make_propagator(H, dt)
    state = init_z2_state(L)
    series = [half_chain_entropy(correlation_matrix(state))]
    for _ in range(steps):
        state = step_qr(state, prop)
        series.append(half_chain_entropy(correlation_matrix(state)))
    assert np.max(np.abs(np.asarray(series) - oracle)) < 1e-6


def test_correlation_invariants_along_trajectory():
    params = ModelParams(-0.5, 0.15, 16)
    rec = run_trajectory(params, Schedule(dt=10.0, steps=200, sample_stride=20))
    checks = validate_correlation(rec.final_correlation, 8)
    assert checks["ok"], checks
    assert rec.ee_series.shape == (201,)
    assert np.all(rec.density_series.sum(axis=1) == pytest.approx(8.0, abs=1e-8))


def test_validate_correlation_fails_a_spectrum_that_is_not_finite():
    C = 0.5 * np.eye(4)
    C[0, 1] = np.nan
    res = validate_correlation(C, 2)
    assert res["spectrum_range"] == np.inf  # max() over NaN eigenvalues would give 0.0
    assert not res["ok"]


def test_density_profile_clamps_and_sums():
    state = init_z2_state(12)
    C = correlation_matrix(state)
    dens = density_profile(C)
    assert dens.min() >= 0.0 and dens.max() <= 1.0
    assert dens.sum() == pytest.approx(6.0, abs=1e-12)


def test_trajectory_hermitian_quench_reaches_high_entropy():
    rec = run_trajectory(ModelParams(0.0, 0.0, 32), Schedule(dt=10.0, steps=400))
    assert rec.ee_series[0] == pytest.approx(0.0, abs=1e-9)
    assert rec.ee_series[-1] > 2.0


def test_trajectory_skin_regime_forms_domain_wall():
    rec = run_trajectory(ModelParams(-0.5, 0.001, 64), Schedule(dt=10.0, steps=1500))
    dens = density_profile(rec.final_correlation)
    # particles pile on the low-potential edge: filled block, then empty block
    assert np.all(dens[:24] > 0.95)
    assert np.all(dens[40:] < 0.05)

    # the block profile keeps subsystem entropies near zero away from the wall
    prof = entropy_profile(rec.final_correlation)
    away = prof[np.abs(prof[:, 0] - 32) > 12, 1]
    near = prof[np.abs(prof[:, 0] - 32) <= 4, 1]
    assert np.max(away) < 0.2
    assert np.max(near) > 2 * np.max(away)

    # such a profile is nothing like the logarithmic critical form
    fit = cft_log_fit(prof, 64)
    assert fit.rms_residual > 0.1 * np.max(prof[:, 1])


def test_trajectory_deep_tilt_freezes_initial_pattern():
    rec = run_trajectory(ModelParams(-0.5, 20.0, 32), Schedule(dt=10.0, steps=600))
    dens = density_profile(rec.final_correlation)
    assert np.max(np.abs(dens - np.array([0.0, 1.0] * 16))) < 0.05
    assert steady_state_entropy(rec) < 0.05


def test_trajectory_early_stop_plateau():
    sched = Schedule(dt=10.0, steps=4000, early_stop=True)
    rec = run_trajectory(ModelParams(-0.5, 5.0, 32), sched)
    assert rec.converged
    assert rec.steps < 4000
    assert rec.ee_series.shape == (rec.steps + 1,)
    assert rec.density_steps[-1] == rec.steps


def test_steady_entropy_grows_with_size_in_critical_window():
    # growth with L inside the finite-size critical window
    values = []
    for L in (32, 64):
        rec = run_trajectory(ModelParams(-0.5, 0.1, L), Schedule(dt=10.0, steps=3000))
        values.append(steady_state_entropy(rec))
    assert values[1] > values[0] + 0.1


def test_periodic_boundary_runs():
    rec = run_trajectory(
        ModelParams(-0.5, 0.001, 16, Boundary.PERIODIC), Schedule(dt=10.0, steps=300)
    )
    assert validate_correlation(rec.final_correlation, 8)["ok"]
    assert rec.ee_series[-1] > 0.5


def test_on_sample_callback_sees_every_stride():
    seen = []
    run_trajectory(
        ModelParams(0.0, 0.0, 8),
        Schedule(dt=1.0, steps=100, sample_stride=25),
        on_sample=lambda step, state, C: seen.append(step),
    )
    assert seen == [0, 25, 50, 75, 100]


def full_correlation_replay(params, schedule, engine="stepper") -> tuple[list, np.ndarray]:
    """Per-step half-chain entropies from the whole C, and the final C.

    The states come from `engine`: step_qr through every step, or the
    eigenbasis engine evaluated at each step.
    """
    H = propagation.build_hamiltonian(params)  # as run_trajectory builds it
    state = init_z2_state(params.length)
    if engine == "eigenbasis":
        basis, _ = propagation.eigenbasis_engine(H, state.orbitals, schedule.dt)
        advance = lambda state, n: basis.state_at(n)  # noqa: E731
    else:
        prop = make_propagator(H, schedule.dt)
        advance = lambda state, n: step_qr(state, prop)  # noqa: E731
    ee = [half_chain_entropy(correlation_matrix(state))]
    for n in range(1, schedule.steps + 1):
        state = advance(state, n)
        ee.append(half_chain_entropy(correlation_matrix(state)))
    return ee, correlation_matrix(state)


@pytest.mark.parametrize("gamma,delta,L,boundary,engine", [
    (-0.5, 0.1, 8, Boundary.OPEN, "eigenbasis"),
    (-0.5, 0.1, 32, Boundary.OPEN, "stepper"),
    (-0.5, 0.1, 64, Boundary.OPEN, "stepper"),
    (-0.5, 0.001, 8, Boundary.PERIODIC, "eigenbasis"),
    (-0.5, 0.001, 32, Boundary.PERIODIC, "eigenbasis"),
    (-0.5, 0.001, 64, Boundary.PERIODIC, "eigenbasis"),
    # past the ring's real-spectrum threshold R is ill-conditioned
    (-0.5, 0.3, 64, Boundary.PERIODIC, "stepper"),
    # ill-conditioned: wrong against high-precision oracles, but the orbital
    # entropy must still reproduce the whole-C values bit for bit
    (-0.5, 0.001, 96, Boundary.OPEN, "stepper"),
])
def test_trajectory_entropy_equals_full_correlation_replay(gamma, delta, L, boundary, engine):
    params = ModelParams(gamma, delta, L, boundary)
    schedule = Schedule(dt=10.0, steps=150, sample_stride=40)
    rec = run_trajectory(params, schedule)
    assert rec.engine == engine
    ee, C = full_correlation_replay(params, schedule, engine)
    assert rec.ee_series.tolist() == ee
    assert np.array_equal(rec.final_correlation, C)


@pytest.mark.parametrize("delta,L", [(0.001, 16), (0.001, 32), (0.001, 64), (0.05, 16)])
def test_eigenbasis_engine_matches_the_stepper(delta, L):
    params = ModelParams(-0.5, delta, L, Boundary.PERIODIC)
    schedule = Schedule(dt=10.0, steps=300, sample_stride=50)
    rec = run_trajectory(params, schedule)
    assert rec.engine == "eigenbasis"
    assert rec.eigenbasis_cond <= propagation.EIGENBASIS_COND_MAX
    ee, C = full_correlation_replay(params, schedule)
    assert np.isfinite(rec.ee_series).all()
    assert np.max(np.abs(rec.ee_series - ee)) < 1e-9
    assert np.max(np.abs(rec.final_correlation - C)) < 1e-9


def test_eigenbasis_engine_visits_only_the_steps_read(monkeypatch):
    times = []
    original = propagation.EigenbasisEngine.state_at

    def counting(self, n):
        times.append(n)
        return original(self, n)

    monkeypatch.setattr(propagation.EigenbasisEngine, "state_at", counting)
    schedule = Schedule(dt=10.0, steps=1000, sample_stride=50)
    rec = run_trajectory(ModelParams(-0.5, 0.001, 16, Boundary.PERIODIC), schedule,
                         entropy_from=900)
    formed = 1000 + 1 - propagation.PLATEAU_SPAN  # converged reads this window
    assert times == sorted({*range(50, 1001, 50), *range(formed, 1001)})
    assert np.isnan(rec.ee_series[1:formed]).all() and np.isfinite(rec.ee_series[formed:]).all()


def _singular_top_block(params):
    # diagonal H whose growing modes sit on the empty sites: R = 1 and Y_T = 0
    growth = (np.arange(params.length) % 2 == 0).astype(float)
    return np.diag(params.delta * np.arange(1, params.length + 1) + 1j * growth)


def _failing_eig(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("module,name,fake", [
    (propagation, "build_hamiltonian", _singular_top_block),
    (np.linalg, "eig", _failing_eig),
], ids=["singular_top_block", "eig_raises"])
def test_eigenbasis_failures_fall_back_to_the_stepper(monkeypatch, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    params = ModelParams(-0.5, 0.001, 16, Boundary.PERIODIC)
    schedule = Schedule(dt=10.0, steps=120, sample_stride=40)
    rec = run_trajectory(params, schedule)
    assert (rec.engine, rec.eigenbasis_cond) == ("stepper", float("inf"))
    ee, C = full_correlation_replay(params, schedule)
    assert rec.ee_series.tolist() == ee
    assert np.array_equal(rec.final_correlation, C)


@pytest.mark.parametrize("delta,boundary", [(0.1, Boundary.OPEN), (0.001, Boundary.PERIODIC)])
@pytest.mark.parametrize("entropy_from,early_stop,formed_from", [
    (0, False, 0), (200, False, 200),
    # the last PLATEAU_SPAN = 260 of the 601 entries are always formed, for converged
    (500, False, 341), (10 ** 6, False, 341),
    (10 ** 6, True, 0),  # the plateau stop reads the series as it grows
])
def test_entropy_from_leaves_every_formed_entry_and_the_state_bit_identical(
        delta, boundary, entropy_from, early_stop, formed_from):
    params = ModelParams(-0.5, delta, 16, boundary)
    schedule = Schedule(dt=10.0, steps=600, sample_stride=50, early_stop=early_stop)
    full = run_trajectory(params, schedule)
    part = run_trajectory(params, schedule, entropy_from=entropy_from)
    assert np.isnan(part.ee_series[:formed_from]).all()
    assert part.ee_series[formed_from:].tolist() == full.ee_series[formed_from:].tolist()
    assert np.isfinite(full.ee_series).all() and part.steps == full.steps
    assert part.converged == full.converged
    assert np.array_equal(part.density_steps, full.density_steps)
    assert np.array_equal(part.density_series, full.density_series)
    assert np.array_equal(part.final_correlation, full.final_correlation)


@pytest.mark.parametrize("steps,stride,early_stop", [
    (130, 25, False), (125, 25, False), (4000, 70, True),
])
def test_correlation_matrix_formed_only_at_density_samples(monkeypatch, steps, stride,
                                                           early_stop):
    times = []
    original = propagation.correlation_matrix

    def counting(state):
        times.append(state.time)
        return original(state)

    monkeypatch.setattr(propagation, "correlation_matrix", counting)
    schedule = Schedule(dt=10.0, steps=steps, sample_stride=stride, early_stop=early_stop)
    rec = run_trajectory(ModelParams(-0.5, 5.0 if early_stop else 0.1, 32), schedule)
    if early_stop:
        assert rec.converged and rec.steps < steps
    n_samples = len(rec.density_steps)
    assert n_samples <= len(times) <= n_samples + 1
    assert times[-1] == rec.steps * 10.0


@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", -10.0), ("steps", 0), ("steps", -1), ("sample_stride", 0),
])
def test_schedule_rejects_invalid_settings(field, value):
    with pytest.raises(ValueError, match="dt > 0, steps >= 1, sample_stride >= 1"):
        Schedule(**{field: value})


@pytest.mark.parametrize("gamma,delta,L,boundary,steps,stops", [
    (-0.5, 5.0, 32, Boundary.OPEN, 4000, True),
    (-0.5, 0.001, 16, Boundary.PERIODIC, 4000, True),
    # flat at step 350, not at 400 or 500, flat again at 600: the run stops at 600
    (-0.5, 1.0, 24, Boundary.OPEN, 4000, True),
    # flat at steps 450 and 950 only, between checks: the run uses its whole budget
    (-0.5, 1.75, 16, Boundary.OPEN, 1050, False),
])
def test_early_stop_at_first_plateau_window(gamma, delta, L, boundary, steps, stops):
    window = propagation.PLATEAU_WINDOW
    params = ModelParams(gamma, delta, L, boundary)
    rec = run_trajectory(params, Schedule(dt=10.0, steps=steps, early_stop=True))
    assert (rec.steps < steps) == stops
    # the full run ends between checks, where converged reads the whole series
    full = run_trajectory(params, Schedule(dt=10.0, steps=rec.steps + 2 * window + 50))
    ee = full.ee_series.tolist()
    first = next((n for n in range(window, len(ee), window)
                  if propagation._tail_plateau(ee[:n + 1])), None)
    assert rec.steps == (first if first is not None and first <= steps else steps)
    assert rec.ee_series.tolist() == ee[:rec.steps + 1]
    for r in (rec, full):
        assert r.converged == propagation._tail_plateau(r.ee_series.tolist())


def test_trajectory_invariants_match_per_block_entropies():
    rec = run_trajectory(ModelParams(-0.5, 0.15, 16), Schedule(dt=10.0, steps=120,
                                                               sample_stride=30))
    C = rec.final_correlation
    res = trajectory_invariants(C, rec.density_series, rec.ee_series, 16)
    assert list(res) == ["hermiticity", "idempotency", "trace", "spectrum_range",
                         "density_sum", "purity_symmetry", "ee_nonnegative"]
    assert max(res.values()) < 1e-8
    purity = max(abs(subsystem_entropy(C, range(1, l + 1))
                     - subsystem_entropy(C, range(l + 1, 17))) for l in range(1, 16))
    assert res["purity_symmetry"] == purity
    assert res["density_sum"] == float(np.max(np.abs(rec.density_series.sum(axis=1) - 8)))

    # a mixed state (C scaled by 0.9) breaks idempotency, trace and purity symmetry
    bad = trajectory_invariants(0.9 * C, rec.density_series, -rec.ee_series, 16)
    assert bad["idempotency"] > 1e-3
    assert bad["trace"] == pytest.approx(0.8, abs=1e-9)
    assert bad["purity_symmetry"] > 1e-3
    assert bad["ee_nonnegative"] == pytest.approx(rec.ee_series.max())
