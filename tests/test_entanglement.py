import numpy as np
import pytest

from starkchain import (
    ModelParams,
    Schedule,
    SlaterState,
    build_hamiltonian,
    correlation_matrix,
    entropy_profile,
    gaussian_smooth,
    half_chain_entropy,
    half_chain_entropy_from_orbitals,
    mutual_information,
    run_trajectory,
    standard_probe_regions,
    steady_state_entropy,
    subsystem_entropy,
)

from oracles import (
    fock_correlation,
    fock_entropy,
    fock_state_from_orbitals,
    random_slater_orbitals,
)


def test_pure_reduced_block_has_zero_entropy():
    C = np.diag([0.0, 1.0])
    assert subsystem_entropy(C, [1, 2]) == pytest.approx(0.0, abs=1e-9)


def test_single_half_filled_mode_gives_ln2():
    C = np.array([[0.5]])
    assert subsystem_entropy(C, [1]) == pytest.approx(np.log(2), abs=1e-12)


def test_entropy_bounds_per_mode():
    rng = np.random.default_rng(11)
    for _ in range(20):
        Q = random_slater_orbitals(10, 5, rng)
        C = (Q @ Q.conj().T).T
        for ell in (1, 3, 5, 9):
            s = subsystem_entropy(C, range(1, ell + 1))
            assert -1e-12 <= s <= ell * np.log(2) + 1e-8


def test_site_list_validation():
    C = np.eye(4)
    with pytest.raises(ValueError, match="nonempty"):
        subsystem_entropy(C, [])
    with pytest.raises(ValueError, match="increasing"):
        subsystem_entropy(C, [2, 2])
    with pytest.raises(ValueError, match="lie in"):
        subsystem_entropy(C, [0, 1])
    with pytest.raises(ValueError, match="lie in"):
        subsystem_entropy(C, [4, 5])


def test_ground_state_entropy_matches_fock_space_oracle():
    # half-filled hopping-chain ground state on 8 sites
    H = build_hamiltonian(ModelParams(0.0, 0.0, 8)).matrix.real
    _, vecs = np.linalg.eigh(H)
    orbitals = vecs[:, :4].astype(complex)
    C = (orbitals @ orbitals.conj().T).T
    psi = fock_state_from_orbitals(orbitals)
    for ell in range(1, 8):
        s_corr = subsystem_entropy(C, range(1, ell + 1))
        s_fock = fock_entropy(psi, ell, 8)
        assert s_corr == pytest.approx(s_fock, abs=1e-8)


def test_random_slater_states_match_fock_space_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(5):
        orbitals = random_slater_orbitals(8, 4, rng)
        C = correlation_matrix(SlaterState(orbitals))
        psi = fock_state_from_orbitals(orbitals)
        assert np.max(np.abs(C - fock_correlation(psi, 8))) < 1e-10
        for ell in (2, 4, 6):
            assert subsystem_entropy(C, range(1, ell + 1)) == pytest.approx(
                fock_entropy(psi, ell, 8), abs=1e-8
            )


def test_mutual_information_product_state_vanishes():
    C = np.diag([0.0, 1.0] * 4)
    assert mutual_information(C, [1, 2], [5, 6]) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_complement_doubles_entropy():
    rng = np.random.default_rng(7)
    Q = random_slater_orbitals(8, 4, rng)
    C = (Q @ Q.conj().T).T
    a = [1, 2, 3]
    b = [4, 5, 6, 7, 8]
    s_a = subsystem_entropy(C, a)
    assert mutual_information(C, a, b) == pytest.approx(2 * s_a, abs=1e-7)


def test_mutual_information_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        mutual_information(np.eye(6), [1, 2], [2, 3])


def test_mutual_information_nonnegative_on_random_states():
    rng = np.random.default_rng(99)
    for _ in range(10):
        Q = random_slater_orbitals(12, 6, rng)
        C = (Q @ Q.conj().T).T
        assert mutual_information(C, [1, 2, 3], [7, 8, 9]) >= -1e-8


def test_probe_regions_layout():
    a, b = standard_probe_regions(64)
    assert a == list(range(9, 17))
    assert b == list(range(49, 57))
    assert len(a) == len(b) == 8


def test_entropy_profile_product_state_and_symmetry():
    C = np.diag([0.0, 1.0] * 3)
    prof = entropy_profile(C)
    assert prof.shape == (5, 2)
    assert np.all(prof[:, 1] < 1e-9)

    rng = np.random.default_rng(3)
    Q = random_slater_orbitals(10, 5, rng)
    C = (Q @ Q.conj().T).T
    prof = entropy_profile(C)
    L = 10
    for ell, s in prof:
        s_right = subsystem_entropy(C, range(int(ell) + 1, L + 1))
        assert abs(s - s_right) < 1e-6  # global purity


def test_gaussian_smooth_constant_series():
    s = np.full(200, 1.37)
    out = gaussian_smooth(s, sigma=12.0)
    assert np.max(np.abs(out - 1.37)) < 1e-12


def test_gaussian_smooth_tiny_sigma_is_identity():
    rng = np.random.default_rng(5)
    s = rng.normal(size=64)
    out = gaussian_smooth(s, sigma=1e-6)
    assert np.max(np.abs(out - s)) < 1e-9


def test_gaussian_smooth_impulse_reproduces_kernel():
    s = np.zeros(101)
    s[50] = 1.0
    sigma = 2.0
    out = gaussian_smooth(s, sigma)
    m = int(np.ceil(4 * sigma))
    n = np.arange(-m, m + 1)
    kernel = np.exp(-0.5 * (n / sigma) ** 2)
    kernel /= kernel.sum()
    assert np.allclose(out[50 - m : 50 + m + 1], kernel, atol=1e-12)
    assert np.all(out[: 50 - m] == 0) and np.all(out[50 + m + 1 :] == 0)


def test_gaussian_smooth_preserves_length_and_edges():
    s = np.linspace(0, 1, 37)
    out = gaussian_smooth(s, sigma=4.0)
    assert out.shape == s.shape


def reference_smooth(s, sigma):
    """Per-index truncated Gaussian average over the in-range neighbours."""
    m = int(np.ceil(4.0 * sigma))
    out = []
    for i in range(len(s)):
        ks = [k for k in range(len(s)) if abs(k - i) <= m]
        w = [np.exp(-0.5 * ((i - k) / sigma) ** 2) for k in ks]
        out.append(sum(wk * s[k] for wk, k in zip(w, ks)) / sum(w))
    return np.array(out)


@pytest.mark.parametrize("n,sigma", [(31, 20.0), (100, 20.0), (160, 20.0), (5, 2.0)])
def test_gaussian_smooth_below_the_kernel_length_matches_reference(n, sigma):
    s = np.sin(np.linspace(0.0, 3.0, n)) + np.linspace(0.0, 0.5, n)
    out = gaussian_smooth(s, sigma)
    assert out.shape == s.shape
    assert np.allclose(out, reference_smooth(s, sigma), rtol=1e-12, atol=1e-13)


def test_steady_state_entropy_constant_series():
    assert steady_state_entropy(np.full(500, 0.42)) == pytest.approx(0.42, rel=1e-12)


def test_steady_state_entropy_tilt_only_trajectory():
    # pure on-site ladder (no hopping): the alternating state never entangles
    from starkchain import init_z2_state, make_propagator, step_qr
    from starkchain.entanglement import half_chain_entropy

    H = np.diag(3.0 * np.arange(1, 9)).astype(complex)
    prop = make_propagator(H, dt=10.0)
    state = init_z2_state(8)
    series = [half_chain_entropy(correlation_matrix(state))]
    for _ in range(300):
        state = step_qr(state, prop)
        series.append(half_chain_entropy(correlation_matrix(state)))
    assert steady_state_entropy(np.asarray(series)) < 1e-8


def test_steady_state_entropy_tail_fraction():
    series = np.concatenate([np.zeros(300), np.ones(700)])
    # tail well inside the flat late region
    assert steady_state_entropy(series, sigma=5.0, tail_fraction=0.2) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="tail_fraction"):
        steady_state_entropy(series, tail_fraction=0.0)


def test_half_chain_entropy_from_orbitals_equals_full_correlation():
    rng = np.random.default_rng(11)
    for L, N in [(2, 1), (8, 4), (12, 3), (33, 16), (64, 32)]:
        Q, _ = np.linalg.qr(rng.normal(size=(L, N)) + 1j * rng.normal(size=(L, N)))
        C = (Q @ Q.conj().T).T
        assert half_chain_entropy_from_orbitals(Q) == half_chain_entropy(C)
        assert half_chain_entropy(C) == subsystem_entropy(C, range(1, L // 2 + 1))
    for bad in (np.zeros((1, 1)), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="nonempty"):
            half_chain_entropy(bad)
        with pytest.raises(ValueError, match="nonempty"):
            half_chain_entropy_from_orbitals(bad)
