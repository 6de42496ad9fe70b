import numpy as np
import pytest

from starkchain import (
    Boundary,
    ModelParams,
    build_hamiltonian,
    effective_from_jumps,
    j_left,
    j_right,
    jump_consistency_report,
)


def test_two_site_open_matrix():
    H = build_hamiltonian(ModelParams(gamma=0.5, delta=1.0, length=2)).matrix
    assert np.allclose(H, [[1.0, -0.5], [-1.5, 2.0]])


def test_hermitian_limit():
    H = build_hamiltonian(ModelParams(gamma=0.0, delta=0.0, length=3)).matrix
    expected = np.array([[0, -1, 0], [-1, 0, -1], [0, -1, 0]], dtype=complex)
    assert np.array_equal(H, expected)
    assert np.allclose(H, H.conj().T)


def test_periodic_wrap_entries():
    H = build_hamiltonian(
        ModelParams(gamma=-0.5, delta=0.1, length=4, boundary=Boundary.PERIODIC)
    ).matrix
    assert H[3, 0] == j_left(-0.5) == -1.5
    assert H[0, 3] == j_right(-0.5) == -0.5
    # wrap apart, identical to the open matrix
    H_open = build_hamiltonian(ModelParams(gamma=-0.5, delta=0.1, length=4)).matrix
    H_no_wrap = H.copy()
    H_no_wrap[3, 0] = 0
    H_no_wrap[0, 3] = 0
    assert np.array_equal(H_no_wrap, H_open)


@pytest.mark.parametrize("gamma", [0.0, 0.3, -0.7, 1.0, -1.0, 2.5])
@pytest.mark.parametrize("delta,length,bc", [
    (0.0, 6, Boundary.OPEN), (0.15, 9, Boundary.OPEN), (5.0, 12, Boundary.PERIODIC),
])
def test_band_structure_and_trace(gamma, delta, length, bc):
    H = build_hamiltonian(ModelParams(gamma, delta, length, bc)).matrix
    assert np.allclose(np.diagonal(H, 1), j_left(gamma))
    assert np.allclose(np.diagonal(H, -1), j_right(gamma))
    assert abs(np.trace(H) - delta * length * (length + 1) / 2) < 1e-12
    wrap = {(length - 1, 0), (0, length - 1)} if bc is Boundary.PERIODIC else set()
    for i in range(length):
        for j in range(length):
            if abs(i - j) > 1 and (i, j) not in wrap:
                assert H[i, j] == 0


@pytest.mark.parametrize("gamma", [0.2, -0.8, 1.3])
def test_gamma_flip_transposes_hopping(gamma):
    p_plus = ModelParams(gamma, 0.7, 10)
    p_minus = ModelParams(-gamma, 0.7, 10)
    assert np.array_equal(
        build_hamiltonian(p_plus).matrix, build_hamiltonian(p_minus).matrix.T
    )


def test_length_bounds():
    with pytest.raises(ValueError, match=">= 2"):
        ModelParams(0.0, 0.0, 1)
    with pytest.raises(ValueError, match=">= 3"):
        ModelParams(0.0, 0.0, 2, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="delta"):
        ModelParams(0.0, -0.1, 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gamma_and_delta_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(bad, 0.1, 4)
    with pytest.raises(ValueError, match="finite"):
        ModelParams(-0.5, bad, 4)


def test_jump_construction_matches_hermitian_chain_at_gamma_zero():
    params = ModelParams(0.0, 0.3, 8)
    assert np.array_equal(
        effective_from_jumps(params).matrix, build_hamiltonian(params).matrix
    )


def test_jump_construction_two_sites():
    # symbolic expansion of the single loss term on two sites
    H = effective_from_jumps(ModelParams(0.5, 0.0, 2)).matrix
    assert np.allclose(H[0, 1], -0.75)
    assert np.allclose(H[1, 0], -1.25)
    assert np.allclose(np.diagonal(H), [-0.25j, -0.25j])


def test_jump_construction_three_sites():
    # the middle site appears in two loss terms, the edges in one
    H = effective_from_jumps(ModelParams(0.5, 0.0, 3)).matrix
    assert np.allclose(np.diagonal(H).imag, [-0.25, -0.5, -0.25])
    assert np.allclose(np.diagonal(H, 1), -0.75)
    assert np.allclose(np.diagonal(H, -1), -1.25)


def test_jump_construction_rejects_periodic():
    with pytest.raises(ValueError, match="open"):
        effective_from_jumps(ModelParams(0.5, 0.0, 6, Boundary.PERIODIC))


def test_consistency_report_gamma_zero():
    rep = jump_consistency_report(ModelParams(0.0, 0.2, 12))
    assert rep.gamma_effective == 0.0
    assert rep.bulk_loss == 0.0
    assert rep.bulk_loss_spread == 0.0
    assert rep.edge_deviation == 0.0
    assert rep.uniform_shift_residual == 0.0
    assert rep.hermitian_hopping_residual == 0.0


def test_consistency_report_half_asymmetry():
    rep = jump_consistency_report(ModelParams(0.5, 0.0, 16))
    assert rep.gamma_effective == pytest.approx(0.25, abs=1e-12)
    assert rep.asymmetry_ratio == pytest.approx(0.5, abs=1e-12)
    assert rep.bulk_loss == pytest.approx(-0.5, abs=1e-12)
    assert rep.bulk_loss_spread < 1e-12
    assert rep.edge_deviation == pytest.approx(0.25, abs=1e-12)
    assert rep.uniform_shift_residual > 0  # edges break uniformity
    assert rep.hermitian_hopping_residual < 1e-12
