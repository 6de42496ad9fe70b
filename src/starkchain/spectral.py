"""Spectral diagnostics: biorthogonal eigenanalysis, Hermitization, localization.

The open nonreciprocal chain with J_L J_R > 0 is similar to a Hermitian
tridiagonal matrix via the diagonal imaginary-gauge transform, so its spectrum
is real; the gauge parameter g = ln(J_R/J_L)/2 also fixes the analytic
boundaries of the skin-effect and tilt-localized regimes.  Eigenvector
localization is quantified by the inverse-participation-ratio exponent
(fractal dimension), 1 for extended and 0 for single-site states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Boundary, Hamiltonian, as_matrix, j_left, j_right

OVERLAP_TOL = 1e-12


class BiorthogonalError(RuntimeError):
    """Left/right eigenvector pairing is too ill-conditioned to normalize."""


@dataclass(frozen=True)
class BiorthogonalSpectrum:
    """Eigenvalues with biorthonormal left/right eigenvector columns.

    Columns satisfy left_vectors[:, i]^dag @ right_vectors[:, j] = delta_ij,
    and the eigenvalues are sorted by (real part, imaginary part).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    min_overlap: float

    def evolution_operator(self, t: float) -> np.ndarray:
        """exp(-i H t) assembled from the biorthogonal mode expansion."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.right_vectors * phases) @ self.left_vectors.conj().T

    def reconstruct(self) -> np.ndarray:
        """Rebuild H as sum_i zeta_i |phi_i^R><phi_i^L|."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def biorthogonal_eigendecomposition(H) -> BiorthogonalSpectrum:
    """Eigenvalues and biorthonormalized left/right eigenvectors of H.

    The raw left/right pairs come from the same LAPACK solve (so they share an
    eigenvalue ordering); the left vectors are rescaled by their overlap with
    the right partner to enforce biorthonormality.  A minimal overlap below
    1e-12 signals a (near-)defective matrix for which this normalization is
    meaningless.
    """
    import scipy.linalg  # loaded by the first call, not at import

    M = as_matrix(H)
    w, vl, vr = scipy.linalg.eig(M, left=True, right=True)
    overlaps = np.einsum("ij,ij->j", vl.conj(), vr)
    min_overlap = float(np.min(np.abs(overlaps)))
    if min_overlap < OVERLAP_TOL:
        raise BiorthogonalError(
            f"minimal left/right eigenvector overlap {min_overlap:.3e} is below "
            f"{OVERLAP_TOL:.0e} (near-defective matrix); use a "
            "scaling-and-squaring matrix exponential instead of the mode expansion"
        )
    vl = vl / overlaps.conj()
    order = np.lexsort((w.imag, w.real))
    return BiorthogonalSpectrum(
        eigenvalues=w[order],
        right_vectors=vr[:, order],
        left_vectors=vl[:, order],
        min_overlap=min_overlap,
    )


def hermitize_similarity(H: Hamiltonian) -> tuple[np.ndarray, float]:
    """Map the open chain to its Hermitian partner by the imaginary gauge.

    Returns the symmetric tridiagonal matrix with uniform off-diagonal J' of
    magnitude sqrt(J_R J_L) (carrying the common sign of the hoppings, so the
    gamma = 0 transform is the identity) plus the unchanged tilt diagonal,
    together with the gauge parameter g = ln(J_R / J_L) / 2.  The spectrum is
    preserved.  Requires an open chain and J_L J_R > 0 (i.e. |gamma| < 1).
    """
    if not isinstance(H, Hamiltonian):
        raise TypeError("hermitize_similarity needs a Hamiltonian with parameters")
    p = H.params
    if p.boundary is not Boundary.OPEN:
        raise ValueError("imaginary gauge transform is defined for the open chain only")
    jl = j_left(p.gamma)
    jr = j_right(p.gamma)
    if jl * jr <= 0:
        raise ValueError(
            f"J_L * J_R = {jl * jr:g} <= 0 (|gamma| >= 1): gauge transform undefined"
        )
    L = p.length
    g = 0.5 * np.log(jr / jl)
    jp = jl * np.exp(g)  # = sign(J_L) sqrt(J_R J_L), exact diag(e^{jg}) similarity
    M = np.zeros((L, L))
    idx = np.arange(L - 1)
    M[idx, idx + 1] = jp
    M[idx + 1, idx] = jp
    M[np.arange(L), np.arange(L)] = p.delta * np.arange(1, L + 1)
    return M, float(g)


def fractal_dimension(eigenvector: np.ndarray) -> float:
    """IPR exponent of one state: Gamma = -ln(sum_j |psi_j|^4) / ln(L), L its length.

    The vector is normalized to unit 2-norm internally.  Gamma is 1 for a
    uniformly extended state and 0 for a single-site state.
    """
    psi = np.asarray(eigenvector, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero eigenvector has no participation ratio")
    L = len(psi)
    if L < 2:
        raise ValueError(f"need length >= 2, got {L}")
    prob = np.abs(psi / norm) ** 2
    ipr = float(np.sum(prob * prob))
    return -np.log(ipr) / np.log(L)


def average_fractal_dimension(H) -> float:
    """Mean IPR exponent over all right eigenvectors of H."""
    M = as_matrix(H)
    _, vr = np.linalg.eig(M)
    L = M.shape[0]
    prob = np.abs(vr / np.linalg.norm(vr, axis=0)) ** 2
    ipr = np.sum(prob * prob, axis=0)
    return float(np.mean(-np.log(ipr) / np.log(L)))


@dataclass(frozen=True)
class PhaseBoundaries:
    """Analytic single-particle regime boundaries of the open chain.

    delta_i marks the skin-effect/critical boundary (size-dependent) and
    delta_ii the critical/tilt-localized boundary.  g is the imaginary gauge
    parameter ln(J_R/J_L)/2; gauge_ratio = exp(g) = sqrt(J_R/J_L) is the same
    quantity as a per-site amplitude ratio, reported for convenience.
    """

    delta_i: float
    delta_ii: float
    g: float
    gauge_ratio: float


def phase_boundaries(gamma: float, length: int) -> PhaseBoundaries:
    """Evaluate delta_I = 2 e^{|g|+1} / L and delta_II = 2 e^{|g|}."""
    jl = j_left(gamma)
    jr = j_right(gamma)
    if jl * jr <= 0:
        raise ValueError(f"|gamma| must be < 1 for a finite gauge parameter, got {gamma}")
    g = 0.5 * np.log(jr / jl)
    delta_ii = 2.0 * np.exp(abs(g))
    delta_i = 2.0 * np.exp(abs(g) + 1.0) / length
    return PhaseBoundaries(
        delta_i=float(delta_i),
        delta_ii=float(delta_ii),
        g=float(g),
        gauge_ratio=float(np.exp(g)),
    )
