"""Single-particle Hamiltonian of the nonreciprocal tilted chain.

The model is a one-dimensional spinless free-fermion chain with asymmetric
(Hatano-Nelson) nearest-neighbour hopping and a linear on-site potential
(Wannier-Stark tilt).  The hopping amplitudes are

    J_L = -(1 - gamma)   (amplitude of the c_j^dag c_{j+1} term)
    J_R = -(1 + gamma)   (amplitude of the c_{j+1}^dag c_j term)

and the tilt is F_j = delta * j with 1-based site index j.  Sites are stored
0-based; the tilt is not re-centered, so the diagonal carries delta * (1..L).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Boundary(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"


def j_left(gamma: float) -> float:
    """Hopping amplitude multiplying c_j^dag c_{j+1} (moves a particle left)."""
    return -(1.0 - gamma)


def j_right(gamma: float) -> float:
    """Hopping amplitude multiplying c_{j+1}^dag c_j (moves a particle right)."""
    return -(1.0 + gamma)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one chain: nonreciprocity gamma, tilt delta, size, boundary.

    gamma and delta must be finite, and delta >= 0.  gamma is otherwise
    unrestricted; |gamma| = 1 makes one hopping vanish and is still a valid
    chain.  Evenness of the length is required only when the half-filled
    alternating initial state is built, not here.
    """

    gamma: float
    delta: float
    length: int
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not (np.isfinite(self.gamma) and np.isfinite(self.delta)):
            raise ValueError(f"gamma and delta must be finite, got gamma={self.gamma}, "
                             f"delta={self.delta}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        min_len = 2 if self.boundary is Boundary.OPEN else 3
        if self.length < min_len:
            raise ValueError(
                f"length must be >= {min_len} under {self.boundary.value} "
                f"boundary, got {self.length}"
            )


@dataclass(frozen=True)
class Hamiltonian:
    """L x L single-particle matrix together with the parameters that built it."""

    matrix: np.ndarray
    params: ModelParams


def as_matrix(h) -> np.ndarray:
    """Accept a Hamiltonian or a bare square array and return the array."""
    m = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def build_hamiltonian(params: ModelParams) -> Hamiltonian:
    """Build the single-particle matrix of the nonreciprocal tilted chain.

    The super-diagonal holds J_L, the sub-diagonal J_R, the diagonal the tilt
    delta * j (1-based j).  Under periodic boundary the wrap follows the bulk
    pattern: entry (L, 1) = J_L and (1, L) = J_R.  The matrix is Hermitian
    exactly when gamma = 0.
    """
    L = params.length
    jl = j_left(params.gamma)
    jr = j_right(params.gamma)
    H = np.zeros((L, L), dtype=complex)
    idx = np.arange(L - 1)
    H[idx, idx + 1] = jl
    H[idx + 1, idx] = jr
    H[np.arange(L), np.arange(L)] = params.delta * np.arange(1, L + 1)
    if params.boundary is Boundary.PERIODIC:
        H[L - 1, 0] = jl
        H[0, L - 1] = jr
    return Hamiltonian(H, params)


def effective_from_jumps(params: ModelParams) -> Hamiltonian:
    """Single-particle matrix of H - (i/2) sum_k A_k^dag A_k for the loss chain.

    H is the Hermitian chain (hopping -1, tilt delta * j) and the one-body
    collective loss operators are A_j = sqrt(|gamma|) (c_j + i sgn(gamma)
    c_{j+1}) for j = 1..L-1, so no operator references a site beyond the open
    chain.  Expanding A_j^dag A_j gives hopping corrections of +-gamma/2 and an
    imaginary on-site loss of -i|gamma| in the bulk and -i|gamma|/2 on the two
    edge sites (edge sites enter a single loss term).
    """
    if params.boundary is not Boundary.OPEN:
        raise ValueError("jump-operator construction is defined for the open chain only")
    L = params.length
    g = params.gamma
    H = np.zeros((L, L), dtype=complex)
    idx = np.arange(L - 1)
    H[idx, idx + 1] = -1.0
    H[idx + 1, idx] = -1.0
    H[np.arange(L), np.arange(L)] = params.delta * np.arange(1, L + 1)
    if g != 0.0:
        # -(i/2) A^dag A = -(i/2)|g|(n_j + n_{j+1}) + (g/2)(c_j^dag c_{j+1} - h.c.)
        H[idx, idx + 1] += 0.5 * g
        H[idx + 1, idx] += -0.5 * g
        loss = np.full(L, -1j * abs(g))
        loss[0] = -0.5j * abs(g)
        loss[-1] = -0.5j * abs(g)
        H[np.arange(L), np.arange(L)] += loss
    return Hamiltonian(H, params)


@dataclass(frozen=True)
class ConsistencyReport:
    """Comparison of the jump-built chain against the directly built one.

    The jump construction reproduces the asymmetric chain with hopping
    asymmetry gamma/2 rather than gamma, plus an on-site loss that is uniform
    (-i|gamma|) in the bulk and halved on the edges.  This report documents
    those conventions; it does not assert equality.
    """

    gamma: float
    gamma_effective: float       # measured hopping asymmetry of the jump-built matrix
    asymmetry_ratio: float       # gamma_effective / gamma (0 when gamma = 0)
    bulk_loss: float             # mean Im of the bulk diagonal (expected -|gamma|)
    bulk_loss_spread: float      # max deviation of Im diagonal within the bulk
    edge_deviation: float        # Im(edge diagonal) - Im(bulk diagonal)
    uniform_shift_residual: float  # max |Im diag - best-fit uniform shift|
    hermitian_hopping_residual: float  # Hermitian hopping part vs the gamma=0 chain


def jump_consistency_report(params: ModelParams) -> ConsistencyReport:
    """Quantify how the jump-built chain relates to the directly built one."""
    if params.boundary is not Boundary.OPEN:
        raise ValueError("consistency report is defined for the open chain only")
    L = params.length
    He = effective_from_jumps(params).matrix

    sup = np.diagonal(He, 1)
    sub = np.diagonal(He, -1)
    gamma_eff = float(np.mean(sup - sub).real / 2.0)
    ratio = gamma_eff / params.gamma if params.gamma != 0.0 else 0.0

    imdiag = np.diagonal(He).imag
    bulk = imdiag[1:-1] if L > 2 else imdiag
    bulk_loss = float(np.mean(bulk))
    bulk_spread = float(np.max(np.abs(bulk - bulk_loss)))
    edge_dev = float(imdiag[0] - bulk_loss)
    shift = float(np.mean(imdiag))
    shift_residual = float(np.max(np.abs(imdiag - shift)))

    herm_hop = 0.5 * (sup + np.conj(sub))
    herm_residual = float(np.max(np.abs(herm_hop - (-1.0))))

    return ConsistencyReport(
        gamma=params.gamma,
        gamma_effective=gamma_eff,
        asymmetry_ratio=ratio,
        bulk_loss=bulk_loss,
        bulk_loss_spread=bulk_spread,
        edge_deviation=edge_dev,
        uniform_shift_residual=shift_residual,
        hermitian_hopping_residual=herm_residual,
    )
