"""Entanglement observables of free-fermion correlation matrices.

All entropies are von Neumann entropies in nats (natural logarithm).  For a
Slater-determinant state the reduced density matrix of a site subset A is
Gaussian and fully determined by the principal submatrix C^A of the two-point
correlation matrix; each eigenvalue lambda_k of C^A is an independent mode
occupation contributing the binary entropy of lambda_k.

Site indices in the public interface are 1-based (matching the lattice
convention used throughout); they are mapped to 0-based storage internally.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

CLAMP_EPS = 1e-12


def validate_sites(sites: Sequence[int], length: int) -> np.ndarray:
    """Check a 1-based site list: nonempty, strictly increasing, within [1, L]."""
    idx = np.asarray(sites, dtype=int)
    if idx.size == 0:
        raise ValueError("subsystem must be nonempty")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("subsystem sites must be strictly increasing")
    if idx[0] < 1 or idx[-1] > length:
        raise ValueError(f"subsystem sites must lie in [1, {length}], got {idx[0]}..{idx[-1]}")
    return idx - 1


def binary_entropy(occupations: np.ndarray) -> float:
    """Sum of mode entropies -x ln x - (1-x) ln(1-x), occupations clamped."""
    lam = np.clip(np.real(occupations), CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(-np.sum(lam * np.log(lam) + (1.0 - lam) * np.log(1.0 - lam)))


def block_entropy(block: np.ndarray) -> float:
    """Von Neumann entropy (nats) of a principal block C^A of a correlation matrix.

    The block is Hermitized and its eigenvalues are clamped to [eps, 1-eps]
    with eps = 1e-12 before the logarithms, which absorbs modes numerically at
    the boundary of [0, 1].
    """
    lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    return binary_entropy(lam)


def subsystem_entropy(C: np.ndarray, sites: Sequence[int]) -> float:
    """Von Neumann entropy (nats) of the sites listed in `sites` (1-based)."""
    C = np.asarray(C)
    idx = validate_sites(sites, C.shape[0])
    return block_entropy(C[np.ix_(idx, idx)])


def _half(length: int) -> int:
    if length < 2:
        raise ValueError("subsystem must be nonempty")
    return length // 2


def half_chain_entropy(C: np.ndarray) -> float:
    """Entropy of the contiguous left half, sites 1..L/2."""
    C = np.asarray(C)
    h = _half(C.shape[0])
    return block_entropy(C[:h, :h])


def half_chain_entropy_from_orbitals(Q: np.ndarray) -> float:
    """Half-chain entropy of the Slater state with orthonormal orbital columns Q.

    Only the left L/2 rows Q_a enter: the half-chain block of C = (Q Q^dag)^T
    is (Q_a Q_a^dag)^T, so the L x L matrix C is never formed.  The result
    equals half_chain_entropy(C) bit for bit.
    """
    Q = np.asarray(Q)
    Qa = Q[: _half(Q.shape[0])]
    return block_entropy((Qa @ Qa.conj().T).T)


def mutual_information(C: np.ndarray, a_sites: Sequence[int], b_sites: Sequence[int]) -> float:
    """I(A:B) = S_A + S_B - S_{A u B} for disjoint site sets (1-based)."""
    a = set(a_sites)
    b = set(b_sites)
    if a & b:
        raise ValueError(f"subsystems overlap on sites {sorted(a & b)}")
    merged = sorted(a | b)
    return (
        subsystem_entropy(C, sorted(a))
        + subsystem_entropy(C, sorted(b))
        - subsystem_entropy(C, merged)
    )


def standard_probe_regions(length: int) -> tuple[list[int], list[int]]:
    """Two non-adjacent probe regions of length L/8 each, mirror-symmetric.

    A covers sites L/8+1 .. L/4 and B covers 3L/4+1 .. 7L/8 (1-based), keeping
    both away from the chain ends and from the central cut.
    """
    if length % 8 != 0:
        raise ValueError(f"probe regions need length divisible by 8, got {length}")
    l8 = length // 8
    a = list(range(l8 + 1, 2 * l8 + 1))
    b = list(range(6 * l8 + 1, 7 * l8 + 1))
    return a, b


def entropy_profile(C: np.ndarray) -> np.ndarray:
    """Entropies of all left blocks: array of (l, S_l) rows for l = 1..L-1."""
    C = np.asarray(C)
    L = C.shape[0]
    out = np.empty((L - 1, 2))
    for ell in range(1, L):
        out[ell - 1, 0] = ell
        out[ell - 1, 1] = block_entropy(C[:ell, :ell])
    return out


def gaussian_smooth(series: Sequence[float], sigma: float) -> np.ndarray:
    """Smooth a series with a truncated unit-sum Gaussian kernel.

    The kernel exp(-(n/sigma)^2 / 2) is truncated at |n| <= ceil(4 sigma) and
    renormalized; near the edges the normalization runs over the in-range
    support only, so a constant series is returned unchanged.
    """
    s = np.asarray(series, dtype=float)
    if s.size == 0:
        raise ValueError("series must be nonempty")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    m = int(np.ceil(4.0 * sigma))
    if m == 0 or s.size == 1:
        return s.copy()
    n = np.arange(-m, m + 1)
    kernel = np.exp(-0.5 * (n / sigma) ** 2)
    # "full" then the centred slice: mode="same" returns max(len) entries, so a
    # series shorter than the kernel would come back with the kernel's length.
    num = np.convolve(s, kernel, "full")[m:m + s.size]
    den = np.convolve(np.ones_like(s), kernel, "full")[m:m + s.size]
    return num / den


def steady_state_entropy(record, sigma: float = 20.0, tail_fraction: float = 0.25) -> float:
    """Steady value of a half-chain entropy series: smooth, then average a tail.

    `record` may be a trajectory record (its ee_series is used) or a bare
    series.  The series is smoothed with `gaussian_smooth` and the mean over
    the final `tail_fraction` of entries is returned.
    """
    series = np.asarray(getattr(record, "ee_series", record), dtype=float)
    if series.size == 0:
        raise ValueError("empty entropy series")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    smooth = gaussian_smooth(series, sigma)
    n_tail = max(1, int(round(tail_fraction * smooth.size)))
    return float(np.mean(smooth[-n_tail:]))
