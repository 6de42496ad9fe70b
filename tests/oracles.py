"""Independent reference implementations used to pin expected values.

These deliberately avoid the code paths they check: entropies come from
brute-force many-body linear algebra in the full 2^L Fock space, evolution
comes from a dense matrix exponential applied in one shot, the periodic
chain's long-time state comes from its eigensystem, with no time stepping,
and the collapse objective is scored point by point in a plain double loop.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.linalg

from starkchain import CollapseError


def creation_operators(length: int) -> list[np.ndarray]:
    """Dense Jordan-Wigner creation operators; site 1 is the leftmost factor."""
    cdag = np.array([[0.0, 0.0], [1.0, 0.0]])
    zed = np.diag([1.0, -1.0])
    eye = np.eye(2)
    ops = []
    for site in range(length):
        op = np.array([[1.0]])
        for k in range(length):
            if k < site:
                op = np.kron(op, zed)
            elif k == site:
                op = np.kron(op, cdag)
            else:
                op = np.kron(op, eye)
        ops.append(op)
    return ops


def fock_state_from_orbitals(orbitals: np.ndarray) -> np.ndarray:
    """Many-body vector of the Slater determinant with the given orbital columns."""
    L, N = orbitals.shape
    cdag = creation_operators(L)
    psi = np.zeros(2**L, dtype=complex)
    psi[0] = 1.0
    for k in range(N):
        op = sum(orbitals[i, k] * cdag[i] for i in range(L))
        psi = op @ psi
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("orbitals produced a null state")
    return psi / norm


def fock_entropy(psi: np.ndarray, n_left: int, length: int) -> float:
    """Von Neumann entropy (nats) of sites 1..n_left from the full state vector."""
    M = psi.reshape(2**n_left, 2 ** (length - n_left))
    sv = np.linalg.svd(M, compute_uv=False)
    p = np.clip(sv**2, 1e-300, None)
    p = p[p > 1e-30]
    return float(-np.sum(p * np.log(p)))


def fock_correlation(psi: np.ndarray, length: int) -> np.ndarray:
    """C_ij = <psi| c_i^dag c_j |psi> computed with explicit operators."""
    cdag = creation_operators(length)
    C = np.empty((length, length), dtype=complex)
    for i in range(length):
        for j in range(length):
            C[i, j] = psi.conj() @ (cdag[i] @ cdag[j].conj().T @ psi)
    return C


def exact_evolution_ee(H: np.ndarray, orbitals0: np.ndarray, dt: float,
                       steps: int) -> np.ndarray:
    """Half-chain entropy series from one-shot exp(-i H t) evolution.

    No per-step QR: the orbital matrix is propagated by the full exponential
    and orthonormalized once, at readout, for each time.
    """
    ees = []
    for n in range(steps + 1):
        M = scipy.linalg.expm(-1j * H * (dt * n)) @ orbitals0
        ees.append(span_half_chain_entropy(M))
    return np.asarray(ees)


def span_half_chain_entropy(orbitals: np.ndarray) -> float:
    """Half-chain entropy (nats) of the Slater state spanned by the columns.

    The columns need not be orthonormal: they are orthonormalized here by QR.
    """
    L = orbitals.shape[0]
    Q, _ = np.linalg.qr(orbitals)
    C = (Q @ Q.conj().T).T
    sub = C[: L // 2, : L // 2]
    lam = np.clip(np.linalg.eigvalsh(0.5 * (sub + sub.conj().T)), 1e-12, 1 - 1e-12)
    return float(-np.sum(lam * np.log(lam) + (1 - lam) * np.log(1 - lam)))


def dominant_mode_fillings(H, n_particles: int, tol: float = 1e-9) -> list[float]:
    """Half-chain entropies of the n-mode states with the largest Im E.

    Under no-jump evolution every right eigenmode of H grows as e^{Im E t}, so
    the long-time Slater state fills the n_particles modes with the largest
    Im E, provided the initial orbitals overlap them.  The modes whose Im E
    lies strictly above the n-th level (by more than tol) are always filled.
    The remaining particles go into the level itself, which may be degenerate;
    one entropy is returned for each way of filling it from its eigenvectors.
    When the level is not degenerate the list has a single entry.
    """
    M = np.asarray(getattr(H, "matrix", H))
    energies, vectors = scipy.linalg.eig(M)
    order = np.argsort(-energies.imag, kind="stable")
    im = energies.imag[order]
    vectors = vectors[:, order]
    level = im[n_particles - 1]
    above = np.flatnonzero(im > level + tol)
    degenerate = np.flatnonzero(np.abs(im - level) <= tol)
    n_free = n_particles - above.size
    return [
        span_half_chain_entropy(vectors[:, [*above, *pick]])
        for pick in combinations(degenerate, n_free)
    ]


def random_slater_orbitals(length: int, n_particles: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Random orthonormal L x N orbital matrix (Haar via QR of a Ginibre draw)."""
    X = rng.normal(size=(length, n_particles)) + 1j * rng.normal(size=(length, n_particles))
    Q, _ = np.linalg.qr(X)
    return Q


def loop_collapse_quality(data, delta_c: float, nu: float, zeta: float) -> float:
    """The collapse objective as a Python loop over points and other sizes.

    `starkchain.scaling.collapse_quality` computes the same number in one
    batched pass and must match this function bit for bit, errors included.
    """
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    sizes = data.sizes.astype(float)
    x = sizes ** (1.0 / nu) * (data.deltas - delta_c)
    y = data.values * sizes ** (-zeta / nu)
    unique_sizes = np.unique(data.sizes)
    if len(unique_sizes) < 2:
        raise CollapseError("collapse undefined for fewer than 2 sizes")

    by_size = {}
    for s in unique_sizes:
        mask = data.sizes == s
        order = np.argsort(x[mask], kind="stable")
        by_size[s] = (x[mask][order], y[mask][order])

    ranges = {s: (xs[0], xs[-1]) for s, (xs, _) in by_size.items()}
    overlapping = any(
        ranges[a][0] <= ranges[b][1] and ranges[b][0] <= ranges[a][1]
        for i, a in enumerate(unique_sizes)
        for b in unique_sizes[i + 1:]
    )
    if not overlapping:
        raise CollapseError("no two sizes overlap in rescaled x; collapse undefined")

    total = 0.0
    for p in range(len(data)):
        estimates = []
        for s in unique_sizes:
            if s == data.sizes[p]:
                continue
            xs, ys = by_size[s]
            if len(xs) == 1:
                estimates.append(ys[0])
                continue
            k = min(3, len(xs))  # the 3 nearest points of the other size
            near = np.argpartition(np.abs(xs - x[p]), k - 1)[:k]
            near.sort()
            estimates.append(float(np.interp(x[p], xs[near], ys[near])))
        r = y[p] - float(np.mean(estimates))
        total += r * r
    return total / len(data)
