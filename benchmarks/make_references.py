"""Regenerate obc_references.json: high-precision half-chain entropies for obc-sweep.

    python3 benchmarks/make_references.py          # about half an hour on one core

For every (delta, L) point of the obc-sweep grid (gamma = -0.5, open chain,
dt = 10, alternating initial state on the even sites) this computes the
half-chain entropy after a few steps with mpmath, without any starkchain code.
It works in the imaginary-gauge frame: the open chain is h = S M S^-1 with
M real symmetric tridiagonal and S = diag(e^{g j}), and the initial orbitals
are single sites, so span(e^{-iht} U0) = span(S e^{-iMt} U0).  The steps are:

1. eigenvalues of M by implicit QL, eigenvectors by inverse iteration;
2. A = S e^{-iMt} U0 (the unitary evolution, then the diagonal rescaling);
3. the projector onto span(A), restricted to the left half: its eigenvalues
   are those of F F^dag with R R^dag = A^dag A (Cholesky) and R F = A_X^dag;
4. the entropy sum over modes of -x ln x - (1-x) ln(1-x).

The working precision is 30 digits plus twice the decimal dynamic range of S,
e^{|g|(L-1)}.  Every value is computed again at twice those digits, and the
script refuses to write the file if any value moves by more than 1e-10.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp
from mpmath.matrices.eigen_symmetric import tridiag_eigen

GAMMA = "-0.5"
DT = 10
DELTAS = ("0.001", "0.05", "0.1", "0.15", "0.2", "0.3")
SIZES = (32, 64, 96, 128)
STEPS = (10, 30, 100, 200)
SELF_TOL = 1e-10
OUT = Path(__file__).with_name("obc_references.json")
COMMAND = "python3 benchmarks/make_references.py"


def tridiag_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system (diag, off) x = rhs by LU with row pivoting."""
    n = len(diag)
    tiny = mp.mpf(10) ** (-mp.mp.dps)
    b = list(diag)
    c = list(off) + [mp.mpf(0)]
    a = [mp.mpf(0)] + list(off)
    d = [mp.mpf(0)] * n
    x = list(rhs)
    for i in range(n - 1):
        if abs(b[i]) >= abs(a[i + 1]):
            if b[i] == 0:
                b[i] = tiny
            f = a[i + 1] / b[i]
            b[i + 1] -= f * c[i]
            x[i + 1] -= f * x[i]
        else:
            f = b[i] / a[i + 1]
            ci, bi1 = c[i], b[i + 1]
            b[i] = a[i + 1]
            c[i] = bi1
            d[i] = c[i + 1]
            b[i + 1] = ci - f * bi1
            c[i + 1] = -f * c[i + 1]
            x[i], x[i + 1] = x[i + 1], x[i] - f * x[i + 1]
    if b[n - 1] == 0:
        b[n - 1] = tiny
    out = [mp.mpf(0)] * n
    out[n - 1] = x[n - 1] / b[n - 1]
    if n > 1:
        out[n - 2] = (x[n - 2] - c[n - 2] * out[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        out[i] = (x[i] - c[i] * out[i + 1] - d[i] * out[i + 2]) / b[i]
    return out


def eigensystem(diag, off):
    """Eigenvalues and orthonormal eigenvectors of the symmetric tridiagonal matrix."""
    lam = list(diag)
    tridiag_eigen(mp.mp, lam, list(off) + [mp.mpf(0)], False)
    n = len(diag)
    vecs = []
    for value in lam:
        shifted = [x - value for x in diag]
        v = [mp.mpf(1)] * n
        for _ in range(3):
            v = tridiag_solve(shifted, off, v)
            norm = mp.sqrt(mp.fsum(x * x for x in v))
            v = [x / norm for x in v]
        vecs.append(v)
    # The inverse iteration is only trusted when its result is an eigensystem.
    limit = mp.mpf(10) ** (20 - mp.mp.dps)
    for value, v in zip(lam, vecs):
        for i in range(n):
            r = diag[i] * v[i] - value * v[i]
            if i > 0:
                r += off[i - 1] * v[i - 1]
            if i < n - 1:
                r += off[i] * v[i + 1]
            if abs(r) > limit:
                raise ArithmeticError(f"eigenvector residual {mp.nstr(r, 3)}")
    for p in range(n):
        for q in range(p, n):
            if abs(mp.fdot(vecs[p], vecs[q]) - (1 if p == q else 0)) > limit:
                raise ArithmeticError("eigenvectors are not orthonormal")
    return lam, vecs


def half_chain_entropy_at(lam, vecs, t, g):
    """Half-chain entropy of span(S e^{-iMt} U0), U0 = the even sites 2, 4, ..., L."""
    L = len(lam)
    N = L // 2
    occupied = range(1, L, 2)  # 0-based rows of the 1-based even sites
    cos_t = [mp.cos(x * t) for x in lam]
    msin_t = [-mp.sin(x * t) for x in lam]
    rows = [[vecs[m][i] for m in range(L)] for i in range(L)]
    b_re = [[cos_t[m] * vecs[m][j] for m in range(L)] for j in occupied]
    b_im = [[msin_t[m] * vecs[m][j] for m in range(L)] for j in occupied]
    A = mp.matrix(L, N)
    for i in range(L):
        scale = mp.exp(g * i)
        for k in range(N):
            A[i, k] = mp.mpc(mp.fdot(rows[i], b_re[k]), mp.fdot(rows[i], b_im[k])) * scale
    R = mp.cholesky(A.H * A)
    AXh = A[0:N, :].H
    F = mp.matrix(N, N)
    for col in range(N):
        for i in range(N):
            acc = AXh[i, col] - mp.fdot((R[i, j] for j in range(i)), (F[j, col] for j in range(i)))
            F[i, col] = acc / R[i, i]
    occupations = mp.eighe(F * F.H, eigvals_only=True)
    S = mp.mpf(0)
    for x in occupations:
        x = mp.re(x)
        if 0 < x < 1:
            S -= x * mp.log(x) + (1 - x) * mp.log(1 - x)
    return S


def point_entropies(delta: str, L: int, dps: int) -> list:
    with mp.workdps(dps):
        gamma = mp.mpf(GAMMA)
        j_left = -(1 - gamma)
        j_right = -(1 + gamma)
        g = mp.log(j_right / j_left) / 2
        hop = j_left * mp.exp(g)
        diag = [mp.mpf(delta) * (j + 1) for j in range(L)]
        lam, vecs = eigensystem(diag, [hop] * (L - 1))
        return [half_chain_entropy_at(lam, vecs, DT * n, g) for n in STEPS]


def working_digits(L: int) -> int:
    g = 0.5 * math.log((1 + float(GAMMA)) / (1 - float(GAMMA)))
    return 30 + math.ceil(2 * abs(g) * (L - 1) / math.log(10))


def main() -> int:
    points = []
    worst = 0.0
    for delta in DELTAS:
        for L in SIZES:
            t0 = time.perf_counter()
            dps = working_digits(L)
            base = point_entropies(delta, L, dps)
            fine = point_entropies(delta, L, 2 * dps)
            moved = max(float(abs(a - b)) for a, b in zip(base, fine))
            worst = max(worst, moved)
            points.append({
                "delta": float(delta),
                "L": L,
                "dps": dps,
                "s_half": [mp.nstr(v, 20) for v in fine],
                "moved_on_doubling": moved,
            })
            print(f"delta={delta} L={L} dps={dps}/{2 * dps} moved={moved:.1e} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
            if moved > SELF_TOL:
                print(f"doubling the digits moved a value by {moved:.2e} > {SELF_TOL:g}",
                      file=sys.stderr)
                return 1
    payload = {
        "command": COMMAND,
        "method": "mpmath, imaginary-gauge frame: eigensystem of M, rescaling by S, projector",
        "gamma": float(GAMMA),
        "dt": float(DT),
        "boundary": "open",
        "steps": list(STEPS),
        "self_check": {"tolerance": SELF_TOL, "max_moved_on_doubling": worst},
        "points": points,
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
