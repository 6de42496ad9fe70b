"""Table of the eigenbasis engine's condition product against its error to the stepper.

For each point of a fixed grid (gamma -0.5; the ring at delta 0.001-1.0, the
open chain at delta 0.1-5.0; L = 16, 32, 64; dt 10, 2,000 steps) it builds
the eigenbasis engine with no bound on cond(R) cond(Y_T), evaluates the
half-chain entropy at every step of the tail that the steady reducer reads,
and compares it with per-step QR (the stepper) at the same steps.  The
largest |dS| over the tail is the engine's error at that product; the table
is the evidence behind propagation.EIGENBASIS_COND_MAX.  A point whose
eigensystem fails, or whose engine loses rank, reads nan.

Run from the repository root, at a fixed BLAS thread count:

    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/engine_agreement.py engine_agreement.csv

The file is the same, byte for byte, on every run at that thread count.
"""

from __future__ import annotations

import sys

import numpy as np

from starkchain import Boundary, ModelParams, build_hamiltonian, init_z2_state, make_propagator
from starkchain.entanglement import half_chain_entropy_from_orbitals, steady_state_start
from starkchain.propagation import (EIGENBASIS_COND_MAX, RankDeficiencyError,
                                    eigenbasis_engine, step_qr)

GAMMA = -0.5
GRID = ((Boundary.PERIODIC, (0.001, 0.05, 0.1, 0.15, 0.3, 1.0)),
        (Boundary.OPEN, (0.1, 0.3, 1.0, 5.0)))
SIZES = (16, 32, 64)
DT = 10.0
STEPS = 2000


def stepper_tail(H, length: int, tail: range) -> np.ndarray:
    prop = make_propagator(H, DT)
    state = init_z2_state(length)
    values = []
    for n in range(1, tail.stop):
        state = step_qr(state, prop)
        if n >= tail.start:
            values.append(half_chain_entropy_from_orbitals(state.orbitals))
    return np.asarray(values)


def row(boundary: Boundary, delta: float, length: int) -> list:
    H = build_hamiltonian(ModelParams(GAMMA, delta, length, boundary))
    tail = range(steady_state_start(STEPS + 1), STEPS + 1)
    engine, cond = eigenbasis_engine(H, init_z2_state(length).orbitals, DT, cond_max=np.inf)
    error = float("nan")
    if engine is not None:
        try:
            values = [half_chain_entropy_from_orbitals(engine.state_at(n).orbitals)
                      for n in tail]
            error = float(np.max(np.abs(np.asarray(values) - stepper_tail(H, length, tail))))
        except RankDeficiencyError:
            pass
    accepted = "yes" if cond <= EIGENBASIS_COND_MAX else "no"
    return [boundary.value, f"{delta:g}", str(length), f"{cond:.2e}", f"{error:.2e}", accepted]


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: engine_agreement.py OUT.csv", file=sys.stderr)
        return 2
    lines = ["boundary,delta,L,eigenbasis_cond,max_tail_abs_dS,engine_accepted"]
    for boundary, deltas in GRID:
        for delta in deltas:
            for length in SIZES:
                lines.append(",".join(row(boundary, delta, length)))
                print(lines[-1], flush=True)
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
