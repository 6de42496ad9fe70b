"""Nonunitary time evolution of Slater determinants, by eigenbasis or per-step QR.

The state is an L x N matrix of orthonormal orbitals whose span is that of
e^{-iHt} U0.  Two engines produce it, and `run_trajectory` picks one per point.

The eigenbasis engine evaluates the span directly at any time.  With H =
R diag(lam) R^-1, the modes sorted by -Im lam, Y = R^-1 U0 and K = Y_B Y_T^-1
(T the top N modes, B the rest), the span at time t is that of
R_T + R_B (K o exp(-i t (lam_B - lam_T))), every exponent having a real part
<= 0, so nothing overflows at any t.  Its orbitals are the phase-fixed
Householder Q of that matrix.  Each read time is evaluated on its own, so a
trajectory visits only the steps something reads.  It is used when `eig` and
both solves succeed and cond(R) cond(Y_T) <= EIGENBASIS_COND_MAX: in practice
the ring at small delta L and open chains of about 8 sites, never the longer
skin-regime open chain, whose R is ill-conditioned.

The stepper multiplies the orbitals by the fixed step matrix exp(-i H dt),
built once by the scaling-and-squaring Pade [13/13] method of Higham (SIAM J.
Matrix Anal. Appl. 26, 1179 (2005)) in numpy, and re-orthonormalizes the
columns by a QR factorization after every step, which both normalizes the
many-body state and keeps the numerics stable against the exponential
amplitude growth of nonreciprocal evolution.  It needs no eigenbasis, so it
serves every other point.

The two-point correlation matrix of the state is C = (Q Q^dag)^T, a Hermitian
projector of rank N.  The half-chain entropy needs only the left L/2 rows of
Q, so C itself is formed only where a whole matrix is wanted: at density
samples and for the final state.  The entropy is formed only from a caller's
first read step on (`entropy_from`), since an eigvalsh per step is about a
third of a step's cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Optional, get_args, get_origin, get_type_hints

import numpy as np

from .entanglement import block_entropy, gaussian_smooth, half_chain_entropy_from_orbitals
from .model import ModelParams, as_matrix, build_hamiltonian

RANK_TOL = 1e-300


class RankDeficiencyError(RuntimeError):
    pass


class TrajectoryError(RuntimeError):
    pass


@dataclass(frozen=True)
class SlaterState:
    """Orthonormal orbital columns (L x N) and the current time."""

    orbitals: np.ndarray
    time: float = 0.0

    @property
    def length(self) -> int:
        return self.orbitals.shape[0]


def init_z2_state(length: int) -> SlaterState:
    """Half-filled alternating product state occupying sites 2, 4, ..., L."""
    if length % 2 != 0 or length <= 0:
        raise ValueError(f"alternating state needs an even positive length, got {length}")
    U = np.zeros((length, length // 2), dtype=complex)
    U[np.arange(1, length, 2), np.arange(length // 2)] = 1.0
    return SlaterState(orbitals=U, time=0.0)


@dataclass(frozen=True)
class Propagator:
    """Fixed one-step evolution matrix exp(-i H dt)."""

    step_matrix: np.ndarray
    dt: float


# Pade [13/13] coefficients b_0..b_13 of exp, and the 1-norm up to which that
# approximant is accurate to double precision (Higham 2005).
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
THETA_13 = 5.371920351148152


def make_propagator(H, dt: float) -> Propagator:
    """Build exp(-i H dt) once, for repeated application.

    Scaling and squaring with the Pade [13/13] approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)): A = -i H dt is scaled by 2^-s so that
    its 1-norm is at most THETA_13, the approximant r(A) = (V - U)^-1 (V + U) is
    formed from A^2, A^4 and A^6, and squared s times.  It needs no eigenbasis,
    so it holds for the non-normal, near-defective H of the skin regime, where
    the biorthogonal mode expansion loses accuracy.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    A = -1j * dt * as_matrix(H)
    norm = np.linalg.norm(A, 1)
    s = int(np.ceil(np.log2(norm / THETA_13))) if norm > THETA_13 else 0
    A = A * 2.0 ** -s
    b = PADE_13
    eye = np.eye(A.shape[0], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return Propagator(R, dt)


def _orthonormalize(M: np.ndarray) -> np.ndarray:
    """The Q factor of M, with column phases fixed so the R diagonal is real non-negative.

    Q is then unique, so runs are platform-deterministic.  A vanishing R
    diagonal entry raises RankDeficiencyError.
    """
    Q, R = np.linalg.qr(M)
    d = np.diagonal(R)
    small = np.abs(d) < RANK_TOL
    if np.any(small):
        raise RankDeficiencyError(
            f"propagated orbitals are rank deficient (|R_kk| < {RANK_TOL:g} at "
            f"column {int(np.argmax(small))}); reduce dt"
        )
    phase = d / np.abs(d)
    return Q * phase


def step_qr(state: SlaterState, prop: Propagator) -> SlaterState:
    """Advance one step and re-orthonormalize.

    The orbitals become the phase-fixed Q factor of step_matrix @ orbitals
    (_orthonormalize).  A vanishing R diagonal entry means the propagated
    orbitals lost rank, i.e. the nonunitary growth over one dt step exceeded
    the representable range.
    """
    if prop.step_matrix.shape[0] != state.length:
        raise ValueError(
            f"propagator size {prop.step_matrix.shape[0]} != state size {state.length}"
        )
    return SlaterState(orbitals=_orthonormalize(prop.step_matrix @ state.orbitals),
                       time=state.time + prop.dt)


# The largest cond(R) cond(Y_T) at which a point takes the eigenbasis engine.  On
# the grid of scripts/engine_agreement.py, every point under it matches the
# stepper's tail entropy within 1.8e-10; the next product up, 1.9e4, is off by
# 3.2e-9, and most products past 1e6 by 1e-8 to 1.
EIGENBASIS_COND_MAX = 1e4
# e^-230 = 1e-100: a decayed mode's weight below it is dropped (EigenbasisEngine.state_at).
DECAY_FLOOR = -230.0


@dataclass(frozen=True)
class EigenbasisEngine:
    """The span of e^{-iHt} U0 at any time, from the eigenbasis of H.

    With the modes sorted by -Im lam, top_vectors holds R_T (L x N),
    rest_vectors R_B (L x (L-N)), coupling K = Y_B Y_T^-1 and gaps
    lam_B[:, None] - lam_T[None, :].
    """

    top_vectors: np.ndarray
    rest_vectors: np.ndarray
    coupling: np.ndarray
    gaps: np.ndarray
    dt: float

    def state_at(self, n: int) -> SlaterState:
        """The orbitals after n steps: the phase-fixed Q of R_T + R_B (K o e^{-i t gaps}).

        An exponential below e^DECAY_FLOOR is taken as 0: it adds nothing to
        R_T's unit columns, and as a subnormal it would slow the product
        several times over.
        """
        t = n * self.dt
        z = self.gaps * (-1j * t)
        decay = np.exp(z, where=z.real > DECAY_FLOOR, out=np.zeros_like(z))
        M = self.top_vectors + self.rest_vectors @ (self.coupling * decay)
        return SlaterState(orbitals=_orthonormalize(M), time=t)


def eigenbasis_engine(H, orbitals: np.ndarray, dt: float,
                      cond_max: float = EIGENBASIS_COND_MAX) -> tuple:
    """(engine, cond): the eigenbasis engine for these start orbitals, or None.

    cond is cond(R) cond(Y_T), or inf when `eig` or a solve fails; the engine
    is None unless cond <= cond_max.
    """
    n = orbitals.shape[1]
    try:
        lam, R = np.linalg.eig(as_matrix(H))
        order = np.argsort(-lam.imag, kind="stable")
        lam, R = lam[order], R[:, order]
        Y = np.linalg.solve(R, orbitals)
        K = np.linalg.solve(Y[:n].T, Y[n:].T).T
    except np.linalg.LinAlgError:
        return None, float("inf")
    cond = float(np.linalg.cond(R) * np.linalg.cond(Y[:n]))
    if not cond <= cond_max:
        return None, cond
    return EigenbasisEngine(R[:, :n], R[:, n:], K, lam[n:, None] - lam[None, :n], dt), cond


def correlation_matrix(state: SlaterState) -> np.ndarray:
    """Two-point function C_ij = <c_i^dag c_j> = [(Q Q^dag)^T]_ij of the state."""
    Q = state.orbitals
    return (Q @ Q.conj().T).T


def density_profile(C: np.ndarray) -> np.ndarray:
    """Site occupations: the real diagonal of C, clamped to [0, 1]."""
    return np.clip(np.real(np.diagonal(C)), 0.0, 1.0)


def validate_correlation(C: np.ndarray, n_particles: int, atol: float = 1e-8) -> dict:
    """Residuals of the correlation-matrix invariants (pure Slater state).

    Returns a dict with hermiticity, idempotency, trace and spectrum-range
    residuals plus an 'ok' flag comparing each against atol.  The spectrum
    range is infinite when an eigenvalue is not finite.
    """
    C = np.asarray(C)
    herm = float(np.max(np.abs(C - C.conj().T)))
    idem = float(np.max(np.abs(C @ C - C)))
    trace = float(abs(np.trace(C).real - n_particles))
    lam = np.linalg.eigvalsh(0.5 * (C + C.conj().T))
    spectrum = (float(max(0.0, -lam.min(), lam.max() - 1.0))
                if np.isfinite(lam).all() else float("inf"))  # max() drops a NaN
    residuals = {
        "hermiticity": herm,
        "idempotency": idem,
        "trace": trace,
        "spectrum_range": spectrum,
    }
    residuals["ok"] = all(v <= atol for v in residuals.values())
    return residuals


PURITY_TOL = 1e-6


def trajectory_invariants(final_correlation: np.ndarray, density_series: np.ndarray,
                          ee_series: np.ndarray, length: int) -> dict:
    """Residuals of a saved trajectory's invariants, by name, in report order.

    The correlation-matrix residuals of validate_correlation, the largest
    deviation of a sampled density from L/2 particles, the largest
    |S(1..l) - S(l+1..L)| over the cuts l = 1..L-1 (equal for a pure state;
    compare against PURITY_TOL), and how far the entropy series dips below 0
    (infinite when an entry is not finite, as a NaN left unformed would be).
    """
    C, n = final_correlation, length // 2
    residuals = {k: v for k, v in validate_correlation(C, n).items() if k != "ok"}
    residuals["density_sum"] = float(np.max(np.abs(density_series.sum(axis=1) - n)))
    purity = 0.0
    for ell in range(1, length):
        left = block_entropy(C[:ell, :ell])
        right = block_entropy(C[ell:, ell:])
        purity = max(purity, abs(left - right))
    residuals["purity_symmetry"] = purity
    residuals["ee_nonnegative"] = (float(max(0.0, -ee_series.min()))
                                   if np.isfinite(ee_series).all() else float("inf"))
    return residuals


# The plateau test behind TrajectoryRecord.converged and Schedule.early_stop: the
# entropy, smoothed with a Gaussian of width PLATEAU_SIGMA steps, moves less than
# PLATEAU_TOL over the last PLATEAU_WINDOW steps.
PLATEAU_TOL = 1e-4
PLATEAU_WINDOW = 100
PLATEAU_SIGMA = 20.0
# The entries the test reads: the window and a kernel half-width either side.
PLATEAU_SPAN = PLATEAU_WINDOW + 2 * int(np.ceil(4.0 * PLATEAU_SIGMA))


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


# What a config value must be for each declared field type, and how to say it.
_FIELD_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an int"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _check_field_types(obj, where: str = ""):
    """Check each field of dataclass `obj` against its declared type.

    Fields declared bool, int, float or str must hold such a value; a field
    declared tuple[T, ...] must hold a list or tuple of them, and is stored as a
    tuple of T, so integral numbers in a float grid become floats.  Fields of
    other types are left to their class.  Raises ValueError naming the field.
    """
    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        label = f"{where} {name}".lstrip()
        if get_origin(hint) is tuple:
            item = get_args(hint)[0]
            ok, what = _FIELD_TYPES[item]
            if not isinstance(value, (list, tuple)) or not all(map(ok, value)):
                raise ValueError(f"{label} must be a list, each item {what}, got {value!r}")
            object.__setattr__(obj, name, tuple(map(item, value)))
        elif hint in _FIELD_TYPES:
            ok, what = _FIELD_TYPES[hint]
            if not ok(value):
                raise ValueError(f"{label} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """Time-stepping plan: step size, budget, sampling and plateau stopping."""

    dt: float = 10.0
    steps: int = 10000
    sample_stride: int = 50
    early_stop: bool = False

    def __post_init__(self):
        _check_field_types(self, "schedule")
        if not self.dt > 0 or self.steps < 1 or self.sample_stride < 1:
            raise ValueError("schedule needs dt > 0, steps >= 1, sample_stride >= 1")


@dataclass
class TrajectoryRecord:
    """One evolved trajectory: entropy series, sampled densities, final state.

    ee_series holds one entry per step from t=0; the entries before the run's
    entropy_from were not formed and are NaN.  engine names the engine that
    made the orbitals ("eigenbasis" or "stepper"), and eigenbasis_cond is
    cond(R) cond(Y_T) of the point (inf when `eig` or a solve failed).
    """

    params: ModelParams
    dt: float
    steps: int
    ee_series: np.ndarray
    density_steps: np.ndarray
    density_series: np.ndarray
    final_correlation: np.ndarray
    converged: bool = False
    engine: str = "stepper"
    eigenbasis_cond: float = float("inf")


def _tail_plateau(ee: list) -> bool:
    """True when the smoothed series varies less than PLATEAU_TOL over the last window.

    Only points whose kernel support lies fully inside the series are used, so
    the window ends one kernel half-width before the running end; one-sided
    smoothing at the live edge would leak the raw oscillation back in.
    """
    if len(ee) < PLATEAU_SPAN:
        return False
    pad = (PLATEAU_SPAN - PLATEAU_WINDOW) // 2
    core = gaussian_smooth(np.asarray(ee[-PLATEAU_SPAN:]), PLATEAU_SIGMA)[pad:-pad]
    return float(core.max() - core.min()) < PLATEAU_TOL


def run_trajectory(
    params: ModelParams,
    schedule: Schedule,
    on_sample: Optional[Callable[[int, SlaterState, np.ndarray], None]] = None,
    entropy_from: int = 0,
) -> TrajectoryRecord:
    """Evolve the alternating state under the chain Hamiltonian.

    Records the half-chain entropy, from the orbitals, at every step n >=
    entropy_from (t=0 is step 0); the entries before it are NaN and cost
    nothing.  entropy_from is lowered so that the last PLATEAU_SPAN entries,
    which converged reads, are always formed, and to 0 under early_stop, whose
    plateau test reads the series as it grows; the last entry is therefore
    always formed.  The density profile is recorded every sample_stride
    steps, from C.  With early_stop enabled the run ends at the first multiple
    of PLATEAU_WINDOW steps where the plateau test holds; converged is that
    test on the whole series, whether or not the run stopped early.
    on_sample(step, state, C), if given, is called at every density sample for
    additional observables.  C is formed once per density sample; the last
    sample is the final state, whose C is final_correlation.

    The orbitals come from the eigenbasis engine when eigenbasis_engine accepts
    the point, and then only at the steps read: the entropy steps (the last
    one among them) and the samples.  Each is evaluated on its own, so a formed entry does
    not depend on which other steps are read.  Otherwise the stepper advances
    through every step.
    """
    if schedule.early_stop:
        entropy_from = 0
    entropy_from = max(0, min(entropy_from, schedule.steps + 1 - PLATEAU_SPAN))
    H = build_hamiltonian(params)
    state = init_z2_state(params.length)
    engine, cond = eigenbasis_engine(H, state.orbitals, schedule.dt)
    if engine is not None:
        state_at = engine.state_at
    else:
        prop = make_propagator(H, schedule.dt)
        stepped = 0

        def state_at(n: int) -> SlaterState:
            nonlocal state, stepped
            for stepped in range(stepped + 1, n + 1):
                try:
                    state = step_qr(state, prop)
                except RankDeficiencyError as err:
                    raise TrajectoryError(f"step {stepped}: {err}") from err
            return state

    ee = []
    density_steps, densities = [], []

    def record_entropy(n: int):
        ee.extend([np.nan] * (n - len(ee)))
        ee.append(half_chain_entropy_from_orbitals(state.orbitals) if n >= entropy_from
                  else np.nan)

    def sample(n: int) -> np.ndarray:
        C = correlation_matrix(state)
        density_steps.append(n)
        densities.append(density_profile(C))
        if on_sample is not None:
            on_sample(n, state, C)
        return C

    record_entropy(0)
    C = sample(0)
    stride = schedule.sample_stride
    for n in range(1, schedule.steps + 1):
        if n < entropy_from and n % stride != 0:  # the last step is >= entropy_from
            continue
        state = state_at(n)
        record_entropy(n)
        if n % stride == 0:
            C = sample(n)
        if schedule.early_stop and n % PLATEAU_WINDOW == 0 and _tail_plateau(ee):
            break
    if density_steps[-1] != n:
        C = sample(n)

    return TrajectoryRecord(
        params=params,
        dt=schedule.dt,
        steps=n,
        ee_series=np.asarray(ee),
        density_steps=np.asarray(density_steps, dtype=int),
        density_series=np.asarray(densities),
        final_correlation=C,
        converged=_tail_plateau(ee),
        engine="stepper" if engine is None else "eigenbasis",
        eigenbasis_cond=cond,
    )
