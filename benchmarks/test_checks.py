"""Self-test of the benchmark's checks: each one rejects a wrong answer.

    python3 -m pytest benchmarks -q

This file sits outside the tier-1 `testpaths`, so the repository's own test
run does not collect it.  It runs no starkchain code.
"""

import json

import numpy as np
import pytest

import checks
import workloads as wl


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


def test_references_cover_the_grid_and_passed_their_self_check():
    data = json.loads(checks.REFERENCES.read_text())
    assert data["command"] == "python3 benchmarks/make_references.py"
    assert {(p["delta"], p["L"]) for p in data["points"]} == {
        (d, L) for d in wl.OBC_DELTAS for L in wl.SIZES}
    assert max(p["moved_on_doubling"] for p in data["points"]) <= 1e-10
    assert max(data["steps"]) <= 200


def series_through(refs: dict) -> np.ndarray:
    ee = np.full(max(refs) + 1, 0.3)
    for n, s in refs.items():
        ee[n] = s
    return ee


def test_reference_check_rejects_a_perturbed_series(references):
    refs = references[(0.15, 32)]
    ee = series_through(refs)
    assert checks.reference_misses(ee, refs) == []
    assert checks.reference_misses(ee + 5e-7, refs) == []  # inside the 1e-6 tolerance
    ee[max(refs)] += 2e-6
    assert [m[0] for m in checks.reference_misses(ee, refs)] == [max(refs)]
    assert checks.reference_misses(np.full_like(ee, np.nan), refs)


def test_property_checks_reject_a_wrong_state():
    L = 8
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((L, L // 2)) + 0j)
    C = (Q @ Q.conj().T).T
    assert checks.correlation_problems(C, L) == []
    assert checks.correlation_problems(0.9 * C, L)            # not idempotent, wrong trace
    assert checks.correlation_problems(C + 1e-6j * np.triu(np.ones((L, L)), 1), L)
    assert checks.entropy_range_problems([0.0, 0.5 * L * np.log(2)], L) == []
    assert checks.entropy_range_problems([-1e-3, 0.5], L)
    assert checks.entropy_range_problems([0.5 * L * np.log(2) + 1e-6], L)


def test_pbc_checks_reject_values_outside_the_oracle():
    lo, hi = checks.dominant_mode_interval(
        checks.ring_hamiltonian(wl.GAMMA, wl.PBC_DELTA, 32), 16)
    assert 1.49 < lo <= hi < 1.51  # the criterion 8 interval at L = 32
    assert not checks.outside_interval(0.5 * (lo + hi), (lo, hi))
    assert checks.outside_interval(hi + 0.011, (lo, hi))
    assert checks.outside_interval(lo - 0.011, (lo, hi))
    sizes = np.array(wl.SIZES, dtype=float)
    assert checks.central_charge(sizes, np.log(sizes) / 3 + 0.35) == pytest.approx(1.0)
    assert checks.central_charge(sizes, np.full(4, 1.5)) == pytest.approx(0.0)
    ell = np.arange(1, 32)
    profile = np.column_stack([ell, np.log(np.sin(np.pi * ell / 32)) / 3 + 1])
    assert checks.profile_asymmetry(profile) < 1e-12
    profile[3, 1] += 1e-6
    assert checks.profile_asymmetry(profile) > 1e-8


def fit(**changes) -> dict:
    base = {"delta_c": 0.15, "nu": 1.9, "zeta": 2.0, "delta_c_err": 0.001,
            "nu_err": 0.01, "zeta_err": 0.01, "clipped": False}
    base.update(changes)
    return base


def test_collapse_check_rejects_a_mismatched_planted_parameter():
    assert checks.collapse_misses(fit()) == []
    assert checks.collapse_misses(fit(delta_c=0.169, nu=2.14, zeta=1.76)) == []
    assert checks.collapse_misses(fit(delta_c=0.175))
    assert checks.collapse_misses(fit(nu=2.2))
    assert checks.collapse_misses(fit(zeta=1.7))
    assert checks.collapse_misses(fit(nu=2.4, nu_err=0.2)) == []  # within 3 sigma
    assert checks.collapse_misses(fit(clipped=True))


def test_collapse_check_reads_the_cli_outputs(tmp_path):
    keys = [f"{g:g}" for g in wl.COLLAPSE_GAMMAS]
    for key in keys:
        (tmp_path / f"collapse_g{key}.csv").write_text(
            "x,y,L,delta\n" + "0,0,32,0.1\n" * 36)
    (tmp_path / "collapse.json").write_text(json.dumps({k: fit() for k in keys}))
    outcome = checks.check_collapse(tmp_path)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (len(keys), [], [])
    (tmp_path / "collapse.json").write_text(
        json.dumps({**{k: fit() for k in keys}, keys[1]: fit(delta_c=0.3)}))
    assert len(checks.check_collapse(tmp_path).failed) == 1
    (tmp_path / "collapse.json").write_text(
        json.dumps({**{k: fit() for k in keys}, keys[-1]: {"error": "no overlap"}}))
    assert checks.check_collapse(tmp_path).problems


def test_synthetic_rows_follow_the_ansatz_and_the_seed():
    a = wl.synthetic_collapse_rows(3)
    assert len(a) == 36 * len(wl.COLLAPSE_GAMMAS) and a == wl.synthetic_collapse_rows(3)
    assert a != wl.synthetic_collapse_rows(4)
    delta_c, nu, zeta = wl.PLANTED
    for _gamma, L, delta, s in a:
        x = (delta - delta_c) * L ** (1 / nu)
        exact = L ** (zeta / nu) * (1 / (1 + x * x) + 0.5)
        assert abs(s / exact - 1) <= wl.COLLAPSE_NOISE + 1e-12
