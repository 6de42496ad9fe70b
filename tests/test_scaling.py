import numpy as np
import pytest

from oracles import loop_collapse_quality
from starkchain import scaling
from starkchain import (
    CollapseError,
    ScalingDataset,
    cft_log_fit,
    collapse_quality,
    fit_collapse,
    power_law_fit,
)


def synthetic_collapse(delta_c, nu, zeta, sizes=(32, 64, 96, 128),
                       x_grid=None, noise=0.0, rng=None):
    """Exact scaling-ansatz data; all sizes share the same x grid points."""
    if x_grid is None:
        x_grid = np.linspace(-1.5, 2.5, 9)

    def f(x):
        return 1.0 / (1.0 + x * x) + 0.5

    points = []
    for L in sizes:
        deltas = delta_c + x_grid * L ** (-1.0 / nu)
        s = L ** (zeta / nu) * f(x_grid)
        if noise and rng is not None:
            s = s * (1.0 + noise * rng.uniform(-1, 1, size=s.shape))
        points.extend((L, d, v) for d, v in zip(deltas, s))
    return ScalingDataset.from_points(points)


def test_power_law_exact():
    L = np.array([16, 32, 64, 128])
    fit = power_law_fit(L, 2.0 * L**0.5)
    assert fit.beta == pytest.approx(0.5, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_power_law_constant():
    fit = power_law_fit([8, 16, 32], [3.0, 3.0, 3.0])
    assert fit.beta == pytest.approx(0.0, abs=1e-12)


def test_power_law_scale_invariance():
    rng = np.random.default_rng(0)
    L = np.array([16, 32, 64, 128, 256])
    S = L**0.9 * np.exp(rng.normal(0, 0.05, size=5))
    b1 = power_law_fit(L, S).beta
    b2 = power_law_fit(L, 7.3 * S).beta
    assert b1 == pytest.approx(b2, abs=1e-12)


def test_power_law_input_contracts():
    with pytest.raises(ValueError, match="3 points"):
        power_law_fit([16, 32], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        power_law_fit([16, 32, 64], [1.0, -2.0, 3.0])


def test_collapse_quality_zero_at_truth():
    data = synthetic_collapse(0.15, 1.9, 2.0)
    q = collapse_quality(data, 0.15, 1.9, 2.0)
    assert q == pytest.approx(0.0, abs=1e-20)


def test_collapse_quality_discriminates_100_trials():
    data = synthetic_collapse(0.15, 1.9, 2.0)
    q_true = collapse_quality(data, 0.15, 1.9, 2.0)
    rng = np.random.default_rng(42)
    for _ in range(100):
        factor = 1.0 + rng.uniform(0.25, 0.5) * rng.choice([-1, 1])
        which = rng.integers(0, 2)
        dc, nu = 0.15, 1.9
        if which == 0:
            dc *= factor
        else:
            nu *= factor
        assert collapse_quality(data, dc, nu, 2.0) > q_true


def test_collapse_quality_single_size_errors():
    data = synthetic_collapse(0.15, 1.9, 2.0, sizes=(64,))
    with pytest.raises(CollapseError, match="2 sizes"):
        collapse_quality(data, 0.15, 1.9, 2.0)


def test_collapse_quality_no_overlap_errors():
    # two sizes, far-apart delta windows: rescaled ranges cannot overlap
    pts = [(32, 10.0 + k, 1.0) for k in range(3)] + [(64, 0.001 * (k + 1), 1.0) for k in range(3)]
    data = ScalingDataset.from_points(pts)
    with pytest.raises(CollapseError, match="overlap"):
        collapse_quality(data, 0.15, 1.0, 0.0)


def test_collapse_quality_quadratic_in_scale():
    data = synthetic_collapse(0.12, 1.7, 1.8, noise=0.08, rng=np.random.default_rng(3))
    q1 = collapse_quality(data, 0.1, 1.5, 1.5)
    scaled = ScalingDataset(data.sizes, data.deltas, 5.0 * data.values, data.weights)
    q2 = collapse_quality(scaled, 0.1, 1.5, 1.5)
    assert q2 == pytest.approx(25.0 * q1, rel=1e-9)


def outcome(kernel, *args, **kwargs):
    """The kernel's value, or the type and message of the ValueError it raised."""
    try:
        return kernel(*args, **kwargs)
    except ValueError as err:
        return type(err), str(err)


def assert_matches_loop(data, delta_c, nu, zeta, neighbors=3):
    new = outcome(collapse_quality, data, delta_c, nu, zeta, neighbors=neighbors)
    old = outcome(loop_collapse_quality, data, delta_c, nu, zeta, neighbors=neighbors)
    assert new == old, (delta_c, nu, zeta, neighbors)
    return new


def resample(data, idx):
    return ScalingDataset(data.sizes[idx], data.deltas[idx], data.values[idx],
                          data.weights[idx])


def test_collapse_quality_matches_loop_bitwise_on_random_parameters():
    rng = np.random.default_rng(2024)
    base = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    n = len(base)
    # bootstrap resamples repeat rows, so x ties and duplicate grid points occur
    datasets = [base] + [resample(base, rng.integers(0, n, size=n)) for _ in range(9)]
    values = 0
    for i in range(2000):
        params = (rng.uniform(0.0, 0.3), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        q = assert_matches_loop(datasets[i % 10], *params, neighbors=(1, 2, 3, 5)[i // 10 % 4])
        values += not isinstance(q, tuple)
    assert values > 1900


def test_collapse_quality_matches_loop_on_edge_layouts():
    # nu = 1, delta_c = 0, zeta = 0 rescale exactly: x = L * delta, y = S
    rng = np.random.default_rng(5)

    def points(size, xs):
        return [(size, x / size, 1.0 + rng.uniform()) for x in xs]

    pts = (points(16, np.arange(-4.0, 6.0))      # widest: extrapolates into size 64
           + points(32, np.arange(-3.5, 4.0))    # between the integer grid points
           + points(64, np.arange(-1.0, 3.0))    # on the integer grid, narrow
           + points(128, [0.25, 0.75])           # two points: k = 2
           + points(256, [0.5]))                 # a single point
    data = ScalingDataset.from_points(pts)
    x, _ = data.rescaled(0.0, 1.0, 0.0)
    by_size = {s: x[data.sizes == s] for s in (16, 32, 64)}
    assert np.isin(by_size[64], by_size[16]).all()  # queries that hit a grid x exactly
    assert by_size[16].min() < by_size[64].min() and by_size[16].max() > by_size[64].max()
    for neighbors in (1, 2, 3, 5):
        assert_matches_loop(data, 0.0, 1.0, 0.0, neighbors=neighbors)
        for _ in range(50):
            params = (rng.uniform(-0.05, 0.05), rng.uniform(0.5, 3.0), rng.uniform(0.0, 3.0))
            assert_matches_loop(data, *params, neighbors=neighbors)

    some_zero = ScalingDataset(data.sizes, data.deltas, data.values,
                               np.where(np.arange(len(data)) % 3 == 0, 0.0, data.weights))
    assert not isinstance(assert_matches_loop(some_zero, 0.0, 1.0, 0.0), tuple)

    # nu = 1e-3 overflows L^{1/nu}: x is +-inf, and NaN where delta == delta_c,
    # which np.interp returns as its value
    grid = synthetic_collapse(0.15, 1.9, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for kernel in (collapse_quality, loop_collapse_quality):
            for neighbors in (2, 3):
                assert np.isnan(kernel(grid, grid.deltas[10], 1e-3, 0.0, neighbors=neighbors))


def test_collapse_quality_errors_match_loop():
    data = synthetic_collapse(0.15, 1.9, 2.0)
    for nu in (0.0, -1.0):
        assert assert_matches_loop(data, 0.15, nu, 2.0) == (ValueError, f"nu must be > 0, got {nu}")
    single = synthetic_collapse(0.15, 1.9, 2.0, sizes=(64,))
    assert assert_matches_loop(single, 0.15, 1.9, 2.0) == (
        CollapseError, "collapse undefined for fewer than 2 sizes")
    apart = ScalingDataset.from_points(
        [(32, 10.0 + k, 1.0) for k in range(3)] + [(64, 0.001 * (k + 1), 1.0) for k in range(3)])
    assert assert_matches_loop(apart, 0.15, 1.0, 0.0) == (
        CollapseError, "no two sizes overlap in rescaled x; collapse undefined")
    weightless = ScalingDataset(data.sizes, data.deltas, data.values, np.zeros(len(data)))
    assert assert_matches_loop(weightless, 0.15, 1.9, 2.0) == (
        CollapseError, "no point could be scored against another size")


def test_fit_collapse_identical_with_loop_kernel(monkeypatch):
    # the benchmark's refit data: 2% noise from a fixed seed
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=np.random.default_rng(0))

    def fit_with(kernel):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(scaling, "collapse_quality", counted)
        fit = fit_collapse(data, init=(0.12, 1.5, 1.6), bootstrap_n=2, seed=0)
        return fit.as_dict(), len(calls)

    assert fit_with(loop_collapse_quality) == fit_with(collapse_quality)


def test_fit_collapse_recovers_planted_parameters():
    rng = np.random.default_rng(8)
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    fit = fit_collapse(data, init=(0.12, 1.5, 1.6), bootstrap_n=40, seed=5)
    assert fit.delta_c == pytest.approx(0.15, abs=max(3 * fit.errors[0], 0.02))
    assert fit.nu == pytest.approx(1.9, abs=max(3 * fit.errors[1], 0.25))
    assert fit.zeta == pytest.approx(2.0, abs=max(3 * fit.errors[2], 0.25))
    assert fit.quality < 1e-2
    assert not fit.clipped


def test_fit_collapse_deterministic():
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.05, rng=np.random.default_rng(1))
    f1 = fit_collapse(data, bootstrap_n=10, seed=9)
    f2 = fit_collapse(data, bootstrap_n=10, seed=9)
    assert f1 == f2


def test_fit_collapse_rejects_init_outside_bounds():
    data = synthetic_collapse(0.15, 1.9, 2.0)
    with pytest.raises(ValueError, match="bounds"):
        fit_collapse(data, init=(0.15, 10.0, 2.0))


def test_fit_collapse_dataset_invariants():
    small = synthetic_collapse(0.15, 1.9, 2.0, sizes=(32, 64))
    with pytest.raises(CollapseError, match="3 sizes"):
        fit_collapse(small)


def test_cft_log_fit_exact_model():
    L = 64
    ell = np.arange(1, L)
    s = (1.0 / 6.0) * np.log(np.sin(np.pi * ell / L)) + 1.0
    fit = cft_log_fit(np.column_stack([ell, s]), L)
    assert fit.c == pytest.approx(1.0, abs=1e-10)
    assert fit.const == pytest.approx(1.0, abs=1e-10)
    assert fit.rms_residual < 1e-10


def test_cft_log_fit_recovers_arbitrary_coefficients():
    L = 48
    ell = np.arange(1, L)
    for c, const in [(0.5, -0.2), (3.7, 4.0)]:
        s = (c / 6.0) * np.log(np.sin(np.pi * ell / L)) + const
        fit = cft_log_fit(np.column_stack([ell, s]), L)
        assert fit.c == pytest.approx(c, abs=1e-10)
        assert fit.const == pytest.approx(const, abs=1e-10)


def test_cft_log_fit_constant_profile():
    L = 32
    ell = np.arange(1, L)
    fit = cft_log_fit(np.column_stack([ell, np.full(L - 1, 0.8)]), L)
    assert fit.c == pytest.approx(0.0, abs=1e-12)
    assert fit.const == pytest.approx(0.8, abs=1e-12)


def test_cft_log_fit_contracts():
    with pytest.raises(ValueError, match="3 usable"):
        cft_log_fit(np.array([[1, 0.1], [2, 0.2]]), 8)
    with pytest.raises(ValueError, match="lie in"):
        cft_log_fit(np.array([[1, 0.1], [8, 0.2], [3, 0.3]]), 8)
