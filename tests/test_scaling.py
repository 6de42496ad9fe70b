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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite values"):
            power_law_fit([32, 64, 96], [1.0, bad, 2.0])
    for sizes in ([32, float("nan"), 96], [32, float("inf"), 96], [0, 64, 96], [-32, 64, 96]):
        with pytest.raises(ValueError, match="finite positive sizes"):
            power_law_fit(sizes, [1.0, 1.5, 2.0])


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


def test_from_points_takes_only_three_tuples():
    assert len(ScalingDataset.from_points([(32, 0.1, 1.0), [64, 0.2, 1.5]])) == 2
    for bad in ((32, 0.1, 1.0, 1.0), (32, 0.1)):
        with pytest.raises(ValueError, match=r"an \(L, delta, s_half\) tuple"):
            ScalingDataset.from_points([(16, 0.1, 0.9), bad])


def test_collapse_quality_quadratic_in_scale():
    data = synthetic_collapse(0.12, 1.7, 1.8, noise=0.08, rng=np.random.default_rng(3))
    q1 = collapse_quality(data, 0.1, 1.5, 1.5)
    scaled = ScalingDataset(data.sizes, data.deltas, 5.0 * data.values)
    q2 = collapse_quality(scaled, 0.1, 1.5, 1.5)
    assert q2 == pytest.approx(25.0 * q1, rel=1e-9)


def outcome(kernel, *args, **kwargs):
    """The kernel's value, or the type and message of the ValueError it raised."""
    try:
        return kernel(*args, **kwargs)
    except ValueError as err:
        return type(err), str(err)


def assert_matches_loop(data, delta_c, nu, zeta):
    new = outcome(collapse_quality, data, delta_c, nu, zeta)
    old = outcome(loop_collapse_quality, data, delta_c, nu, zeta)
    assert new == old, (delta_c, nu, zeta)
    return new


def resample(data, idx):
    return ScalingDataset(data.sizes[idx], data.deltas[idx], data.values[idx])


def test_collapse_quality_matches_loop_bitwise_on_random_parameters():
    rng = np.random.default_rng(2024)
    base = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    n = len(base)
    # bootstrap resamples repeat rows, so x ties and duplicate grid points occur
    datasets = [base] + [resample(base, rng.integers(0, n, size=n)) for _ in range(9)]
    values = 0
    for i in range(2000):
        params = (rng.uniform(0.0, 0.3), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        q = assert_matches_loop(datasets[i % 10], *params)
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
    # sizes 256 and 128 select all of their 1 and 2 points, the rest their nearest 3
    assert selection_blocks(data) == {3: [(10, [0]), (8, [1]), (4, [2])], 2: [(2, [3])],
                                      1: [(1, [4])]}
    assert_matches_loop(data, 0.0, 1.0, 0.0)
    for _ in range(200):
        params = (rng.uniform(-0.05, 0.05), rng.uniform(0.5, 3.0), rng.uniform(0.0, 3.0))
        assert_matches_loop(data, *params)

    # nu = 1e-3 overflows L^{1/nu}: x is +-inf, and NaN where delta == delta_c,
    # which np.interp returns as its value
    grid = synthetic_collapse(0.15, 1.9, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for kernel in (collapse_quality, loop_collapse_quality):
            assert np.isnan(kernel(grid, grid.deltas[10], 1e-3, 0.0))


def selection_blocks(data):
    """Per width, the point count and the size indices of each selection block."""
    layout = scaling._collapse_layout(data)
    ends = np.cumsum(np.unique(data.sizes, return_counts=True)[1])
    blocks = {}
    for (k, count), (places, _, _) in layout.blocks.items():
        sizes = np.unique(np.searchsorted(ends, places[:, 0], "right")).tolist()
        blocks.setdefault(k, []).append((count, sizes))
    return blocks


def extreme_and_random_params(rng, n):
    """The corners of the random test's nu/zeta range, then uniform draws from it."""
    corners = [(dc, nu, zeta) for dc in (0.0, 0.15, 0.3) for nu in (0.5, 4.0)
               for zeta in (0.5, 4.0)]
    return corners + [(rng.uniform(0.0, 0.3), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
                      for _ in range(n)]


def test_collapse_quality_matches_loop_with_mixed_point_counts():
    # counts 2, 4, 4, 7, 9: width 3 holds counts 4, 7 and 9, and its count-4
    # block stacks two sizes
    rng = np.random.default_rng(77)
    counts = {16: 2, 32: 4, 48: 4, 64: 7, 96: 9}
    data = ScalingDataset.from_points(
        [(L, d, 1.0 + rng.uniform()) for L, c in counts.items()
         for d in rng.uniform(0.0, 0.3, size=c)])
    assert selection_blocks(data) == {2: [(2, [0])], 3: [(4, [1, 2]), (7, [3]), (9, [4])]}
    values = 0
    for params in extreme_and_random_params(rng, 348):
        q = assert_matches_loop(data, *params)
        values += not isinstance(q, tuple)
    assert values > 300


def test_collapse_quality_matches_loop_on_bootstrap_resamples():
    rng = np.random.default_rng(31)
    mixed = ScalingDataset.from_points(
        [(L, d, 1.0 + rng.uniform()) for L, c in {16: 2, 32: 4, 48: 4, 64: 7, 96: 9}.items()
         for d in rng.uniform(0.0, 0.3, size=c)])
    planted = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    values = 0
    for base in (mixed, planted):
        n = len(base)
        for _ in range(8):
            idx = rng.integers(0, n, size=n)
            assert len(np.unique(idx)) < n  # rows repeat
            data = resample(base, idx)
            for params in extreme_and_random_params(rng, 76):
                q = assert_matches_loop(data, *params)
                values += not isinstance(q, tuple)
    assert values > 1000


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


def loop_objective(data, p):
    """The fit's objective at one point, from the loop kernel: the collapse
    quality over np.var of the rescaled y, or 1e12 where it is undefined."""
    delta_c, nu, zeta = p.tolist()
    try:
        q = loop_collapse_quality(data, delta_c, nu, zeta)
    except CollapseError:
        return 1e12
    var = np.var(data.values * data.sizes.astype(float) ** (-zeta / nu))
    return q / var if var > 0 else q


def assert_stack_matches_loop(datasets, points):
    """The stacked objective against the loop kernel, row by row, bit for bit."""
    got = scaling._normalized_quality(scaling._batch(datasets), points)
    want = np.array([loop_objective(d, p) for d, p in zip(datasets, points)])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    return got


def random_points(rng, rows, delta_c=(0.0, 0.3)):
    return np.column_stack([rng.uniform(*delta_c, rows), rng.uniform(0.5, 4.0, rows),
                            rng.uniform(0.5, 4.0, rows)])


def test_stacked_objective_matches_loop_on_one_dataset_repeated():
    rng = np.random.default_rng(14)
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    corners = np.array(extreme_and_random_params(rng, 0))
    for rows in (1, 9, 40, 160):
        points = np.concatenate([corners, random_points(rng, rows)])
        assert_stack_matches_loop([data] * len(points), points)


def test_stacked_objective_matches_loop_on_bootstrap_resamples():
    # duplicate points, and sizes whose point counts differ from row to row;
    # some resamples of `mixed` lose its 2-point size, so the batch holds two
    # stacks (4 and 5 sizes) whose rows interleave
    rng = np.random.default_rng(41)
    mixed = ScalingDataset.from_points(
        [(L, d, 1.0 + rng.uniform()) for L, c in {16: 2, 32: 4, 48: 4, 64: 7, 96: 9}.items()
         for d in rng.uniform(0.0, 0.3, size=c)])
    planted = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=rng)
    for base in (mixed, planted):
        n = len(base)
        datasets = [resample(base, rng.integers(0, n, size=n)) for _ in range(30)]
        assert all(len(np.unique(d.sizes)) < n for d in datasets)  # rows repeat
        n_sizes = [len(np.unique(d.sizes)) for d in datasets]
        if base is mixed:
            assert sorted(set(n_sizes)) == [4, 5]
            assert len(scaling._batch(datasets).stacks) == 2
        for _ in range(4):
            assert_stack_matches_loop(datasets, random_points(rng, len(datasets)))


def test_stacked_objective_scores_undefined_rows_alone():
    # two sizes whose rescaled x ranges overlap only for small delta_c and nu,
    # stacked with a planted set at 2 sizes
    near = ScalingDataset.from_points(
        [(32, d, 1.0 + d) for d in (0.3, 0.35, 0.4, 0.45, 0.5)]
        + [(64, d, 1.2 + d) for d in (0.05, 0.1, 0.15, 0.2)])
    two_sizes = synthetic_collapse(0.15, 1.9, 2.0, sizes=(32, 64), x_grid=np.linspace(-1, 1, 9))
    flat = ScalingDataset(two_sizes.sizes, two_sizes.deltas,
                          np.zeros(len(two_sizes)))  # zero variance: the quality stays as it is
    rng = np.random.default_rng(12)
    datasets = [near, two_sizes, flat] * 20
    points = random_points(rng, len(datasets), delta_c=(0.005, 0.2))
    values = assert_stack_matches_loop(datasets, points)
    near_values = values[0::3]
    assert 0 < np.count_nonzero(near_values == 1e12) < len(near_values)
    assert not np.any(values[1::3] == 1e12)
    assert np.all(values[2::3] == 0.0)


def test_interp_rows_matches_np_interp_branch_for_branch():
    # sorted rows from a small grid: repeated x, queries on grid points and
    # beyond both ends, equal and unequal values at a repeated x, infinities
    rng = np.random.default_rng(9)
    for k in (1, 2, 3, 5):
        xp = np.sort(rng.choice([-np.inf, 0.0, 1.0, 1.0, 2.0, 3.0, np.inf], size=(400, k)), axis=1)
        fp = rng.choice([0.0, 1.0, 2.5, -1.0, np.inf], size=(400, k))
        q = rng.choice([-np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, np.inf, np.nan], size=400)
        with np.errstate(invalid="ignore"):
            got = scaling._interp_rows(q, xp, fp)
            want = np.array([np.interp(a, b, c) for a, b, c in zip(q, xp, fp)])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), k


def test_fit_collapse_redraws_resamples_with_one_size():
    # 8 of 10 points share a size, so about one draw in nine has a single
    # size; such a draw is redrawn, never refitted
    data = ScalingDataset.from_points(
        [(32, d, 1.0 + d) for d in np.linspace(0.0, 0.35, 8)] + [(64, 0.1, 1.3), (96, 0.2, 1.5)])
    fit = fit_collapse(data, init=(0.12, 1.5, 1.6), bootstrap_n=30, seed=1)
    assert np.all(np.isfinite(fit.errors))


def test_fit_collapse_identical_with_loop_kernel(monkeypatch):
    # the benchmark's refit data: 2% noise from a fixed seed
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=np.random.default_rng(0))
    stacked, together = scaling._normalized_quality, scaling._lockstep

    def loop(batch, points):
        return np.array([loop_objective(d, p) for d, p in zip(batch.datasets, points)])

    def alone(runs):
        return [res for run in runs for res in together([run])]

    def fit_with(objective, lockstep):
        rows = []  # every evaluated (dataset, point, value)

        def recorded(batch, points):
            values = objective(batch, points)
            rows.extend((d.values.tobytes(), p.tobytes(), v.tobytes())
                        for d, p, v in zip(batch.datasets, points, values))
            return values

        monkeypatch.setattr(scaling, "_normalized_quality", recorded)
        monkeypatch.setattr(scaling, "_lockstep", lockstep)
        fit = fit_collapse(data, init=(0.12, 1.5, 1.6), bootstrap_n=2, seed=0)
        return fit.as_dict(), len(rows), sorted(rows)

    reference = fit_with(loop, alone)
    assert reference[1] > 2000
    assert fit_with(stacked, together) == reference
    assert fit_with(stacked, alone) == reference


def test_fit_collapse_builds_each_layout_once(monkeypatch):
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=np.random.default_rng(0))
    built = []
    build = scaling._collapse_layout

    def counted(dataset):
        built.append(dataset)
        return build(dataset)

    monkeypatch.setattr(scaling, "_collapse_layout", counted)
    fit_collapse(data, init=(0.12, 1.5, 1.6), bootstrap_n=2, seed=0)
    # one for the data, one per bootstrap resample, over thousands of evaluations
    assert len(built) == 3
    assert built[0] is data and len({id(d) for d in built}) == 3


def test_dataset_arrays_are_read_only_copies():
    base = synthetic_collapse(0.15, 1.9, 2.0, noise=0.05, rng=np.random.default_rng(4))
    arrays = [a.copy() for a in (base.sizes, base.deltas, base.values)]
    data = ScalingDataset(*arrays)
    for a in (data.sizes, data.deltas, data.values):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    q = collapse_quality(data, 0.1, 1.5, 1.5)
    for a in arrays:
        a[:] = a[0]  # a single size, delta and value if the dataset shared them
    assert collapse_quality(data, 0.1, 1.5, 1.5) == q
    for a, b in zip((data.sizes, data.deltas, data.values),
                    (base.sizes, base.deltas, base.values)):
        assert np.array_equal(a, b)


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
    for init in ((0.15, 10.0, 2.0), (float("nan"), 1.9, 2.0)):
        with pytest.raises(ValueError, match="outside bounds"):
            fit_collapse(data, init=init)


def test_fit_collapse_rejects_bounds_without_room():
    data = synthetic_collapse(0.15, 1.9, 2.0)
    for nu_bounds in ((1.9, 1.9), (2.5, 1.5)):
        with pytest.raises(ValueError, match="lo < hi"):
            fit_collapse(data, bounds=((0.005, 1.0), nu_bounds, (0.5, 4.0)), bootstrap_n=0)


def scipy_nelder_mead(func, x0, lo, hi, maxiter):
    """scipy's bounded Nelder-Mead at fit_collapse's tolerances: the reference path."""
    from scipy.optimize import minimize  # the package itself never loads it

    res = minimize(func, np.asarray(x0, dtype=float), method="Nelder-Mead",
                   bounds=list(zip(lo, hi)),
                   options={"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-14})
    return res.x.tolist(), res.fun, res.success


def run_simplex(func, x0, lo, hi, maxiter):
    """One simplex run, driven point by point with a scalar objective."""
    simplex = scaling._nelder_mead(np.asarray(x0, dtype=float), lo, hi, maxiter)
    try:
        point = next(simplex)
        while True:
            point = simplex.send(func(point))
    except StopIteration as stop:
        return stop.value


def objective(data):
    """The fit's objective on one dataset, one point at a time."""
    batch = scaling._batch([data])
    return lambda p: scaling._normalized_quality(batch, p[None])[0]


def assert_same_simplex_path(func, x0, lo, hi, maxiter):
    ours = run_simplex(func, x0, lo, hi, maxiter)
    assert (ours.x.tolist(), ours.fun, ours.success) == scipy_nelder_mead(func, x0, lo, hi,
                                                                          maxiter)
    return ours


DEFAULT_LO = np.array([b[0] for b in scaling.DEFAULT_BOUNDS])
DEFAULT_HI = np.array([b[1] for b in scaling.DEFAULT_BOUNDS])


def recorded_runs(monkeypatch, data, **kwargs):
    """(dataset, start, lo, hi, maxiter) of every simplex run of one fit, in order."""
    starts, datasets = [], []
    simplex, lockstep = scaling._nelder_mead, scaling._lockstep

    def record_start(x0, lo, hi, maxiter):
        starts.append((x0.copy(), lo, hi, maxiter))
        return simplex(x0, lo, hi, maxiter)

    def record_datasets(runs):
        datasets.extend(d for d, _ in runs)
        return lockstep(runs)

    monkeypatch.setattr(scaling, "_nelder_mead", record_start)
    monkeypatch.setattr(scaling, "_lockstep", record_datasets)
    fit_collapse(data, init=(0.12, 1.5, 1.6), **kwargs)
    monkeypatch.undo()  # the replays run the real simplex
    assert len(datasets) == len(starts)
    return [(d, *start) for d, start in zip(datasets, starts)]


def test_nelder_mead_follows_scipy_on_every_start_of_a_fit(monkeypatch):
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=np.random.default_rng(8))
    runs = recorded_runs(monkeypatch, data, bootstrap_n=0, seed=5)
    assert [r[4] for r in runs] == [2000] * 9 and all(r[0] is data for r in runs)
    for dataset, *run in runs:
        assert assert_same_simplex_path(objective(dataset), *run).success


def test_nelder_mead_follows_scipy_on_a_bootstrap_resample(monkeypatch):
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=np.random.default_rng(0))
    refits = recorded_runs(monkeypatch, data, bootstrap_n=2, seed=0)[9:]
    assert [r[4] for r in refits] == [400] * 2
    for dataset, *run in refits:
        assert len(np.unique(dataset.deltas)) < len(data)  # rows repeat
        assert_same_simplex_path(objective(dataset), *run)


def test_nelder_mead_follows_scipy_at_bounds_and_when_cut_short():
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.05, rng=np.random.default_rng(1))

    func = objective(data)
    # nu and zeta start on their upper bound: the initial vertices step past it
    # and are reflected back inside
    assert_same_simplex_path(func, (0.15, 4.0, 4.0), DEFAULT_LO, DEFAULT_HI, 2000)
    # a zero coordinate steps by 0.00025, not 5%
    assert_same_simplex_path(func, (0.0, 1.9, 2.0), np.array([-0.2, 0.5, 0.5]),
                             DEFAULT_HI, 2000)
    cut = assert_same_simplex_path(func, (0.12, 1.5, 1.6), DEFAULT_LO, DEFAULT_HI, 5)
    assert not cut.success


def test_nelder_mead_follows_scipy_where_the_collapse_is_undefined():
    # two sizes whose rescaled x ranges overlap only for small delta_c and nu:
    # elsewhere collapse_quality raises and the objective returns 1e12
    data = ScalingDataset.from_points(
        [(32, d, 1.0 + d) for d in (0.3, 0.35, 0.4, 0.45, 0.5)]
        + [(64, d, 1.2 + d) for d in (0.05, 0.1, 0.15, 0.2)])
    func = objective(data)
    for x0, all_undefined in (((0.1, 1.0, 1.0), False), ((0.15, 1.5, 1.0), True)):
        values = []

        def recorded(p):
            values.append(func(p))
            return values[-1]

        run_simplex(recorded, x0, DEFAULT_LO, DEFAULT_HI, 2000)
        n_undefined = values.count(1e12)
        if all_undefined:  # every value ties, so the vertex order is argsort's tie order
            assert n_undefined == len(values)
        else:
            assert 0 < n_undefined < len(values)
        assert_same_simplex_path(func, x0, DEFAULT_LO, DEFAULT_HI, 2000)


def test_nelder_mead_follows_scipy_on_staircase_objectives():
    # piecewise-constant values tie at every kind of comparison the simplex makes
    staircases = (lambda p: float(np.floor(4 * np.sum((p - 1.0) ** 2))),
                  lambda p: float(np.round(np.sum((p - 1.3) ** 2), 1)))
    for objective in staircases:
        for x0 in ((0.5, 2.0, 3.0), (0.9, 3.5, 0.6), (0.15, 1.9, 2.0)):
            assert_same_simplex_path(objective, x0, DEFAULT_LO, DEFAULT_HI, 2000)


def test_rescaled_is_read_only_and_keeps_the_sign_of_zero():
    data = ScalingDataset.from_points([(16, -0.0, 1.0), (32, 0.1, 2.0)])
    x, y = data.rescaled(0.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        y[0] = 0.0
    # -0.0 == 0.0, but -0.0 - 0.0 and -0.0 - (-0.0) differ in sign
    x_neg, _ = data.rescaled(-0.0, 1.5, 1.0)
    assert np.signbit(x[0]) and not np.signbit(x_neg[0])


def test_fit_collapse_dataset_invariants():
    small = synthetic_collapse(0.15, 1.9, 2.0, sizes=(32, 64))
    with pytest.raises(CollapseError, match="3 sizes"):
        fit_collapse(small)


def test_fit_collapse_rejects_non_finite_data(monkeypatch):
    data = synthetic_collapse(0.15, 1.9, 2.0, noise=0.02, rng=np.random.default_rng(0))

    def never(*args):
        raise AssertionError("the objective ran on non-finite data")

    monkeypatch.setattr(scaling, "_normalized_quality", never)
    columns = {"sizes": data.sizes.astype(float), "deltas": data.deltas, "values": data.values}
    for name, bad, count, words in (("values", np.nan, 1, "1 non-finite entry"),
                                    ("deltas", np.inf, 2, "2 non-finite entries"),
                                    ("sizes", -np.inf, 3, "3 non-finite entries")):
        changed = dict(columns)
        changed[name] = columns[name].copy()
        changed[name][[5, 17, 30][:count]] = bad
        with pytest.raises(CollapseError, match=f"{name} holds {words}"):
            fit_collapse(ScalingDataset(**changed), bootstrap_n=2)


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
