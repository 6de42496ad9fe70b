"""Scaling fits: power laws, finite-size data collapse, and the log-profile fit.

The collapse objective follows the local master-curve idea: rescale every
point to (x, y) = (L^{1/nu} (delta - delta_c), S L^{-zeta/nu}) and score each
point against a linear interpolation built from the nearby points of the
*other* sizes, so no parametric form of the scaling function is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np


class CollapseError(ValueError):
    pass


class PowerLawFit(NamedTuple):
    beta: float
    stderr: float


class LogProfileFit(NamedTuple):
    c: float
    const: float
    rms_residual: float


class _CollapseLayout(NamedTuple):
    """The parameter-independent part of collapse_quality for one dataset."""

    n_sizes: int
    group: np.ndarray         # size index of each point
    edges: np.ndarray         # size s holds sorted places edges[s]:edges[s + 1]
    widths: tuple             # (k, ((places, rows), ...), queries, their slots)
    wsum: float


def _collapse_layout(data: "ScalingDataset", neighbors: int) -> _CollapseLayout:
    """Group each (point, other size) estimate by interpolation width k, and
    within a width by the other size's point count.

    One block per count: row r of its `places` matrix lists the sorted places
    of the size that query r is scored against, so one selection covers every
    size of that count.  `rows` is the block's slice of the width's queries.
    """
    unique_sizes = np.unique(data.sizes)
    n_sizes = len(unique_sizes)
    if n_sizes < 2:
        raise CollapseError("collapse undefined for fewer than 2 sizes")
    group = np.searchsorted(unique_sizes, data.sizes)
    counts = np.bincount(group, minlength=n_sizes)
    edges = np.concatenate(([0], np.cumsum(counts)))
    by_width = {}  # k -> {point count -> [(others, places, slots) per size]}
    for s in range(n_sizes):
        count = int(counts[s])
        others = np.flatnonzero(group != s)
        slots = others * (n_sizes - 1) + s - (group[others] < s)
        places = np.tile(np.arange(edges[s], edges[s + 1]), (len(others), 1))
        by_width.setdefault(min(neighbors, count), {}).setdefault(count, []).append(
            (others, places, slots))
    widths = []
    for k, by_count in by_width.items():
        blocks, start = [], 0
        for parts in by_count.values():
            places = np.concatenate([p[1] for p in parts])
            blocks.append((places, slice(start, start + len(places))))
            start += len(places)
        parts = [p for same_count in by_count.values() for p in same_count]
        widths.append((k, tuple(blocks), np.concatenate([p[0] for p in parts]),
                       np.concatenate([p[2] for p in parts])))
    return _CollapseLayout(n_sizes, group, edges, tuple(widths), np.cumsum(data.weights)[-1])


@dataclass(frozen=True)
class ScalingDataset:
    """Half-chain entropy points (L, delta, s_half, weight) for collapse fits.

    The four arrays are read-only copies of the ones passed in, so the
    collapse layouts cached on the dataset cannot go stale.
    """

    sizes: np.ndarray
    deltas: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("sizes", "deltas", "values", "weights"):
            array = np.array(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_last_rescaled", None)

    @classmethod
    def from_points(cls, points: Sequence[tuple]) -> "ScalingDataset":
        """Build from an iterable of (L, delta, s_half[, weight]) tuples."""
        rows = [tuple(p) for p in points]
        if not rows:
            raise ValueError("empty dataset")
        sizes = np.array([r[0] for r in rows], dtype=int)
        deltas = np.array([r[1] for r in rows], dtype=float)
        values = np.array([r[2] for r in rows], dtype=float)
        weights = np.array([r[3] if len(r) > 3 else 1.0 for r in rows], dtype=float)
        return cls(sizes=sizes, deltas=deltas, values=values, weights=weights)

    def __len__(self) -> int:
        return len(self.sizes)

    def restrict_delta(self, min_delta: float | None = None) -> "ScalingDataset":
        """Keep only points with delta >= min_delta (all points when it is None)."""
        keep = np.ones(len(self), dtype=bool) if min_delta is None else self.deltas >= min_delta
        return ScalingDataset(self.sizes[keep], self.deltas[keep],
                              self.values[keep], self.weights[keep])

    @cached_property
    def _float_sizes(self) -> np.ndarray:
        return self.sizes.astype(float)

    @cached_property
    def _layouts(self) -> dict:
        return {}

    def rescaled(self, delta_c: float, nu: float, zeta: float):
        """Collapse coordinates (x, y) = (L^{1/nu} (delta - delta_c), S L^{-zeta/nu}).

        The arrays are read-only.  The last call's pair is returned again when
        called with the same three parameter objects, so the fit's objective
        rescales once per evaluation.  Identity, not ==, decides: 0.0 == -0.0,
        but the two give x of opposite sign where a delta is -0.0.
        """
        last = self._last_rescaled
        if last is not None and last[0] is delta_c and last[1] is nu and last[2] is zeta:
            return last[3], last[4]
        sizes = self._float_sizes
        x = sizes ** (1.0 / nu) * (self.deltas - delta_c)
        y = self.values * sizes ** (-zeta / nu)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "_last_rescaled", (delta_c, nu, zeta, x, y))
        return x, y

    def require_fit_invariants(self):
        """Collapse fitting needs >= 3 distinct sizes and >= 5 distinct deltas."""
        n_l = len(np.unique(self.sizes))
        n_d = len(np.unique(self.deltas))
        if n_l < 3 or n_d < 5:
            raise CollapseError(
                f"collapse fit needs >= 3 sizes and >= 5 deltas, got {n_l} and {n_d}"
            )


def power_law_fit(sizes: Sequence[int], values: Sequence[float]) -> PowerLawFit:
    """Least-squares slope of ln(value) against ln(size), with its std error."""
    L = np.asarray(sizes, dtype=float)
    S = np.asarray(values, dtype=float)
    if len(L) < 3:
        raise ValueError(f"power-law fit needs >= 3 points, got {len(L)}")
    if np.any(S <= 0):
        raise ValueError("power-law fit needs positive values (log undefined)")
    x = np.log(L)
    y = np.log(S)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0:
        raise ValueError("power-law fit needs distinct sizes")
    beta = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + beta * (x - xbar))
    rss = float(np.sum(resid**2))
    stderr = float(np.sqrt(max(rss, 0.0) / (len(x) - 2) / sxx))
    return PowerLawFit(beta=beta, stderr=stderr)


def _interp_rows(q: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(q[i], xp[i], fp[i]) for every row i, branch for branch.

    Rows of xp are non-decreasing; the end values of each row are its left and
    right fill values, as in np.interp's defaults.
    """
    n_rows, k = xp.shape
    if k == 0:
        raise ValueError("array of sample points is empty")
    if k == 1:
        return fp[:, 0].copy()
    rows = np.arange(n_rows)
    j = np.add.reduce(xp <= q[:, None], axis=1) - 1  # last j with xp[j] <= q
    jc = np.minimum(np.maximum(j, 0), k - 2)
    x0, x1 = xp[rows, jc], xp[rows, jc + 1]
    f0, f1 = fp[rows, jc], fp[rows, jc + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (f1 - f0) / (x1 - x0)
        out = slope * (q - x0) + f0
        retry = np.isnan(out)
        if retry.any():
            # np.interp retries a NaN from the right end of the interval
            again = slope * (q - x1) + f1
            again = np.where(np.isnan(again) & (f0 == f1), f0, again)
            out = np.where(retry, again, out)
    out = np.where(x0 == q, f0, out)
    out = np.where(j < 0, fp[:, 0], np.where(j == k - 1, fp[:, k - 1], out))
    return np.where(np.isnan(q), q, out)


def collapse_quality(data: ScalingDataset, delta_c: float, nu: float, zeta: float,
                     neighbors: int = 3) -> float:
    """Weighted mean squared deviation of each point from the local master curve.

    Every point gets one estimate from each other size.  That size's points
    are sorted by rescaled x (stably); the `neighbors` of them nearest to the
    point's x, chosen by np.argpartition of |x_j - x|, give a linear
    interpolation with np.interp's semantics: flat extrapolation at the end
    values beyond the neighbors' x-range, and the grid value where x equals a
    neighbor's x.  A distance tie at the last chosen place goes the way
    np.argpartition's selection goes, which is fixed for given data but not
    by index order (the tie can go to a later index).  A size with a single
    point estimates its y.  The residual is taken against the mean of the
    estimates (sizes in ascending order), and the squares are summed in point
    order.  Zero for a perfect collapse where sizes share x grid points.

    What depends only on the dataset and `neighbors` (size groups, and each
    other size's candidate places, grouped by point count) is built once and
    cached on the dataset.
    """
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    x, y = data.rescaled(delta_c, nu, zeta)
    layout = data._layouts.get(neighbors)
    if layout is None:
        layout = data._layouts[neighbors] = _collapse_layout(data, neighbors)
    edges = layout.edges

    # points sorted by (size, x); lexsort is stable, like a per-size stable argsort
    order = np.lexsort((x, layout.group))
    x_sorted, y_sorted = x[order], y[order]
    lo, hi = x_sorted[edges[:-1]].tolist(), x_sorted[edges[1:] - 1].tolist()
    if not any(lo[a] <= hi[b] and lo[b] <= hi[a]
               for a in range(layout.n_sizes) for b in range(a + 1, layout.n_sizes)):
        raise CollapseError("no two sizes overlap in rescaled x; collapse undefined")

    # one estimate per (point, other size), filled in ascending size order
    estimates = np.empty((len(data), layout.n_sizes - 1))
    flat = estimates.reshape(-1)
    for k, blocks, queries, slots in layout.widths:
        q = x[queries]
        chosen = []
        for places, rows in blocks:
            near = np.abs(x_sorted[places] - q[rows, None]).argpartition(k - 1, axis=1)[:, :k]
            near.sort(axis=1)
            near += places[:, :1]  # each row's places are consecutive
            chosen.append(near)
        chosen = np.concatenate(chosen)
        flat[slots] = _interp_rows(q, x_sorted[chosen], y_sorted[chosen])
    # np.mean's sum-then-divide, without its wrapper
    r = y - np.add.reduce(estimates, axis=1) / (layout.n_sizes - 1)
    # running sums keep the point-by-point summation order
    if layout.wsum == 0:
        raise CollapseError("no point could be scored against another size")
    return np.cumsum(data.weights * r * r)[-1] / layout.wsum


@dataclass(frozen=True)
class CollapseFit:
    """Fitted (delta_c, nu, zeta), the residual quality, and bootstrap errors."""

    delta_c: float
    nu: float
    zeta: float
    quality: float
    errors: tuple[float, float, float]
    clipped: bool = False
    converged: bool = True
    n_points: int = 0

    def as_dict(self) -> dict:
        return {
            "delta_c": self.delta_c,
            "nu": self.nu,
            "zeta": self.zeta,
            "quality": self.quality,
            "delta_c_err": self.errors[0],
            "nu_err": self.errors[1],
            "zeta_err": self.errors[2],
            "clipped": self.clipped,
            "converged": self.converged,
            "n_points": self.n_points,
        }


DEFAULT_INIT = (0.15, 1.9, 2.0)
DEFAULT_BOUNDS = ((0.005, 1.0), (0.5, 4.0), (0.5, 4.0))


def _normalized_quality(data: ScalingDataset, p) -> float:
    # The absolute quality is degenerate along zeta/nu (rescaling all y toward
    # zero shrinks it for free), so the optimizer scores residuals relative to
    # the spread of the rescaled y values.
    delta_c, nu, zeta = p.tolist()
    try:
        q = collapse_quality(data, delta_c, nu, zeta)
    except CollapseError:
        return 1e12
    _, y = data.rescaled(delta_c, nu, zeta)  # the pair collapse_quality just made
    # np.var(y): the same two pairwise sums, without its wrapper
    d = y - np.add.reduce(y) / len(y)
    var = float(np.add.reduce(d * d) / len(y))
    return q / var if var > 0 else q


class _SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    success: bool


def _nelder_mead(func, x0, lo, hi, maxiter: int) -> _SimplexResult:
    """Minimize func over the box [lo, hi] with the Nelder-Mead simplex.

    Nelder & Mead, Comput. J. 7, 308 (1965), with reflection 1, expansion 2,
    contraction and shrink 1/2.  This is the path of scipy's minimize(...,
    method="Nelder-Mead", bounds=..., xatol=1e-7, fatol=1e-14) at its
    non-adaptive defaults, operation for operation, so a fit gives the same
    bits: the start is clipped into the box; the initial vertices step each
    coordinate by 5% (0.00025 from zero), are reflected back below the upper
    bound where they pass it, then clipped; every trial point is clipped;
    vertices are ordered by np.argsort (twice before the first iteration, as
    there, so the path does not hang on how argsort orders ties); and the run
    stops when the vertices lie within 1e-7 and their values within 1e-14 of
    the best.  success is False when maxiter iterations run out first.
    """
    n = len(x0)
    x0 = np.clip(x0, lo, hi)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.array([func(v) for v in sim], dtype=float)
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-7
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-14):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip(2 * xbar - sim[-1], lo, hi)
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = func(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return _SimplexResult(sim[0], np.min(fsim), iterations < maxiter)


def fit_collapse(
    data: ScalingDataset,
    init: tuple[float, float, float] = DEFAULT_INIT,
    bounds: tuple = DEFAULT_BOUNDS,
    bootstrap_n: int = 100,
    seed: int = 0,
) -> CollapseFit:
    """Minimize the collapse residual over (delta_c, nu, zeta).

    Runs the Nelder-Mead simplex (Nelder & Mead, Comput. J. 7, 308 (1965);
    see _nelder_mead) from `init` and 8 deterministically perturbed copies,
    keeps the best minimum, and estimates parameter errors by refitting
    `bootstrap_n` resamples of the points (seeded).  The optimizer scores the
    variance-normalized residual (see _normalized_quality); the reported
    quality is the plain collapse_quality at the fitted parameters.

    Each (lo, hi) pair of `bounds` needs lo < hi, and `init` must lie inside.
    Every point the simplex tries is clipped into the bounds, and an initial
    vertex stepped past an upper bound is first reflected back below it; a
    result pinned at a bound sets the clipped flag.
    """
    data.require_fit_invariants()
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if not np.all(lo < hi):
        raise ValueError(f"bounds {bounds} need lo < hi in every pair")
    x0 = np.asarray(init, dtype=float)
    if not np.all((lo <= x0) & (x0 <= hi)):  # NaN fails too
        raise ValueError(f"init {init} outside bounds {bounds}")

    rng = np.random.default_rng(seed)
    starts = [x0]
    for _ in range(8):
        trial = x0 * (1.0 + 0.25 * rng.uniform(-1.0, 1.0, size=3))
        starts.append(np.clip(trial, lo, hi))

    best = None
    for s in starts:
        res = _nelder_mead(lambda p: _normalized_quality(data, p), s, lo, hi, maxiter=2000)
        if best is None or res.fun < best.fun:
            best = res
    assert best is not None
    params = np.clip(best.x, lo, hi)
    quality = collapse_quality(data, params[0], params[1], params[2])
    clipped = bool(np.any(np.isclose(params, lo, rtol=0, atol=1e-9))
                   or np.any(np.isclose(params, hi, rtol=0, atol=1e-9)))

    n = len(data)
    samples = []
    for _ in range(bootstrap_n):
        resampled = None
        for _attempt in range(100):
            idx = rng.integers(0, n, size=n)
            candidate = ScalingDataset(
                data.sizes[idx], data.deltas[idx], data.values[idx], data.weights[idx]
            )
            if len(np.unique(candidate.sizes)) >= 2:
                resampled = candidate
                break
        if resampled is None:
            continue
        res = _nelder_mead(lambda p: _normalized_quality(resampled, p), params, lo, hi,
                           maxiter=400)
        samples.append(np.clip(res.x, lo, hi))
    if len(samples) >= 2:
        errors = tuple(float(e) for e in np.std(np.asarray(samples), axis=0, ddof=1))
    else:
        errors = (0.0, 0.0, 0.0)

    return CollapseFit(
        delta_c=float(params[0]),
        nu=float(params[1]),
        zeta=float(params[2]),
        quality=float(quality),
        errors=errors,
        clipped=clipped,
        converged=bool(best.success),
        n_points=n,
    )


def cft_log_fit(profile: Sequence[tuple], length: int) -> LogProfileFit:
    """Fit S_l = (c/6) ln sin(pi l / L) + const by linear least squares.

    Points with sin(pi l / L) < 1e-6 are dropped.  The rms residual is
    reported so callers can judge whether the logarithmic form describes the
    profile at all.
    """
    pts = np.asarray(profile, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("profile must be rows of (l, S_l)")
    ell = pts[:, 0]
    if np.any(ell < 1) or np.any(ell > length - 1):
        raise ValueError(f"subsystem lengths must lie in [1, {length - 1}]")
    s = np.sin(np.pi * ell / length)
    keep = s >= 1e-6
    if np.count_nonzero(keep) < 3:
        raise ValueError("need at least 3 usable points for the log fit")
    x = np.log(s[keep])
    y = pts[keep, 1]
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return LogProfileFit(c=float(6.0 * coef[0]), const=float(coef[1]), rms_residual=rms)
