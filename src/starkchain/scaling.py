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


NEIGHBORS = 3  # points of each other size that a point's estimate interpolates


class PowerLawFit(NamedTuple):
    beta: float
    stderr: float


class LogProfileFit(NamedTuple):
    c: float
    const: float
    rms_residual: float


class _CollapseLayout(NamedTuple):
    """The parameter-independent part of the collapse objective for a stack of
    rows, each a dataset, that share their point count n and size count m.

    Indices are flat: row r holds points r n ... r n + n - 1, in the order of
    its dataset, and estimates r n (m - 1) ... (r + 1) n (m - 1) - 1.  Each
    (point, other size) estimate is a query, scored against the other size's
    places (its points' indices once the stack is sorted by row, size and x).
    """

    n_sizes: int
    columns: tuple            # float sizes, deltas, values, each (rows, n)
    key: np.ndarray           # row * m + size index of each point: the sort's first key
    pairs: np.ndarray         # (4, rows, size pairs): places of lo_a, hi_b, lo_b, hi_a
    blocks: dict              # (k, point count) -> (places, queries, slots), one query a row
    widths: tuple             # per width k, the blocks flattened: see _widths


def _widths(blocks: dict) -> tuple:
    """Flatten the blocks of each width k into one distance gather.

    Per width: the places of every query row end to end, the point each
    place is measured from, the cuts (start, stop, count) that give each
    block's distance matrix (one argpartition per block), and each query's
    first place, point and estimate slot, in block order.
    """
    by_width = {}
    for (k, _), block in blocks.items():
        by_width.setdefault(k, []).append(block)
    widths = []
    for k, parts in by_width.items():
        places, queries, slots = zip(*parts)
        stops = np.cumsum([p.size for p in places]).tolist()
        widths.append((k, np.concatenate([p.ravel() for p in places]),
                       np.concatenate([np.repeat(q, p.shape[1]) for p, q in zip(places, queries)]),
                       tuple(zip([0] + stops, stops, [p.shape[1] for p in places])),
                       np.concatenate([p[:, :1] for p in places]),
                       np.concatenate(queries), np.concatenate(slots)))
    return tuple(widths)


def _collapse_layout(data: "ScalingDataset") -> _CollapseLayout:
    """The layout of one dataset: a stack of one row.

    One block per (width, point count): row r of its `places` matrix lists
    the sorted places of the size that query r is scored against, so one
    selection covers every size of that count.
    """
    unique_sizes = np.unique(data.sizes)
    m = len(unique_sizes)
    if m < 2:
        raise CollapseError("collapse undefined for fewer than 2 sizes")
    group = np.searchsorted(unique_sizes, data.sizes)
    counts = np.bincount(group, minlength=m)
    edges = np.concatenate(([0], np.cumsum(counts)))
    blocks = {}  # (k, point count) -> [(places, others, slots) per size]
    for s in range(m):
        count = int(counts[s])
        others = np.flatnonzero(group != s)
        slots = others * (m - 1) + s - (group[others] < s)
        places = np.tile(np.arange(edges[s], edges[s + 1]), (len(others), 1))
        blocks.setdefault((min(NEIGHBORS, count), count), []).append((places, others, slots))
    blocks = {kc: tuple(np.concatenate(a) for a in zip(*parts)) for kc, parts in blocks.items()}
    a, b = np.triu_indices(m, 1)
    lo, hi = edges[:-1], edges[1:] - 1
    columns = tuple(c.reshape(1, -1) for c in (data._float_sizes, data.deltas, data.values))
    return _CollapseLayout(m, columns, group, np.stack((lo[a], hi[b], lo[b], hi[a]))[:, None],
                           blocks, _widths(blocks))


def _stack(parts: list) -> _CollapseLayout:
    """One layout for the rows of `parts`, in order; all share n and m."""
    if len(parts) == 1:
        return parts[0]
    m = parts[0].n_sizes
    n = parts[0].columns[0].shape[1]
    rows = np.cumsum([0] + [len(p.columns[0]) for p in parts[:-1]]).tolist()  # before each part
    blocks = {}
    for part, row in zip(parts, rows):
        for kc, (places, queries, slots) in part.blocks.items():
            blocks.setdefault(kc, []).append(
                (places + row * n, queries + row * n, slots + row * n * (m - 1)))
    blocks = {kc: tuple(np.concatenate(a) for a in zip(*b)) for kc, b in blocks.items()}
    return _CollapseLayout(
        m, tuple(np.concatenate(c) for c in zip(*(p.columns for p in parts))),
        np.concatenate([p.key + row * m for p, row in zip(parts, rows)]),
        np.concatenate([p.pairs + row * n for p, row in zip(parts, rows)], axis=1),
        blocks, _widths(blocks))


def _rescale(sizes, deltas, values, delta_c, nu, zeta):
    return sizes ** (1.0 / nu) * (deltas - delta_c), values * sizes ** (-zeta / nu)


@dataclass(frozen=True)
class ScalingDataset:
    """Half-chain entropy points (L, delta, s_half) for collapse fits.

    The three arrays are read-only copies of the ones passed in, so the
    collapse layout cached on the dataset cannot go stale.
    """

    sizes: np.ndarray
    deltas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("sizes", "deltas", "values"):
            array = np.array(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def from_points(cls, points: Sequence[tuple]) -> "ScalingDataset":
        """Build from an iterable of (L, delta, s_half) tuples."""
        rows = [tuple(p) for p in points]
        if not rows:
            raise ValueError("empty dataset")
        if any(len(r) != 3 for r in rows):
            raise ValueError("each point must be an (L, delta, s_half) tuple")
        sizes, deltas, values = zip(*rows)
        return cls(np.array(sizes, dtype=int), np.array(deltas, dtype=float),
                   np.array(values, dtype=float))

    def __len__(self) -> int:
        return len(self.sizes)

    def restrict_delta(self, min_delta: float | None = None) -> "ScalingDataset":
        """Keep only points with delta >= min_delta (all points when it is None)."""
        keep = np.ones(len(self), dtype=bool) if min_delta is None else self.deltas >= min_delta
        return ScalingDataset(self.sizes[keep], self.deltas[keep], self.values[keep])

    @cached_property
    def _float_sizes(self) -> np.ndarray:
        return self.sizes.astype(float)

    @cached_property
    def _layout(self) -> _CollapseLayout:
        return _collapse_layout(self)

    def rescaled(self, delta_c: float, nu: float, zeta: float):
        """Collapse coordinates (x, y) = (L^{1/nu} (delta - delta_c), S L^{-zeta/nu}), read-only."""
        x, y = _rescale(self._float_sizes, self.deltas, self.values, delta_c, nu, zeta)
        x.setflags(write=False)
        y.setflags(write=False)
        return x, y

    def require_fit_invariants(self):
        """Collapse fitting needs finite data, >= 3 distinct sizes and >= 5 distinct deltas."""
        for name in ("sizes", "deltas", "values"):
            bad = np.count_nonzero(~np.isfinite(getattr(self, name)))
            if bad:
                raise CollapseError(f"collapse fit needs finite data, but {name} holds "
                                    f"{bad} non-finite entr{'y' if bad == 1 else 'ies'}")
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
    if not np.all(np.isfinite(L) & (L > 0)):
        raise ValueError("power-law fit needs finite positive sizes")
    if not np.all(np.isfinite(S)):
        raise ValueError("power-law fit needs finite values")
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
    if k == 1:
        return fp[:, 0].copy()
    j = np.add.reduce(xp <= q[:, None], axis=1) - 1  # last j with xp[j] <= q
    i0 = np.minimum(np.maximum(j, 0), k - 2)
    i0 += np.arange(0, n_rows * k, k)  # flat place of each row's x0
    x0, x1, f0, f1 = xp.take(i0), xp.take(i0 + 1), fp.take(i0), fp.take(i0 + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (f1 - f0) / (x1 - x0)
        out = slope * (q - x0) + f0
        retry = np.isnan(out)
        if retry.any():
            # np.interp retries a NaN from the right end of the interval
            again = slope * (q - x1) + f1
            again = np.where(np.isnan(again) & (f0 == f1), f0, again)
            out = np.where(retry, again, out)
    # the grid value where q hits x0, and the end values outside the grid
    np.copyto(out, f0, where=(x0 == q) | (j < 0))
    np.copyto(out, f1, where=j == k - 1)
    np.copyto(out, q, where=np.isnan(q))
    return out


def collapse_quality(data: ScalingDataset, delta_c: float, nu: float, zeta: float) -> float:
    """Mean squared deviation of each point from the local master curve.

    Every point gets one estimate from each other size.  That size's points
    are sorted by rescaled x (stably); the NEIGHBORS of them nearest to the
    point's x, chosen by np.argpartition of |x_j - x|, give a linear
    interpolation with np.interp's semantics: flat extrapolation at the end
    values beyond the neighbors' x-range, and the grid value where x equals a
    neighbor's x.  A distance tie at the last chosen place goes the way
    np.argpartition's selection goes, which is fixed for given data but not
    by index order (the tie can go to a later index).  A size with a single
    point estimates its y.  The residual is taken against the mean of the
    estimates (sizes in ascending order), and the squares are summed in point
    order.  Zero for a perfect collapse where sizes share x grid points.

    This is the stack of one of _stack_quality.  What depends only on the
    dataset (size groups, and each other size's candidate places, grouped by
    point count) is built once and cached on the dataset.
    """
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    quality, _, overlap = _stack_quality(data._layout, np.array([[delta_c, nu, zeta]], float))
    if not overlap[0]:
        raise CollapseError("no two sizes overlap in rescaled x; collapse undefined")
    return quality[0]


def _stack_quality(layout: _CollapseLayout, points: np.ndarray):
    """collapse_quality of every row of a stack at its own (delta_c, nu, zeta).

    Returns each row's quality, the variance of its rescaled y, and whether
    two of its sizes overlap in rescaled x.  Each row gets the bits that a
    call on its dataset alone gets: the rows share one sort, one selection
    per (width, point count) and one interpolation, but no value crosses
    rows.  A row without overlap gets a meaningless quality.
    """
    sizes, deltas, values = layout.columns
    rows, n = sizes.shape
    m = layout.n_sizes
    delta_c, nu, zeta = points.T[:, :, None]
    x, y = _rescale(sizes, deltas, values, delta_c, nu, zeta)
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)

    # points sorted by (row, size, x); lexsort is stable, like a per-size stable argsort
    order = np.lexsort((flat_x, layout.key))
    x_sorted, y_sorted = flat_x[order], flat_y[order]
    lo_a, hi_b, lo_b, hi_a = x_sorted[layout.pairs]
    overlap = np.logical_or.reduce((lo_a <= hi_b) & (lo_b <= hi_a), axis=1)

    # one estimate per (point, other size), filled in ascending size order
    estimates = np.empty((rows, n, m - 1))
    flat = estimates.reshape(-1)
    for k, places, owners, cuts, first, queries, slots in layout.widths:
        dist = np.abs(x_sorted[places] - flat_x[owners])
        near = np.concatenate([dist[a:b].reshape(-1, count).argpartition(k - 1, axis=1)[:, :k]
                               for a, b, count in cuts])
        near.sort(axis=1)
        near += first  # each query's places are consecutive
        flat[slots] = _interp_rows(flat_x[queries], x_sorted[near], y_sorted[near])
    # np.mean's sum-then-divide, without its wrapper
    r = y - np.add.reduce(estimates, axis=2) / (m - 1)
    # a running sum keeps the point-by-point summation order
    quality = np.cumsum(r * r, axis=1)[:, -1] / n
    # np.var(y): the same two pairwise sums per row, without its wrapper
    d = y - (np.add.reduce(y, axis=1) / n)[:, None]
    return quality, np.add.reduce(d * d, axis=1) / n, overlap


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


class _Batch(NamedTuple):
    """The rows of one objective call: each row's dataset, and the stacks
    (layout, row indices) that hold the rows of one point and size count."""

    datasets: list
    stacks: list


def _batch(datasets: list) -> _Batch:
    """Stack the rows' datasets, one stack per (point count, size count)."""
    by_shape = {}
    for row, data in enumerate(datasets):
        layout = data._layout
        parts, rows = by_shape.setdefault((len(data), layout.n_sizes), ([], []))
        parts.append(layout)
        rows.append(row)
    return _Batch(datasets, [(_stack(parts), np.array(rows))
                             for parts, rows in by_shape.values()])


def _normalized_quality(batch: _Batch, points: np.ndarray) -> np.ndarray:
    """The fit's objective for each row: its collapse quality over the
    variance of its rescaled y, or 1e12 where its collapse is undefined.

    The absolute quality is degenerate along zeta/nu (rescaling all y toward
    zero shrinks it for free), so the optimizer scores residuals relative to
    the spread of the rescaled y values.  A zero (or NaN) variance leaves
    the quality as it is.
    """
    nu = points[:, 1]
    if (nu <= 0).any():
        raise ValueError(f"nu must be > 0, got {nu[nu <= 0][0]}")
    values = np.empty(len(points))
    for layout, rows in batch.stacks:
        quality, var, overlap = _stack_quality(layout, points[rows])
        np.divide(quality, var, out=quality, where=var > 0)
        values[rows] = np.where(overlap, quality, 1e12)
    return values


class _SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    success: bool


def _nelder_mead(x0, lo, hi, maxiter: int):
    """Minimize over the box [lo, hi] with the Nelder-Mead simplex.

    A generator: it yields each trial point, is sent that point's value, and
    returns a _SimplexResult (see _lockstep, which drives it).

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
    sim = np.where(sim > hi, 2 * hi - sim, sim).clip(lo, hi)
    fsim = np.empty(n + 1)
    for j in range(n + 1):
        fsim[j] = yield sim[j]
    for _ in range(2):
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < maxiter:
        if (np.abs(sim[1:] - sim[0]).max() <= 1e-7
                and np.abs(fsim[0] - fsim[1:]).max() <= 1e-14):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (2 * xbar - sim[-1]).clip(lo, hi)
        fxr = yield xr
        if fxr < fsim[0]:
            xe = (3 * xbar - 2 * sim[-1]).clip(lo, hi)
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1.5 * xbar - 0.5 * sim[-1]).clip(lo, hi)
                fxc = yield xc
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (0.5 * xbar + 0.5 * sim[-1]).clip(lo, hi)
                fxc = yield xc
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = (sim[0] + 0.5 * (sim[j] - sim[0])).clip(lo, hi)
                    fsim[j] = yield sim[j]
        iterations += 1
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    return _SimplexResult(sim[0], fsim.min(), iterations < maxiter)


def _lockstep(runs: list) -> list:
    """Drive (dataset, _nelder_mead generator) runs to their results, together.

    Each tick scores the pending point of every live run in one call of
    _normalized_quality; a run leaves the stack when its simplex stops.  No
    run sees another, so each takes the path it takes alone.
    """
    points = [next(simplex) for _, simplex in runs]
    results = [None] * len(runs)
    live = list(range(len(runs)))
    batch = None
    while live:
        if batch is None or len(batch.datasets) != len(live):
            batch = _batch([runs[i][0] for i in live])
        values = _normalized_quality(batch, np.array([points[i] for i in live])).tolist()
        still = []
        for i, value in zip(live, values):
            try:
                points[i] = runs[i][1].send(value)
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        live = still
    return results


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
    `bootstrap_n` resamples of the points (seeded).  The starts, and then
    the refits, run in lockstep on one stacked objective call per step (see
    _lockstep); each run takes the path it takes alone.  The optimizer
    scores the variance-normalized residual (see _normalized_quality); the
    reported quality is the plain collapse_quality at the fitted parameters.

    The data must be finite.  Each (lo, hi) pair of `bounds` needs lo < hi,
    and `init` must lie inside.  Every point the simplex tries is clipped
    into the bounds, and an initial vertex stepped past an upper bound is
    first reflected back below it; a result pinned at a bound sets the
    clipped flag.
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
    # the first of equal minima, as a strict < over the starts in order
    best = min(_lockstep([(data, _nelder_mead(s, lo, hi, 2000)) for s in starts]),
               key=lambda res: res.fun)
    params = np.clip(best.x, lo, hi)
    quality = collapse_quality(data, params[0], params[1], params[2])
    clipped = bool(np.any(np.isclose(params, lo, rtol=0, atol=1e-9))
                   or np.any(np.isclose(params, hi, rtol=0, atol=1e-9)))

    n = len(data)
    resamples = []
    for _ in range(bootstrap_n):
        for _attempt in range(100):
            idx = rng.integers(0, n, size=n)
            if len(np.unique(data.sizes[idx])) >= 2:
                resamples.append(ScalingDataset(data.sizes[idx], data.deltas[idx],
                                                data.values[idx]))
                break
    refits = _lockstep([(r, _nelder_mead(params, lo, hi, 400)) for r in resamples])
    samples = [np.clip(res.x, lo, hi) for res in refits]
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
