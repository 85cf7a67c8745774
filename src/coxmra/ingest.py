"""Ingestion of raw count records into a curve field.

Counts observed at scattered sites are turned into per-site log-intensity
series with a log(count + 1) transform, resampled in time onto the dyadic
midpoint grid, and interpolated onto a regular grid by inverse-distance
weighting (power 2, 4 nearest sites, exact hits copy the site value).
Both maps are linear, so their order moves only rounding; resampling the
sites first means no array holds targets x raw times.  The nearest sites
come from a uniform bucket grid of the sites, with the same values bit
for bit as measuring every site, and a partial selection
(`np.partition`) equal to a full stable sort; time is resampled one
output point at a time.
"""

from __future__ import annotations

import numpy as np

from .grids import FunctionalField, SpatialGrid, TimeGrid
from .grids import place_records, read_csv_records, record_fault

IDW_POWER = 2
IDW_NEIGHBOURS = 4
_EXACT_HIT = 1e-12
_IDW_BLOCK = 2048
_IDW_REACH = 2  # bucket cells searched on each side of a target's cell
_IDW_SLACK = 1e-9  # rounding margin of the searched radius, relative to the coordinates
_COLUMNS = {"site_id": object, "x": float, "y": float, "time_index": np.int64, "count": float}


def read_count_records(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse `site_id,x,y,time_index,count` CSV.

    Returns (coords (n_sites, 2), series (n_sites, n_times), site ids);
    site order follows first appearance.  Every site must cover every time
    index exactly once at one finite position.
    """
    rows, lineno = read_csv_records(path, _COLUMNS)
    xy = np.column_stack([rows["x"], rows["y"]])
    for bad, what in (
        (~np.isfinite(xy).all(axis=1), "non-finite coordinate"),
        (rows["count"] < 0, "negative count"),
        (rows["count"] != np.floor(rows["count"]), "non-integer count"),
    ):
        if bad.any():
            raise record_fault(path, lineno(int(np.argmax(bad))), what)
    ids, first, site = np.unique(rows["site_id"], return_index=True, return_inverse=True)
    rank = np.argsort(first)  # sites in order of first appearance
    site = np.argsort(rank)[site]
    ids, coords = ids[rank].astype(str), xy[first[rank]]
    moved = (xy != coords[site]).any(axis=1)
    if moved.any():
        i = int(np.argmax(moved))
        raise record_fault(path, lineno(i), f"site {ids[site[i]]} moved")
    t = rows["time_index"]
    shape = (ids.size, int(t.max()) + 1)
    series = place_records(path, shape, (site, t), rows["count"], lineno,
                           lambda k: f"time index {k[1]} of site {ids[k[0]]}")
    return coords, series, ids


def _nearest(d: np.ndarray, k: int) -> np.ndarray:
    """`np.argsort(d, axis=1, kind="stable")[:, :k]` without sorting whole rows.

    A row whose k-th smallest distance has exactly k entries at or below it
    sorts just those k columns; a tie across that cut keeps the full sort.
    """
    if k >= d.shape[1]:
        return np.argsort(d, axis=1, kind="stable")[:, :k]
    inside = d <= np.partition(d, k - 1, axis=1)[:, k - 1:k]
    clean = np.count_nonzero(inside, axis=1) == k
    rows = np.flatnonzero(clean)
    cols = np.nonzero(inside[rows])[1].reshape(-1, k)  # ascending site index
    order = np.argsort(d[rows[:, None], cols], axis=1, kind="stable")
    nearest = np.empty((d.shape[0], k), dtype=np.intp)
    nearest[rows] = np.take_along_axis(cols, order, axis=1)
    nearest[~clean] = np.argsort(d[~clean], axis=1, kind="stable")[:, :k]
    return nearest


def idw_interpolate(
    coords: np.ndarray, values: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Inverse-distance-weighted interpolation.

    `values` may carry trailing axes (e.g. a time series per site); an
    exact positional hit copies the site value.  Targets are processed in
    blocks, so memory grows with the block times the candidate width of
    `_site_buckets`, not with targets x sites.

    Each target measures its distance only to the candidates of its
    bucket cell, by the same formula as to all sites, and `_nearest`
    picks from them.  The result is the selection over all sites when
    every site at or below the k-th candidate distance is a candidate:
    candidates keep ascending site order, so the stable tie rule ranks
    them as it would among all sites.  A site off the candidate list lies
    in a cell past one side of the searched box, so it is at least that
    side's distance from the target; sides on the sites' bounding box
    have no sites beyond them.  The k-th distance must therefore lie
    below the nearest other side, less a margin of `_IDW_SLACK` times the
    box's coordinate scale, which covers the rounding of the cell
    assignment, the sides and the distances (a few ulps of that scale).
    Every other target, and every one with fewer than k candidates, runs
    the selection over all sites.
    """
    out = np.empty(targets.shape[:1] + values.shape[1:])
    k = min(IDW_NEIGHBOURS, coords.shape[0])
    trail = (1,) * (values.ndim - 1)
    buckets = _site_buckets(coords, k)
    for start in range(0, targets.shape[0], _IDW_BLOCK):
        block = targets[start:start + _IDW_BLOCK]
        nearest, dn = _nearest_sites(block, buckets, k)
        hit = dn[:, 0] < _EXACT_HIT
        rows = out[start:start + _IDW_BLOCK]
        rows[hit] = values[nearest[hit, 0]]
        w = 1.0 / dn[~hit] ** IDW_POWER
        weighted = w.reshape(w.shape + trail) * values[nearest[~hit]]
        rows[~hit] = weighted.sum(axis=1) / w.sum(axis=1).reshape((-1,) + trail)
        del weighted  # freed before the next block's candidates are made
    return out


def _nearest_sites(block: np.ndarray, buckets: tuple, k: int):
    """(index, distance) of the k nearest sites of each target, nearest
    first, as `_nearest` picks them from the distances to all sites; see
    `idw_interpolate`."""
    lo, size, cells, candidates, xs, ys = buckets
    local = block - lo
    cell = np.minimum(np.floor(local / size).clip(0), cells - 1).astype(np.intp)
    near = candidates[cell[:, 0] * cells[1] + cell[:, 1]]
    d = _distances(block, xs, ys, near)
    pick = _nearest(d, k)
    nearest, dn = np.take_along_axis(near, pick, axis=1), np.take_along_axis(d, pick, axis=1)
    # the searched box's sides that are not edges of the bounding box
    below = np.where(cell > _IDW_REACH, local - (cell - _IDW_REACH) * size, np.inf)
    above = np.where(cell + _IDW_REACH + 1 < cells, (cell + _IDW_REACH + 1) * size - local, np.inf)
    scale = (cells * size)[cells > 1].sum() + np.abs(local).sum(axis=1)
    miss = np.flatnonzero(~(dn[:, -1] < np.minimum(below, above).min(axis=1) - _IDW_SLACK * scale))
    if miss.size:
        every = np.broadcast_to(np.arange(xs.size - 1), (miss.size, xs.size - 1))
        d = _distances(block[miss], xs, ys, every)
        nearest[miss] = _nearest(d, k)
        dn[miss] = np.take_along_axis(d, nearest[miss], axis=1)
    return nearest, dn


def _distances(points: np.ndarray, xs: np.ndarray, ys: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Distance from each point to the sites in its row of `sites`, by
    the one formula whose bits every selection shares."""
    d, dy = xs[sites], ys[sites]
    np.square(np.subtract(points[:, 0, None], d, out=d), out=d)
    d += np.square(np.subtract(points[:, 1, None], dy, out=dy), out=dy)
    return np.sqrt(d, out=d)


def _site_buckets(coords: np.ndarray, k: int):
    """Uniform bucket grid of the sites for `idw_interpolate`.

    Returns (lo, size, cells, candidates, xs, ys): the grid's lower
    corner, cell size and cell count per axis; per cell (row-major) the
    sites of the (2 `_IDW_REACH` + 1)^2 cells around it in ascending site
    index, padded to a common width of at least k with the sentinel index
    n_sites; and the site coordinates followed by the sentinel's, +inf.
    About sqrt(n_sites) cells per axis span the sites' bounding box, so a
    cell holds about one site; an axis of zero span gets one cell.
    """
    m = coords.shape[0]
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo
    g = int(np.sqrt(m))
    step = span / g
    cells = np.where((step > 0) & np.isfinite(step), g, 1)
    size = np.where(cells > 1, step, 1.0)
    site = np.minimum(np.floor((coords - lo) / size), cells - 1).astype(np.intp)
    reach = np.arange(-_IDW_REACH, _IDW_REACH + 1)
    i, j = site[:, 0, None] + reach, site[:, 1, None] + reach  # (m, 2 reach + 1)
    around = (i[:, :, None] * cells[1] + j[:, None, :]) * m + np.arange(m)[:, None, None]
    inside = ((i >= 0) & (i < cells[0]))[:, :, None] & ((j >= 0) & (j < cells[1]))[:, None, :]
    cell, member = np.divmod(np.sort(around[inside]), m)  # by cell, then site index
    counts = np.bincount(cell, minlength=cells[0] * cells[1])
    candidates = np.full((counts.size, max(counts.max(), k)), m, dtype=np.intp)
    candidates[cell, np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)] = member
    xs, ys = (np.append(coords[:, a], np.inf) for a in (0, 1))  # the sentinel at +inf
    return lo, size, cells, candidates, xs, ys


def _grid_targets(coords: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Grid node positions spanning the data bounding box inclusively."""
    xmin, ymin = coords.min(axis=0)
    xmax, ymax = coords.max(axis=0)
    xs = np.linspace(xmin, xmax, grid.s1) if xmax > xmin else np.full(grid.s1, xmin)
    ys = np.linspace(ymin, ymax, grid.s2) if ymax > ymin else np.full(grid.s2, ymin)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def resample_time(series: np.ndarray, depth: int) -> np.ndarray:
    """Linear resampling from midpoint samples of the raw series onto the
    dyadic midpoint grid (endpoints clamped).  One new time point at a time
    for all series, by np.interp's formula, so finite series get its bits."""
    n_raw = series.shape[-1]
    t_raw = (np.arange(n_raw) + 0.5) / n_raw
    t_new = TimeGrid(depth).points
    out = np.empty(series.shape[:-1] + t_new.shape)
    for i, (x, j) in enumerate(zip(t_new, np.searchsorted(t_raw, t_new, side="right") - 1)):
        if j < 0 or j >= n_raw - 1 or t_raw[j] == x:  # clamped ends and exact samples
            out[..., i] = series[..., max(j, 0)]
        else:
            slope = (series[..., j + 1] - series[..., j]) / (t_raw[j + 1] - t_raw[j])
            out[..., i] = slope * (x - t_raw[j]) + series[..., j]
    return out


def ingest_counts(path, grid: SpatialGrid, depth: int) -> FunctionalField:
    """Full ingestion pipeline: parse, log1p, resample, interpolate."""
    coords, series, _ = read_count_records(path)
    targets = _grid_targets(coords, grid)
    values = idw_interpolate(coords, resample_time(np.log1p(series), depth), targets)
    return FunctionalField(grid, TimeGrid(depth), values.reshape(grid.s1, grid.s2, -1))
