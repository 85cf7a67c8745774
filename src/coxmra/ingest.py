"""Ingestion of raw count records into a curve field.

Counts observed at scattered sites are turned into per-site log-intensity
series with a log(count + 1) transform, resampled in time onto the dyadic
midpoint grid, and interpolated onto a regular grid by inverse-distance
weighting (power 2, 4 nearest sites, exact hits copy the site value).
Both maps are linear, so their order moves only rounding; resampling the
sites first means no array holds targets x raw times.  The nearest sites
come from a partial selection (`np.partition`) equal to a full stable
sort; time is resampled one output point at a time.
"""

from __future__ import annotations

import numpy as np

from .grids import FunctionalField, SpatialGrid, TimeGrid
from .grids import place_records, read_csv_records, record_fault

IDW_POWER = 2
IDW_NEIGHBOURS = 4
_EXACT_HIT = 1e-12
_IDW_BLOCK = 2048
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
    blocks, so memory grows with the block, not with targets x sites.
    """
    out = np.empty(targets.shape[:1] + values.shape[1:])
    k = min(IDW_NEIGHBOURS, coords.shape[0])
    trail = (1,) * (values.ndim - 1)
    for start in range(0, targets.shape[0], _IDW_BLOCK):
        block = targets[start:start + _IDW_BLOCK]
        d = np.square(block[:, 0, None] - coords[None, :, 0])
        d += np.square(block[:, 1, None] - coords[None, :, 1])
        np.sqrt(d, out=d)
        nearest = _nearest(d, k)
        dn = np.take_along_axis(d, nearest, axis=1)
        hit = dn[:, 0] < _EXACT_HIT
        rows = out[start:start + _IDW_BLOCK]
        rows[hit] = values[nearest[hit, 0]]
        w = 1.0 / dn[~hit] ** IDW_POWER
        weighted = w.reshape(w.shape + trail) * values[nearest[~hit]]
        rows[~hit] = weighted.sum(axis=1) / w.sum(axis=1).reshape((-1,) + trail)
    return out


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
