import numpy as np
import pytest

from coxmra.grids import FieldFormatError, SpatialGrid
from coxmra.ingest import (
    idw_interpolate,
    ingest_counts,
    read_count_records,
    resample_time,
)


def _write_counts(path, rows, header="site_id,x,y,time_index,count"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_read_count_records_basic(tmp_path):
    path = tmp_path / "raw.csv"
    rows = [
        f"{sid},{x},{y},{t},{c}"
        for sid, x, y in (("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 0.0, 1.0))
        for t, c in ((0, 3), (1, 5))
    ]
    _write_counts(path, rows)
    coords, series, ids = read_count_records(path)
    assert coords.shape == (3, 2)
    assert series.shape == (3, 2)
    assert list(ids) == ["a", "b", "c"]
    np.testing.assert_allclose(series[0], [3.0, 5.0])


def test_read_count_records_errors(tmp_path):
    path = tmp_path / "raw.csv"
    _write_counts(path, ["a,0,0,0,3"], header="wrong,header")
    with pytest.raises(FieldFormatError, match="header"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,0,3", "a,0,0,0,4"])
    with pytest.raises(FieldFormatError, match="duplicate"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,0,3", "a,1,0,1,4"])
    with pytest.raises(FieldFormatError, match="moved"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,0,-3"])
    with pytest.raises(FieldFormatError, match="negative"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,1,3"])
    with pytest.raises(FieldFormatError, match="missing time"):
        read_count_records(path)


def test_idw_exact_hit_copies_value():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    values = np.array([1.0, 2.0, 3.0, 4.0])
    out = idw_interpolate(coords, values, coords.copy())
    np.testing.assert_allclose(out, values)


def test_idw_weighted_average_bounds():
    coords = np.array([[0.0, 0.0], [2.0, 0.0]])
    values = np.array([10.0, 20.0])
    # midpoint: equal weights
    out = idw_interpolate(coords, values, np.array([[1.0, 0.0]]))
    assert out[0] == pytest.approx(15.0)
    # closer to the first site: pulled toward its value, inside the hull
    out = idw_interpolate(coords, values, np.array([[0.5, 0.0]]))
    assert 10.0 < out[0] < 15.0


def test_resample_time_constant_and_linear():
    series = np.full((2, 12), 7.0)
    out = resample_time(series, 3)
    np.testing.assert_allclose(out, 7.0)
    # linear series resample close to the line away from the clamped ends
    lin = ((np.arange(24) + 0.5) / 24.0)[None, :]
    out = resample_time(lin, 4)
    t_new = (np.arange(16) + 0.5) / 16.0
    np.testing.assert_allclose(out[0, 1:-1], t_new[1:-1], atol=1e-12)


def test_ingest_counts_end_to_end(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "raw.csv"
    rows = []
    for i in range(5):
        for j in range(5):
            for t in range(8):
                rows.append(f"s{i}_{j},{float(i)},{float(j)},{t},{rng.poisson(6)}")
    _write_counts(path, rows)
    fld = ingest_counts(path, SpatialGrid(5, 5), depth=3)
    assert fld.values.shape == (5, 5, 8)
    # grid corners coincide with data sites, so the corner curve is the
    # exact log1p series of that site
    coords, series, ids = read_count_records(path)
    corner = np.log1p(series[list(ids).index("s0_0")])
    np.testing.assert_allclose(fld.values[0, 0], resample_time(corner[None, :], 3)[0])
