import tracemalloc

import numpy as np
import pytest

from coxmra import (
    FunctionalField,
    SpatialGrid,
    TimeGrid,
    detrend,
    load_field,
    save_field,
)
from coxmra import grids
from coxmra.grids import FieldFormatError
from oracles import EDGE_FLOATS, table_csv


def test_time_grid_points_are_midpoints():
    tg = TimeGrid(3)
    # oracle: midpoints of 8 equal subintervals of (0, 1)
    expected = np.array([1, 3, 5, 7, 9, 11, 13, 15]) / 16.0
    assert tg.n == 8
    np.testing.assert_allclose(tg.points, expected)
    assert tg.weight == pytest.approx(1.0 / 8.0)


def test_time_grid_rejects_bad_depth():
    with pytest.raises(ValueError):
        TimeGrid(0)


def test_spatial_grid_rejects_thin_lattice():
    with pytest.raises(ValueError):
        SpatialGrid(1, 5)
    assert SpatialGrid(3, 4).n == 12


def test_field_shape_validation():
    with pytest.raises(ValueError):
        FunctionalField(SpatialGrid(2, 2), TimeGrid(2), np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        FunctionalField(SpatialGrid(2, 2), TimeGrid(2), np.full((2, 2, 4), np.nan))


def test_detrend_roundtrip_and_zero_mean():
    rng = np.random.default_rng(7)
    fld = FunctionalField(SpatialGrid(4, 5), TimeGrid(3), rng.normal(2.0, 1.0, (4, 5, 8)))
    residual, mean = detrend(fld)
    np.testing.assert_allclose(residual.values.mean(axis=(0, 1)), 0.0, atol=1e-12)
    np.testing.assert_allclose(residual.values + mean, fld.values)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    fld = FunctionalField(SpatialGrid(3, 4), TimeGrid(2), rng.normal(size=(3, 4, 4)))
    path = tmp_path / "field.csv"
    save_field(fld, path)
    back = load_field(path)
    assert back.grid == fld.grid
    assert back.time == fld.time
    np.testing.assert_array_equal(back.values, fld.values)  # repr floats: exact


def test_save_is_deterministic(tmp_path):
    fld = FunctionalField(SpatialGrid(2, 2), TimeGrid(1), np.arange(8.0).reshape(2, 2, 2))
    save_field(fld, tmp_path / "a.csv")
    save_field(fld, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_save_csv_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(3, 5, 4)) * 10.0 ** rng.integers(-8, 8, size=(3, 5, 4))
    values.flat[: 2 * len(EDGE_FLOATS)] = EDGE_FLOATS + [-v for v in EDGE_FLOATS]
    fld = FunctionalField(SpatialGrid(3, 5), TimeGrid(2), values)
    save_field(fld, tmp_path / "field.csv")
    rows = [(p, q, m, v) for (p, q, m), v in np.ndenumerate(values)]
    expected = table_csv(("p", "q", "t_index", "value"), rows)
    assert (tmp_path / "field.csv").read_bytes() == expected.encode()


def test_load_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("p,q,t_index,value\n0,0,0,1.0\n0,0,zero,2.0\n")
    with pytest.raises(FieldFormatError, match="line 3"):
        load_field(path)


def test_load_csv_rejects_duplicates_and_gaps(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("p,q,t_index,value\n0,0,0,1.0\n0,0,0,2.0\n")
    with pytest.raises(FieldFormatError, match="duplicate"):
        load_field(dup)
    gap = tmp_path / "gap.csv"
    gap.write_text("p,q,t_index,value\n0,0,0,1.0\n1,1,1,2.0\n")
    with pytest.raises(FieldFormatError, match="incomplete"):
        load_field(gap)


def test_load_field_peak_memory(tmp_path):
    # a file of more than 8 parsing ranges in C order: the peak holds the
    # placed values and about two ranges of parsed rows (four 8-byte
    # columns; one range's text is about as large), never a row array of
    # the whole file.  The slack covers the previous range's values and
    # small Python objects.
    path = tmp_path / "field.csv"
    fld = FunctionalField(SpatialGrid(64, 64), TimeGrid(5), np.random.default_rng(0).normal(size=(64, 64, 32)))
    save_field(fld, path)
    size = path.stat().st_size
    assert size >= 8 * grids._LOAD_CHUNK
    load_field(path)  # warm caches outside the trace
    tracemalloc.start()
    try:
        back = load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, fld.values)
    range_records = fld.values.size * grids._LOAD_CHUNK // size
    assert peak <= fld.values.nbytes + 2 * 4 * 8 * range_records + 128 * 1024, peak


def test_load_rejects_the_ndjson_field_layout(tmp_path):
    # fields are CSV only; NDJSON is the report format
    path = tmp_path / "field.ndjson"
    sites = "".join(f'{{"curve": [0.0, 0.0], "p": {p}, "q": {q}}}\n' for p in range(2) for q in range(2))
    path.write_text('{"depth": 1, "s1": 2, "s2": 2}\n' + sites)
    with pytest.raises(FieldFormatError, match="line 1: unexpected header"):
        load_field(path)
