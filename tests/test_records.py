"""Round trips and single-mutation faults of every record file format,
the one writer every output file goes through, and the public surface.

Each mutation changes one record of a valid file and must raise
FieldFormatError naming the file and the line of the fault; faults of the
whole file (a dropped record) name the line after the last record.
"""

import ast
import json
import math
import re
import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coxmra
import coxmra.predict
from coxmra import FunctionalField, SpatialGrid, TimeGrid, grids, load_field, save_field
from coxmra.estimator import ThetaDomain, estimate_all, load_report, save_report
from coxmra.grids import _CSV_BLOCK, FieldFormatError, write_csv, write_ndjson
from coxmra.ingest import read_count_records
from coxmra.wavelet import field_dwt
from oracles import EDGE_FLOATS, table_csv

FUZZ = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def fields(draw):
    s1, s2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    time = TimeGrid(draw(st.integers(1, 3)))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (s1, s2, time.n), elements=finite))
    return FunctionalField(SpatialGrid(s1, s2), time, values)


@st.composite
def count_tables(draw):
    n_sites, n_times = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    coords = draw(arrays(float, (n_sites, 2), elements=coord))
    series = draw(arrays(float, (n_sites, n_times), elements=st.integers(0, 1000)))
    return coords, series, [f"s{i}" for i in range(n_sites)]


def _write_counts(path, coords, series, ids):
    lines = ["site_id,x,y,time_index,count"]
    for sid, (x, y), row in zip(ids, coords, series):
        lines += [f"{sid},{float(x)!r},{float(y)!r},{t},{int(c)}" for t, c in enumerate(row)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """A diagonal-only and an `include_cross` report of one small field."""
    rng = np.random.default_rng(3)
    fld = FunctionalField(SpatialGrid(6, 6), TimeGrid(2), rng.normal(size=(6, 6, 4)))
    mc = field_dwt(fld, 1)
    out = {}
    for cross in (False, True):
        path = tmp_path_factory.mktemp("reports") / f"cross{int(cross)}.ndjson"
        report = estimate_all(mc, ThetaDomain(), include_cross=cross)
        save_report(report, path)
        out[cross] = (report, path.read_text().splitlines())
    return out


# ---------------------------------------------------------------------------
# mutations: (lines, j, ...) -> (mutated lines, expected line number);
# lines[0] is the header or metadata line, record j sits on line j + 1


def _duplicate(lines, j):
    return lines[: j + 1] + lines[j:], j + 2


def _drop(lines, j):
    return lines[:j] + lines[j + 1 :], len(lines)


def _replace(lines, j, line):
    return lines[:j] + [line] + lines[j + 1 :], j + 1


def _set_field(lines, j, col, value):
    fields = lines[j].split(",")
    fields[col] = value
    return _replace(lines, j, ",".join(fields))


def _edit_json(lines, j, edit):
    rec = json.loads(lines[j])
    edit(rec)
    return _replace(lines, j, json.dumps(rec))


def _not_utf8(lines, j):
    """A 0xff byte, never UTF-8, inside record j; written by `_assert_fault`."""
    return _replace(lines, j, lines[j][:1] + "\udcff" + lines[j][1:])


def _csv_mutations(index_col, value_col):
    return {
        "negative index": lambda lines, j: _set_field(lines, j, index_col, "-1"),
        "duplicate record": _duplicate,
        "dropped record": _drop,
        "nan value": lambda lines, j: _set_field(lines, j, value_col, "nan"),
        "inf value": lambda lines, j: _set_field(lines, j, value_col, "-inf"),
        "bad number": lambda lines, j: _set_field(lines, j, value_col, "one"),
        "missing column": lambda lines, j: _replace(lines, j, lines[j].rsplit(",", 1)[0]),
        "extra column": lambda lines, j: _replace(lines, j, lines[j] + ",0"),
        "not UTF-8": _not_utf8,
    }


def _json_mutations(index_key, size, value_key, other_key):
    def set_key(key, value):
        return lambda lines, j: _edit_json(lines, j, lambda rec: rec.update({key: value}))

    def poison(rec):
        if isinstance(rec[value_key], list):
            rec[value_key][-1] = float("inf")
        else:
            rec[value_key] = float("nan")

    return {
        "negative index": set_key(index_key, -1),
        "out-of-range index": set_key(index_key, size),
        "duplicate record": _duplicate,
        "dropped record": _drop,
        "non-finite number": lambda lines, j: _edit_json(lines, j, poison),
        "missing key": lambda lines, j: _edit_json(lines, j, lambda rec: rec.pop(other_key)),
        "extra key": set_key("extra", 0),
        "wrong type": set_key(index_key, "0"),
        "bad JSON": lambda lines, j: _replace(lines, j, lines[j][:-1]),
        "not UTF-8": _not_utf8,
    }


def _shuffled(lines, data):
    """The header or metadata line, then the record lines in a drawn order."""
    return lines[:1] + data.draw(st.permutations(lines[1:]))


def _assert_fault(path, lines, expected, load):
    # UTF-8, with a lone surrogate \udcXX written as the byte 0xXX
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(FieldFormatError) as info:
        load(path)
    assert f"{path}: line {expected}:" in str(info.value)


# ---------------------------------------------------------------------------
# field CSV


@pytest.fixture
def field_loaders(monkeypatch):
    """`load_field` without a pool over its own byte ranges and over ranges
    of one line each, and through a pool (threads stand in for processes)
    over ranges of a line or two."""
    def ranged(size, pool=None):
        def load(path):
            monkeypatch.setattr(grids, "_LOAD_CHUNK", size)
            return load_field(path, pool)
        return load

    with ThreadPoolExecutor(2) as pool:
        yield [ranged(grids._LOAD_CHUNK), ranged(1), ranged(48, pool)]


@FUZZ
@given(fld=fields())
def test_field_roundtrip(tmp_path, fld):
    path = tmp_path / "field.csv"
    save_field(fld, path)
    back = load_field(path)
    assert (back.grid, back.time) == (fld.grid, fld.time)
    np.testing.assert_array_equal(back.values, fld.values)


@FUZZ
@given(fld=fields(), data=st.data())
def test_field_records_in_any_order(tmp_path, field_loaders, fld, data):
    path = tmp_path / "field.csv"
    save_field(fld, path)
    path.write_text("\n".join(_shuffled(path.read_text().splitlines(), data)) + "\n")
    for load in field_loaders:
        back = load(path)
        assert (back.grid, back.time) == (fld.grid, fld.time)
        assert back.values.tobytes() == fld.values.tobytes()


CSV_FIELD = _csv_mutations(index_col=0, value_col=3)


@pytest.mark.parametrize("kind", sorted(CSV_FIELD))
@FUZZ
@given(fld=fields(), data=st.data())
def test_field_csv_mutation(tmp_path, field_loaders, kind, fld, data):
    path = tmp_path / "field.csv"
    save_field(fld, path)
    lines = path.read_text().splitlines()
    j = data.draw(st.integers(1, len(lines) - 1))
    for load in field_loaders:
        _assert_fault(path, *CSV_FIELD[kind](lines, j), load)


def test_field_csv_stray_huge_index_is_incomplete(tmp_path):
    path = tmp_path / "field.csv"
    fld = FunctionalField(SpatialGrid(2, 2), TimeGrid(1), np.zeros((2, 2, 2)))
    save_field(fld, path)
    lines, _ = _set_field(path.read_text().splitlines(), 3, 0, str(10**15))
    _assert_fault(path, lines, 10, load_field)


@pytest.mark.parametrize("rows, fault", [
    # 2 x 2 x 2**62 entries: more than a flat index can hold
    (["0,0,0,1.0", f"1,1,{2**62},1.0"], "line 4: incomplete: missing entry (0, 0, 1)"),
    ([f"1,1,{2**62},1.0", "0,0,0,1.0", f"1,1,{2**62},2.0"], f"line 4: duplicate entry (1, 1, {2**62})"),
    # a field shape, 2 x 2 x 2**40, that no file of this size can fill
    (["0,0,0,1.0", f"1,1,{2**40 - 1},1.0"], "line 4: incomplete: missing entry (0, 0, 1)"),
], ids=["incomplete", "duplicate", "unfillable"])
def test_field_csv_oversized_shape_is_a_record_fault(tmp_path, field_loaders, rows, fault):
    path = tmp_path / "field.csv"
    path.write_text("\n".join(["p,q,t_index,value", *rows]) + "\n")
    for load in field_loaders:
        with pytest.raises(FieldFormatError, match=re.escape(f"{path}: {fault}") + "$"):
            load(path)


def test_field_csv_time_axis_not_a_power_of_two(tmp_path, field_loaders):
    # 2 x 2 sites of 3 time points each, in C order on lines 2..13: the
    # fault names the line after the last record
    path = tmp_path / "field.csv"
    rows = [f"{p},{q},{t},1.0" for p in range(2) for q in range(2) for t in range(3)]
    path.write_text("\n".join(["p,q,t_index,value", *rows]) + "\n")
    for load in field_loaders:
        with pytest.raises(FieldFormatError, match=re.escape(f"{path}: line 14: time grid size 3 is not a power of two") + "$"):
            load(path)


@pytest.mark.parametrize("header", ["p,q,t_index,value", "site_id,x,y,time_index,count"])
def test_csv_without_records_is_a_fault(tmp_path, field_loaders, header):
    # a header and a blank line, read as a field file or as raw counts
    path = tmp_path / "table.csv"
    path.write_text(header + "\n\n")
    for load in field_loaders if header.startswith("p,") else [read_count_records]:
        with pytest.raises(FieldFormatError, match=re.escape(f"{path}: line 2: no records") + "$"):
            load(path)


def _field_text(lines, newline="\n", end="\n"):
    return newline.join(lines) + end


# layouts of a 2 x 2 x 2 field file that each loader must read alike:
# lines -> file text
FIELD_LAYOUTS = {
    "blank lines at every cut": lambda lines: _field_text([line + "\n" for line in lines]),
    "first two records swapped": lambda lines: _field_text([lines[0], lines[2], lines[1], *lines[3:]]),
    # (0, 1, t) written as (0, 0, 2 + t): the same position if t_index ran past its axis
    "index past its axis": lambda lines: _field_text(
        [*lines[:3], *(f"0,0,{2 + t},{lines[3 + t].rsplit(',', 1)[1]}" for t in (0, 1)), *lines[5:]]),
    "blank lines past a range": lambda lines: _field_text(lines[:4] + [""] * 60 + lines[4:]),
    "no trailing newline": lambda lines: _field_text(lines, end=""),
    "CRLF line ends": lambda lines: _field_text(lines, "\r\n", "\r\n"),
    "lone CR line ends": lambda lines: _field_text(lines, "\r", "\r"),
    "form feed after a value": lambda lines: _field_text(lines[:3] + [lines[3] + "\x0c"] + lines[4:]),
    "form feed inside a number": lambda lines: _field_text(lines[:3] + [lines[3] + "\x0c5"] + lines[4:]),
    "form feed between two records": lambda lines: _field_text([*lines[:3], lines[3] + "\x0c" + lines[4], *lines[5:]]),
    "short last line": lambda lines: _field_text(lines[:-1] + [lines[-1].rsplit(",", 1)[0]]),
    "bad number on the last line": lambda lines: _field_text(lines[:-1] + [lines[-1] + "x"]),
    "text for the last line": lambda lines: _field_text(lines[:-1] + ["end"]),
}


@pytest.mark.parametrize("layout", sorted(FIELD_LAYOUTS))
def test_field_layouts_load_alike_through_ranges(tmp_path, monkeypatch, field_loaders, layout):
    # each loader returns the values of the record path or raises its
    # fault, with the same text, whatever the ranges and the pool
    path = tmp_path / "field.csv"
    save_field(FunctionalField(SpatialGrid(2, 2), TimeGrid(1), np.arange(8.0).reshape(2, 2, 2) / 3), path)
    path.write_bytes(FIELD_LAYOUTS[layout](path.read_text().splitlines()).encode())

    def outcome(load):
        try:
            return load(path).values.tobytes()
        except FieldFormatError as exc:
            return str(exc)

    seen = [outcome(load) for load in field_loaders]
    monkeypatch.setattr(grids, "_load_c_order", lambda path, pool: None)
    assert seen == [outcome(load_field)] * len(seen)


@pytest.mark.parametrize("layout", ["blank lines at every cut", "blank lines past a range", "no trailing newline",
                                    "CRLF line ends", "form feed after a value"])
def test_field_in_c_order_skips_the_record_path(tmp_path, monkeypatch, field_loaders, layout):
    path = tmp_path / "field.csv"
    fld = FunctionalField(SpatialGrid(3, 2), TimeGrid(2), np.arange(24.0).reshape(3, 2, 4) / 7)
    save_field(fld, path)
    path.write_bytes(FIELD_LAYOUTS[layout](path.read_text().splitlines()).encode())

    def no_records(*args):
        raise AssertionError("the record path was taken")

    monkeypatch.setattr(grids, "read_csv_records", no_records)
    for load in field_loaders:
        assert load(path).values.tobytes() == fld.values.tobytes()


# ---------------------------------------------------------------------------
# report NDJSON


JSON_KINDS = sorted(_json_mutations("p", 0, "v", "o"))


@pytest.mark.parametrize("cross", [False, True])
def test_report_roundtrip_exact(tmp_path, reports, cross):
    report, lines = reports[cross]
    path = tmp_path / "report.ndjson"
    path.write_text("\n".join(lines) + "\n")
    back = load_report(path)
    assert back.estimates == report.estimates
    for a, b in zip(back.operators, report.operators):
        np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(back.eigenvalues1, report.eigenvalues1)
    np.testing.assert_array_equal(back.eigenvalues2, report.eigenvalues2)


@pytest.mark.parametrize("kind", JSON_KINDS)
@FUZZ
@given(cross=st.booleans(), data=st.data())
def test_report_mutation(tmp_path, reports, kind, cross, data):
    report, lines = reports[cross]
    n = 1 << report.depth
    value_key = data.draw(st.sampled_from(["theta", "eta_moment", "contrast"]))
    mutations = _json_mutations("row", n, value_key, "iterations")
    j = data.draw(st.integers(1, len(lines) - 1))
    _assert_fault(tmp_path / "report.ndjson", *mutations[kind](lines, j), load_report)


@pytest.mark.parametrize("cross", [False, True])
@FUZZ
@given(data=st.data())
def test_report_records_in_any_order(tmp_path, reports, cross, data):
    report, lines = reports[cross]
    path = tmp_path / "report.ndjson"
    path.write_text("\n".join(_shuffled(lines, data)) + "\n")
    back = load_report(path)
    assert back.estimates == report.estimates
    for a, b in zip(back.operators, report.operators):
        assert a.matrix.tobytes() == b.matrix.tobytes()
    assert back.eigenvalues1.tobytes() == report.eigenvalues1.tobytes()
    assert back.eigenvalues2.tobytes() == report.eigenvalues2.tobytes()


@pytest.mark.parametrize("cross", [False, True])
def test_report_without_records_is_incomplete(tmp_path, reports, cross):
    _, lines = reports[cross]
    path = tmp_path / "report.ndjson"
    path.write_text(lines[0] + "\n")
    with pytest.raises(FieldFormatError, match=re.escape(f"{path}: line 2: incomplete: missing row 0") + "$"):
        load_report(path)


@pytest.mark.parametrize("depth", [63, 64])
def test_report_oversized_layout_is_incomplete(tmp_path, reports, depth):
    # a layout of 2**depth coefficients, beyond any flat index, with one record
    _, lines = reports[False]
    meta = {**json.loads(lines[0]), "j0": 0, "depth": depth}
    path = tmp_path / "report.ndjson"
    path.write_text("\n".join([json.dumps(meta), lines[1]]) + "\n")
    with pytest.raises(FieldFormatError, match=re.escape(f"{path}: line 3: incomplete: missing row 1") + "$"):
        load_report(path)


def _edit_meta(edit):
    return lambda lines: _edit_json(lines, 0, edit)[0]


def _poison_basis(meta):
    meta["basis"][2] = float("inf")


# faults of a cross report's layout and basis (n = 4 coefficients, k = 3
# basis vectors) and of its records: (edit, line, message)
CROSS_FAULTS = {
    "j0 past the depth": (_edit_meta(lambda meta: meta.update(j0=3)), 1, "bad layout j0=3, depth=2, k=3"),
    "k past n": (_edit_meta(lambda meta: meta.update(k=5)), 1, "bad layout j0=1, depth=2, k=5"),
    "theta of two values": (lambda lines: _edit_json(lines, 2, lambda rec: rec["theta"].pop())[0], 3,
                            "theta has 2 values, expected 3"),
    "short basis": (_edit_meta(lambda meta: meta["basis"].pop()), 1,
                    "basis of 11 values and 3 eigenvalues, expected 12 and 3"),
    "extra eigenvalue": (_edit_meta(lambda meta: meta["basis_eigenvalues"].append(0.5)), 1,
                         "basis of 12 values and 4 eigenvalues, expected 12 and 3"),
    "non-finite basis entry": (_edit_meta(_poison_basis), 1, "non-finite number inf"),
    "row beyond k": (lambda lines: _edit_json(lines, 2, lambda rec: rec.update(row=3))[0], 3,
                     "row 3: index outside (3,)"),
    "record with a col": (lambda lines: _edit_json(lines, 3, lambda rec: rec.update(col=rec["row"]))[0], 4,
                          "expected keys ['contrast', 'eta_moment', 'iterations', 'near_boundary', 'row', "
                          "'theta'], got ['col', 'contrast', 'eta_moment', 'iterations', 'near_boundary', "
                          "'row', 'theta']"),
}


@pytest.mark.parametrize("kind", sorted(CROSS_FAULTS))
def test_report_basis_faults(tmp_path, reports, kind):
    report, lines = reports[True]
    assert (report.depth, len(report.estimates)) == (2, 3)
    edit, line, what = CROSS_FAULTS[kind]
    path = tmp_path / "report.ndjson"
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(FieldFormatError, match=re.escape(f"{path}: line {line}: {what}") + "$"):
        load_report(path)


# ---------------------------------------------------------------------------
# raw count CSV


@FUZZ
@given(table=count_tables())
def test_count_records_roundtrip(tmp_path, table):
    path = tmp_path / "raw.csv"
    _write_counts(path, *table)
    coords, series, ids = read_count_records(path)
    np.testing.assert_array_equal(coords, table[0])
    np.testing.assert_array_equal(series, table[1])
    assert list(ids) == table[2]


@FUZZ
@given(table=count_tables(), data=st.data())
def test_count_records_in_any_order(tmp_path, table, data):
    # sites keep the order of their first appearance, so compare site by site
    path = tmp_path / "raw.csv"
    _write_counts(path, *table)
    path.write_text("\n".join(_shuffled(path.read_text().splitlines(), data)) + "\n")
    coords, series, ids = read_count_records(path)
    site = [list(ids).index(sid) for sid in table[2]]
    assert sorted(ids) == sorted(table[2])
    assert coords[site].tobytes() == np.asarray(table[0], dtype=float).tobytes()
    assert series[site].tobytes() == np.asarray(table[1], dtype=float).tobytes()


COUNTS = _csv_mutations(index_col=3, value_col=4)
COUNTS["non-finite coordinate"] = lambda lines, j: _set_field(lines, j, 1, "inf")
COUNTS["negative count"] = lambda lines, j: _set_field(lines, j, 4, "-1")
COUNTS["non-integer count"] = lambda lines, j: _set_field(lines, j, 4, "2.5")


@pytest.mark.parametrize("kind", sorted(COUNTS))
@FUZZ
@given(table=count_tables(), data=st.data())
def test_count_records_mutation(tmp_path, kind, table, data):
    path = tmp_path / "raw.csv"
    _write_counts(path, *table)
    lines = path.read_text().splitlines()
    j = data.draw(st.integers(1, len(lines) - 1))
    _assert_fault(path, *COUNTS[kind](lines, j), read_count_records)


# ---------------------------------------------------------------------------
# writers


EDGE_VALUES = EDGE_FLOATS + [-v for v in EDGE_FLOATS]
EDGE_COUNTS = [0, 1, 2**62, 2**63 - 1]


# column layouts of the per-value test: "f" a float column, "i" an int column
COLUMN_KINDS = ["f", "i", "fi", "if", "ffi", "ifi", "iff"]


@pytest.mark.parametrize("origin", [(0, 0, 0), (1, 1, 0), (1,), ()])
def test_write_csv_matches_per_value_writer(tmp_path, origin):
    rng = np.random.default_rng(9)
    shape = (3, 5, 4)[: len(origin)] if origin else (7,)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    values.flat[: len(EDGE_VALUES)] = EDGE_VALUES[: values.size]
    counts = rng.integers(0, 2**63 - 1, size=shape, dtype=np.int64, endpoint=True)
    counts.flat[: len(EDGE_COUNTS)] = EDGE_COUNTS
    for kinds in COLUMN_KINDS:
        # column j is rolled by j entries, so no two columns match
        columns = [np.roll(values if kind == "f" else counts, j) for j, kind in enumerate(kinds)]
        header, expected = _per_value_table(columns, origin)
        write_csv(tmp_path / "t.csv", header, columns, origin)
        assert (tmp_path / "t.csv").read_bytes() == expected, kinds


def _per_value_table(columns, origin):
    """Header and `table_csv` bytes of the rows (index + origin, column values)."""
    header = (*(f"i{axis}" for axis in range(len(origin))), *(f"c{j}" for j in range(len(columns))))
    rows = [
        (*(i + o for i, o in zip(index, origin)), *(c[index] for c in columns))
        for index in np.ndindex(columns[0].shape)
    ]
    return header, table_csv(header, rows).encode()


# every finite float64, drawn as a bit pattern
_FINITE_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(math.isfinite)


@FUZZ
@given(values=st.lists(_FINITE_BITS, min_size=1, max_size=64))
def test_write_csv_writes_the_repr_of_any_finite_float(tmp_path, values):
    path = tmp_path / "t.csv"
    write_csv(path, ("value",), [np.array(values)])
    assert path.read_text().split("\n") == ["value", *map(repr, values), ""]


@pytest.fixture(scope="module")
def fork_pool():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool


@pytest.mark.parametrize("origin", [(0, 0, 0), (1, 1, 0), (1,), ()])
@pytest.mark.parametrize("blocks", ["lead_1", "under_one", "one", "several"])
def test_write_csv_through_a_pool_is_byte_identical(tmp_path, fork_pool, origin, blocks):
    trailing = (8, 16) if len(origin) == 3 else ()  # 128 rows per leading index
    per_block = _CSV_BLOCK // (128 if trailing else 1)
    lead = {"lead_1": 1, "under_one": 3, "one": per_block, "several": 2 * per_block + 5}[blocks]
    shape = (lead, *trailing)
    rng = np.random.default_rng(11)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    k = min(len(EDGE_VALUES), values.size)
    values.flat[:k] = EDGE_VALUES[:k]  # in the first block and in the last
    values.flat[values.size - k:] = EDGE_VALUES[:k]
    counts = rng.integers(0, 2**63 - 1, size=shape, dtype=np.int64, endpoint=True)
    header, expected = _per_value_table([values, counts], origin)
    write_csv(tmp_path / "pool.csv", header, [values, counts], origin, pool=fork_pool)
    write_csv(tmp_path / "serial.csv", header, [values, counts], origin)
    assert (tmp_path / "serial.csv").read_bytes() == expected
    assert (tmp_path / "pool.csv").read_bytes() == expected


@pytest.mark.parametrize("shape, origin", [((0,), (0,)), ((0, 3), (1, 0)), ((2, 0), (0, 1)), ((2, 0, 4), (1, 1, 0))])
def test_write_csv_without_rows_writes_only_the_header(tmp_path, fork_pool, shape, origin):
    # no rows: an empty leading axis, or an empty trailing axis under every leading index
    header = (*(f"i{axis}" for axis in range(len(shape))), "value", "count")
    for pool in (None, fork_pool):
        write_csv(tmp_path / "t.csv", header, [np.zeros(shape), np.zeros(shape, int)], origin, pool)
        assert (tmp_path / "t.csv").read_text() == ",".join(header) + "\n"


def test_write_csv_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError, match="shapes"):
        write_csv(tmp_path / "t.csv", ("p", "a", "b"), [np.zeros(3), np.zeros(4)], (0,))
    with pytest.raises(ValueError, match="origin"):
        write_csv(tmp_path / "t.csv", ("p", "a"), [np.zeros((2, 3))], (0,))


def test_write_ndjson_lines_are_sorted_json_dumps(tmp_path):
    meta = {"s2": 3, "depth": 2, "s1": 2}
    records = [
        {"q": i, "p": 2**63 - 1, "curve": [v, -v], "flag": i % 2 == 0, "x": v}
        for i, v in enumerate(EDGE_VALUES)
    ]
    write_ndjson(tmp_path / "t.ndjson", meta, iter(records))
    lines = (tmp_path / "t.ndjson").read_text().split("\n")
    assert lines == [json.dumps(obj, sort_keys=True) for obj in [meta, *records]] + [""]


def _writes_file(call: ast.Call) -> bool:
    """Whether a call opens a file for writing or writes one directly."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in {"write_text", "write_bytes", "savetxt", "save", "savez", "tofile"}:
        return True
    # a mode that is not a literal counts
    return name == "open" and any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                                  for m in _open_modes(call))


def _open_modes(call: ast.Call) -> list:
    """The mode arguments of open(file, mode) or path.open(mode)."""
    modes = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    return modes + [k.value for k in call.keywords if k.arg == "mode"]


def _opens_text_without_utf8(call: ast.Call) -> bool:
    """Whether a call opens a file in text mode, or wraps a stream as text,
    without the keyword encoding="utf-8"; a mode that is not a literal is
    text."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "open" and any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in _open_modes(call)):
        return False
    utf8 = any(k.arg == "encoding" and isinstance(k.value, ast.Constant) and k.value.value == "utf-8"
               for k in call.keywords)
    return name in {"open", "TextIOWrapper"} and not utf8


def test_only_grids_writes_files():
    """Every output file goes through `grids.write_csv` or
    `grids.write_ndjson`."""
    found = []
    for module in sorted((Path(__file__).parents[1] / "src" / "coxmra").glob("*.py")):
        if module.name == "grids.py":
            continue
        found += [
            f"{module.name}:{node.lineno}"
            for node in ast.walk(ast.parse(module.read_text()))
            if isinstance(node, ast.Call) and _writes_file(node)
        ]
    assert found == []


def test_one_pool_per_run():
    """The CLI builds one `_ForkPool` per run, in `cli.main`, and every
    command maps on that one: no other code constructs a pool."""
    found = [
        f"{module.name}:{getattr(stmt, 'name', stmt.lineno)}"
        for module in sorted((Path(__file__).parents[1] / "src" / "coxmra").glob("*.py"))
        for stmt in ast.parse(module.read_text(encoding="utf-8")).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == "_ForkPool"
    ]
    assert found == ["cli.py:main"]


def test_text_files_are_utf8():
    """Every text-mode `open` and `io.TextIOWrapper` in `src/coxmra`
    passes encoding="utf-8", so no file's text depends on the locale."""
    found = [
        f"{module.name}:{node.lineno}"
        for module in sorted((Path(__file__).parents[1] / "src" / "coxmra").glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Call) and _opens_text_without_utf8(node)
    ]
    assert found == []


def test_one_fdft_path():
    """`src/coxmra` takes an FFT only in `spectral.all_periodograms`, and
    there only as one `np.fft.rfft2`, the half-plane periodograms of real
    fields: every `<module>.fft` attribute is that call, and nothing
    imports `numpy.fft` or a name from it."""
    uses, found = [], []
    for module in sorted((Path(__file__).parents[1] / "src" / "coxmra").glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for stmt in tree.body:
            where = f"{module.name}:{getattr(stmt, 'name', stmt.lineno)}"
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                    if any("fft" in name.split(".") for name in names):
                        found.append(f"{where}: imports fft")
                elif isinstance(node, ast.Attribute) and node.attr == "fft":
                    func = parents[node]
                    called = isinstance(func, ast.Attribute) and isinstance(parents.get(func), ast.Call)
                    if not (called and func.attr == "rfft2" and parents[func].func is func):
                        found.append(f"{where}:{node.lineno}: fft.{getattr(func, 'attr', '?')}")
                    else:
                        uses.append(where)
    assert found == []
    assert uses == ["spectral.py:all_periodograms"]


# the matrix products the contrast modules may write with `@`, by (module,
# function), each with why its reduction order cannot change a contrast's bits
_MATMUL_ALLOWED = {
    ("spectral.py", "_symbol_sq"): "K = 5 cosine coefficients per point, byte-stable under 1 and 2 BLAS threads",
    ("estimator.py", "_searches"): "n x k basis scores of the coefficients, a sum over n <= 2^depth",
    ("estimator.py", "_eigenbasis"): "the n x n second moment, byte-stable under 1 and 2 BLAS threads at 150 x 150",
    ("estimator.py", "_report"): "U diag(theta) U^T, a sum over k <= n basis vectors",
    ("spectral.py", "_contrast"): "ranks seed candidates; exact pair sums decide every output",
}
# reductions whose order BLAS or an optimizer chooses
_BLAS_REDUCTIONS = {"vecdot", "dot", "inner", "matmul", "tensordot"}


def test_contrast_reductions_have_a_fixed_order():
    """`spectral.py` and `estimator.py` reduce over the half plane only by
    numpy's pairwise `(a * b).sum(axis=-1)` or, in
    `spectral._contrast_derivatives`, by the non-optimized `einsum`
    contractions "rn,kn->rk" of each row against the cosines and their
    products, and `predict.py` predicts only by non-optimized `einsum`: no
    `np.vecdot`, `np.dot`, `np.inner`, `np.matmul`, `np.tensordot` or
    optimized `einsum`, and `@` only where `_MATMUL_ALLOWED` says why, so
    no fit's or prediction's bits depend on the BLAS thread count or on
    the rows fitted or sites predicted beside it.  An allowed function
    that no longer writes `@` is a stale entry, and fails too."""
    found, stale = [], set(_MATMUL_ALLOWED)
    for name in ("spectral.py", "estimator.py", "predict.py"):
        tree = ast.parse((Path(__file__).parents[1] / "src" / "coxmra" / name).read_text())
        for definition in ast.walk(tree):
            if not isinstance(definition, ast.FunctionDef):
                continue
            for node in ast.walk(definition):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    if (name, definition.name) not in _MATMUL_ALLOWED:
                        found.append(f"{name}:{node.lineno} @ in {definition.name}")
                    stale.discard((name, definition.name))
                elif isinstance(node, ast.Call):
                    func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    if func in _BLAS_REDUCTIONS or (func == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
                        found.append(f"{name}:{node.lineno} {func}")
    assert found == []
    assert stale == set(), "allow-listed functions without `@`"


def _is_command(definition: ast.FunctionDef | ast.ClassDef) -> bool:
    """Whether a def is registered as a click command on a group."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in definition.decorator_list
    )


def test_public_names_are_reached_by_the_pipeline():
    """Every top-level function and class in `src/coxmra`, and so every
    non-module name `coxmra` exports, and every public method and
    property of a library class, is referenced outside its own definition
    by a library module, the benchmark or the acceptance criteria, or is
    a CLI command.  Code only tests call is a side door to delete, or a
    reference that belongs in `tests/oracles.py`."""
    root = Path(__file__).parents[1]
    library = [p for p in sorted((root / "src" / "coxmra").glob("*.py")) if p.name != "__init__.py"]
    sources = library + sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    # the names each part of a top-level statement references: a class's
    # parts are its bases, decorators and body statements, anything else
    # is one part; a def or class binds its own name without a Name node
    references = [
        (stmt, part, {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(part) if isinstance(node, (ast.Name, ast.Attribute))})
        for tree in trees.values()
        for stmt in tree.body
        for part in (stmt.bases + stmt.decorator_list + stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]
    defined = {
        f"{path.name}:{stmt.name}": stmt
        for path in library
        for stmt in trees[path].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    methods = {
        f"{key}.{method.name}": method
        for key, stmt in defined.items() if isinstance(stmt, ast.ClassDef)
        for method in stmt.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
    }
    unreached = [
        key for key, definition in defined.items()
        if not _is_command(definition)
        and not any(definition.name in names for stmt, _, names in references if stmt is not definition)
    ] + [
        key for key, method in methods.items()
        if not any(method.name in names for _, part, names in references if part is not method)
    ]
    assert unreached == []
    names = {definition.name for definition in defined.values()}
    exported = [name for name in coxmra.__all__ if not isinstance(getattr(coxmra, name), ModuleType)]
    assert [name for name in exported if name not in names] == []


def test_exports_do_not_shadow_submodules():
    """A package name that is also a module of the package is the module:
    an export bound over it hides the module from `import coxmra.<name>`."""
    package = Path(coxmra.__file__).parent
    shadowed = [name for name in coxmra.__all__
                if (package / f"{name}.py").exists() and not isinstance(getattr(coxmra, name), ModuleType)]
    assert shadowed == []
    assert coxmra.predict.loo_validate is coxmra.loo_validate


def test_falsified_property_reports_its_example(tmp_path):
    """Under the project's warning filters a failing Hypothesis test is
    reported with its example, not turned into a pytest internal error."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@given(st.integers())\n@settings(database=None)\n"
        "def test_always_fails(x):\n    assert x != x\n"
    )
    root = Path(__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(root), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
