"""Round trips and single-mutation faults of every record file format,
the one writer every output file goes through, and the public surface.

Each mutation changes one record of a valid file and must raise
FieldFormatError naming the file and the line of the fault; faults of the
whole file (a dropped record) name the line after the last record.
"""

import ast
import json
import re
import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coxmra
from coxmra import FunctionalField, SpatialGrid, TimeGrid, load_field, save_field
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
    """A diagonal-only and a cross-pair report of one small field."""
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
    }


def _assert_fault(path, lines, expected, load):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError) as info:
        load(path)
    assert f"{path}: line {expected}:" in str(info.value)


# ---------------------------------------------------------------------------
# field CSV


@FUZZ
@given(fld=fields())
def test_field_roundtrip(tmp_path, fld):
    path = tmp_path / "field.csv"
    save_field(fld, path)
    back = load_field(path)
    assert (back.grid, back.time) == (fld.grid, fld.time)
    np.testing.assert_array_equal(back.values, fld.values)


CSV_FIELD = _csv_mutations(index_col=0, value_col=3)


@pytest.mark.parametrize("kind", sorted(CSV_FIELD))
@FUZZ
@given(fld=fields(), data=st.data())
def test_field_csv_mutation(tmp_path, kind, fld, data):
    path = tmp_path / "field.csv"
    save_field(fld, path)
    lines = path.read_text().splitlines()
    j = data.draw(st.integers(1, len(lines) - 1))
    _assert_fault(path, *CSV_FIELD[kind](lines, j), load_field)


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
], ids=["incomplete", "duplicate"])
def test_field_csv_oversized_shape_is_a_record_fault(tmp_path, rows, fault):
    path = tmp_path / "field.csv"
    path.write_text("\n".join(["p,q,t_index,value", *rows]) + "\n")
    with pytest.raises(FieldFormatError, match=re.escape(f"{path}: {fault}") + "$"):
        load_field(path)


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
    mutations = _json_mutations(data.draw(st.sampled_from(["row", "col"])), n, value_key, "iterations")
    j = data.draw(st.integers(1, len(lines) - 1))
    _assert_fault(tmp_path / "report.ndjson", *mutations[kind](lines, j), load_report)


@pytest.mark.parametrize("depth", [63, 64])
def test_report_oversized_layout_is_incomplete(tmp_path, reports, depth):
    # a layout of 2**depth coefficients, beyond any flat index, with one record
    _, lines = reports[False]
    meta = {**json.loads(lines[0]), "j0": 0, "depth": depth}
    path = tmp_path / "report.ndjson"
    path.write_text("\n".join([json.dumps(meta), lines[1]]) + "\n")
    with pytest.raises(FieldFormatError, match=re.escape(f"{path}: line 3: incomplete: missing pair (1, 1)") + "$"):
        load_report(path)


def test_report_partial_cross_pairs_rejected(tmp_path, reports):
    _, lines = reports[True]
    # keep the diagonal pairs and one off-diagonal pair
    diagonal = [ln for ln in lines[1:] if json.loads(ln)["row"] == json.loads(ln)["col"]]
    cross = [ln for ln in lines[1:] if json.loads(ln)["row"] != json.loads(ln)["col"]]
    path = tmp_path / "report.ndjson"
    path.write_text("\n".join(lines[:1] + diagonal + cross[:1]) + "\n")
    with pytest.raises(FieldFormatError, match=r"line 7: incomplete: missing pair"):
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


@pytest.mark.parametrize("origin", [(0, 0, 0), (1, 1, 0), (1,), ()])
def test_write_csv_matches_per_value_writer(tmp_path, origin):
    rng = np.random.default_rng(9)
    shape = (3, 5, 4)[: len(origin)] if origin else (7,)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    values.flat[: len(EDGE_VALUES)] = EDGE_VALUES[: values.size]
    counts = rng.integers(0, 2**63 - 1, size=shape, dtype=np.int64, endpoint=True)
    counts.flat[: len(EDGE_COUNTS)] = EDGE_COUNTS
    header, expected = _per_value_table(values, counts, origin)
    write_csv(tmp_path / "t.csv", header, [values, counts], origin)
    assert (tmp_path / "t.csv").read_bytes() == expected


def _per_value_table(values, counts, origin):
    """Header and `table_csv` bytes of the rows (index + origin, value, count)."""
    header = (*(f"i{axis}" for axis in range(len(origin))), "value", "count")
    rows = [
        (*(i + o for i, o in zip(index, origin)), v, counts[index])
        for index, v in np.ndenumerate(values)
    ]
    return header, table_csv(header, rows).encode()


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
    header, expected = _per_value_table(values, counts, origin)
    write_csv(tmp_path / "pool.csv", header, [values, counts], origin, pool=fork_pool)
    write_csv(tmp_path / "serial.csv", header, [values, counts], origin)
    assert (tmp_path / "serial.csv").read_bytes() == expected
    assert (tmp_path / "pool.csv").read_bytes() == expected


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
    if name != "open":
        return False
    # open(file, mode) or path.open(mode); a mode that is not a literal counts
    modes = call.args[1:] if isinstance(func, ast.Name) else call.args
    modes = modes + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


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


def test_public_names_are_reached_by_the_pipeline():
    """Every non-module name `coxmra` exports is referenced in code by a
    library module, the benchmark or the acceptance criteria; a name only
    tests call is a side door to delete, not a public name."""
    root = Path(__file__).parents[1]
    sources = [p for p in sorted((root / "src" / "coxmra").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    # a def or class statement binds its name without a Name node
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exported = [name for name in coxmra.__all__ if not isinstance(getattr(coxmra, name), ModuleType)]
    assert [name for name in exported if name not in used] == []


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
