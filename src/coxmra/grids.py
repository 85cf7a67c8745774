"""Dyadic time grids, regular spatial grids and curve fields.

A curve field holds one sampled curve per node of a regular S1 x S2
lattice.  Curves are sampled at the 2^D midpoints t_m = (m + 1/2)/2^D of
the unit interval, so that inner products reduce to Riemann sums with
weight 2^-D (exact for the Haar system on this grid).
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class FieldFormatError(ValueError):
    """Raised when a serialized field is malformed or inconsistent."""


@dataclass(frozen=True)
class TimeGrid:
    """Midpoint sampling grid of 2**depth points on (0, 1)."""

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    @property
    def n(self) -> int:
        return 1 << self.depth

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n

    @property
    def weight(self) -> float:
        """Quadrature weight of each sample in the Riemann sum."""
        return 1.0 / self.n


@dataclass(frozen=True)
class SpatialGrid:
    """Regular lattice of s1 rows by s2 columns."""

    s1: int
    s2: int

    def __post_init__(self):
        if self.s1 < 2 or self.s2 < 2:
            raise ValueError(f"grid sides must be >= 2, got {self.s1}x{self.s2}")

    @property
    def n(self) -> int:
        return self.s1 * self.s2


@dataclass(frozen=True)
class FunctionalField:
    """Array of curves over a spatial grid, shape (s1, s2, 2**depth)."""

    grid: SpatialGrid
    time: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.grid.s1, self.grid.s2, self.time.n)
        if v.shape != expected:
            raise ValueError(f"field shape {v.shape} != {expected}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)


def detrend(fld: FunctionalField) -> tuple[FunctionalField, np.ndarray]:
    """Remove the cross-site sample mean curve.

    Returns the residual field together with the removed mean curve
    (2**depth,); adding the mean back reproduces the input up to one
    rounding per entry.
    """
    mean = fld.values.mean(axis=(0, 1))
    return FunctionalField(fld.grid, fld.time, fld.values - mean), mean


# ---------------------------------------------------------------------------
# record files
#
# Every loader reads through `read_csv_records` or `read_ndjson` and then
# `place_records`, which sorts records given in any order into place.
# Faults raise FieldFormatError "<path>: line <n>: <what>"; faults of the
# whole file name the line after the last record.  `load_field` first reads
# a field file in byte ranges, each tested for C order, and keeps only the
# values; a file not in C order goes through the same two functions.  Files are UTF-8 whatever the
# locale, and a byte that is not UTF-8 is a fault on its line.  Every
# output file is written by `write_csv` or `write_ndjson`; `write_csv`
# fills a cached row template of the index coordinates with each block's
# values by one `%` substitution, so a float costs its `repr` and little
# else.  A file of one formatting block or one parsing range is handled in
# the calling process.


def record_fault(path, lineno: int, what) -> FieldFormatError:
    return FieldFormatError(f"{path}: line {lineno}: {what}")


def _undecodable_line(path) -> str:
    """"line <n>: not UTF-8: byte 0xNN" of the first byte of `path` that is
    not UTF-8, on the line the text layer counts it on."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:  # byte b reads as chr(0xdc00 + b)
        for lineno, line in enumerate(fh, start=1):
            if bad := re.search("[\udc80-\udcff]", line):
                return f"line {lineno}: not UTF-8: byte {ord(bad[0]) - 0xdc00:#04x}"
    return "not UTF-8"


def _utf8(read: Callable) -> Callable:
    """`read(path, ...)` with a byte of `path` that is not UTF-8 a fault on
    the line that holds it."""
    @functools.wraps(read)
    def reader(path, *args):
        try:
            return read(path, *args)
        except UnicodeDecodeError:
            raise FieldFormatError(f"{path}: {_undecodable_line(path)}") from None
    return reader


@_utf8
def read_csv_records(path, columns: dict) -> tuple[np.ndarray, Callable[[int], int]]:
    """Parse a CSV file whose header names `columns` (name -> dtype) into
    one structured row per non-empty line, plus the line lookup of
    `place_records`."""
    header = ",".join(columns)
    dtype = np.dtype(list(columns.items()))
    with open(path, encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != header:
            raise record_fault(path, 1, f"unexpected header {found!r}, expected {header!r}")
        start = fh.tell()
        if all(line == "\n" for line in iter(fh.readline, "")):
            raise record_fault(path, 2, "no records")
        fh.seek(start)
        try:
            return _parse_csv(fh, dtype), lambda i: _record_lines(path)[i][0]
        except ValueError as exc:
            error = exc
    for lineno, text in _record_lines(path)[:-1]:  # find the line it rejected
        try:
            _parse_csv([text], dtype)
        except ValueError:
            raise record_fault(path, lineno, f"expected {header}, got {text.strip()!r}")
    raise FieldFormatError(f"{path}: {error}")


def _parse_csv(lines, dtype: np.dtype) -> np.ndarray:
    # loadtxt skips only empty lines, exactly those `_record_lines` drops
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _record_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of every non-empty line after the first, plus
    the line after the last one."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if n > 1 and line != "\n"]
    return lines + [(lines[-1][0] + 1 if lines else 2, "")]


@_utf8
def read_ndjson(path, metas: tuple[dict, ...], record: dict) -> tuple[tuple, list[tuple], Callable]:
    """Parse the metadata line and one record per non-empty line after it.

    Each schema maps each key to its JSON kind (int, float, bool, or list
    of floats); the metadata line has the keys of one of `metas`, and the
    values come in the order of the schema it matched, with the line
    lookup of `place_records`.
    """
    with open(path, encoding="utf-8") as fh:
        head = _json_values(path, 1, fh.readline(), *metas)
    lines = _record_lines(path)
    records = [_json_values(path, n, text, record) for n, text in lines[:-1]]
    return head, records, lambda i: lines[i][0]


def _json_values(path, lineno: int, line: str, *schemas: dict) -> tuple:
    try:
        obj = json.loads(line.rstrip())
    except json.JSONDecodeError as exc:
        raise record_fault(path, lineno, f"bad JSON at column {exc.colno}: {exc.msg}") from exc
    schema = next((s for s in schemas if isinstance(obj, dict) and obj.keys() == s.keys()), None)
    if schema is None:
        keys = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        expected = " or ".join(str(sorted(s)) for s in schemas)
        raise record_fault(path, lineno, f"expected keys {expected}, got {keys}")
    try:
        return tuple(_typed(obj[key], kind) for key, kind in schema.items())
    except (TypeError, ValueError) as exc:
        raise record_fault(path, lineno, exc) from exc


def _typed(v, kind: type):
    """A JSON value of `kind`; numbers are finite, a list holds numbers."""
    if kind is float and type(v) is int:
        v = float(v)
    if type(v) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {v!r}")
    if kind is list:
        return tuple(_typed(x, float) for x in v)
    if kind is float and not math.isfinite(v):
        raise ValueError(f"non-finite number {v!r}")
    return v


def place_records(path, shape: tuple, columns, values, lineno: Callable, name: Callable) -> np.ndarray:
    """Scatter one finite value per record into an array of `shape` + value
    shape; every index tuple of `shape` must occur exactly once.

    `columns` holds one index column per axis, `lineno(i)` is the line of
    record i (i = record count: the line after the last) and `name(key)`
    words an index tuple.  Records in any order, C order included, are
    placed by one stable sort of the columns, with no flat index, so a
    stray huge index allocates nothing: a repeat sits next to its first
    occurrence, the first gap is the first sorted tuple off C order, and a
    complete set sorts into C order.
    """
    columns = [np.asarray(c, dtype=np.int64).reshape(-1) for c in columns]
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if not finite.all():
        raise record_fault(path, lineno(int(np.argmin(finite))), "non-finite value")
    outside = np.any([(c < 0) | (c >= size) for c, size in zip(columns, shape)], axis=0)
    if outside.any():
        i = int(np.argmax(outside))
        key = tuple(int(c[i]) for c in columns)
        what = "negative index" if min(key) < 0 else f"index outside {shape}"
        raise record_fault(path, lineno(i), f"{name(key)}: {what}")
    order = np.lexsort(columns[::-1])
    repeats = order[1:][np.all([r[1:] == r[:-1] for r in (c[order] for c in columns)], axis=0)]
    if repeats.size:
        i = int(repeats.min())
        raise record_fault(path, lineno(i), f"duplicate {name(tuple(int(c[i]) for c in columns))}")
    if n < math.prod(shape):  # no repeats and all in range: the first sorted tuple off C order
        expected = _c_order_indices(n + 1, shape)
        off = np.any([c[order] != e[:n] for c, e in zip(columns, expected.T)], axis=0)
        missing = expected[int(np.argmax(off)) if off.any() else n]
        raise record_fault(path, lineno(n), f"incomplete: missing {name(tuple(map(int, missing)))}")
    return values[order].reshape(tuple(shape) + values.shape[1:])


def _c_order_start(columns, shape: tuple) -> int | None:
    """The C-order position of the first index tuple of `columns` (the
    records of one `_load_c_order` range, at most about 32k) if the tuples
    are the run of `shape`'s tuples in C order from there, else None.  The
    shape's size must fit an int64.  Indices inside their axes name one
    position each, so the tuples are that run when those positions count
    up from the first."""
    n = len(columns[0])
    if not n:
        return None
    start = 0
    for c, size in zip(columns, shape):
        start = start * size + int(c[0])
    if not 0 <= start <= math.prod(shape) - n:
        return None
    pos = np.zeros(n, dtype=np.int64)
    for c, size in zip(columns, shape):
        if not ((c >= 0) & (c < size)).all():
            return None
        pos *= size
        pos += c
    return start if (pos == np.arange(start, start + n)).all() else None


def _c_order_indices(m: int, shape: tuple) -> np.ndarray:
    """The first m index tuples of `shape` in C order, (m, len(shape)),
    without forming a flat index: an axis of length >= m is never wrapped."""
    pos, columns = np.arange(m), []
    for size in reversed(shape):
        radix = min(size, m)
        columns.append(pos % radix)
        pos = pos // radix
    return np.column_stack(columns[::-1])


# rows per formatting block; a constant, so blocks never depend on the pool
_CSV_BLOCK = 1 << 14


def write_csv(path, header, columns, origin: tuple = (), pool=None) -> None:
    """CSV table with the column names `header` and one row per entry of
    the equal-shaped arrays `columns`, in C order.

    The first len(origin) axes are index axes: each row starts with their
    coordinates, offset by `origin`.  With origin=() the columns are one
    dimensional and rows hold only their values.  Integers are written in
    decimal, floats as their shortest repr.

    Rows are formatted in blocks of whole leading indices, by `pool.map`
    when a pool (for example a process pool) is given and by `map`
    otherwise, and written in order, so the bytes do not depend on it.
    """
    columns = [np.asarray(c) for c in columns]
    shape = columns[0].shape
    if any(c.shape != shape for c in columns) or len(shape) != max(len(origin), 1):
        raise ValueError(f"columns of shapes {[c.shape for c in columns]} for origin {origin}")
    step = max(1, _CSV_BLOCK // max(1, math.prod(shape[1:])))
    blocks = [
        ((j + origin[0], *origin[1:]) if origin else (), [c[j : j + step] for c in columns])
        for j in range(0, shape[0], step)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for text in (map if pool is None else pool.map)(_format_rows, blocks):
            fh.write(text)


def _format_rows(block) -> str:
    """CSV rows of one block (origin, columns) of `write_csv`: the block's
    row template filled with its values by one `%` substitution."""
    origin, columns = block
    n, k = columns[0].size, len(columns)
    if not n:
        return ""
    values = [None] * (n * k)
    for j, c in enumerate(columns):
        values[j::k] = c.ravel().tolist()  # Python ints and floats, interleaved by row
    if not origin:
        return _row_template((), (), k) * n % tuple(values)
    rows = _row_template(columns[0].shape[1:], origin[1:], k)
    leads = [f"{i}," for i in range(origin[0], origin[0] + len(columns[0]))]
    # every row of the trailing axes, once per leading index, prefixed with it
    text = "".join([lead + rows.replace("\n", "\n" + lead)[: -len(lead)] for lead in leads])
    return text % tuple(values)


@functools.lru_cache(maxsize=8)
def _row_template(shape: tuple, origin: tuple, k: int) -> str:
    """One line per index tuple of `shape` in C order: its coordinates,
    offset by `origin`, then k `%r` cells.  `%r` of a Python int or float
    is its decimal or shortest repr."""
    cells = ",".join(["%r"] * k) + "\n"
    coords = [""]
    for size, start in zip(shape, origin):
        coords = [f"{c}{i}," for c in coords for i in range(start, start + size)]
    return "".join([c + cells for c in coords])


def write_ndjson(path, meta: dict, records) -> None:
    """One JSON line for `meta`, then one per record, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# field files
#
# One format, CSV-long: header "p,q,t_index,value", 0-based indices, one
# row per site and time index in C order.  NDJSON is for reports only.

_FIELD_COLUMNS = {"p": np.int64, "q": np.int64, "t_index": np.int64, "value": float}
_FIELD_DTYPE = np.dtype(list(_FIELD_COLUMNS.items()))

# bytes per parsing range of `load_field`; a constant, so ranges never
# depend on the pool
_LOAD_CHUNK = 1 << 18


def save_field(fld: FunctionalField, path, pool=None) -> None:
    """Write `fld` as a CSV-long table, formatted through `pool` (see
    `write_csv`)."""
    write_csv(path, _FIELD_COLUMNS, [fld.values], origin=(0, 0, 0), pool=pool)


def load_field(path, pool=None) -> FunctionalField:
    """Read a CSV-long field file.

    Records in C order are parsed in line-aligned byte ranges of about
    `_LOAD_CHUNK` bytes, by `pool.map` when a pool is given and by `map`
    otherwise, and only their values are kept.  Any other file, and any
    fault, takes the record path (`read_csv_records`, `place_records`), so
    the values and the fault texts do not depend on the pool.
    """
    fld = _load_c_order(path, pool)
    if fld is not None:
        return fld
    rows, lineno = read_csv_records(path, _FIELD_COLUMNS)
    columns = [rows["p"], rows["q"], rows["t_index"]]
    shape = tuple(int(c.max()) + 1 for c in columns)
    values = place_records(path, shape, columns, rows["value"], lineno, lambda k: f"entry {k}")
    try:
        grids = _field_grids(shape)
    except ValueError as exc:
        raise record_fault(path, lineno(len(rows)), exc) from exc
    return FunctionalField(*grids, values)


def _field_grids(shape: tuple) -> tuple[SpatialGrid, TimeGrid]:
    """The grids of a field of `shape`; ValueError if it has none."""
    s1, s2, nt = shape
    depth = nt.bit_length() - 1
    if 1 << depth != nt:
        raise ValueError(f"time grid size {nt} is not a power of two")
    return SpatialGrid(s1, s2), TimeGrid(depth)


def _load_c_order(path, pool) -> FunctionalField | None:
    """The field of a field file whose records are in C order, for the
    shape its last line names, or None.

    Every record takes at least 8 bytes, so a shape of more entries than
    an eighth of the file's bytes names no such file and is not allocated.
    The ranges start after the header's first newline byte: a newline
    byte always ends a line, so each range holds whole lines.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if first.strip() != ",".join(_FIELD_COLUMNS).encode():
            return None
        size = fh.seek(0, io.SEEK_END)
        fh.seek(max(len(first), size - 4096))  # a longer last line fails the shape
        last = fh.read().rstrip(b"\r\n").replace(b"\r", b"\n").rsplit(b"\n", 1)[-1].split(b",")
        try:
            shape = tuple(int(i) + 1 for i in last[:3])
            grids = _field_grids(shape)
        except ValueError:
            return None
        # a lone CR before the first newline byte would end the header there
        if b"\r" in first[:-2] or len(last) != 4 or math.prod(shape) * 8 > size:
            return None
        bounds = [len(first)]
        for at in range(len(first) + _LOAD_CHUNK, size, _LOAD_CHUNK):
            if at >= bounds[-1]:
                fh.seek(at)
                fh.readline()
                bounds.append(fh.tell())
    bounds.append(size)
    ranges = [(path, a, b, shape) for a, b in zip(bounds, bounds[1:]) if b > a]
    out, done = np.empty(math.prod(shape)), 0
    for part in (map if pool is None else pool.map)(_field_chunk, ranges):
        if part is None:
            return None
        pos, values = part
        if values.size and pos != done:
            return None
        out[done:done + values.size] = values
        done += values.size
    # `out` is uninitialised until every entry has been copied in
    return FunctionalField(*grids, out.reshape(shape)) if done == out.size else None


def _field_chunk(task) -> tuple[int | None, np.ndarray] | None:
    """(C-order position of the first record, values) of the records in
    one byte range (path, start, stop, shape) of `_load_c_order`, if they
    are a run of finite records of `shape` in C order, (None, no values)
    for a range of blank lines, and None otherwise.  The range is read
    through the text layer of `open`, so its lines and characters are
    those `read_csv_records` reads."""
    path, start, stop, shape = task
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if not data.strip(b"\r\n"):
        return None, np.empty(0)  # loadtxt warns on a range of no records
    try:
        rows = _parse_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), _FIELD_DTYPE)
    except ValueError:
        return None
    del data  # the text is not held beside the C-order test's arrays
    values = rows["value"]
    first = _c_order_start([rows["p"], rows["q"], rows["t_index"]], shape)
    if first is None or not np.isfinite(values).all():
        return None
    return first, values.copy()
