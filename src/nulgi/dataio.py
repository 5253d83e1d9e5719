"""Dataset CSV parsing and artifact emission.

The dataset format is a UTF-8 CSV with header columns energy_gev, p_mumu,
sigma_stat and optionally sigma_sys, in any order; full-line comments start
with '#'. Every CSV table, the spectrum, the tuple tables, the null counts
and the model curve, is written from columns by one writer, emit_report:
floats as their repr, -0.0 included, so a write-parse round trip
reproduces values exactly, ints in full and flags as 0 or 1. The float
text of a chunk comes from one floattext.float_text call, which equals
repr without calling it per value. A table's columns may be made a chunk
at a time (ComputedColumn), so no pass over it holds a whole column.
report.json uses sorted keys so
identical runs produce identical bytes. Tuple rows are written as CSV only.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, DomainError
from .floattext import float_text
from .montecarlo import SignificanceReport
from .selection import SPECTRUM_COLUMNS, Spectrum, spectrum_fault

REQUIRED_COLUMNS = ("energy_gev", "p_mumu", "sigma_stat")


def parse_dataset(path) -> Spectrum:
    """Read a spectrum CSV, validating the header and every cell.

    Errors carry the 1-based line number of the offending row: the first
    line that cannot be read as numbers, else the first line whose values
    Spectrum refuses (spectrum_fault). A repeated energy cites the line
    that first holds it too. Returns the Spectrum, in ascending energy.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc

    header: Optional[list[str]] = None
    rows: list[list[float]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            names = [c.lower() for c in cells]
            unknown = [c for c in names if c not in SPECTRUM_COLUMNS]
            missing = [c for c in REQUIRED_COLUMNS if c not in names]
            if unknown or missing:
                raise DataError(
                    f"line {lineno}: bad header {cells!r}; expected columns "
                    f"{', '.join(REQUIRED_COLUMNS)} and optionally sigma_sys"
                )
            if len(set(names)) != len(names):
                raise DataError(f"line {lineno}: repeated column in header {cells!r}")
            header = names
            continue
        if len(cells) != len(header):
            raise DataError(
                f"line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        row = []
        for name, cell in zip(header, cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise DataError(
                    f"line {lineno}: column {name!r} is not numeric: {cell!r}"
                ) from None
        rows.append(row)
        linenos.append(lineno)

    if header is None:
        raise DataError(f"{path}: no header row found")
    if not rows:
        raise DataError(f"{path}: no data rows found")

    columns = dict(zip(header, np.array(rows, dtype=np.float64).T))
    columns.setdefault("sigma_sys", np.zeros(len(rows)))
    try:
        return Spectrum(**columns)
    except DataError:
        row, message, earlier = spectrum_fault(*(columns[c] for c in SPECTRUM_COLUMNS))
    if earlier is not None:
        message = (
            f"duplicate energy {columns['energy_gev'][row].item()} GeV "
            f"(first on line {linenos[earlier]})"
        )
    raise DataError(f"line {linenos[row]}: {message}")


def write_dataset_csv(points: Spectrum, path) -> None:
    """Write a spectrum CSV that parse_dataset reproduces exactly."""
    table = TupleTable({name: getattr(points, name) for name in SPECTRUM_COLUMNS})
    emit_report(table, ((path, SPECTRUM_COLUMNS),))


@dataclass(frozen=True, eq=False)
class PointColumn:
    """A per-tuple column of per-point values: values[index].

    index holds one entry per tuple, or one row of entries per tuple where
    a tuple holds a list. The writer formats each of values once and
    gathers that text by index.
    """

    values: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.index.shape

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True, eq=False)
class ComputedColumn:
    """A 1-D per-tuple column made per row range: column[rows] is chunk(rows)[name].

    chunk maps a slice of rows to a dict of the computed columns of those
    rows. The computed columns of one table share it; pipeline.tuple_table's
    keeps its last result, so a chunk that several columns read is made
    once.
    """

    chunk: Callable[[slice], dict]
    name: str
    dtype: np.dtype
    length: int

    @property
    def shape(self) -> tuple:
        return (self.length,)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.chunk(slice(*rows.indices(self.length)))[self.name]


class TupleTable:
    """Columns of a CSV table by name: an analysis's per-tuple columns, 2-D
    where a tuple holds a list, or the 1-D columns of any other table.

    A column is an array, a PointColumn or a ComputedColumn. table[name] is
    always the array: a PointColumn's gather, or a ComputedColumn made
    chunk by chunk and joined, so that only that one column is whole.
    """

    def __init__(self, columns: dict[str, np.ndarray | PointColumn | ComputedColumn]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        column = self.columns[name]
        if isinstance(column, PointColumn):
            return column.values[column.index]
        if isinstance(column, ComputedColumn):
            parts = [column[rows] for rows in chunk_rows(len(column))]
            return np.concatenate(parts) if parts else column[0:0]
        return column


# Rows of a TupleTable computed, formatted and written at a time: the
# memory a pass over the table holds is bounded by this, not by the row
# count.
CHUNK_ROWS = 1024


def chunk_rows(rows: int):
    """The slices of CHUNK_ROWS rows, the last one shorter, that cover rows rows."""
    for start in range(0, rows, CHUNK_ROWS):
        yield slice(start, min(start + CHUNK_ROWS, rows))


# A flag's text in a CSV cell, indexed by the flag.
_FLAG_TEXT = np.array(["0", "1"], dtype=object)


def _cell_text(arrays: dict) -> dict:
    """The literals of the cells of 1-D arrays, a list of str per key.

    A flag maps through a two-entry lookup and an int takes its repr, so it
    keeps its full width. The floats of every array are made in one
    float_text call, whose text equals repr, -0.0 and all, with no cache.
    """
    text, floats = {}, []
    for key, values in arrays.items():
        if values.dtype.kind == "f":
            floats.append(key)
        elif values.dtype == bool:
            text[key] = _FLAG_TEXT[values.view(np.uint8)].tolist()
        else:
            text[key] = list(map(repr, values.tolist()))
    if floats:
        cells = float_text(np.concatenate([arrays[key] for key in floats]))
        start = 0
        for key in floats:
            stop = start + len(arrays[key])
            text[key], start = cells[start:stop], stop
    return text


class _RowWriter:
    """One CSV file of emit_report: a header, then the rows chunk by chunk.

    A row is the named columns joined by ',', with the entries of a list
    cell joined by ';'.
    """

    def __init__(self, path, table: TupleTable, names: Sequence[str]) -> None:
        self.path, self.head = path, ",".join(names) + "\n"
        # One row's literals, with a None in each cell's slot: slots[i] is
        # where the cells of keys[i], a (column, list entry or None), go.
        self.row, self.slots, self.keys = [], [], []
        for i, name in enumerate(names):
            shape = table.columns[name].shape
            parts = range(shape[1]) if len(shape) == 2 else (None,)
            for j in parts:
                if i or j:
                    self.row.append(";" if j else ",")
                self.slots.append(len(self.row))
                self.row.append(None)
                self.keys.append((name, j))
        self.row.append("\n")

    def write_rows(self, out, cells: dict, rows: int) -> None:
        """Write a chunk's rows, joined once from the literals and the cells."""
        flat = self.row * rows
        width = len(self.row)
        for slot, key in zip(self.slots, self.keys):
            flat[slot::width] = cells[key]
        out.write("".join(flat))


def _chunk_cells(table: TupleTable, keys: set, rows: slice, point_text: dict) -> dict:
    """The chunk's text of every cell key.

    A PointColumn gathers its points' text from point_text, an object
    array per column made once per table with the first chunk; every
    other column's cells are made per chunk. All of a chunk's text comes
    from one _cell_text call.
    """
    arrays, points = {}, {}
    for key in keys:
        name, part = key
        column = table.columns[name]
        if isinstance(column, PointColumn):
            index = column.index[rows]
            points[key] = index if part is None else index[:, part]
            if name not in point_text:
                arrays[name] = column.values
        else:
            values = column[rows]
            arrays[key] = values if part is None else values[:, part]
    cells = _cell_text(arrays)
    for key, index in points.items():
        name = key[0]
        if name in cells:
            point_text[name] = np.array(cells.pop(name), dtype=object)
        cells[key] = point_text[name][index].tolist()
    return cells


def _json_fallback(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} object is not JSON serializable")


def write_report(report: SignificanceReport, path) -> None:
    """Write report.json: json.dumps(report, indent=2, sort_keys=True) and a newline.

    Dataclasses are entered as their fields, paths written as strings and
    numpy scalars as Python numbers. A value that cannot be encoded raises
    before the file is opened.
    """
    text = json.dumps(report, default=_json_fallback, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def emit_report(table: TupleTable, tables: Sequence[tuple]) -> None:
    """Write CSV tables of a table's columns in one pass.

    tables holds (path or open text stream, column names) pairs: each is
    written as a header of the names, then one line per row, its cells
    joined by ','. A float cell is its repr, an int cell its digits, a flag
    0 or 1, and the entries of a list cell (a 2-D column) are joined by
    ';'. A path is opened and closed here; a stream is written to and left
    open.

    The table is written in chunks of CHUNK_ROWS rows (chunk_rows), and a
    ComputedColumn is made a chunk at a time, so no pass holds a whole
    float column. A PointColumn's
    points are formatted once per call, with the first chunk, and their
    text is gathered by index; every other cell of a chunk is formatted
    once for all files (_cell_text): its flag text, an int's repr, and for
    the floats of every column together one floattext.float_text call,
    whose text equals repr, -0.0 and exponent form included. Each file's
    rows of the chunk are one flat list, the row's literals repeated with
    the cells slice-assigned into it, joined once; the chunk is written to
    every file before the next one is formatted. So the text in memory
    does not grow with the row count. A non-finite cell in any float
    column raises before any file is opened or any text written: a
    computed column is made once to be checked and once to be written.
    """
    faulty, computed = set(), []
    for name, column in table.columns.items():
        if column.dtype.kind != "f":
            continue
        if isinstance(column, ComputedColumn):
            computed.append(name)
            continue
        if isinstance(column, PointColumn):
            # Only when some point is not finite do the tuples' gathers matter.
            finite = np.isfinite(column.values)
            if not finite.all():
                finite = finite[column.index]
        else:
            finite = np.isfinite(column)
        if not finite.all():
            faulty.add(name)
    # Computed columns are checked chunk by chunk, and made again to be written.
    for rows in chunk_rows(len(table)) if computed else ():
        faulty.update(name for name in computed if not np.isfinite(table.columns[name][rows]).all())
    for name in table.columns:
        if name in faulty:
            raise DomainError(f"column {name!r} holds a non-finite value")
    writers = [_RowWriter(path, table, names) for path, names in tables]
    keys = {key for writer in writers for key in writer.keys}
    with ExitStack() as stack:
        files = {
            writer: writer.path if hasattr(writer.path, "write")
            else stack.enter_context(Path(writer.path).open("w", encoding="utf-8"))
            for writer in writers
        }
        for writer, out in files.items():
            out.write(writer.head)
        point_text = {}
        for rows in chunk_rows(len(table)):
            cells = _chunk_cells(table, keys, rows, point_text)
            for writer, out in files.items():
                writer.write_rows(out, cells, rows.stop - rows.start)
