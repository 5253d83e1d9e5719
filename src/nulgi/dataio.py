"""Dataset CSV parsing and artifact emission.

The dataset format is a UTF-8 CSV with header columns energy_gev, p_mumu,
sigma_stat and optionally sigma_sys, in any order; full-line comments start
with '#'. Every CSV table, the spectrum, the tuple and point tables, the
null counts and the model curve, is written from columns by one writer,
emit_report: floats as their repr, -0.0 included, so a write-parse round
trip reproduces values exactly, ints in full and flags as 0 or 1. The
float text of a chunk comes from one floattext.float_text call, which
equals repr without calling it per value, and is checked finite as it is
made. A table's columns may be made a chunk at a time (ComputedColumn),
so no pass over it holds a whole column. staged writes a set of files
under temporary names and puts them onto their own names only once all
of them are whole.
report.json uses sorted keys so identical runs produce identical bytes.
Tuple rows are written as CSV only.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import ExitStack, contextmanager
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
    emit_report(TupleTable({name: getattr(points, name) for name in SPECTRUM_COLUMNS}), path)


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

    A column is an array, a PointColumn or a ComputedColumn; a pass over
    the table reads a ComputedColumn a row range at a time.
    """

    def __init__(self, columns: dict[str, np.ndarray | PointColumn | ComputedColumn]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


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


def _column_name(key) -> str:
    """The column a cell key names: the key, or a (column, list entry) pair's first."""
    return key[0] if isinstance(key, tuple) else key


def _cell_text(arrays: dict) -> dict:
    """The literals of the cells of 1-D arrays, a list of str per key.

    A flag maps through a two-entry lookup and an int takes its repr, so it
    keeps its full width. The floats of every array are made in one
    float_text call, whose text equals repr, -0.0 and all, with no cache.
    A non-finite float raises DomainError naming the first column, in the
    order of arrays, that holds one: nan and inf have no text here.
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
        joined = np.concatenate([arrays[key] for key in floats])
        if not np.isfinite(joined).all():
            key = next(key for key in floats if not np.isfinite(arrays[key]).all())
            raise DomainError(f"column {_column_name(key)!r} holds a non-finite value")
        cells = float_text(joined)
        start = 0
        for key in floats:
            stop = start + len(arrays[key])
            text[key], start = cells[start:stop], stop
    return text


class _RowWriter:
    """The CSV text of emit_report: a header, then the rows chunk by chunk.

    A row is the table's columns joined by ',', with the entries of a list
    cell joined by ';'.
    """

    def __init__(self, table: TupleTable) -> None:
        self.head = ",".join(table.columns) + "\n"
        # One row's literals, with a None in each cell's slot: slots[i] is
        # where the cells of keys[i], a (column, list entry or None), go.
        self.row, self.slots, self.keys = [], [], []
        for i, (name, column) in enumerate(table.columns.items()):
            shape = column.shape
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


def _chunk_cells(table: TupleTable, keys: Sequence, rows: slice, point_text: dict) -> dict:
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


def write_report(report: SignificanceReport, out) -> None:
    """Write report.json to the open text stream out: json.dumps(report,
    indent=2, sort_keys=True) and a newline.

    Dataclasses are entered as their fields, paths written as strings and
    numpy scalars as Python numbers. A value that cannot be encoded raises
    before anything is written.
    """
    out.write(json.dumps(report, default=_json_fallback, indent=2, sort_keys=True) + "\n")


def staging_path(path) -> Path:
    """The temporary name beside path that staged writes path under."""
    path = Path(path)
    return path.with_name(path.name + ".partial")


@contextmanager
def staged(paths: Sequence):
    """Open a file for writing under the staging_path of each of paths, and
    yield the open files in order.

    When the block returns, every file is closed and then put onto its
    path with os.replace, so each path holds either its old bytes or the
    whole of its new ones. When the block raises, every file is closed and
    removed and no path is touched. A process killed inside the block
    leaves only files under staging names, which the next staged write of
    the same paths truncates; one killed between two of the replacements
    leaves some paths new and the rest old, each whole. A path that is a
    symbolic link is replaced by the file, not written through.
    """
    temps = [staging_path(path) for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(temp.open("w", encoding="utf-8")) for temp in temps]
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    for temp, path in zip(temps, paths):
        os.replace(temp, path)


def emit_report(table: TupleTable, out) -> None:
    """Write every column of a table, in order, as CSV in one checked pass.

    A header of the column names, then one line per row, its cells joined
    by ','. A float cell is its repr, an int cell its digits, a flag 0 or
    1, and the entries of a list cell (a 2-D column) are joined by ';'.
    out is an open text stream, written to and left open, or a path,
    opened and written in place; a caller that needs its files whole or
    absent hands in the files of staged, as pipeline's runs do.

    The table is written in chunks of CHUNK_ROWS rows (chunk_rows), and a
    ComputedColumn is made once per chunk, so no pass holds a whole float
    column. A PointColumn's points are formatted once per call, with the
    first chunk, and their text is gathered by index; every other cell of
    a chunk is formatted there (_cell_text): its flag text, an int's repr,
    and for the floats of every column together one floattext.float_text
    call, whose text equals repr, -0.0 and exponent form included. The
    chunk's rows are one flat list, the row's literals repeated with the
    cells slice-assigned into it, joined once and written before the next
    chunk is formatted. So the text in memory does not grow with the row
    count.

    The floats are checked as they are formatted: the first chunk that
    holds a non-finite value raises DomainError naming its column, with
    the chunks before it already written, and a PointColumn's points count
    whether or not a row reads them.
    """
    writer = _RowWriter(table)
    with ExitStack() as stack:
        if not hasattr(out, "write"):
            out = stack.enter_context(Path(out).open("w", encoding="utf-8"))
        out.write(writer.head)
        point_text = {}
        for rows in chunk_rows(len(table)):
            cells = _chunk_cells(table, writer.keys, rows, point_text)
            writer.write_rows(out, cells, rows.stop - rows.start)
