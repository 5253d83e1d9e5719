"""Dataset CSV parsing and artifact emission.

The dataset format is a UTF-8 CSV with header columns energy_gev, p_mumu,
sigma_stat and optionally sigma_sys, in any order; full-line comments start
with '#'. Floats are written with repr precision so a write-parse round trip
reproduces values exactly, and report.json uses sorted keys so identical
runs produce identical bytes. Tuple rows are written as CSV only.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DomainError
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
    columns = (getattr(points, name).tolist() for name in SPECTRUM_COLUMNS)
    write_table_csv(path, SPECTRUM_COLUMNS, zip(*columns))


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


class TupleTable:
    """An analysis's per-tuple columns by name; 2-D where a tuple holds a list.

    A column is an array or a PointColumn; table[name] is always the array.
    """

    def __init__(self, columns: dict[str, np.ndarray | PointColumn]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        column = self.columns[name]
        if isinstance(column, PointColumn):
            return column.values[column.index]
        return column


# Rows of a TupleTable formatted and written at a time: the tuple text held
# in memory is bounded by this, not by the tuple count.
CHUNK_ROWS = 1024

# A flag's text in a CSV cell, indexed by the flag.
_FLAG_TEXT = np.array(["0", "1"], dtype=object)


def _cell_text(values: np.ndarray) -> list:
    """The literal of each cell of a 1-D array: its repr, or a flag's 0 or 1.

    A flag maps through a two-entry lookup. Every other cell takes one repr
    of its Python value, with no cache, so -0.0 keeps its own text and an
    int its full width.
    """
    if values.dtype == bool:
        return _FLAG_TEXT[values.view(np.uint8)].tolist()
    return list(map(repr, values.tolist()))


class _RowWriter:
    """One CSV file of the tuple writer: a header, then the rows chunk by chunk.

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
    array per column formatted once per table; every other column formats
    its cells.
    """
    cells = {}
    for key in keys:
        name, part = key
        column = table.columns[name]
        if isinstance(column, PointColumn):
            index = column.index[rows]
            if part is not None:
                index = index[:, part]
            text = point_text.get(name)
            if text is None:
                text = point_text[name] = np.array(_cell_text(column.values), dtype=object)
            cells[key] = text[index].tolist()
        else:
            values = column[rows]
            if part is not None:
                values = values[:, part]
            cells[key] = _cell_text(values)
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
    """Write CSV tables of an analysis's tuples in one pass.

    tables holds (path, column names) pairs: each is written as the
    table_csv_text of those columns, with index and phase lists joined by
    ';' and a flag as 0 or 1.

    The table is written in chunks of CHUNK_ROWS rows. A PointColumn's
    points are formatted once per call and their text is gathered by
    index; every other cell of a chunk takes one repr, or its flag text,
    once for all files (_cell_text). Each file's rows of the chunk are one
    flat list, the row's literals repeated with the cells slice-assigned
    into it, joined once; the chunk is written to every file before the
    next one is formatted. So the text in memory does not grow with the
    tuple count. A non-finite cell in any float column raises before any
    file is opened.
    """
    for name, column in table.columns.items():
        if column.dtype.kind != "f":
            continue
        if isinstance(column, PointColumn):
            finite = np.isfinite(column.values)[column.index]
        else:
            finite = np.isfinite(column)
        if not finite.all():
            raise DomainError(f"column {name!r} holds a non-finite value")
    writers = [_RowWriter(path, table, names) for path, names in tables]
    keys = {key for writer in writers for key in writer.keys}
    with ExitStack() as stack:
        files = {
            writer: stack.enter_context(Path(writer.path).open("w", encoding="utf-8"))
            for writer in writers
        }
        for writer, out in files.items():
            out.write(writer.head)
        point_text = {}
        for start in range(0, len(table), CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, len(table)))
            cells = _chunk_cells(table, keys, rows, point_text)
            for writer, out in files.items():
                writer.write_rows(out, cells, rows.stop - rows.start)


def table_csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A simple table as CSV text: a string cell as it is, a float at repr precision.

    A np.float64 is a float whose own repr is np.float64(...), so floats are
    written as the repr of their Python float.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(v) if type(v) is float else v if type(v) is str
            else repr(float(v)) if isinstance(v, float) else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


def write_table_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the table_csv_text of a table to path."""
    Path(path).write_text(table_csv_text(header, rows), encoding="utf-8")
