"""Dataset CSV parsing and artifact emission.

The dataset format is a UTF-8 CSV with header columns energy_gev, p_mumu,
sigma_stat and optionally sigma_sys, in any order; full-line comments start
with '#'. Floats are written with repr precision so a write-parse round trip
reproduces values exactly, and JSON reports use sorted keys so identical
runs produce identical bytes.
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
from .selection import MeasuredPoint

REQUIRED_COLUMNS = ("energy_gev", "p_mumu", "sigma_stat")
OPTIONAL_COLUMNS = ("sigma_sys",)


def parse_dataset(path) -> list[MeasuredPoint]:
    """Read a spectrum CSV, validating the header and every cell.

    Errors carry the 1-based line number of the offending row. Returns the
    points sorted by ascending energy; duplicated energies are rejected.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc

    header: Optional[dict[str, int]] = None
    points: list[tuple[int, MeasuredPoint]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            names = [c.lower() for c in cells]
            unknown = [c for c in names if c not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
            missing = [c for c in REQUIRED_COLUMNS if c not in names]
            if unknown or missing:
                raise DataError(
                    f"line {lineno}: bad header {cells!r}; expected columns "
                    f"{', '.join(REQUIRED_COLUMNS)} and optionally sigma_sys"
                )
            if len(set(names)) != len(names):
                raise DataError(f"line {lineno}: repeated column in header {cells!r}")
            header = {name: i for i, name in enumerate(names)}
            continue
        if len(cells) != len(header):
            raise DataError(
                f"line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        values = {}
        for name, col in header.items():
            try:
                values[name] = float(cells[col])
            except ValueError:
                raise DataError(
                    f"line {lineno}: column {name!r} is not numeric: {cells[col]!r}"
                ) from None
        try:
            point = MeasuredPoint(
                energy_gev=values["energy_gev"],
                p_mumu=values["p_mumu"],
                sigma_stat=values["sigma_stat"],
                sigma_sys=values.get("sigma_sys", 0.0),
            )
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        points.append((lineno, point))

    if header is None:
        raise DataError(f"{path}: no header row found")
    if not points:
        raise DataError(f"{path}: no data rows found")

    seen: dict[float, int] = {}
    for lineno, point in points:
        if point.energy_gev in seen:
            raise DataError(
                f"line {lineno}: duplicate energy {point.energy_gev} GeV "
                f"(first on line {seen[point.energy_gev]})"
            )
        seen[point.energy_gev] = lineno
    return sorted((p for _, p in points), key=lambda p: p.energy_gev)


def write_dataset_csv(points: Sequence[MeasuredPoint], path) -> None:
    """Write a spectrum CSV that parse_dataset reproduces exactly."""
    columns = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    write_table_csv(path, columns, ([getattr(p, c) for c in columns] for p in points))


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, TupleTable):
            return NotImplemented
        return self.columns.keys() == other.columns.keys() and all(
            np.array_equal(self[name], other[name]) for name in self.columns
        )


# Rows of a TupleTable formatted and written at a time: the tuple text held
# in memory is bounded by this, not by the tuple count.
CHUNK_ROWS = 1024

# A flag's text, indexed by the flag: in JSON, and in a CSV cell.
_FLAG_TEXT = {
    False: np.array(["false", "true"], dtype=object),
    True: np.array(["0", "1"], dtype=object),
}


def _cell_text(values: np.ndarray, csv_flag: bool = False) -> list:
    """The literal of each cell of a 1-D array: its repr, or a flag's text.

    A flag maps through a two-entry lookup to true/false, or to 0/1 where
    csv_flag is set. Every other cell takes one repr of its Python value,
    with no cache, so -0.0 keeps its own text and an int its full width.
    """
    if values.dtype == bool:
        return _FLAG_TEXT[csv_flag][values.view(np.uint8)].tolist()
    return list(map(repr, values.tolist()))


def _json_row_layout(table: TupleTable) -> list:
    """A row object as json.dumps(indent=2) writes it in a top-level list.

    Pieces are literal strings and (column, part) cell keys; each row is
    led by the separator from the previous one.
    """
    pieces = [",\n    {"]
    for i, name in enumerate(sorted(table.columns)):
        pieces.append(("\n      " if i == 0 else ",\n      ") + json.dumps(name) + ": ")
        shape = table.columns[name].shape
        if len(shape) == 2:
            for j in range(shape[1]):
                pieces += ["[\n        " if j == 0 else ",\n        ", (name, j)]
            pieces.append("\n      ]")
        else:
            pieces.append((name, None))
    pieces.append("\n    }")
    return pieces


def _csv_row_layout(table: TupleTable, names: Sequence[str]) -> list:
    """A CSV line: list entries joined by ';', a flag as 0 or 1."""
    pieces = []
    for i, name in enumerate(names):
        if i:
            pieces.append(",")
        column = table.columns[name]
        if len(column.shape) == 2:
            for j in range(column.shape[1]):
                if j:
                    pieces.append(";")
                pieces.append((name, j))
        else:
            pieces.append((name, "flag" if column.dtype == bool else None))
    pieces.append("\n")
    return pieces


class _RowWriter:
    """One file of the tuple writer: a head, the rows chunk by chunk, a tail.

    lead characters are dropped from the start of the first rows written:
    the separator a row carries from the one before it.
    """

    def __init__(self, path, head: str, pieces: list, tail: str, lead: int = 0) -> None:
        self.path, self.head, self.tail, self.lead = path, head, tail, lead
        # One row's literals, with a None in each cell's slot: slots[i] is
        # where keys[i] goes.
        self.row, self.slots, self.keys, text = [], [], [], ""
        for piece in pieces:
            if isinstance(piece, str):
                text += piece
                continue
            if text:
                self.row.append(text)
            self.slots.append(len(self.row))
            self.row.append(None)
            self.keys.append(piece)
            text = ""
        if text:
            self.row.append(text)

    def write_rows(self, out, cells: dict, rows: int) -> None:
        """Write a chunk's rows, joined once from the literals and the cells."""
        flat = self.row * rows
        width = len(self.row)
        for slot, key in zip(self.slots, self.keys):
            flat[slot::width] = cells[key]
        out.write("".join(flat)[self.lead:])
        self.lead = 0


def _chunk_cells(table: TupleTable, keys: set, rows: slice, point_text: dict) -> dict:
    """The chunk's text of every cell key.

    A PointColumn gathers its points' text from point_text, an object
    array per (column, csv flag) formatted once per table; every other
    column formats its cells.
    """
    cells = {}
    for key in keys:
        name, part = key
        column = table.columns[name]
        csv_flag = part == "flag"
        if isinstance(column, PointColumn):
            index = column.index[rows]
            if isinstance(part, int):
                index = index[:, part]
            text = point_text.get((name, csv_flag))
            if text is None:
                text = point_text[name, csv_flag] = np.array(
                    _cell_text(column.values, csv_flag), dtype=object
                )
            cells[key] = text[index].tolist()
        else:
            values = column[rows]
            if isinstance(part, int):
                values = values[:, part]
            cells[key] = _cell_text(values, csv_flag)
    return cells


def _json_fallback(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} object is not JSON serializable")


# A top-level key starts a line indented by two spaces; strings cannot hold
# a raw newline, so this text marks the report's own tuples entry only.
_EMPTY_TUPLES = '\n  "tuples": []'


def emit_report(
    report: SignificanceReport | TupleTable, path=None, tables: Sequence[tuple] = ()
) -> None:
    """Write report.json and CSV tables of the report's tuples in one pass.

    report is a SignificanceReport, or a bare TupleTable when path is None
    and only tables are written. tables holds (path, column names) pairs:
    each is written as the table_csv_text of those columns, with index and
    phase lists joined by ';' and a flag as 0 or 1.

    The report's bytes are those of json.dumps(report, indent=2,
    sort_keys=True) with dataclasses entered as their fields, paths as
    strings, numpy scalars as Python numbers and a TupleTable as its list
    of row objects. Everything but the table is encoded in one json.dumps
    pass. The table is then written in chunks of CHUNK_ROWS rows. A
    PointColumn's points are formatted once per call and their text is
    gathered by index; every other cell of a chunk takes one repr, or its
    flag text, once for all files (_cell_text). Each file's rows of the
    chunk are one flat list, the row's literals repeated with the cells
    slice-assigned into it, joined once; the chunk is written to every
    file before the next one is formatted. So the text in memory does not
    grow with the tuple count. A value that cannot be
    encoded, and a non-finite cell in any float column of the table, raise
    before any file is opened.
    """
    table = report if isinstance(report, TupleTable) else report.tuples
    chunked = isinstance(table, TupleTable)
    if chunked:
        for name, column in table.columns.items():
            if column.dtype.kind != "f":
                continue
            if isinstance(column, PointColumn):
                finite = np.isfinite(column.values)[column.index]
            else:
                finite = np.isfinite(column)
            if not finite.all():
                raise DomainError(f"column {name!r} holds a non-finite value")
    writers = []
    if path is not None:
        fields = _json_fallback(report)
        if chunked:
            fields["tuples"] = []
        text = json.dumps(fields, default=_json_fallback, indent=2, sort_keys=True)
        if chunked and len(table):
            head, tail = text.split(_EMPTY_TUPLES, 1)
            writers.append(_RowWriter(
                path, f'{head}\n  "tuples": [', _json_row_layout(table),
                f"\n  ]{tail}\n", lead=1,
            ))
        else:
            writers.append(_RowWriter(path, text + "\n", [], ""))
    for csv_path, names in tables:
        writers.append(_RowWriter(
            csv_path, ",".join(names) + "\n", _csv_row_layout(table, names), ""
        ))
    keys = {key for writer in writers for key in writer.keys}
    with ExitStack() as stack:
        files = {
            writer: stack.enter_context(Path(writer.path).open("w", encoding="utf-8"))
            for writer in writers
        }
        for writer, out in files.items():
            out.write(writer.head)
        point_text = {}
        for start in range(0, len(table) if keys else 0, CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, len(table)))
            cells = _chunk_cells(table, keys, rows, point_text)
            for writer, out in files.items():
                if writer.keys:
                    writer.write_rows(out, cells, rows.stop - rows.start)
        for writer, out in files.items():
            out.write(writer.tail)


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
