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
from itertools import chain, repeat
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


class TupleTable:
    """An analysis's per-tuple columns by name; 2-D where a tuple holds a list."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TupleTable):
            return NotImplemented
        return self.columns.keys() == other.columns.keys() and all(
            np.array_equal(v, other.columns[k]) for k, v in self.columns.items()
        )


# Rows of a TupleTable formatted and written at a time: the tuple text held
# in memory is bounded by this, not by the tuple count.
CHUNK_ROWS = 1024

_CSV_FLAGS = {"true": "1", "false": "0"}


def _cell_text(values: np.ndarray) -> list:
    """The JSON literal of each cell: repr, or true/false for a flag.

    A 2-D column gives one list per component.
    """
    if values.ndim == 2:
        return [_cell_text(column) for column in values.T]
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    # Indices, phases and target psi repeat per-point values: format each
    # distinct value once. Floats are told apart by their bits, so -0.0
    # keeps its own repr.
    bits = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return text[inverse].tolist()


def _json_row_layout(table: TupleTable) -> list:
    """A row object as json.dumps(indent=2) writes it in a top-level list.

    Pieces are literal strings and (column, part) cell keys; each row is
    led by the separator from the previous one.
    """
    pieces = [",\n    {"]
    for i, name in enumerate(sorted(table.columns)):
        pieces.append(("\n      " if i == 0 else ",\n      ") + json.dumps(name) + ": ")
        if table[name].ndim == 2:
            for j in range(table[name].shape[1]):
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
        if table[name].ndim == 2:
            for j in range(table[name].shape[1]):
                if j:
                    pieces.append(";")
                pieces.append((name, j))
        else:
            pieces.append((name, "flag" if table[name].dtype == bool else None))
    pieces.append("\n")
    return pieces


class _RowWriter:
    """One file of the tuple writer: a head, the rows chunk by chunk, a tail.

    lead characters are dropped from the start of the first rows written:
    the separator a row carries from the one before it.
    """

    def __init__(self, path, head: str, pieces: list, tail: str, lead: int = 0) -> None:
        self.path, self.head, self.tail, self.lead = path, head, tail, lead
        # Literals alternate with cell keys: literals[i] precedes keys[i].
        self.literals, self.keys, text = [], [], ""
        for piece in pieces:
            if isinstance(piece, str):
                text += piece
            else:
                self.literals.append(text)
                self.keys.append(piece)
                text = ""
        self.end = text

    def write_rows(self, out, cells: dict) -> None:
        """Write a chunk's rows, joined once from its column-wise cell strings."""
        slots = []
        for literal, key in zip(self.literals, self.keys):
            slots += (repeat(literal), cells[key])
        slots.append(repeat(self.end))
        out.write("".join(chain.from_iterable(zip(*slots)))[self.lead:])
        self.lead = 0


def _chunk_cells(table: TupleTable, keys: set, rows: slice) -> dict:
    """Each needed column of the chunk formatted once, by cell key."""
    text = {name: _cell_text(table[name][rows]) for name in {name for name, _ in keys}}
    cells = {}
    for name, part in keys:
        if part is None:
            cells[name, part] = text[name]
        elif part == "flag":
            cells[name, part] = [_CSV_FLAGS[c] for c in text[name]]
        else:
            cells[name, part] = text[name][part]
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
    pass. The table is then written in chunks of CHUNK_ROWS rows: each
    column of a chunk is formatted once (repr, or true/false for a flag),
    every file's rows are joined from those strings, and the chunk is
    written to every file before the next one is formatted. So the text in
    memory does not grow with the tuple count. A value that cannot be
    encoded, and a non-finite cell in any float column of the table, raise
    before any file is opened.
    """
    table = report if isinstance(report, TupleTable) else report.tuples
    chunked = isinstance(table, TupleTable)
    if chunked:
        for name, values in table.columns.items():
            if values.dtype.kind == "f" and not np.isfinite(values).all():
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
        for start in range(0, len(table) if keys else 0, CHUNK_ROWS):
            cells = _chunk_cells(table, keys, slice(start, start + CHUNK_ROWS))
            for writer, out in files.items():
                if writer.keys:
                    writer.write_rows(out, cells)
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
