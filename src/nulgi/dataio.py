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
from functools import cached_property
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
    """An analysis's per-tuple columns by name; 2-D where a tuple holds a list.

    text holds each cell once as its JSON literal (repr, or true/false for
    a flag); report.json and the CSV tables are joined from those strings.
    """

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

    @cached_property
    def text(self) -> dict[str, list]:
        """Per column its cell strings; a 2-D column gives a list per entry."""
        return {name: _cell_text(name, values) for name, values in self.columns.items()}

    def csv_rows(self, names: Sequence[str]):
        """Rows of CSV cells: list entries joined by ';', a flag as 0 or 1."""
        return zip(*(
            list(map(";".join, zip(*self.text[name]))) if self.columns[name].ndim == 2
            else [_CSV_FLAGS[c] for c in self.text[name]] if self.columns[name].dtype == bool
            else self.text[name]
            for name in names
        ))

    def csv_text(self, names: Sequence[str]) -> str:
        """The table_csv_text of the named columns, joined from their cell strings.

        Every cell is a string already, so the rows are joined as they are,
        with no per-cell type test.
        """
        return "\n".join([",".join(names), *map(",".join, self.csv_rows(names))]) + "\n"

    def json_rows(self):
        """The rows as json.dumps(indent=2) writes row dicts in a top-level list."""
        fields, slots = [], []
        for name in sorted(self.columns):
            text = self.text[name]
            if self.columns[name].ndim == 2:
                entries = ",\n        ".join(["%s"] * len(text))
                fields.append(f"{json.dumps(name)}: [\n        {entries}\n      ]")
                slots.extend(text)
            else:
                fields.append(f"{json.dumps(name)}: %s")
                slots.append(text)
        template = "{\n      " + ",\n      ".join(fields) + "\n    }"
        return map(template.__mod__, zip(*slots))


_CSV_FLAGS = {"true": "1", "false": "0"}


def _cell_text(name: str, values: np.ndarray) -> list:
    if values.ndim == 2:
        return [_cell_text(name, column) for column in values.T]
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise DomainError(f"column {name!r} holds a non-finite value")
    # Indices, phases and target psi repeat per-point values: format each
    # distinct value once. Floats are told apart by their bits, so -0.0
    # keeps its own repr.
    bits = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return text[inverse].tolist()


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


def emit_report(report: SignificanceReport, path) -> None:
    """Serialize a report to JSON with sorted keys and full float precision.

    The bytes are those of json.dumps(report, indent=2, sort_keys=True) with
    dataclasses entered as their fields, paths as strings, numpy scalars as
    Python numbers and a TupleTable as its list of row objects. Everything
    but the table is encoded in one json.dumps pass; the table's rows are
    joined from its cell strings and written one by one, so the text is
    never held whole. A value that cannot be encoded raises before the file
    is opened.
    """
    fields = _json_fallback(report)
    rows = iter(())
    if isinstance(fields["tuples"], TupleTable):
        rows = fields["tuples"].json_rows()
        fields["tuples"] = []
    text = json.dumps(fields, default=_json_fallback, indent=2, sort_keys=True)
    first = next(rows, None)
    with Path(path).open("w", encoding="utf-8") as out:
        if first is None:
            out.write(text + "\n")
            return
        head, tail = text.split(_EMPTY_TUPLES, 1)
        out.write(f'{head}\n  "tuples": [\n    {first}')
        out.writelines(map(",\n    ".__add__, rows))
        out.write(f"\n  ]{tail}\n")


def table_csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A simple table as CSV text: a string cell as it is, a float at repr precision.

    A np.float64 is a float whose own repr is np.float64(...), so floats are
    written as the repr of their Python float.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if type(v) is str else repr(float(v)) if isinstance(v, float) else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


def write_table_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the table_csv_text of a table to path."""
    Path(path).write_text(table_csv_text(header, rows), encoding="utf-8")
