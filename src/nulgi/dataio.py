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
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError
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
    lines = ["energy_gev,p_mumu,sigma_stat,sigma_sys"]
    for p in points:
        lines.append(f"{p.energy_gev!r},{p.p_mumu!r},{p.sigma_stat!r},{p.sigma_sys!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_fallback(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} object is not JSON serializable")


def emit_report(report: SignificanceReport, path) -> None:
    """Serialize a report to JSON with sorted keys and full float precision.

    One encoding pass: dataclasses enter as their fields, paths as strings
    and numpy scalars as Python numbers. Anything else the encoder cannot
    take raises TypeError before the file is opened.
    """
    text = json.dumps(report, default=_json_fallback, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_table_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a simple numeric table with repr-precision floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
