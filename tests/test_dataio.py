"""CSV parsing with line-precise errors, and byte-stable artifacts."""

import dataclasses
import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nulgi import dataio
from nulgi.dataio import (
    PointColumn,
    TupleTable,
    emit_report,
    parse_dataset,
    write_dataset_csv,
    write_report,
)
from nulgi.errors import DataError, DomainError
from nulgi.floattext import float_text
from nulgi.montecarlo import BetaBinomialFit, PseudoConfig, SignificanceReport
from nulgi.oscillation import OscParams, accumulated_phase
from nulgi.pipeline import (
    K_VS_PHASE_COLUMNS,
    TRIPLES_COLUMNS,
    TUPLE_COLUMNS,
    RunConfig,
    analyze_dataset,
    tuple_table,
)
from nulgi.selection import SPECTRUM_COLUMNS, Spectrum, attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

import oracles

POINTS = Spectrum(
    energy_gev=[1.8332, 2.25, 0.7071067811865476],
    p_mumu=[0.5125, 0.631, 0.2],
    sigma_stat=[0.021, 0.02, 0.3],
    sigma_sys=[0.004, 0.0, 0.0],
)


def columns_of(spectrum):
    """A spectrum's measured columns, as lists of Python floats."""
    return {name: getattr(spectrum, name).tolist() for name in SPECTRUM_COLUMNS}


def test_write_parse_round_trip(tmp_path):
    path = tmp_path / "spectrum.csv"
    write_dataset_csv(POINTS, path)
    # Every cell is written as a plain number, in ascending energy.
    assert path.read_text() == (
        "energy_gev,p_mumu,sigma_stat,sigma_sys\n"
        "0.7071067811865476,0.2,0.3,0.0\n"
        "1.8332,0.5125,0.021,0.004\n"
        "2.25,0.631,0.02,0.0\n"
    )
    parsed = parse_dataset(path)
    assert columns_of(parsed) == columns_of(POINTS)
    assert parsed.psi is None and parsed.sigma.tolist() == POINTS.sigma.tolist()


def test_header_order_is_free_and_sigma_sys_optional(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "p_mumu, sigma_stat, energy_gev\n"
        "0.62, 0.02, 2.5\n"
        "0.55, 0.03, 1.5\n"
    )
    assert columns_of(parse_dataset(path)) == {
        "energy_gev": [1.5, 2.5], "p_mumu": [0.55, 0.62], "sigma_stat": [0.03, 0.02],
        "sigma_sys": [0.0, 0.0],
    }


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "# spectrum export\n"
        "\n"
        "energy_gev,p_mumu,sigma_stat\n"
        "# beam-on subset\n"
        "2.5,0.62,0.02\n"
        "\n"
    )
    assert len(parse_dataset(path)) == 1


def write_and_expect(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataError, match=match):
        parse_dataset(path)


def test_out_of_range_probability_cites_its_line(tmp_path):
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat\n2.5,0.62,0.02\n1.5,1.2,0.02\n",
        r"line 3",
    )


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", ["energy_gev", "p_mumu", "sigma_stat", "sigma_sys"])
def test_non_finite_cell_cites_its_line_and_column(tmp_path, column, cell):
    row = {"energy_gev": "2.5", "p_mumu": "0.62", "sigma_stat": "0.02", "sigma_sys": "0.01"}
    row[column] = cell
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat,sigma_sys\n1.5,0.5,0.1,0.0\n" + ",".join(row.values()),
        rf"^line 3: {column} must be finite, got {float(cell)}$",
    )


def test_non_numeric_cell_names_the_column(tmp_path):
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat\n2.5,n/a,0.02\n",
        r"line 2: column 'p_mumu' is not numeric: 'n/a'",
    )


def test_missing_column_is_a_header_error(tmp_path):
    write_and_expect(tmp_path, "energy_gev,p_mumu\n2.5,0.62\n", r"line 1: bad header")


def test_unknown_column_is_a_header_error(tmp_path):
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat,flux\n2.5,0.62,0.02,9\n",
        r"line 1: bad header",
    )


def test_repeated_column_is_rejected(tmp_path):
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat,p_mumu\n2.5,0.62,0.02,0.62\n",
        r"line 1: repeated column",
    )


def test_wrong_cell_count_cites_its_line(tmp_path):
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat\n2.5,0.62\n",
        r"line 2: expected 3 cells, got 2",
    )


def test_duplicate_energy_cites_both_lines(tmp_path):
    write_and_expect(
        tmp_path,
        "energy_gev,p_mumu,sigma_stat\n2.5,0.62,0.02\n1.5,0.5,0.1\n2.5,0.60,0.02\n",
        r"line 4: duplicate energy 2.5 GeV \(first on line 2\)",
    )


# A value fault in one cell, and the message Spectrum and parse_dataset give.
VALUE_FAULTS = [
    *((column, value, f"{column} must be finite, got {value}")
      for column in SPECTRUM_COLUMNS for value in (math.nan, math.inf, -math.inf)),
    ("energy_gev", 0.0, "energy must be positive, got 0.0"),
    ("energy_gev", -2.5, "energy must be positive, got -2.5"),
    ("p_mumu", -0.25, "p_mumu must lie in [0, 1], got -0.25"),
    ("p_mumu", 1.25, "p_mumu must lie in [0, 1], got 1.25"),
    ("sigma_stat", -0.01, "uncertainties must be non-negative"),
    ("sigma_sys", -0.01, "uncertainties must be non-negative"),
]


def spectrum_rows(faults=()):
    """Four good rows, out of energy order, with (row, column, value) cells replaced."""
    rows = [
        {"energy_gev": e, "p_mumu": 0.5, "sigma_stat": 0.1, "sigma_sys": 0.01}
        for e in (3.0, 1.5, 2.0, 4.0)
    ]
    for row, column, value in faults:
        rows[row][column] = value
    return rows


def refusals(tmp_path, rows):
    """The messages of Spectrum built from the rows and of parse_dataset on them as a CSV.

    The CSV has a comment line, so data row i is on line i + 3.
    """
    with pytest.raises(DataError) as built:
        Spectrum(**{name: [row[name] for row in rows] for name in SPECTRUM_COLUMNS})
    path = tmp_path / "bad.csv"
    path.write_text(
        "# a spectrum\nenergy_gev,p_mumu,sigma_stat,sigma_sys\n"
        + "".join(",".join(map(repr, row.values())) + "\n" for row in rows)
    )
    with pytest.raises(DataError) as parsed:
        parse_dataset(path)
    return str(built.value), str(parsed.value)


@pytest.mark.parametrize("column, value, message", VALUE_FAULTS)
def test_a_spectrum_and_a_csv_refuse_a_value_with_one_message(tmp_path, column, value, message):
    assert refusals(tmp_path, spectrum_rows([(2, column, value)])) == (
        message, f"line 5: {message}"
    )


def test_the_first_faulty_row_and_its_first_check_are_reported(tmp_path):
    # Row 1 breaks two checks: the finite check comes first. Row 2 has a
    # fault too, and row 3 a repeated energy, checked only after the values.
    rows = spectrum_rows([
        (1, "p_mumu", 1.5), (1, "sigma_sys", math.nan), (2, "energy_gev", -1.0),
        (3, "energy_gev", 3.0),
    ])
    message = "sigma_sys must be finite, got nan"
    assert refusals(tmp_path, rows) == (message, f"line 4: {message}")


def test_a_spectrum_and_a_csv_refuse_a_repeated_energy(tmp_path):
    rows = spectrum_rows([(2, "energy_gev", 1.5)]) + spectrum_rows()[:1]
    assert refusals(tmp_path, rows) == (
        "duplicate energy value 1.5 GeV", "line 5: duplicate energy 1.5 GeV (first on line 4)"
    )


def test_empty_file_reports_missing_header(tmp_path):
    write_and_expect(tmp_path, "# nothing here\n\n", r"no header row")


def test_header_only_reports_missing_data(tmp_path):
    write_and_expect(tmp_path, "energy_gev,p_mumu,sigma_stat\n", r"no data rows")


def test_unreadable_path_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        parse_dataset(tmp_path / "absent.csv")


def sample_report():
    fit = BetaBinomialFit(
        alpha=1.5, beta=12.0, trials_n=82, mean_violations=9.1,
        sd_violations=4.2, kind="beta-binomial", n_samples=1000,
    )
    return SignificanceReport(
        n_tuples=82, n_violations_observed=64, null_fit=fit, z_score=6.2,
        chi2_quantum=104.8, dof=81, status="ok",
        config={"order": 3, "tolerance": 0.005}, data_sha256="0" * 64,
        warnings=["example"], notes=[],
    )


def test_report_json_is_byte_stable_and_complete(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(sample_report(), a)
    write_report(sample_report(), b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema_version"] == 2
    assert payload["null_fit"]["kind"] == "beta-binomial"
    assert payload["z_score"] == 6.2
    assert payload["data_sha256"] == "0" * 64
    assert "tuples" not in payload
    # sorted keys stay sorted at every level
    assert list(payload) == sorted(payload)
    assert list(payload["null_fit"]) == sorted(payload["null_fit"])


def test_degenerate_fit_is_visible_in_json(tmp_path):
    report = sample_report()
    report.null_fit = BetaBinomialFit(
        alpha=None, beta=None, trials_n=82, mean_violations=0.0,
        sd_violations=0.0, kind="degenerate", n_samples=1000,
    )
    path = tmp_path / "r.json"
    write_report(report, path)
    payload = json.loads(path.read_text())
    assert payload["null_fit"]["kind"] == "degenerate"
    assert payload["null_fit"]["alpha"] is None


def test_numpy_scalars_paths_and_nested_dataclasses_serialize_as_plain_values(
    tmp_path,
):
    pseudo = PseudoConfig(replicas=2000, seed=3)
    numpy_report = sample_report()
    numpy_report.config = {
        "order": np.int64(3), "tolerance": np.float64(0.005), "fit_curve": np.bool_(True),
        "data": Path("runs") / "spectrum.csv", "pseudo": pseudo,
    }
    plain_report = sample_report()
    plain_report.config = {
        "order": 3, "tolerance": 0.005, "fit_curve": True,
        "data": str(Path("runs") / "spectrum.csv"),
        "pseudo": dataclasses.asdict(pseudo),
    }
    a, b = tmp_path / "numpy.json", tmp_path / "plain.json"
    write_report(numpy_report, a)
    write_report(plain_report, b)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["config"]["fit_curve"] is True


def test_unserializable_report_raises_and_writes_nothing(tmp_path):
    report = sample_report()
    report.config = {"order": 3, "bins": {1, 2}}
    path = tmp_path / "r.json"
    with pytest.raises(TypeError, match="set"):
        write_report(report, path)
    assert not path.exists()


def test_table_csv_keeps_float_precision(tmp_path):
    path = tmp_path / "t.csv"
    # A float64 cell's repr is np.float64(...): it must still be written as
    # a plain number, at full precision.
    table = TupleTable({"x": np.array([0.1 + 0.2, 1.0 / 3.0]), "n": np.array([3, 4])})
    emit_report(table, ((path, ("x", "n")),))
    text = path.read_text()
    assert text == "x,n\n0.30000000000000004,3\n0.3333333333333333,4\n"
    assert "np." not in text


PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)


def analyzed(phases=None, bins=30, **kw):
    if phases is None:
        points = generate_synthetic(PARAMS, "quantum", bins, 0.5, 50.0, 0.05, seed=0)
    else:
        scale = accumulated_phase(PARAMS, 1.0)
        points = Spectrum(scale / np.asarray(phases), 0.5, 0.05)
    config = RunConfig(
        params=PARAMS, pseudo=PseudoConfig(replicas=1000, seed=1), **kw
    )
    return analyze_dataset(points, config)[1]


def with_columns(table, **columns):
    return TupleTable({**table.columns, **columns})


def head(table, rows):
    """The table's first rows, its point columns kept as gathers."""
    return TupleTable({
        name: PointColumn(column.values, column.index[:rows])
        if isinstance(column, PointColumn) else column[:rows]
        for name, column in table.columns.items()
    })


@functools.lru_cache(maxsize=None)
def fine_table():
    """The 29 560 order-4 tuples of a 100-bin spectrum."""
    points = attach_phases(
        generate_synthetic(PARAMS, "quantum", 100, 0.5, 50.0, 0.05, seed=0), PARAMS
    )
    return tuple_table(select_ntuples(points, 4, 0.005), points, PARAMS)


# Corners of the tuple writer, each a table that holds one.
WRITER_CASES = [
    "signed_zero_points", "ints_outside_points", "not_a_gather",
    "rows_1", "rows_chunk_minus_1", "rows_chunk_plus_1",
]


def writer_case_table(case):
    table = analyzed()
    phases, target = table.columns["component_phases"], table.columns["target_index"]
    if case == "signed_zero_points":
        # Two points the tuples read get 0.0 and -0.0: equal values, each
        # with its own text.
        psi = phases.values.copy()
        zero, negative_zero = np.unique(phases.index)[:2]
        psi[zero], psi[negative_zero] = 0.0, -0.0
        target_psi = table.columns["target_psi"]
        return with_columns(
            table, component_phases=PointColumn(psi, phases.index),
            target_psi=PointColumn(psi, target_psi.index),
        )
    if case == "ints_outside_points":
        # Cells no point index reaches, plain and point-valued.
        components = table["component_indices"].copy()
        components[:2] = [[-1, 2**31], [2**40, -(2**31) - 1]]
        ids = target.values.copy()
        ids[target.index[:2]] = [-5, 2**33]
        return with_columns(
            table, component_indices=components, target_index=PointColumn(ids, target.index),
        )
    if case == "not_a_gather":
        # Point columns replaced by values no point holds.
        return with_columns(
            table, target_psi=table["target_psi"] + 0.5,
            component_indices=table["component_indices"][:, ::-1] * 3 + 1,
        )
    rows = {"rows_1": 1, "rows_chunk_minus_1": dataio.CHUNK_ROWS - 1,
            "rows_chunk_plus_1": dataio.CHUNK_ROWS + 1}[case]
    table = head(fine_table(), rows)
    assert len(table) == rows
    # The float cells of a chunk are formatted together across columns: put
    # signed zeros and exponent-form values in every float column, the 1-D
    # ones, a 2-D list column and a point-valued one.
    target_psi = table.columns["target_psi"]
    columns = {
        name: with_edges(table[name], shift)
        for shift, name in enumerate(("mismatch", "phase_sum", "k_value", "k_sigma",
                                      "k_classical_data", "k_quantum_model"))
    }
    return with_columns(
        table, **columns, component_phases=with_edges(table["component_phases"], 6),
        target_psi=PointColumn(with_edges(target_psi.values, 3), target_psi.index),
    )


EDGE_FLOATS = np.array([
    0.0, -0.0, 1e-05, -2.5e-07, 9.999999999999999e-05, 1e-04, 1e16, -9999999999999998.0,
    1.2345678901234567e300, -5e-324, 123456789012345.67,
])


def with_edges(values, shift):
    """A copy of values with EDGE_FLOATS, from number shift on, over its first cells."""
    values = np.array(values, dtype=np.float64)
    count = min(values.size, len(EDGE_FLOATS))
    values.flat[:count] = np.roll(EDGE_FLOATS, -shift)[:count]
    return values


def csv_oracle(table, columns) -> bytes:
    """The bytes of the columns as the reference writer of tests/oracles.py
    writes them, cell by cell."""
    rows = zip(*(table[name].tolist() for name in columns))
    return oracles.csv_text(columns, rows).encode("utf-8")


TABLES = {
    "tuples.csv": TUPLE_COLUMNS, "k_vs_phase.csv": K_VS_PHASE_COLUMNS,
    "triples.csv": TRIPLES_COLUMNS,
}


def emit_tables(table, out) -> None:
    """Write analyze's two tuple tables in one call and triples' in another."""
    emit_report(table, [(out / n, TABLES[n]) for n in ("tuples.csv", "k_vs_phase.csv")])
    emit_report(table, [(out / "triples.csv", TRIPLES_COLUMNS)])


def write_tables(table, out) -> dict:
    """The bytes of emit_tables's files in a new directory out, by name."""
    out.mkdir()
    emit_tables(table, out)
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("case", ["order_4", "edge_floats", "no_tuples", *WRITER_CASES])
def test_tuple_artifacts_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch, case):
    if case in WRITER_CASES:
        table = writer_case_table(case)
    elif case == "no_tuples":
        table = analyzed(phases=(0.5, 0.6, 0.8))
        assert len(table) == 0
    elif case == "order_4":
        table = analyzed(order=4)
        assert len(table) > 200
    else:
        # 0.0 and -0.0 compare equal but print differently: a text cache
        # keyed by value would merge them.
        table = analyzed()
        edges = np.array([-0.0, 0.0, 1e-05, -0.0, 1e16, 5e-324, 0.0, 1e-05])
        mismatch = table["mismatch"].copy()
        mismatch[:8] = edges
        phases = table["component_phases"].copy()
        phases[:8, 1] = edges[::-1]
        table = with_columns(table, mismatch=mismatch, component_phases=phases)
    written = write_tables(table, tmp_path / "default")
    for i, rows in enumerate((1, 7, len(table) + 1)):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", rows)
        assert write_tables(table, tmp_path / f"chunk_{i}") == written, rows

    assert sorted(written) == sorted(TABLES)
    for name, columns in TABLES.items():
        assert written[name] == csv_oracle(table, columns), name
        assert written[name].count(b"\n") == len(table) + 1
    if case == "no_tuples":
        return
    # Cells are their repr, and a flag is 0 or 1.
    lines = [line.split(",") for line in written["tuples.csv"].decode().splitlines()[1:]]
    assert [line[7] for line in lines] == list(map(repr, table["k_value"].tolist()))
    assert {line[9] for line in lines} <= {"0", "1"}
    assert [line[9] == "1" for line in lines] == table["violation"].tolist()
    if case == "edge_floats":
        assert [line[3] for line in lines[:8]] == list(map(repr, edges.tolist()))
        assert [line[4].split(";")[1] for line in lines[:8]] == list(
            map(repr, edges[::-1].tolist())
        )


def test_writing_a_large_table_holds_a_bounded_text(tmp_path):
    # The 29 560 order-4 tuples of a 100-bin spectrum: every cell's text at
    # once would take about 15 MiB.
    table = fine_table()
    assert len(table) >= 29_000
    tracemalloc.start()
    try:
        emit_tables(table, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_float_text_of_a_chunk_holds_little_beside_its_result():
    # 6244 values, as many as a chunk of the 100-bin order-4 table holds:
    # repr's list of str is about 0.47 MB, and repr peaks at about 0.68 MB.
    # The array passes work in place; with a new array for every step
    # they peaked at 1.26 MB.
    rng = np.random.default_rng(0)
    values = rng.standard_normal(6244) * 10.0 ** rng.integers(-3, 3, 6244)
    float_text(values[:2])  # the tables are built on first use
    tracemalloc.start()
    try:
        cells = float_text(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells == list(map(repr, values.tolist()))
    assert peak < 900_000, peak


@pytest.mark.parametrize("column", ["k_value", "component_phases"])
def test_non_finite_table_cells_raise(tmp_path, column):
    table = analyzed()
    values = table[column].copy()
    values.flat[-1] = np.nan
    with pytest.raises(DomainError, match=column):
        write_tables(with_columns(table, **{column: values}), tmp_path / "out")
    # The cells are checked before any file is opened.
    assert list((tmp_path / "out").iterdir()) == []


def test_a_non_finite_computed_cell_raises_before_any_file_is_opened(tmp_path, monkeypatch):
    # A valid spectrum whose first point's sd, 1e200, squares past the
    # largest double: the k_sigma of the tuples that read it is inf. The
    # computed column is checked chunk by chunk before any file is opened.
    points = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    sigma = points.sigma_stat.copy()
    sigma[0] = 1e200
    points = attach_phases(dataclasses.replace(points, sigma_stat=sigma), PARAMS)
    tuples = select_ntuples(points, 3, 0.005)
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 1)
    with np.errstate(over="ignore"):
        table = tuple_table(tuples, points, PARAMS)
        inf_rows = np.flatnonzero(np.isinf(table["k_sigma"]))
        assert 0 < len(inf_rows) and inf_rows[0] > 0
        with pytest.raises(DomainError, match="'k_sigma'"):
            write_tables(table, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []
