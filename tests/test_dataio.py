"""CSV parsing with line-precise errors, and byte-stable artifacts."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nulgi import dataio
from nulgi.dataio import (
    TupleTable,
    emit_report,
    parse_dataset,
    table_csv_text,
    write_dataset_csv,
    write_table_csv,
)
from nulgi.errors import DataError, DomainError
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
from nulgi.selection import MeasuredPoint, attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

POINTS = [
    MeasuredPoint(1.8332, 0.5125, 0.021, 0.004),
    MeasuredPoint(2.25, 0.631, 0.02),
    MeasuredPoint(0.7071067811865476, 0.2, 0.3),
]


def test_write_parse_round_trip(tmp_path):
    path = tmp_path / "spectrum.csv"
    write_dataset_csv(POINTS, path)
    parsed = parse_dataset(path)
    assert parsed == sorted(POINTS, key=lambda p: p.energy_gev)


def test_write_parse_round_trip_of_numpy_scalars(tmp_path):
    # np.float64 is a float whose repr is np.float64(...): each cell must
    # still be written as a plain number.
    points = [
        MeasuredPoint(*map(np.float64, (p.energy_gev, p.p_mumu, p.sigma_stat, p.sigma_sys)))
        for p in POINTS
    ]
    path = tmp_path / "spectrum.csv"
    write_dataset_csv(points, path)
    assert "np." not in path.read_text()
    assert parse_dataset(path) == sorted(POINTS, key=lambda p: p.energy_gev)


def test_header_order_is_free_and_sigma_sys_optional(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "p_mumu, sigma_stat, energy_gev\n"
        "0.62, 0.02, 2.5\n"
        "0.55, 0.03, 1.5\n"
    )
    lo, hi = parse_dataset(path)
    assert (lo.energy_gev, lo.p_mumu, lo.sigma_stat, lo.sigma_sys) == (1.5, 0.55, 0.03, 0.0)
    assert hi.energy_gev == 2.5


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
        config={"order": 3, "tolerance": 0.005},
        tuples=[{"target_index": 4, "k_value": 1.31}],
        warnings=["example"], notes=[],
    )


def test_report_json_is_byte_stable_and_complete(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(sample_report(), a)
    emit_report(sample_report(), b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema_version"] == 1
    assert payload["null_fit"]["kind"] == "beta-binomial"
    assert payload["z_score"] == 6.2
    assert payload["tuples"][0]["k_value"] == 1.31
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
    emit_report(report, path)
    payload = json.loads(path.read_text())
    assert payload["null_fit"]["kind"] == "degenerate"
    assert payload["null_fit"]["alpha"] is None


def test_numpy_scalars_paths_and_nested_dataclasses_serialize_as_plain_values(
    tmp_path,
):
    pseudo = PseudoConfig(replicas=2000, seed=3)
    numpy_report = sample_report()
    numpy_report.tuples = [{
        "target_index": np.int64(4), "violation": np.bool_(True),
        "k_value": np.float64(1.31), "component_indices": [np.int64(2), np.int64(7)],
    }]
    numpy_report.config = {
        "order": np.int64(3), "tolerance": np.float64(0.005),
        "data": Path("runs") / "spectrum.csv", "pseudo": pseudo,
    }
    plain_report = sample_report()
    plain_report.tuples = [{
        "target_index": 4, "violation": True, "k_value": 1.31,
        "component_indices": [2, 7],
    }]
    plain_report.config = {
        "order": 3, "tolerance": 0.005,
        "data": str(Path("runs") / "spectrum.csv"),
        "pseudo": dataclasses.asdict(pseudo),
    }
    a, b = tmp_path / "numpy.json", tmp_path / "plain.json"
    emit_report(numpy_report, a)
    emit_report(plain_report, b)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["tuples"][0]["violation"] is True


def test_unserializable_report_raises_and_writes_nothing(tmp_path):
    report = sample_report()
    report.config = {"order": 3, "bins": {1, 2}}
    path = tmp_path / "r.json"
    with pytest.raises(TypeError, match="set"):
        emit_report(report, path)
    assert not path.exists()


def test_table_csv_keeps_float_precision(tmp_path):
    path = tmp_path / "t.csv"
    write_table_csv(path, ["x", "n"], [[0.1 + 0.2, 3], [1.0 / 3.0, 4]])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,n"
    x0 = float(lines[1].split(",")[0])
    assert x0 == 0.1 + 0.2
    assert lines[1].split(",")[1] == "3"


PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)


def json_oracle(report) -> bytes:
    """The bytes json.dumps gives for the report, its table as row dicts."""
    table = report.tuples
    rows = [
        {name: values[i].tolist() for name, values in table.columns.items()}
        for i in range(len(table))
    ]
    plain = dataclasses.replace(report, tuples=rows)
    text = json.dumps(plain, default=dataio._json_fallback, indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


def analyzed(phases=None, bins=30, **kw):
    if phases is None:
        points = generate_synthetic(PARAMS, "quantum", bins, 0.5, 50.0, 0.05, seed=0)
    else:
        scale = accumulated_phase(PARAMS, 1.0)
        points = [MeasuredPoint(scale / psi, 0.5, 0.05) for psi in phases]
    config = RunConfig(
        params=PARAMS, pseudo=PseudoConfig(replicas=1000, seed=1), **kw
    )
    return analyze_dataset(points, config)


def with_columns(table, **columns):
    return TupleTable({**table.columns, **columns})


@pytest.mark.parametrize("case", [
    "no_tuples", "one_tuple", "fit_curve", "edge_floats", "quotes_and_unicode",
])
def test_column_built_report_equals_json_dumps(tmp_path, case):
    if case == "no_tuples":
        report = analyzed(phases=(0.5, 0.6, 0.8))
        assert report.status == "no_tuples" and len(report.tuples) == 0
    elif case == "one_tuple":
        report = analyzed(phases=(0.5, 0.7, 1.2))
        assert len(report.tuples) == 1
    elif case == "fit_curve":
        report = analyzed(order=4, fit_curve=True)
        assert len(report.tuples) > 100 and "fitted_params" in report.config
    else:
        report = analyzed()
    if case == "edge_floats":
        edges = np.array([-0.0, 1e-05, 1e16, 5e-324])
        table = report.tuples
        mismatch = table["mismatch"].copy()
        mismatch[:4] = edges
        phases = table["component_phases"].copy()
        phases[:4, 1] = edges
        report.tuples = with_columns(table, mismatch=mismatch, component_phases=phases)
        report.chi2_quantum = 5e-324
        report.config = {**report.config, "tolerance": -0.0, "e_max_gev": 1e16}
    if case == "quotes_and_unicode":
        report.warnings = ['a "quoted" \\ path', "Δm² ≥ 0 — naïve ünïcode", "tab\tend"]
        report.notes = ["\u2028 line separator and \x00 nul"]
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert path.read_bytes() == json_oracle(report)


def csv_oracle(table, columns) -> bytes:
    """The bytes table_csv_text gives for the columns, row by row.

    A list cell is its entries' reprs joined by ';' and a flag is 0 or 1.
    """
    rows = [
        [
            ";".join(map(repr, values[i].tolist())) if values.ndim == 2
            else int(values[i]) if values.dtype == bool
            else values[i].tolist()
            for values in (table[name] for name in columns)
        ]
        for i in range(len(table))
    ]
    return table_csv_text(columns, rows).encode("utf-8")


def write_artifacts(report, out) -> dict:
    """analyze's report and tuple tables and the tuples.csv of triples, by name."""
    out.mkdir()
    tables = {"tuples.csv": TUPLE_COLUMNS, "k_vs_phase.csv": K_VS_PHASE_COLUMNS}
    emit_report(report, out / "report.json", [(out / n, c) for n, c in tables.items()])
    emit_report(report.tuples, tables=[(out / "triples.csv", TRIPLES_COLUMNS)])
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("case", ["order_4", "edge_floats", "no_tuples"])
def test_tuple_artifacts_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch, case):
    if case == "no_tuples":
        report = analyzed(phases=(0.5, 0.6, 0.8))
        assert len(report.tuples) == 0
    elif case == "order_4":
        report = analyzed(order=4)
        assert len(report.tuples) > 200
    else:
        # Each distinct value is formatted once per chunk; 0.0 and -0.0
        # compare equal but print differently, so they must stay apart.
        report = analyzed()
        edges = np.array([-0.0, 0.0, 1e-05, -0.0, 1e16, 5e-324, 0.0, 1e-05])
        table = report.tuples
        mismatch = table["mismatch"].copy()
        mismatch[:8] = edges
        phases = table["component_phases"].copy()
        phases[:8, 1] = edges[::-1]
        report.tuples = with_columns(table, mismatch=mismatch, component_phases=phases)
    table = report.tuples
    written = write_artifacts(report, tmp_path / "default")
    for i, rows in enumerate((1, 7, len(table) + 1)):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", rows)
        assert write_artifacts(report, tmp_path / f"chunk_{i}") == written, rows

    assert written["report.json"] == json_oracle(report)
    for name, columns in (
        ("tuples.csv", TUPLE_COLUMNS), ("k_vs_phase.csv", K_VS_PHASE_COLUMNS),
        ("triples.csv", TRIPLES_COLUMNS),
    ):
        assert written[name] == csv_oracle(table, columns), name
        assert written[name].count(b"\n") == len(table) + 1
    if case == "no_tuples":
        return
    # Cells are their repr, and a flag is true/false in JSON and 0/1 in CSV.
    rows = json.loads(written["report.json"])["tuples"]
    assert [row["k_value"] for row in rows] == table["k_value"].tolist()
    assert {row["violation"] for row in rows} <= {True, False}
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
    points = attach_phases(
        generate_synthetic(PARAMS, "quantum", 100, 0.5, 50.0, 0.05, seed=0), PARAMS
    )
    table = tuple_table(select_ntuples(points, 4, 0.005), points, PARAMS)
    assert len(table) >= 29_000
    report = SignificanceReport(
        n_tuples=len(table), n_violations_observed=0, null_fit=None, z_score=None,
        chi2_quantum=None, dof=None, status="ok", config={}, tuples=table,
    )
    out = tmp_path
    tracemalloc.start()
    try:
        emit_report(report, out / "report.json", [
            (out / "tuples.csv", TUPLE_COLUMNS), (out / "k_vs_phase.csv", K_VS_PHASE_COLUMNS)
        ])
        emit_report(table, tables=[(out / "triples.csv", TRIPLES_COLUMNS)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("column", ["k_value", "component_phases"])
def test_non_finite_table_cells_raise(tmp_path, column):
    report = analyzed()
    values = report.tuples[column].copy()
    values.flat[-1] = np.nan
    report.tuples = with_columns(report.tuples, **{column: values})
    with pytest.raises(DomainError, match=column):
        write_artifacts(report, tmp_path / "out")
    # The cells are checked before any file is opened.
    assert list((tmp_path / "out").iterdir()) == []
