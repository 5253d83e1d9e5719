"""End-to-end runs, artifact layout, CLI exit codes and config precedence."""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nulgi import cli, errors, montecarlo, pipeline, selection, synthetic
from nulgi.cli import (
    EXIT_DATA,
    EXIT_DOMAIN,
    EXIT_NO_TUPLES,
    EXIT_OK,
    _build_config,
    build_parser,
    main,
)
from nulgi.dataio import emit_report, write_dataset_csv
from nulgi.errors import DataError, DomainError
from nulgi.montecarlo import PseudoConfig
from nulgi.oscillation import (
    OscParams,
    accumulated_phase,
    phase_scale,
    survival_probability,
)
from nulgi.pipeline import (
    RunConfig,
    analyze_dataset,
    curve_table,
    fit_curve_params,
    null_count_columns,
    run_analysis,
)
from nulgi.selection import Spectrum
from nulgi.synthetic import generate_synthetic

import oracles

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
PARAMS_JSON = '{"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}'
PHASE_SCALE = accumulated_phase(PARAMS, 1.0)

ARTIFACTS = ("report.json", "tuples.csv", "points.csv", "null_counts.csv", "curve.csv")


def synthetic_csv(tmp_path, seed=2, rel_error=0.05, name="synthetic.csv"):
    points = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, rel_error, seed)
    path = tmp_path / name
    write_dataset_csv(points, path)
    return path


def shared_csv(tmp_path):
    # Four exact-sum triples; see test_montecarlo.SHARED_PHASES.
    points = Spectrum(PHASE_SCALE / np.array([0.4, 0.5, 0.7, 0.9, 1.2, 1.6]), 0.5, 0.05)
    path = tmp_path / "shared.csv"
    write_dataset_csv(points, path)
    return path


def no_tuple_csv(tmp_path):
    # 0.5 + 0.6 = 1.1 and friends miss every available target by >= 25%.
    points = Spectrum(PHASE_SCALE / np.array([0.5, 0.6, 0.8]), 0.5, 0.05)
    path = tmp_path / "sparse.csv"
    write_dataset_csv(points, path)
    return path


def test_run_analysis_writes_every_artifact(tmp_path):
    data = synthetic_csv(tmp_path)
    config = RunConfig(
        params=PARAMS,
        data=data,
        out_dir=tmp_path / "out",
        pseudo=PseudoConfig(replicas=2000, seed=2),
    )
    report = run_analysis(config)
    assert report.status == "ok"
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).is_file()
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload == json.loads(json.dumps(dataclasses.asdict(report)))
    assert payload["n_tuples"] == report.n_tuples
    assert payload["schema_version"] == 2
    assert payload["data_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    # The tuple rows are in tuples.csv only, and the echo holds what analyze read.
    assert "tuples" not in payload
    assert sorted(payload["config"]) == [
        "allow_high_order", "data", "fit_curve", "order", "out_dir", "params", "pseudo",
        "tolerance",
    ]
    assert payload["config"]["tolerance"] == 0.005
    tuples_rows = (tmp_path / "out" / "tuples.csv").read_text().splitlines()
    assert len(tuples_rows) == report.n_tuples + 1
    hist = (tmp_path / "out" / "null_counts.csv").read_text().splitlines()
    replicas = sum(int(r.split(",")[1]) for r in hist[1:])
    assert replicas == 2000


def test_artifacts_are_byte_identical_across_reruns(tmp_path):
    config = RunConfig(
        params=PARAMS,
        data=synthetic_csv(tmp_path),
        out_dir=tmp_path / "out",
        pseudo=PseudoConfig(replicas=2000, seed=2),
    )
    run_analysis(config)
    snapshot = {n: (tmp_path / "out" / n).read_bytes() for n in ARTIFACTS}
    run_analysis(config)
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).read_bytes() == snapshot[name]


def test_no_tuples_report_and_artifacts(tmp_path):
    config = RunConfig(
        params=PARAMS,
        data=no_tuple_csv(tmp_path),
        out_dir=tmp_path / "out",
        pseudo=PseudoConfig(replicas=2000, seed=0),
    )
    report = run_analysis(config)
    assert report.status == "no_tuples"
    assert report.z_score is None
    assert report.n_violations_observed is None
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["status"] == "no_tuples"
    # header-only tuple table and histogram
    assert len((tmp_path / "out" / "tuples.csv").read_text().splitlines()) == 1
    assert len((tmp_path / "out" / "points.csv").read_text().splitlines()) == 4
    assert (tmp_path / "out" / "null_counts.csv").read_text() == "violations,replicas\n"
    assert (tmp_path / "out" / "curve.csv").is_file()


def test_analyze_without_tuples_leaves_no_file_of_an_earlier_run(tmp_path):
    # An earlier run's null_counts.csv used to stay beside a no_tuples report.
    out = tmp_path / "out"
    base = ["analyze", "--params", PARAMS_JSON, "--replicas", "2000", "--out-dir", str(out)]
    assert main(base + ["--data", str(synthetic_csv(tmp_path))]) == EXIT_OK
    assert len((out / "null_counts.csv").read_text().splitlines()) > 1
    assert main(base + ["--data", str(no_tuple_csv(tmp_path))]) == EXIT_NO_TUPLES
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    assert json.loads((out / "report.json").read_text())["status"] == "no_tuples"
    assert (out / "null_counts.csv").read_text() == "violations,replicas\n"
    assert len((out / "tuples.csv").read_text().splitlines()) == 1


def test_triples_without_tuples_leaves_no_table_of_an_earlier_run(tmp_path):
    # The earlier run's tuples.csv used to stay, rows and all, beside exit 4.
    out = tmp_path / "tri"
    base = ["triples", "--params", PARAMS_JSON, "--out-dir", str(out)]
    assert main(base + ["--data", str(synthetic_csv(tmp_path))]) == EXIT_OK
    assert len((out / "tuples.csv").read_text().splitlines()) > 1
    assert main(base + ["--data", str(no_tuple_csv(tmp_path))]) == EXIT_NO_TUPLES
    assert (out / "tuples.csv").read_text() == ",".join(pipeline.TRIPLES_COLUMNS) + "\n"


def test_analyze_needs_enough_points():
    points = Spectrum([2.0, 3.0], 0.5, 0.05)
    with pytest.raises(DataError, match="at least 3"):
        analyze_dataset(points, RunConfig(params=PARAMS))


def test_run_analysis_requires_a_dataset():
    with pytest.raises(DomainError, match="dataset"):
        run_analysis(RunConfig(params=PARAMS))


def test_run_config_validation():
    with pytest.raises(DomainError, match="order"):
        RunConfig(params=PARAMS, order=5)
    RunConfig(params=PARAMS, order=5, allow_high_order=True)
    with pytest.raises(DomainError, match="tolerance"):
        RunConfig(params=PARAMS, tolerance=0.0)


def test_curve_table_shape_and_endpoints():
    energies, probs = curve_table(PARAMS, 0.5, 50.0, points=101)
    assert energies.shape == probs.shape == (101,)
    assert energies[0] == pytest.approx(0.5) and energies[-1] == pytest.approx(50.0)
    assert ((0.0 <= probs) & (probs <= 1.0)).all()
    with pytest.raises(DomainError):
        curve_table(PARAMS, 5.0, 0.5)


@pytest.mark.parametrize("params", [
    PARAMS,
    OscParams(dm2=-7.5e-5, sin2_2theta=0.31, baseline_km=180.0),
    OscParams(dm2=1.7, sin2_2theta=1.0, baseline_km=0.3),
])
def test_curve_phases_equal_the_scalar_phase_bit_for_bit(params):
    energies, probs = curve_table(params, 0.3, 80.0)
    scalar = np.array([accumulated_phase(params, e) for e in energies.tolist()])
    psis = phase_scale(params) / energies
    assert np.array_equal(psis.view(np.int64), scalar.view(np.int64))
    want = survival_probability(params.sin2_2theta, scalar)
    assert np.array_equal(probs.view(np.int64), want.view(np.int64))


def test_curve_and_analyze_take_their_columns_from_curve_columns(tmp_path, capsys, monkeypatch):
    original = pipeline.curve_columns
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "curve_columns", recorded)
    monkeypatch.setattr(pipeline, "curve_columns", recorded)
    data = synthetic_csv(tmp_path)
    out = tmp_path / "out"
    assert main([
        "analyze", "--params", PARAMS_JSON, "--data", str(data), "--replicas", "1000",
        "--out-dir", str(out),
    ]) == EXIT_OK
    energies = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, 2).energy_gev
    lo, hi = energies.min().item(), energies.max().item()
    capsys.readouterr()
    assert main(["curve", "--params", PARAMS_JSON, "--emin", repr(lo), "--emax", repr(hi)]) == EXIT_OK
    assert calls == [(lo, hi), (lo, hi)]
    assert capsys.readouterr().out == (out / "curve.csv").read_text()


@pytest.mark.parametrize("counts", [[7, 0, 3, 3, 0, 7, 7, 0], [5, 5, 5], [0]])
def test_null_count_columns_write_the_unique_form(tmp_path, counts):
    counts = np.array(counts, dtype=np.int64)
    values, freq = np.unique(counts, return_counts=True)
    header = ("violations", "replicas")
    table = null_count_columns(counts)
    assert tuple(table.columns) == header
    path = tmp_path / "null_counts.csv"
    emit_report(table, path)
    assert path.read_text() == oracles.csv_text(header, zip(values.tolist(), freq.tolist()))


def test_fit_recovers_generating_parameters(tmp_path):
    points = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.01, seed=5)
    start = OscParams(dm2=1.5e-3, sin2_2theta=0.80, baseline_km=735.0)
    fitted = fit_curve_params(points, start)
    assert abs(fitted.dm2 - 2.4e-3) / 2.4e-3 < 0.02
    assert abs(fitted.sin2_2theta - 0.95) < 0.02
    assert fitted.baseline_km == 735.0


def test_analyze_with_fit_curve_reports_fitted_params(tmp_path):
    config = RunConfig(
        params=OscParams(dm2=2.2e-3, sin2_2theta=0.85, baseline_km=735.0),
        data=synthetic_csv(tmp_path, seed=5, rel_error=0.01),
        out_dir=tmp_path / "out",
        pseudo=PseudoConfig(replicas=2000, seed=5),
        fit_curve=True,
    )
    report = run_analysis(config)
    fitted = report.config["fitted_params"]
    assert abs(fitted["dm2"] - 2.4e-3) / 2.4e-3 < 0.02
    assert abs(fitted["sin2_2theta"] - 0.95) < 0.02
    header = (tmp_path / "out" / "curve.csv").read_text().splitlines()[0]
    assert header == "energy_gev,p_model,p_model_fitted"


def test_analyze_prints_the_fitted_model_only_with_fit_curve(tmp_path, capsys):
    shared = ["analyze", "--params", PARAMS_JSON, "--data", str(synthetic_csv(tmp_path)),
              "--replicas", "1000"]
    assert main([*shared, "--out-dir", str(tmp_path / "plain")]) == EXIT_OK
    plain = capsys.readouterr().out.splitlines()
    assert main([*shared, "--fit-curve", "--out-dir", str(tmp_path / "fit")]) == EXIT_OK
    fit = capsys.readouterr().out.splitlines()
    fitted = json.loads((tmp_path / "fit" / "report.json").read_text())["config"]["fitted_params"]
    line = (f"fitted model: dm2 {fitted['dm2']:.6g} eV^2, "
            f"sin2_2theta {fitted['sin2_2theta']:.6g}")
    # The fitted model comes before the chi-square against it.
    assert fit[fit.index(line) + 1].startswith("chi2 vs model: ")
    assert not any(row.startswith("fitted model") for row in plain)


def test_cli_simulate_then_analyze(tmp_path, capsys):
    csv = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--params", PARAMS_JSON, "--bins", "30",
            "--seed", "2", "--out", str(csv),
        ]
    )
    assert code == EXIT_OK
    assert csv.is_file()

    out = tmp_path / "out"
    code = main(
        [
            "analyze", "--params", PARAMS_JSON, "--data", str(csv),
            "--replicas", "2000", "--seed", "2", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "z:" in stdout and "tuples:" in stdout
    assert (out / "report.json").is_file()


def test_cli_simulate_params_file_matches_inline(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text(PARAMS_JSON)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--params", PARAMS_JSON, "--seed", "3", "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--params", str(pfile), "--seed", "3", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cli_curve_stdout_and_file(tmp_path, capsys):
    assert main(["curve", "--params", PARAMS_JSON, "--points", "10"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "energy_gev,p_model"
    assert len(lines) == 11

    out = tmp_path / "curve.csv"
    assert main(
        ["curve", "--params", PARAMS_JSON, "--points", "10", "--out", str(out)]
    ) == EXIT_OK
    assert len(out.read_text().splitlines()) == 11


def test_cli_triples(tmp_path, capsys):
    data = shared_csv(tmp_path)
    out = tmp_path / "tri"
    code = main(
        [
            "triples", "--params", PARAMS_JSON, "--data", str(data),
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    assert "4 tuples" in capsys.readouterr().out
    assert (out / "tuples.csv").is_file()

    code = main(
        [
            "triples", "--params", PARAMS_JSON, "--data", str(no_tuple_csv(tmp_path)),
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_NO_TUPLES


@pytest.mark.parametrize("command", ["analyze", "triples"])
def test_cli_refuses_a_selection_past_the_tuple_budget(tmp_path, capsys, monkeypatch, command):
    # A budget of one tuple: shared.csv has four exact-sum triples.
    size = selection.tuple_bytes(3)
    monkeypatch.setattr(selection, "SELECT_BUDGET_BYTES", size)
    out = tmp_path / "out"
    code = main([
        command, "--params", PARAMS_JSON, "--data", str(shared_csv(tmp_path)),
        "--out-dir", str(out),
    ])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: order-3 selection reached 4 tuples, past its budget of 1 "
        f"({size} bytes at {size} a tuple); "
        "use a smaller tolerance or a lower order\n"
    )
    assert not out.exists()


# Per command: its size flag, the size's name in the refusal, the bytes the
# command holds per item and the most items a test budget admits. The
# budget is shared, so analyze's must also admit its 400-point curve.csv.
OVERSIZE = {
    "curve": ("--points", "points", pipeline.CURVE_POINT_BYTES, 2000),
    "simulate": ("--bins", "bins", synthetic.BIN_BYTES, 2000),
    "analyze": ("--replicas", "replicas", montecarlo.REPLICA_BYTES, 10_000),
}


@pytest.mark.parametrize("command", OVERSIZE)
def test_cli_refuses_a_size_past_the_budget(tmp_path, capsys, monkeypatch, command):
    flag, name, item_bytes, most = OVERSIZE[command]
    monkeypatch.setattr(errors, "SIZE_BUDGET_BYTES", most * item_bytes)
    data = synthetic_csv(tmp_path)
    for size, code in ((most, EXIT_OK), (most + 1, EXIT_DOMAIN)):
        out = tmp_path / f"out-{size}"
        where = ["--data", str(data), "--out-dir", str(out)] if command == "analyze" else [
            "--out", str(out)
        ]
        capsys.readouterr()
        assert main([command, "--params", PARAMS_JSON, flag, str(size), *where]) == code
        assert out.exists() == (code == EXIT_OK)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {name} {most + 1} is past the budget of {most} "
        f"({most * item_bytes} bytes at {item_bytes} each)\n"
    )


def test_analyze_refuses_replicas_past_the_budget_before_selection(tmp_path, capsys, monkeypatch):
    most = 10_000
    monkeypatch.setattr(errors, "SIZE_BUDGET_BYTES", most * montecarlo.REPLICA_BYTES)
    selected = []
    monkeypatch.setattr(pipeline, "select_ntuples", lambda *a, **kw: selected.append(a))
    out = tmp_path / "out"
    code = main([
        "analyze", "--params", PARAMS_JSON, "--data", str(synthetic_csv(tmp_path)),
        "--replicas", str(most + 1), "--out-dir", str(out),
    ])
    assert code == EXIT_DOMAIN
    assert not selected and not out.exists()
    assert capsys.readouterr().err == (
        f"config error: replicas {most + 1} is past the budget of {most} "
        f"({most * montecarlo.REPLICA_BYTES} bytes at {montecarlo.REPLICA_BYTES} each)\n"
    )


def read_table(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# The tuple tables of analyze before points.csv took the per-point
# columns, and the tuples.csv of triples, on the seed-0 30-bin quantum
# spectrum (Python 3.11.7, numpy 2.4.6, scipy 1.17.1): SHA-256 by run.
FORMER_TABLES = {
    "n3-plain": ("f33536eac094cabbd76fba918bba8acd90787ca75dc7a53bdb9fa4ab1bdd0663",
                 "957f05c709e39495d9743a467ff60cd70f45510cae68ba88f7d6051b35ea34dc"),
    "n3-fit": ("fa1c1ef8409029ee2a6f2183c5679f3b8205af3b038c11d032fbd2d8dedcce45",
               "813390248ee0c23e342ee4401885a22ecf3cb0b5b97935783064f1d1531ff72d"),
    "n4-plain": ("b8d05a189fb3ce95a889502e606aad6b2e524b89223c4bc5414d27e36645a93b",
                 "17a03a759956ff2088f2ed5bf9a9452a73869f88b64f878ef21fe4fb027f6206"),
    "n4-fit": ("43b3c76829524ca07c621e275d6fec33bb6fbcb16b5b0e5597652f10586ca9a7",
               "8b1651b9bd2b354057882869b2d51943a2efb67f9c40fdf4e37c09382ad1b6fe"),
}
FORMER_TRIPLES = {
    3: "68e2bc6c0624f14480777e78ec01c49989d455248af1ef95a2ef979e6bb96b41",
    4: "714fe095d4c98d5535359d84c2613390febab79a91384aae48c70dedd7ceb35a",
}
FORMER_TUPLE_COLUMNS = (
    "component_indices", "target_index", "n", "mismatch", "component_phases",
    "phase_sum", "target_psi", "k_value", "k_sigma", "violation",
    "k_classical_data", "k_quantum_model",
)
FORMER_K_VS_PHASE_COLUMNS = (
    "phase_sum", "k_value", "k_sigma", "k_classical_data", "k_quantum_model",
    "violation",
)


def csv_bytes(columns, rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in [columns, *rows]).encode("utf-8")


@pytest.mark.parametrize("run", sorted(FORMER_TABLES))
def test_the_former_tuple_tables_rebuild_from_tuples_and_points(tmp_path, run):
    # Every cell of the former tuples.csv, k_vs_phase.csv and triples'
    # tuples.csv is text of analyze's new files: a row's cells, n from
    # report.json, and each point's phase from points.csv by index.
    order, fit = int(run[1]), run.endswith("fit")
    data = tmp_path / "spectrum.csv"
    write_dataset_csv(generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0), data)
    shared = ["--params", PARAMS_JSON, "--data", str(data), "--order", str(order)]
    assert main(
        ["analyze", *shared, "--replicas", "100", "--out-dir", str(tmp_path / "ana")]
        + ["--fit-curve"] * fit
    ) == EXIT_OK
    assert main(["triples", *shared, "--out-dir", str(tmp_path / "tri")]) == EXIT_OK

    report = json.loads((tmp_path / "ana" / "report.json").read_text())
    points = read_table(tmp_path / "ana" / "points.csv")
    assert [row["index"] for row in points] == [str(i) for i in range(30)]
    psi = [row["psi"] for row in points]
    rows = read_table(tmp_path / "ana" / "tuples.csv")
    assert list(rows[0]) == list(pipeline.TUPLE_COLUMNS)
    assert len(rows) == report["n_tuples"] > 1
    for row in rows:
        row["n"] = str(report["config"]["order"])
        row["component_phases"] = ";".join(
            psi[int(i)] for i in row["component_indices"].split(";")
        )
        row["target_psi"] = psi[int(row["target_index"])]
    rebuilt = [
        csv_bytes(columns, [[row[c] for c in columns] for row in rows])
        for columns in (FORMER_TUPLE_COLUMNS, FORMER_K_VS_PHASE_COLUMNS)
    ]
    assert [hashlib.sha256(table).hexdigest() for table in rebuilt] == list(FORMER_TABLES[run])
    triples = csv_bytes(
        pipeline.TRIPLES_COLUMNS, [[row[c] for c in pipeline.TRIPLES_COLUMNS] for row in rows]
    )
    assert triples == (tmp_path / "tri" / "tuples.csv").read_bytes()
    assert hashlib.sha256(triples).hexdigest() == FORMER_TRIPLES[order]


def test_cli_analyze_no_tuples_exit_code(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "analyze", "--params", PARAMS_JSON, "--data", str(no_tuple_csv(tmp_path)),
            "--replicas", "2000", "--out-dir", str(out),
        ]
    )
    assert code == EXIT_NO_TUPLES
    assert json.loads((out / "report.json").read_text())["status"] == "no_tuples"


def test_cli_error_exit_codes(tmp_path):
    # unreadable dataset
    assert main(
        ["analyze", "--params", PARAMS_JSON, "--data", str(tmp_path / "absent.csv")]
    ) == EXIT_DATA
    # parameters are mandatory
    assert main(["curve"]) == EXIT_DOMAIN
    # malformed inline params
    assert main(["curve", "--params", "{bad json"]) == EXIT_DOMAIN
    # unknown parameter key
    assert main(["curve", "--params", '{"dm2": 1e-3, "mass": 1}']) == EXIT_DOMAIN
    # dataset is mandatory for selection commands
    assert main(["triples", "--params", PARAMS_JSON]) == EXIT_DOMAIN
    # order outside the validated range needs the explicit override
    assert main(
        [
            "analyze", "--params", PARAMS_JSON, "--data", str(shared_csv(tmp_path)),
            "--order", "5", "--replicas", "2000",
        ]
    ) == EXIT_DOMAIN


@pytest.mark.parametrize("cell", ["inf", "nan"])
@pytest.mark.parametrize("column", ["energy_gev", "p_mumu", "sigma_stat", "sigma_sys"])
def test_cli_rejects_a_non_finite_cell(tmp_path, capsys, column, cell):
    # Row 10 of the seed-0 spectrum is a component of its order-3 tuples, so a
    # bad sigma there used to reach the null before anything failed.
    path = synthetic_csv(tmp_path, seed=0)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[10].split(",")
    cells[header.index(column)] = cell
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(
        ["analyze", "--params", PARAMS_JSON, "--data", str(path), "--out-dir", str(out),
         "--replicas", "2000"]
    )
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: line 11: {column} must be finite, got {float(cell)}\n"
    )
    assert not out.exists()


def test_cli_high_order_override(tmp_path):
    # 0.4 * 4 = 1.6 exactly, so order 5 finds at least one tuple.
    code = main(
        [
            "analyze", "--params", PARAMS_JSON, "--data", str(shared_csv(tmp_path)),
            "--order", "5", "--allow-high-order", "--replicas", "2000",
            "--out-dir", str(tmp_path / "out5"),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "out5" / "report.json").read_text())
    assert payload["config"]["order"] == 5
    assert payload["n_tuples"] >= 1


def config_file(tmp_path, name, **overrides):
    payload = {"params": json.loads(PARAMS_JSON)}
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_analyze_with(tmp_path, extra, out_name):
    out = tmp_path / out_name
    argv = [
        "analyze", "--data", str(shared_csv(tmp_path)),
        "--replicas", "1500", "--out-dir", str(out),
    ] + extra
    assert main(argv) == EXIT_OK
    return json.loads((out / "report.json").read_text())["config"]


def test_cli_config_precedence(tmp_path):
    via_config = config_file(tmp_path, "a.json", tolerance=0.01)
    echo = run_analyze_with(tmp_path, ["--params", PARAMS_JSON], "o1")
    assert echo["tolerance"] == RunConfig(params=PARAMS).tolerance

    echo = run_analyze_with(tmp_path, ["--config", str(via_config)], "o2")
    assert echo["tolerance"] == 0.01

    # explicit flags beat the config file
    echo = run_analyze_with(
        tmp_path, ["--config", str(via_config), "--tolerance", "0.003"], "o3"
    )
    assert echo["tolerance"] == 0.003


def test_cli_reads_no_config_from_the_environment(tmp_path, monkeypatch):
    # NULGI_CONFIG used to name a config file when --config was not given.
    monkeypatch.setenv("NULGI_CONFIG", str(config_file(tmp_path, "env.json", tolerance=0.02)))
    echo = run_analyze_with(tmp_path, ["--params", PARAMS_JSON], "out")
    assert echo["tolerance"] == RunConfig(params=PARAMS).tolerance == 0.005


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"params": json.loads(PARAMS_JSON), "replicas": 10}))
    code = main(["curve", "--config", str(bad)])
    assert code == EXIT_DOMAIN
    assert "unknown config keys: replicas" in capsys.readouterr().err

    bad.write_text(
        json.dumps({"params": json.loads(PARAMS_JSON), "pseudo": {"bogus": 1}})
    )
    assert main(["curve", "--config", str(bad)]) == EXIT_DOMAIN


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("seed", "3"), ("seed", True), ("replicas", 2000.0), ("replicas", "2000"),
    ("replicas", True),
])
def test_cli_rejects_a_pseudo_count_that_is_not_an_integer(tmp_path, capsys, key, value):
    # These used to run selection and then die in the hash with "index
    # words must be integers", or, for true, run as 1 and echo true.
    config = config_file(tmp_path, "c.json", pseudo={key: value})
    out = tmp_path / "out"
    code = main(
        ["analyze", "--config", str(config), "--data", str(shared_csv(tmp_path)),
         "--out-dir", str(out)]
    )
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        f"config error: pseudo: {key} must be an integer, got {value!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"params": 5}, {"params": [1]}, {"params": "abc"},
    {"params": json.loads(PARAMS_JSON), "pseudo": 5},
    {"params": json.loads(PARAMS_JSON), "pseudo": [1]},
    {"params": json.loads(PARAMS_JSON), "pseudo": None},
    {"params": json.loads(PARAMS_JSON), "pseudo": []},
])
def test_cli_rejects_a_config_section_that_is_not_an_object(tmp_path, capsys, config):
    # Numbers, null and most lists used to end in a TypeError traceback; a
    # string was read as its characters, and an empty list passed as {}.
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["curve", "--config", str(path), "--points", "2"]) == EXIT_DOMAIN
    section = "pseudo" if "pseudo" in config else "params"
    assert capsys.readouterr() == ("", f"config error: {section} must be a JSON object\n")


@pytest.mark.parametrize("value", ["x", True, math.inf, math.nan])
@pytest.mark.parametrize("key", ["tolerance", "e_min_gev", "e_max_gev", "rel_error", "flat_p"])
def test_cli_rejects_a_run_setting_that_is_not_a_number(tmp_path, capsys, key, value):
    # A string used to end in a TypeError traceback where the field was
    # first compared; true ran as 1. An infinite tolerance ran and wrote
    # Infinity into report.json, which is not JSON.
    config = config_file(tmp_path, "c.json", **{key: value})
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == EXIT_DOMAIN
    what = "finite" if isinstance(value, float) else "a number"
    assert capsys.readouterr() == ("", f"config error: {key} must be {what}, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"fit_curve": "no"}, {"fit_curve": 1}, {"allow_high_order": "false"},
    {"allow_high_order": None},
])
def test_cli_rejects_a_switch_that_is_not_a_bool(tmp_path, capsys, config):
    # These used to be read by their truth value: "no" ran the fit and
    # "false" allowed a high order.
    ((key, value),) = config.items()
    path = config_file(tmp_path, "c.json", **config)
    out = tmp_path / "out"
    code = main(
        ["analyze", "--config", str(path), "--data", str(shared_csv(tmp_path)),
         "--out-dir", str(out)]
    )
    assert code == EXIT_DOMAIN
    err = f"config error: {key} must be true or false, got {value!r}\n"
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("out_dir", 5), ("data", ["x"]), ("data", {})])
def test_cli_rejects_a_path_that_is_not_a_string(tmp_path, capsys, key, value):
    # These used to end in a TypeError traceback from Path(value).
    path = config_file(tmp_path, "c.json", **{key: value})
    assert main(["triples", "--config", str(path)]) == EXIT_DOMAIN
    err = f"config error: {key} must be a path string, got {value!r}\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command, flag", [
    ("simulate", "--rel-error"), ("simulate", "--emax"), ("curve", "--emax"),
    ("analyze", "--tolerance"),
])
def test_cli_rejects_a_non_finite_setting_flag(tmp_path, capsys, command, flag, value):
    # curve --emax inf printed inf rows, and simulate --emax inf failed as a
    # data error.
    out = tmp_path / "out"
    argv = [command, "--params", PARAMS_JSON, flag, value]
    if command == "analyze":
        argv += ["--data", str(shared_csv(tmp_path)), "--out-dir", str(out)]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_DOMAIN
    key = {"--rel-error": "rel_error", "--emax": "e_max_gev", "--tolerance": "tolerance"}[flag]
    assert capsys.readouterr() == ("", f"config error: {key} must be finite, got {value}\n")
    assert not out.exists()


def test_analyze_and_triples_refuse_too_few_points_with_one_message(tmp_path, capsys):
    data = tmp_path / "two.csv"
    write_dataset_csv(Spectrum(PHASE_SCALE / np.array([0.5, 0.6]), 0.5, 0.05), data)
    for command in ("analyze", "triples"):
        out = tmp_path / command
        argv = [command, "--params", PARAMS_JSON, "--data", str(data), "--out-dir", str(out)]
        assert main(argv) == EXIT_DATA, command
        assert capsys.readouterr() == (
            "", "data error: need at least 3 points for order-3 tuples, got 2\n"
        ), command
        assert not out.exists()


@pytest.mark.parametrize("points", [-1, 0, 1])
def test_cli_curve_rejects_fewer_than_two_points(capsys, points):
    assert main(["curve", "--params", PARAMS_JSON, "--points", str(points)]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"config error: points must be at least 2, got {points}\n")


def test_cli_curve_stdout_is_the_bytes_of_its_file(tmp_path, capsys):
    argv = ["curve", "--params", PARAMS_JSON, "--points", "25"]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    out = tmp_path / "curve.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert stdout.encode("utf-8") == out.read_bytes()


# Flags that are not settings: where the config and the params come from,
# and curve's and simulate's own output.
NON_FIELD_FLAGS = {"--help", "--config", "--params", "--out", "--points"}


def test_every_flag_dest_is_a_config_field():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    fields |= {f.name for f in dataclasses.fields(PseudoConfig)}
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    checked = set()
    for name, parser in subcommands.choices.items():
        for action in parser._actions:
            if NON_FIELD_FLAGS.isdisjoint(action.option_strings):
                assert action.dest in fields, (name, action.option_strings)
                checked.add(action.option_strings[0])
    assert {"--emin", "--emax", "--sys-amplitude-sigma", "--seed", "--tolerance"} <= checked


def test_a_config_file_reaches_every_field(tmp_path):
    params = {"dm2": 1.1e-3, "sin2_2theta": 0.5, "baseline_km": 810.0}
    pseudo = {"replicas": 77, "seed": 5, "sys_amplitude_sigma": 0.01, "sys_phase_sigma": 0.03}
    top = {"order": 4, "tolerance": 0.007, "truth": "classical_flat", "bins": 12, "e_min_gev": 0.7, "e_max_gev": 40.0,
           "rel_error": 0.03, "flat_p": 0.4, "fit_curve": True, "allow_high_order": True}
    path = tmp_path / "all.json"
    path.write_text(json.dumps({
        "params": params, "pseudo": pseudo, "data": "spec.csv", "out_dir": "elsewhere",
        **top,
    }))
    config = _build_config(build_parser().parse_args(["analyze", "--config", str(path)]))
    assert config == RunConfig(
        params=OscParams(**params), pseudo=PseudoConfig(**pseudo),
        data=Path("spec.csv"), out_dir=Path("elsewhere"), **top,
    )
    for built, default in (
        (config, RunConfig(params=PARAMS)), (config.pseudo, PseudoConfig()),
        (config.params, OscParams(dm2=0.0, sin2_2theta=0.0, baseline_km=1.0)),
    ):
        for f in dataclasses.fields(built):
            assert getattr(built, f.name) != getattr(default, f.name), f.name


@pytest.mark.parametrize("key, value, message", [
    ("dm2", True, "must be a number, got True"),
    ("baseline_km", "735", "must be a number, got '735'"),
    ("sin2_2theta", None, "must be a number, got None"),
    ("sin2_2theta", False, "must be a number, got False"),
    ("dm2", math.nan, "must be finite, got nan"),
    ("baseline_km", math.inf, "must be finite, got inf"),
])
def test_cli_rejects_a_param_that_is_not_a_finite_number(tmp_path, capsys, key, value, message):
    # "dm2": true ran at 1 eV^2 and echoed true, and "735" failed with a
    # TypeError from the first comparison.
    params = json.dumps({**json.loads(PARAMS_JSON), key: value})
    out = tmp_path / "out"
    code = main(
        ["analyze", "--params", params, "--data", str(shared_csv(tmp_path)),
         "--out-dir", str(out)]
    )
    assert code == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"config error: params: {key} {message}\n")
    assert not out.exists()


WIDTH_CASES = [
    ("config", math.nan, "must be finite, got nan"),
    ("config", math.inf, "must be finite, got inf"),
    ("config", True, "must be a number, got True"),
    ("config", "0.1", "must be a number, got '0.1'"),
    ("flag", math.nan, "must be finite, got nan"),
    ("flag", -math.inf, "must be finite, got -inf"),
]


@pytest.mark.parametrize("key, source, value, message", [
    *((key, *case) for key in ("sys_amplitude_sigma", "sys_phase_sigma")
      for case in WIDTH_CASES),
])
def test_cli_rejects_a_systematic_width_that_is_not_a_finite_number(
    tmp_path, capsys, key, source, value, message
):
    # NaN and Infinity ran and were written into report.json, which is then
    # not JSON.
    out = tmp_path / "out"
    argv = ["analyze", "--data", str(shared_csv(tmp_path)), "--out-dir", str(out)]
    if source == "config":
        argv += ["--config", str(config_file(tmp_path, "c.json", pseudo={key: value}))]
    else:
        argv += ["--params", PARAMS_JSON, f"--{key.replace('_', '-')}={value!r}"]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"config error: pseudo: {key} {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("section, err", [
    ("pseudo", "config error: pseudo: sys_phase_sigma must be finite, got nan\n"),
    ("config", "config error: tolerance must be finite, got nan\n"),
])
def test_cli_names_the_group_of_a_bad_nested_setting(tmp_path, capsys, section, err):
    # A nested setting used to be reported under the bare field name.
    overrides = {"pseudo": {"sys_phase_sigma": math.nan}} if section == "pseudo" else {
        "tolerance": math.nan
    }
    out = tmp_path / "out"
    argv = ["analyze", "--config", str(config_file(tmp_path, "c.json", **overrides)),
            "--data", str(shared_csv(tmp_path)), "--out-dir", str(out)]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "curve"])
@pytest.mark.parametrize("section, key, value", [
    ("pseudo", "tolerance", 0.005), ("config", "mode", "analyze"),
    ("params", "v_c", 0.0), ("params", "v_c", 1e-11), ("params", "v_n", 0.0),
    ("pseudo", "include_systematics", True), ("config", "mismatch_mode", "relative"),
])
def test_cli_refuses_a_removed_config_key(tmp_path, capsys, command, section, key, value):
    # The first five were accepted and echoed, and nothing read them:
    # pseudo.tolerance (selection reads the top-level one), mode (the
    # subcommand decides) and the matter potentials (every analysis runs in
    # vacuum). The last two repeated what another setting says: a positive
    # width draws the nuisances, and the mismatch is always relative.
    if section == "config":
        overrides = {key: value}
    elif section == "params":
        overrides = {"params": {**json.loads(PARAMS_JSON), key: value}}
    else:
        overrides = {section: {key: value}}
    argv = [command, "--config", str(config_file(tmp_path, "c.json", **overrides))]
    out = tmp_path / "out"
    if command == "analyze":
        argv += ["--data", str(synthetic_csv(tmp_path)), "--out-dir", str(out)]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"config error: unknown {section} keys: {key}\n")
    assert not out.exists()


def test_the_shipped_config_drives_every_command(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "minos_like.json"
    spectrum = tmp_path / "spectrum.csv"
    assert main(["curve", "--config", str(config), "--points", "5"]) == EXIT_OK
    assert main(["simulate", "--config", str(config), "--out", str(spectrum)]) == EXIT_OK
    shared = ["--config", str(config), "--data", str(spectrum), "--out-dir", str(tmp_path / "out")]
    assert main(["triples", *shared]) == EXIT_OK
    assert main(["analyze", *shared, "--replicas", "2000"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_the_echo_states_only_what_analyze_read(tmp_path):
    # Settings of simulate and curve change no byte of report.json.
    data, out = shared_csv(tmp_path), tmp_path / "out"
    reports = []
    for overrides in (
        {}, {"truth": "classical_flat"}, {"bins": 12}, {"e_min_gev": 0.7},
        {"e_max_gev": 40.0}, {"rel_error": 0.03}, {"flat_p": 0.4},
    ):
        config = config_file(tmp_path, "c.json", **overrides)
        assert main(["analyze", "--config", str(config), "--data", str(data),
                     "--replicas", "1500", "--out-dir", str(out)]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports == reports[:1] * len(reports)


def test_span_flags_set_their_fields(tmp_path, capsys):
    assert main(
        ["curve", "--params", PARAMS_JSON, "--emin", "1.5", "--emax", "6", "--points", "2"]
    ) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows] == ["energy_gev", "1.5", "6.0"]

    out = tmp_path / "sim.csv"
    assert main(
        ["simulate", "--params", PARAMS_JSON, "--emin", "2", "--emax", "20", "--bins", "5",
         "--out", str(out)]
    ) == EXIT_OK
    energies = [float(row["energy_gev"]) for row in read_table(out)]
    assert (energies[0], energies[-1]) == (2.0, 20.0)


def test_systematics_flags_set_their_fields(tmp_path):
    flags = ["--params", PARAMS_JSON, "--sys-amplitude-sigma", "0.02",
             "--sys-phase-sigma", "0.01"]
    echo = run_analyze_with(tmp_path, flags, "sys")["pseudo"]
    assert (echo["sys_amplitude_sigma"], echo["sys_phase_sigma"]) == (0.02, 0.01)


# null_counts.csv of the run below, recorded when a width counted only with
# "include_systematics": true beside it (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
WIDTH_ONLY_NULL_COUNTS = "f54b7d2d4c7d3fc8896bed39588096c82bf4ba504b349c675f4e23887514cc69"


def test_a_width_alone_draws_the_nuisances(tmp_path, monkeypatch):
    # A width set without the former switch used to be ignored: order 3
    # took the exact law, with no nuisance.
    calls = []

    def recorded(*args):
        calls.append(args)
        return montecarlo.classical_null_distribution(*args)

    monkeypatch.setattr(pipeline, "classical_null_distribution", recorded)
    config = config_file(
        tmp_path, "c.json", pseudo={"replicas": 2000, "seed": 0, "sys_amplitude_sigma": 0.05}
    )
    out = tmp_path / "out"
    argv = ["analyze", "--config", str(config), "--data", str(synthetic_csv(tmp_path)),
            "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1 and calls[0][2].draws_systematics
    digest = hashlib.sha256((out / "null_counts.csv").read_bytes()).hexdigest()
    assert digest == WIDTH_ONLY_NULL_COUNTS


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "nulgi.cli", "curve", "--params", PARAMS_JSON,
         "--points", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("energy_gev,p_model")
