"""The tuple table as a stream of chunks: the same bytes at every chunk
length, and no pass that holds a whole float column.

pipeline.tuple_table computes its float columns per row range, and the
observed count, the chi-square and the CSV writer read them in chunks of
dataio.CHUNK_ROWS rows. Every artifact of analyze and triples must be the
same bytes whatever the chunk length.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from nulgi import dataio
from nulgi.cli import EXIT_OK, main
from nulgi.dataio import emit_report, write_dataset_csv
from nulgi.floattext import float_text
from nulgi.montecarlo import chi_square_quantum
from nulgi.oscillation import OscParams
from nulgi.pipeline import K_COLUMNS, table_chunks, tuple_table
from nulgi.selection import attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
PARAMS_JSON = '{"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}'


def run_digests(monkeypatch, workdir, data, order):
    """SHA-256 of every file analyze and triples write, by name, and the report."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    common = ["--data", str(data), "--params", PARAMS_JSON, "--order", str(order),
              "--tolerance", "0.005"]
    # report.json echoes the out_dir it was given: the same relative name in
    # every working directory keeps its bytes comparable.
    assert main(["analyze", *common, "--out-dir", "analyze", "--replicas", "1000",
                 "--seed", "0"]) == EXIT_OK
    assert main(["triples", *common, "--out-dir", "triples"]) == EXIT_OK
    digests = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return digests, json.loads((workdir / "analyze" / "report.json").read_text())


@pytest.mark.parametrize("order", [3, 4])
def test_artifacts_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch, order):
    data = tmp_path / "spectrum.csv"
    write_dataset_csv(generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, 2), data)
    digests, report = run_digests(monkeypatch, tmp_path / "default", data, order)
    assert len(digests) == 7
    tuples = report["n_tuples"]
    assert tuples > (10 if order == 3 else 200)
    assert report["n_violations_observed"] > 0 and report["chi2_quantum"] > 0.0
    for rows in (1, 7, tuples + 1):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", rows)
        got, got_report = run_digests(monkeypatch, tmp_path / f"chunk_{rows}", data, order)
        assert got == digests, rows
        for field in ("n_violations_observed", "chi2_quantum", "z_score"):
            assert got_report[field] == report[field], (rows, field)


def test_no_pass_over_the_table_holds_a_whole_float_column(tmp_path, monkeypatch):
    # The 29 560 order-4 tuples of a 100-bin spectrum: one float column is
    # 236 480 bytes. At 64 rows a chunk, building the table, counting its
    # violations, summing its chi-square and writing its tuples.csv each
    # hold far less above what they start from, as long as no column is
    # ever whole.
    points = attach_phases(
        generate_synthetic(PARAMS, "quantum", 100, 0.5, 50.0, 0.05, seed=0), PARAMS
    )
    tuples = select_ntuples(points, 4, 0.005)
    column_bytes = len(tuples) * 8
    assert column_bytes == 236_480
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 64)
    float_text(np.array([0.5]))  # the formatter's tables are built on first use
    peaks = {}

    def traced(name, run):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        peaks[name] = tracemalloc.get_traced_memory()[1] - start
        return result

    tracemalloc.start()
    try:
        table = traced("table", lambda: tuple_table(tuples, points, PARAMS))
        observed = traced("count", lambda: sum(
            int(np.count_nonzero(flags)) for flags, in table_chunks(table, ("violation",))
        ))
        chi2, dof = traced("chi2", lambda: chi_square_quantum(table_chunks(table, K_COLUMNS)))
        traced("write", lambda: emit_report(table, tmp_path / "tuples.csv"))
    finally:
        tracemalloc.stop()
    assert 0 < observed < len(tuples) and dof == len(tuples) - 1 and chi2 > 0.0
    assert max(peaks.values()) < column_bytes, peaks
