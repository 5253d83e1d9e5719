"""analyze and triples write their artifacts whole or not at all, in one
checked pass.

Every file of a run is written under a temporary name in its out dir
(dataio.staged) and put onto its artifact name only once all of them are
whole. So a run that raises or is killed while it writes leaves no partial
file under an artifact's name, and an earlier run's artifacts keep their
bytes. The tuple table is computed once for the count and chi-square and
once for the writer, which checks its floats as it formats them.
"""

import dataclasses
import math
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nulgi import dataio, pipeline
from nulgi.dataio import staging_path, write_dataset_csv
from nulgi.errors import DomainError
from nulgi.montecarlo import PseudoConfig
from nulgi.oscillation import OscParams
from nulgi.pipeline import RunConfig, run_analysis, run_triples
from nulgi.synthetic import generate_synthetic

from table_columns import TUPLE_COLUMNS

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
ARTIFACTS = ("report.json", "tuples.csv", "points.csv", "curve.csv", "null_counts.csv")
SRC = Path(__file__).resolve().parents[1] / "src"


def spectrum_csv(tmp_path, first_sigma=None):
    points = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    if first_sigma is not None:
        sigma = points.sigma_stat.copy()
        sigma[0] = first_sigma
        points = dataclasses.replace(points, sigma_stat=sigma)
    path = tmp_path / ("spectrum.csv" if first_sigma is None else "faulty.csv")
    write_dataset_csv(points, path)
    return path


def config(data, out, order=4):
    return RunConfig(
        params=PARAMS, data=data, out_dir=out, order=order,
        pseudo=PseudoConfig(replicas=1000, seed=0),
    )


def earlier_run(tmp_path):
    """An out dir holding a whole run's artifacts, and their bytes by name."""
    out = tmp_path / "out"
    run_analysis(config(spectrum_csv(tmp_path), out, order=3))
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(written) == sorted(ARTIFACTS)
    return out, written


def assert_left_as(out, written):
    """out holds exactly written under the artifact names, and no staging file."""
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier"])
def test_a_non_finite_computed_cell_leaves_no_artifact(tmp_path, monkeypatch, earlier):
    # A valid spectrum whose first sd, 1e200, squares past the largest
    # double: the k_sigma of the tuples that read it is inf, in chunks past
    # the first at one row a chunk.
    out, written = earlier_run(tmp_path) if earlier else (tmp_path / "out", {})
    data = spectrum_csv(tmp_path, first_sigma=1e200)
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 1)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="'k_sigma'"):
        run_analysis(config(data, out))
    assert_left_as(out, written)


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier"])
def test_a_triples_run_with_a_non_finite_cell_leaves_no_file(tmp_path, monkeypatch, earlier):
    # triples writes analyze's tuples.csv, k_sigma and all, through the same
    # staged writer: the 1e200 sd that stops an analysis stops it too, and
    # an earlier run's two files keep their bytes.
    out, written = tmp_path / "tri", {}
    if earlier:
        run_triples(config(spectrum_csv(tmp_path), out))
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(written) == ["points.csv", "tuples.csv"]
    data = spectrum_csv(tmp_path, first_sigma=1e200)
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 1)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="'k_sigma'"):
        run_triples(config(data, out))
    assert_left_as(out, written)


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier"])
def test_a_writer_that_raises_after_its_first_chunk_leaves_no_partial_file(
    tmp_path, monkeypatch, earlier
):
    out, written = earlier_run(tmp_path) if earlier else (tmp_path / "out", {})
    data = spectrum_csv(tmp_path)
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 7)
    write_rows, chunks = dataio._RowWriter.write_rows, []

    def failing(self, file, cells, rows):
        if chunks:
            raise OSError("disk full")
        chunks.append(rows)
        write_rows(self, file, cells, rows)

    monkeypatch.setattr(dataio._RowWriter, "write_rows", failing)
    with pytest.raises(OSError, match="disk full"):
        run_analysis(config(data, out))
    assert chunks == [7]
    assert_left_as(out, written)


# The child: an analysis whose writer kills its own process with SIGKILL
# once the first chunk of the tuple table is on disk.
KILLED_CHILD = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from nulgi import dataio
from nulgi.cli import main
dataio.CHUNK_ROWS = 7
write_rows = dataio._RowWriter.write_rows
def killing(self, file, cells, rows):
    write_rows(self, file, cells, rows)
    file.flush()
    os.kill(os.getpid(), signal.SIGKILL)
dataio._RowWriter.write_rows = killing
main(sys.argv[2:])
"""


def test_a_run_killed_mid_write_leaves_no_partial_file(tmp_path):
    out, written = earlier_run(tmp_path)
    argv = [
        "analyze", "--data", str(spectrum_csv(tmp_path)), "--out-dir", str(out),
        "--params", '{"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}',
        "--order", "4", "--replicas", "1000", "--seed", "0",
    ]
    child = subprocess.run(
        [sys.executable, "-c", KILLED_CHILD, str(SRC), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    # The kill came mid-write: the tuple table's first chunk is on disk
    # under its staging name, and every artifact name keeps its old bytes.
    partial = staging_path(out / "tuples.csv").read_text().splitlines()
    assert partial[0] == ",".join(TUPLE_COLUMNS) and len(partial) == 8
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == written
    # The next run truncates the staging files and leaves none behind.
    run_analysis(config(spectrum_csv(tmp_path), out, order=3))
    assert_left_as(out, written)


def test_the_tuple_table_is_computed_once_to_count_and_once_to_write(tmp_path, monkeypatch):
    # _k_from_survival runs twice each time a chunk of the table is computed:
    # for the measured K and for the model's.
    calls = []

    def counted(comp_probs, target_probs):
        calls.append(len(target_probs))
        return k_from_survival(comp_probs, target_probs)

    k_from_survival = pipeline._k_from_survival
    data = spectrum_csv(tmp_path)
    monkeypatch.setattr(pipeline, "_k_from_survival", counted)
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 7)
    report = run_analysis(config(data, tmp_path / "out"))
    chunks = math.ceil(report.n_tuples / 7)
    assert chunks > 10
    assert len(calls) == 2 * 2 * chunks
    assert sum(calls) == 2 * 2 * report.n_tuples
