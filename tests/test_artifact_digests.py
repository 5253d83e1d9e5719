"""Smoke test of scripts/artifact_digests.py on a 2-spectrum grid."""

import hashlib
import importlib.util
import re
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", _SCRIPT)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)

# One quantum spectrum per pool, each at the pool's own bins and replicas.
SMALL_POOLS = tuple(
    (pool, bins, truths[:1], 1, replicas)
    for pool, bins, truths, _, replicas in artifact_digests.POOLS
)

ANALYZE_FILES = ("curve.csv", "null_counts.csv", "points.csv", "report.json", "tuples.csv")


def digest_lines(capsys) -> list:
    assert artifact_digests.main(["--spectra", "1"]) == 0
    return [line.split("  ", 1) for line in capsys.readouterr().out.splitlines()]


def test_each_output_prints_one_stable_digest(capsys, monkeypatch):
    monkeypatch.setattr(artifact_digests, "POOLS", SMALL_POOLS)
    lines = digest_lines(capsys)
    runs = []
    for name in ("minos-quantum-00", "fine-quantum-00"):
        runs.append((f"simulate {name}", ["spectrum.csv"]))
        for order in (3, 4):
            runs.append((f"triples {name} n{order}", ["out/tuples.csv"]))
            runs.append((f"analyze {name} n{order}", [f"out/{f}" for f in ANALYZE_FILES]))
            if order == 3:
                runs.append((f"analyze {name} n3 fit-curve", [f"out/{f}" for f in ANALYZE_FILES]))
    runs += [("curve stdout", []), ("curve 1000", ["curve.csv"])]
    assert [label for _, label in lines] == [
        line for run, files in runs for line in (run, *(f"{run} {f}" for f in files))
    ]
    digests = [digest for digest, _ in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
    # Every run prints something of its own, a fit-curve run its fitted
    # model too; its curve.csv holds the fit.
    outputs = [digest for digest, label in lines if label in dict(runs)]
    assert len(set(outputs)) == len(outputs) == len(runs)
    by_label = {label: digest for digest, label in lines}
    fits = [run for run, _ in runs if run.endswith("fit-curve")]
    assert len(fits) == 2
    for fit in fits:
        plain = fit.removesuffix(" fit-curve")
        assert by_label[f"{fit} out/curve.csv"] != by_label[f"{plain} out/curve.csv"]
    # A second pass over the same grid prints the same lines.
    assert digest_lines(capsys) == lines


def test_a_digest_covers_the_exit_code_the_output_and_every_file(tmp_path):
    curve = ["curve", "--params", artifact_digests.PARAMS, "--out", "c.csv", "--points"]
    runs = {}
    # Curves of 5 and 6 points print the same line and differ in c.csv only.
    for points in ("5", "6", "1"):
        workdir = tmp_path / points
        workdir.mkdir()
        runs[points] = artifact_digests.run_digests([*curve, points], workdir)
    (five_out, five_csv), (six_out, six_csv) = runs["5"], runs["6"]
    assert five_out[0] == six_out[0] and five_out[1] is None
    assert five_csv[1] == six_csv[1] == "c.csv" and five_csv[0] != six_csv[0]
    assert five_csv[0] == hashlib.sha256((tmp_path / "5" / "c.csv").read_bytes()).hexdigest()
    # One point exits 3 and writes nothing.
    ((one_out, one_file),) = runs["1"]
    assert one_file is None and one_out != five_out[0]
    assert not (tmp_path / "1" / "c.csv").exists()
