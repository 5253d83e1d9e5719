"""scripts/peak_rss.py runs one analysis in a child and reports its peak."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from nulgi.cli import EXIT_OK, main
from nulgi.dataio import write_dataset_csv
from nulgi.oscillation import OscParams
from nulgi.selection import attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)


def test_peak_rss_reports_the_tuples_and_the_peak_of_a_small_analysis(tmp_path, monkeypatch):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--bins", "30", "--order", "3", "--replicas", "100",
         "--seed", "1", "--digests"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    head, *digests = result.stdout.splitlines()
    found = re.fullmatch(
        r"bins 30 order 3 replicas 100 seed 1: exit 0, (\d+) tuples, peak (\d+\.\d) MB", head
    )
    assert found, head
    points = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, 1)
    assert int(found[1]) == len(select_ntuples(attach_phases(points, PARAMS), 3, 0.005)) > 0
    # The interpreter and its imports alone take tens of MB.
    assert 10.0 < float(found[2]) < 1000.0
    # Each artifact's SHA-256 and size in bytes, in name order, are those of
    # the same analysis run here.
    monkeypatch.chdir(tmp_path)
    write_dataset_csv(points, "spectrum.csv")
    assert main([
        "analyze", "--data", "spectrum.csv", "--out-dir", "out", "--params", json.dumps(
            {"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}
        ), "--order", "3", "--replicas", "100", "--seed", "1",
    ]) == EXIT_OK
    assert [line.split("  ") for line in digests] == [
        [hashlib.sha256(path.read_bytes()).hexdigest(), str(path.stat().st_size), path.name]
        for path in sorted((tmp_path / "out").iterdir())
    ]
    assert [line.split("  ")[2] for line in digests] == [
        "curve.csv", "null_counts.csv", "points.csv", "report.json", "tuples.csv"
    ]
