"""Smoke test of scripts/artifact_digests.py on a 2-spectrum grid."""

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


def digest_lines(capsys) -> list:
    assert artifact_digests.main(["--spectra", "1"]) == 0
    return [line.split("  ", 1) for line in capsys.readouterr().out.splitlines()]


def test_each_run_prints_one_stable_digest(capsys, monkeypatch):
    monkeypatch.setattr(artifact_digests, "POOLS", SMALL_POOLS)
    lines = digest_lines(capsys)
    assert [label for _, label in lines] == [
        *(
            label
            for name in ("minos-quantum-00", "fine-quantum-00")
            for label in (
                f"simulate {name}",
                f"triples {name} n3", f"analyze {name} n3",
                f"triples {name} n4", f"analyze {name} n4",
            )
        ),
        "curve stdout", "curve 1000",
    ]
    digests = [digest for digest, _ in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
    # Every run writes or prints something of its own.
    assert len(set(digests)) == len(digests)
    # A second pass over the same grid prints the same lines.
    assert digest_lines(capsys) == lines


def test_a_digest_covers_the_exit_code_the_output_and_every_file(tmp_path):
    curve = ["curve", "--params", artifact_digests.PARAMS, "--out", "c.csv", "--points"]
    runs = {}
    # Curves of 5 and 6 points print the same line and differ in c.csv only.
    for points in ("5", "6", "1"):
        workdir = tmp_path / points
        workdir.mkdir()
        runs[points] = artifact_digests.run_digest([*curve, points], workdir)
    assert (tmp_path / "5" / "c.csv").is_file() and not (tmp_path / "1" / "c.csv").exists()
    assert len(set(runs.values())) == 3
