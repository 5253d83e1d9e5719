#!/usr/bin/env python3
"""SHA-256 digests of every CLI output over a fixed grid, to compare what two trees write.

Each run calls nulgi.cli.main in process, from a fresh directory, with
relative paths (report.json echoes them). It prints one line for its exit
code, stdout and stderr together, `<sha>  <run>`, and one line for each
file it wrote, `<sha>  <run> <file>` by relative path. The grid:

- simulate of each spectrum of the minos pool (30 bins, quantum and
  classical_flat, generator seeds 0-31) and of the fine pool (100 bins,
  quantum, seeds 0-15), as the benchmark's workloads draw them;
- triples of each spectrum at orders 3 and 4;
- analyze of each spectrum at orders 3 and 4, with 100000 replicas on the
  minos pool and 1000 on the fine pool, and at order 3 with --fit-curve, so
  a curve.csv with its fitted column is hashed too;
- curve to stdout, and curve of 1000 points to a file.

Usage, from the repository root:

    python3 scripts/artifact_digests.py [--spectra N] > digests.txt

--spectra N takes the first N generator seeds of each pool and truth. Two
trees write the same bytes when their outputs are equal, and a diff of the
outputs names each output that moved.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nulgi.cli import main as nulgi_main

PARAMS = '{"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}'
# (pool, bins, truths, generator seeds, analyze replicas)
POOLS = (
    ("minos", 30, ("quantum", "classical_flat"), 32, 100_000),
    ("fine", 100, ("quantum",), 16, 1000),
)
ORDERS = (3, 4)


def run_digests(argv: list, workdir: Path) -> list:
    """(SHA-256, file) of one in-process run in workdir.

    The first entry covers the exit code, stdout and stderr, with file None;
    then one entry per file the run wrote, by relative path, in path order.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    before = {path for path in workdir.rglob("*") if path.is_file()}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = nulgi_main(argv)
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        data = part.encode("utf-8")
        digest.update(b"%d:" % len(data) + data)
    written = sorted(path for path in workdir.rglob("*") if path.is_file() and path not in before)
    return [(digest.hexdigest(), None)] + [
        (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(workdir).as_posix())
        for path in written
    ]


def runs(spectra: int):
    """(label, argv, spectrum or None) of every run of the grid, in order."""
    for pool, bins, truths, seeds, replicas in POOLS:
        for seed in range(min(spectra, seeds)):
            for truth in truths:
                name = f"{pool}-{truth}-{seed:02d}"
                yield f"simulate {name}", [
                    "simulate", "--params", PARAMS, "--truth", truth, "--bins", str(bins),
                    "--seed", str(seed), "--out", "spectrum.csv",
                ], name
                for order in ORDERS:
                    selection = [
                        "--params", PARAMS, "--data", f"../{name}/spectrum.csv",
                        "--order", str(order), "--out-dir", "out",
                    ]
                    yield f"triples {name} n{order}", ["triples", *selection], None
                    analyze = ["analyze", *selection, "--replicas", str(replicas), "--seed", "0"]
                    yield f"analyze {name} n{order}", analyze, None
                    if order == 3:
                        yield f"analyze {name} n3 fit-curve", [*analyze, "--fit-curve"], None
    yield "curve stdout", ["curve", "--params", PARAMS], None
    yield "curve 1000", [
        "curve", "--params", PARAMS, "--points", "1000", "--out", "curve.csv",
    ], None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spectra", type=int, default=max(seeds for *_, seeds, _ in POOLS),
        help="generator seeds per pool and truth (default: the whole pools)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, (label, run_argv, spectrum) in enumerate(runs(args.spectra)):
            # A spectrum's directory holds its CSV; every other run gets its own.
            workdir = root / (spectrum or f"run-{i:04d}")
            workdir.mkdir()
            for digest, name in run_digests(run_argv, workdir):
                print(f"{digest}  {label}" + (f" {name}" if name else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
