"""Regenerate reference.json: the expected output of every pool spectrum.

Runs each workload's analysis on every spectrum any seed can select, with
the same arguments and directory layout as the benchmark, and records the
tuple count, observed violations, null moments with their Monte Carlo
errors, z and the report.json digest. Run it from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [--workload NAME ...]

Only regenerate on purpose: a PR that refactors nulgi must match the
committed reference, not replace it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads
from check import reference_entry
from child import run_one

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", type=Path, default=HERE / ".work" / "reference")
    args = parser.parse_args()

    import nulgi.cli

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        shutil.rmtree(args.work, ignore_errors=True)
        workloads.write_spectra(workloads.pool_for(workload), workload.bins,
                                args.work / "spectra")
        entries = {}
        for spectrum, _, _ in workloads.pool_for(workload):
            directory = args.work / spectrum
            record = run_one(nulgi.cli.main, workloads.analyze_argv(workload, spectrum),
                             directory)
            if record["rc"] != 0:
                raise SystemExit(f"{name}/{spectrum}: analyze failed: {record}")
            entries[spectrum] = reference_entry(directory / "out")
            print(f"{name} {spectrum} {record['wall_s']:.2f}s {entries[spectrum]}",
                  file=sys.stderr)
        reference[name] = entries
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(args.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
