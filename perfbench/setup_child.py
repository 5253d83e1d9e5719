"""Benchmark set-up in a fresh interpreter: import nulgi, write the run's spectra.

run.py times this whole process as one set-up; every `nulgi analyze` a user
starts pays the same import.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import nulgi.cli  # noqa: F401  (the import every CLI run pays)

    workload = workloads.WORKLOADS[args.workload]
    workloads.write_spectra(
        workloads.spectra_for(workload, args.seed), workload.bins, args.out
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
