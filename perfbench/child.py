"""One workload's child process: `nulgi analyze` in process, in a closed loop.

Run by run.py with the spectra already written under <work>/spectra. The
child caps its own address space first, so a memory blow-up surfaces as a
failed analysis instead of exhausting the machine. Each analysis runs in its
own directory <work>/aNNNN and appends one JSON line to the records file;
the last line is a summary with the peak resident memory and versions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

# Peak address space of fine-n4 is about 1.4 GiB; the cap leaves twice that.
ADDRESS_SPACE_LIMIT = 3 << 30


def cap_address_space(limit: int) -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def artifact_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run_one(main, argv, directory: Path, tracer=None) -> dict:
    """Time one in-process CLI call; the CLI's own output goes to stdout."""
    directory.mkdir()
    os.chdir(directory)
    try:
        start = time.perf_counter()
        try:
            rc = tracer.call("cli", main, argv) if tracer else main(argv)
            error = None
        except Exception as exc:  # the loop keeps going; the failure is recorded
            rc, error = None, repr(exc)
            traceback.print_exc()
        wall = time.perf_counter() - start
    finally:
        os.chdir("..")
    return {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "artifact_bytes": artifact_bytes(directory / "out"),
    }


def loop(workload, spectra, args, main, emit) -> None:
    """Warm up, then run analyses until the time is up; with tracing, repeat untraced."""
    emit({"phase": "warmup", "index": -1, "spectrum": workloads.WARMUP_SPECTRUM,
          **run_one(main, workloads.warmup_argv(workload), Path("warmup"))})

    tracer = Tracer() if args.trace else None
    missing, restore = tracer.install() if tracer else ([], None)
    index = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        spectrum = spectra[index % len(spectra)]
        if tracer:
            tracer.begin(index)
        record = run_one(main, workloads.analyze_argv(workload, spectrum),
                         Path(f"a{index:04d}"), tracer)
        if tracer:
            record["trace"] = tracer.snapshot()
        emit({"phase": "timed", "index": index, "spectrum": spectrum, **record})
        index += 1
    emit({"phase": "loop", "loop_s": time.perf_counter() - loop_start,
          "missing_wrap_points": missing})

    if tracer:
        # The same analyses again without tracing, for the overhead.
        restore()
        for extra in range(index):
            spectrum = spectra[extra % len(spectra)]
            emit({"phase": "untraced", "index": index + extra, "spectrum": spectrum,
                  **run_one(main, workloads.analyze_argv(workload, spectrum),
                            Path(f"a{index + extra:04d}"))})
        if args.spans:
            args.spans.write_text(json.dumps({
                "fields": ["id", "name", "start", "end", "parent", "analysis"],
                "spans": tracer.spans,
                "missing_wrap_points": missing,
            }) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--records", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    cap_address_space(ADDRESS_SPACE_LIMIT)
    import nulgi.cli
    import numpy
    import scipy

    workload = workloads.WORKLOADS[args.workload]
    spectra = [name for name, _, _ in workloads.spectra_for(workload, args.seed)]
    with args.records.resolve().open("a", encoding="utf-8") as records:
        os.chdir(args.work)

        def emit(record: dict) -> None:
            records.write(json.dumps(record) + "\n")
            records.flush()

        loop(workload, spectra, args, nulgi.cli.main, emit)
        emit({
            "phase": "summary",
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "nulgi": getattr(nulgi, "__version__", None),
            },
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
