#!/usr/bin/env python3
"""Peak resident memory of one `nulgi analyze`, run alone in a fresh process.

Usage, from anywhere:

    python3 scripts/peak_rss.py --bins B [--order N] [--replicas R] [--seed S]
                                [--digests]

It writes the seed-S quantum spectrum of B bins over 0.5-50 GeV at 5%
errors (synthetic.generate_synthetic, the spectra of the benchmark's pools)
into a temporary directory, then runs `nulgi analyze` on it at order N with
R replicas and null seed S, at the CLI's default tolerance, in a child
Python process (an order past 4 with --allow-high-order). The child alone
runs under an address-space limit (RLIMIT_AS) of LIMIT_BYTES, 3 GiB, so a
run that would exhaust the machine fails instead, and it reads its own
peak resident set, VmHWM, from /proc/self/status when the analysis
returns. The script prints one line:

    bins B order N replicas R seed S: exit E, T tuples, peak P MB

with T read from report.json (0 when the run wrote none) and P in MiB.
--digests also prints `<sha256>  <bytes>  <file>` for each artifact the
run wrote: its SHA-256 and its size in bytes.
The temporary directory, artifacts included, is removed at the end. The
peak includes the interpreter and its imports (about 60 MB), so the bytes
an analysis holds per tuple are the slope of P between two sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from nulgi.dataio import write_dataset_csv  # noqa: E402
from nulgi.oscillation import OscParams  # noqa: E402
from nulgi.pipeline import STANDARD_ORDERS  # noqa: E402
from nulgi.synthetic import generate_synthetic  # noqa: E402

PARAMS = {"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}

# The child's address-space limit.
LIMIT_BYTES = 3 * 2**30

# The child: run the CLI, then report its exit code and its own VmHWM.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from nulgi.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "vmhwm_kb": hwm}))
"""


def measure(bins: int, order: int, replicas: int, seed: int, digests: bool = False) -> dict:
    """Run one analysis in a child under the limit; its exit code, tuple
    count, peak in MiB and, with digests, (sha256, bytes, file) per artifact."""
    params = OscParams(**PARAMS)
    with tempfile.TemporaryDirectory(prefix="nulgi_peak_rss_") as work:
        data, out = Path(work) / "spectrum.csv", Path(work) / "out"
        write_dataset_csv(generate_synthetic(params, "quantum", bins, 0.5, 50.0, 0.05, seed), data)
        # Relative paths, which report.json echoes, keep its bytes independent
        # of the temporary directory's name.
        argv = [
            "analyze", "--data", data.name, "--out-dir", out.name,
            "--params", json.dumps(PARAMS), "--order", str(order),
            "--replicas", str(replicas), "--seed", str(seed),
        ] + ([] if order in STANDARD_ORDERS else ["--allow-high-order"])
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(SRC), *argv],
            cwd=work, capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES)),
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            raise RuntimeError(f"the child failed ({child.returncode}): {child.stderr.strip()}")
        result = json.loads(lines[-1])
        report = out / "report.json"
        tuples = json.loads(report.read_text())["n_tuples"] if report.exists() else 0
        files = sorted(path for path in out.rglob("*") if path.is_file()) if out.exists() else []
        return {
            "exit": result["exit"], "tuples": tuples, "peak_mb": result["vmhwm_kb"] / 1024,
            "digests": [
                (hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_size, path.name)
                for path in files
            ] if digests else [],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bins", type=int, required=True)
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--replicas", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args(argv)
    run = measure(args.bins, args.order, args.replicas, args.seed, args.digests)
    print(f"bins {args.bins} order {args.order} replicas {args.replicas} seed {args.seed}: "
          f"exit {run['exit']}, {run['tuples']} tuples, peak {run['peak_mb']:.1f} MB")
    for digest, size, name in run["digests"]:
        print(f"{digest}  {size}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
