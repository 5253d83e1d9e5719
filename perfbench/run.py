"""nulgi benchmark: closed-loop `nulgi analyze` runs over seeded synthetic spectra.

Usage, from the repository root:

    python3 perfbench/run.py [--workload minos-n3|minos-n4|fine-n4|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded child process (one client,
closed loop: the next analysis starts when the previous one returns). The
timed operation is one in-process `nulgi.cli.main(["analyze", ...])`:
spectrum CSV in, every artifact written, exit code 0. Every analysis is
checked against reference.json afterwards.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the child wraps each layer's functions (see tracing.py), reports
per-layer metrics, and repeats the same analyses untraced to state the
tracing overhead. Full results, provenance and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The whole run must end within 180 s; the child gets what set-up leaves.
RUN_DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv, deadline: float, **kwargs) -> int:
    """Run a child to completion and return its exit code.

    A timer kills the child at the deadline. The wait itself blocks, so the
    parent sees the exit at once; a wait with a timeout polls, in steps of
    up to 50 ms, which would show in setup_s.
    """
    with subprocess.Popen(argv, env=child_env(), cwd=ROOT, **kwargs) as proc:
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            return proc.wait()
        finally:
            timer.cancel()


def provenance(workload: workloads.Workload, seed: int, versions: dict) -> dict:
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nulgi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "spectra": [name for name, _, _ in workloads.spectra_for(workload, seed)],
    }


def run_workload(workload, seed, seconds, trace, reference) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = HERE / ".work" / f"{workload.name}-{seed}-{os.getpid()}"
    results = HERE / "results"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spectra").mkdir(parents=True)
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rc = run_process(
                [sys.executable, str(HERE / "setup_child.py"), "--workload",
                 workload.name, "--seed", str(seed), "--out", str(work / "spectra")],
                deadline,
            )
            setup_times.append(time.perf_counter() - start)
            if rc != 0:
                raise RuntimeError(f"set-up exited with {rc}")

        records_path = work / "records.jsonl"
        log_path = work / "child.log"
        with log_path.open("wb") as log:
            child_rc = run_process(
                [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--work", str(work), "--records", str(records_path),
                 "--spans", str(results / f"{stem}-spans.json")],
                deadline, stdout=subprocess.DEVNULL, stderr=log,
            )
        records = (
            [json.loads(line) for line in records_path.read_text().splitlines()]
            if records_path.exists() else []
        )
        summary = next((r for r in records if r["phase"] == "summary"), None)
        if summary:
            summary.update(next(r for r in records if r["phase"] == "loop"))
        outcome = evaluate(workload, work, records, summary, setup_times, trace, reference)
        outcome["child_rc"] = child_rc
        if child_rc != 0 or summary is None:
            outcome["correct"] = False
            outcome["child_log_tail"] = log_path.read_text(errors="replace")[-2000:]
        outcome["provenance"] = provenance(
            workload, seed, summary["versions"] if summary else {}
        )
        (results / f"{stem}.json").write_text(json.dumps(outcome, indent=1) + "\n")
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(workload, work, records, summary, setup_times, trace, reference) -> dict:
    refs = reference.get(workload.name, {})
    analyses = [r for r in records if r["phase"] in ("timed", "untraced")]
    failures, identical = [], 0
    for r in analyses:
        problems = []
        if r["error"] or r["rc"] != 0:
            problems.append(f"rc={r['rc']} error={r['error']}")
        elif r["spectrum"] not in refs:
            problems.append("no reference entry")
        else:
            problems, same = check.check_analysis(
                work / f"a{r['index']:04d}" / "out", refs[r["spectrum"]], workload.replicas
            )
            identical += same
        r["problems"] = problems
        if problems:
            failures.append({"index": r["index"], "spectrum": r["spectrum"],
                             "problems": problems})
    # An analysis cut short by the child's death was attempted and failed.
    attempted = len(analyses) + (summary is None)
    failed = len(failures) + (summary is None)
    warmup = next((r for r in records if r["phase"] == "warmup"), None)
    warmup_ok = warmup is not None and warmup["rc"] == 0 and not warmup["error"]

    timed = [r for r in records if r["phase"] == "timed"]
    done = [r for r in timed if r["rc"] == 0 and not r["error"]]
    walls = [r["wall_s"] for r in (done or timed)]
    outcome = {
        "workload": workload.name,
        "correct": failed == 0 and warmup_ok and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "failures": failures[:20],
        "setup_times_s": setup_times,
        "analysis_walls_s": walls,
        "tail": metrics.tail_percentile(walls),
        "report_bytes_identical": identical,
        "records": records,
    }
    if trace:
        untraced = [r["wall_s"] for r in records if r["phase"] == "untraced"]
        layer = metrics.per_layer(timed, untraced) if timed else {}
        layer["check.report_bytes_identical"] = identical
        outcome["metrics"] = layer
        outcome["missing_wrap_points"] = summary["missing_wrap_points"] if summary else []
    else:
        outcome["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "analysis_p50_s": statistics.median(walls) if walls else 0.0,
            "analyses_per_s": len(done) / summary["loop_s"] if summary else 0.0,
            "peak_rss_mb": summary["maxrss_kb"] / 1024 if summary else 0.0,
        }
    return outcome


UNITS = {"_s": "s", "per_s": "1/s", "_mb": "MB", "_bytes": "B", "bytes_computed": "B",
         "_rate": "ratio", "_ratio": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    return "count"


def describe(outcome: dict, workload, seed, seconds, trace) -> None:
    print(f"== {workload.name}  seed {seed}  {seconds} s  trace {'on' if trace else 'off'} ==")
    print("provenance: " + json.dumps(outcome["provenance"], sort_keys=True))
    print(f"input: {workload.per_run} spectra of {workload.bins} bins, order "
          f"{workload.order}, {workload.replicas} replicas")
    for name, value in outcome["metrics"].items():
        if name == "check.report_bytes_identical":
            continue  # printed below with its base
        print(f"  {name:34s} {value:.6g} {unit_of(name)}")
    walls = outcome["analysis_walls_s"]
    tail = outcome["tail"]
    if tail:
        print(f"  {'analysis_tail_s':34s} {tail[1]:.6g} s (p{tail[0]} of {len(walls)} analyses)")
    else:
        print(f"  {'analysis_tail_s':34s} n/a ({len(walls)} analyses; needs more "
              f"than {2 * metrics.TAIL_MIN_BEYOND})")
    print(f"  {'failed_frac':34s} {metrics.failed_frac(outcome['failed'], outcome['attempted']):.6g}"
          f" ({outcome['failed']} of {outcome['attempted']} attempted)")
    print(f"  {'check.report_bytes_identical':34s} {outcome['report_bytes_identical']}"
          f" of {outcome['attempted']}")
    for failure in outcome["failures"]:
        print(f"  FAILED analysis {failure['index']} ({failure['spectrum']}): "
              + "; ".join(failure["problems"]))
    if "child_log_tail" in outcome:
        print("  child log tail:\n" + outcome["child_log_tail"])


def result_line(outcomes: list[dict], prefix: bool) -> str:
    result_metrics = {}
    for outcome in outcomes:
        for name, value in outcome["metrics"].items():
            key = f"{outcome['workload']}.{name}" if prefix else name
            result_metrics[key] = {"value": value, "unit": unit_of(name)}
    return json.dumps({
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": result_metrics,
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "nulgi" / "cli.py").is_file():
        print(f"error: no nulgi sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        workload = workloads.WORKLOADS[name]
        outcome = run_workload(workload, args.seed, args.seconds, args.trace, reference)
        describe(outcome, workload, args.seed, args.seconds, args.trace)
        outcomes.append(outcome)
    print(result_line(outcomes, prefix=len(outcomes) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
