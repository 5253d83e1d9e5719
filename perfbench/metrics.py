"""Metric arithmetic shared by the runner and its tests."""

from __future__ import annotations

from typing import Optional, Sequence

TAIL_MIN_BEYOND = 10


def tail_percentile(
    values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least min_beyond samples above it.

    Returns (percentile, nearest-rank value), or None when the sample is too
    small for any percentile above the median to have min_beyond samples
    beyond it.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    pct = 100 * (n - min_beyond) // n
    if pct <= 50:
        return None
    rank = (pct * n + 99) // 100  # ceil(pct * n / 100), at most n - min_beyond
    return pct, sorted(values)[rank - 1]


def failed_frac(failed: int, attempted: int) -> float:
    """Failures over every analysis attempted, including ones that crashed."""
    if attempted < 1:
        raise ValueError("no analyses attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def per_layer(traced: Sequence[dict], untraced_walls: Sequence[float]) -> dict:
    """Per-analysis means of the traced run's layer metrics.

    traced holds one record per traced analysis: its wall time and the
    tracer snapshot (self times, call counts and counters). Ratios are taken
    over the sums of their bases.
    """
    runs = len(traced)
    if runs < 1:
        raise ValueError("no traced analyses")

    def total(kind: str, key: str) -> float:
        return sum(r["trace"][kind].get(key, 0) for r in traced)

    def mean(kind: str, key: str) -> float:
        return total(kind, key) / runs

    wall = sum(r["wall_s"] for r in traced) / runs
    self_sum = sum(sum(r["trace"]["self_s"].values()) for r in traced) / runs
    untraced = sum(untraced_walls) / len(untraced_walls) if untraced_walls else 0.0
    combos = total("counts", "selection.combos_scanned")
    null_tuples = total("counts", "montecarlo.null_tuples")
    return {
        "sampling.normal_s": mean("self_s", "sampling.normal"),
        "sampling.draws": mean("counts", "sampling.draws"),
        "montecarlo.null_s": mean("self_s", "montecarlo.null"),
        "montecarlo.replica_tuple_evals": mean("counts", "montecarlo.replica_tuple_evals"),
        "montecarlo.null_bytes_computed": mean("counts", "montecarlo.null_bytes_computed"),
        "montecarlo.null_peak_bytes": mean("counts", "montecarlo.null_peak_bytes"),
        "montecarlo.null_violation_rate": (
            total("counts", "montecarlo.null_mean_count") / null_tuples
            if null_tuples else 0.0
        ),
        "montecarlo.fit_s": mean("self_s", "montecarlo.fit"),
        "montecarlo.chi2_s": mean("self_s", "montecarlo.chi2"),
        "selection.attach_s": mean("self_s", "selection.attach"),
        "selection.select_s": mean("self_s", "selection.select"),
        "selection.evaluate_s": mean("self_s", "selection.evaluate"),
        "selection.combos_scanned": combos / runs,
        "selection.tuples_kept": mean("counts", "selection.tuples_kept"),
        "selection.keep_ratio": (
            total("counts", "selection.tuples_kept") / combos if combos else 0.0
        ),
        "leggett_garg.kvalue_s": mean("self_s", "leggett_garg.kvalue"),
        "leggett_garg.kvalue_calls": mean("calls", "leggett_garg.kvalue"),
        "oscillation.survival_s": mean("self_s", "oscillation.survival"),
        "oscillation.survival_calls": mean("calls", "oscillation.survival"),
        "dataio.parse_s": mean("self_s", "dataio.parse"),
        "dataio.emit_report_s": mean("self_s", "dataio.emit_report"),
        "dataio.write_table_s": mean("self_s", "dataio.write_table"),
        "dataio.artifact_bytes": sum(r["artifact_bytes"] for r in traced) / runs,
        "pipeline.self_s": mean("self_s", "pipeline"),
        "cli.self_s": mean("self_s", "cli"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.self_share": self_sum / wall,
    }
