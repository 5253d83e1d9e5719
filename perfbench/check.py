"""Output checks of one analysis against its reference entry.

Tuple count and observed violations must match exactly. The null mean and
z must lie within the Monte Carlo error of the reference: a null built from
other draws, or from exact moments, passes; a broken null does not. The
report.json digest is compared separately, as evidence of bit-identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Standard errors allowed, before the sqrt(2) for two independent estimates.
K_SE = 6.0


def null_moments(null_counts_csv: Path) -> dict:
    """Mean and sd of the per-replica violation counts, with their standard errors."""
    rows = null_counts_csv.read_text(encoding="utf-8").splitlines()[1:]
    values, freqs = zip(*((int(v), int(f)) for v, f in (r.split(",") for r in rows)))
    replicas = sum(freqs)
    mean = sum(v * f for v, f in zip(values, freqs)) / replicas
    var = sum(f * (v - mean) ** 2 for v, f in zip(values, freqs)) / replicas
    mu4 = sum(f * (v - mean) ** 4 for v, f in zip(values, freqs)) / replicas
    sd = math.sqrt(var)
    # sd of the sample sd: sqrt(Var(s^2)) / (2 s), Var(s^2) ~ (mu4 - var^2) / R.
    sd_se = math.sqrt(max(mu4 - var * var, 0.0) / replicas) / (2 * sd) if sd > 0 else 0.0
    return {"mean": mean, "mean_se": sd / math.sqrt(replicas), "sd_se": sd_se}


def reference_entry(out_dir: Path) -> dict:
    """The reference fields of one analysis's artifacts."""
    report_bytes = (out_dir / "report.json").read_bytes()
    report = json.loads(report_bytes)
    moments = null_moments(out_dir / "null_counts.csv")
    return {
        "n_tuples": report["n_tuples"],
        "n_violations": report["n_violations_observed"],
        "null_mean": report["null_fit"]["mean_violations"],
        "null_sd": report["null_fit"]["sd_violations"],
        "null_mean_se": moments["mean_se"],
        "null_sd_se": moments["sd_se"],
        "z": report["z_score"],
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
    }


def check_analysis(out_dir: Path, ref: dict, replicas: int) -> tuple[list[str], bool]:
    """(problems, report bytes identical to the reference) for one analysis."""
    try:
        report_bytes = (out_dir / "report.json").read_bytes()
        report = json.loads(report_bytes)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], False
    identical = hashlib.sha256(report_bytes).hexdigest() == ref["report_sha256"]
    problems = []
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}")
    if report.get("n_tuples") != ref["n_tuples"]:
        problems.append(f"n_tuples {report.get('n_tuples')} != {ref['n_tuples']}")
    if report.get("n_violations_observed") != ref["n_violations"]:
        problems.append(
            f"violations {report.get('n_violations_observed')} != {ref['n_violations']}"
        )
    fit = report.get("null_fit") or {}
    mean = fit.get("mean_violations")
    slack = K_SE * math.sqrt(2.0)
    # 3 / replicas: a mean below the Monte Carlo resolution may read as zero.
    mean_tol = slack * ref["null_mean_se"] + 3.0 / replicas
    if mean is None or abs(mean - ref["null_mean"]) > mean_tol:
        problems.append(f"null mean {mean} not within {mean_tol:.3g} of {ref['null_mean']}")
    # A zero-variance reference null gives z no meaning, so z is checked only
    # against a null with spread.
    if ref["null_sd"] > 0:
        z = report.get("z_score")
        z_tol = slack * (ref["null_mean_se"] + abs(ref["z"]) * ref["null_sd_se"]) / ref["null_sd"]
        if z is None or abs(z - ref["z"]) > z_tol:
            problems.append(f"z {z} not within {z_tol:.3g} of {ref['z']}")
    return problems, identical
