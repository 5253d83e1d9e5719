"""Workload definitions and the spectra each run analyses.

Every workload draws its spectra from a fixed pool of synthetic spectra, so
that reference.json can hold the expected output for every spectrum a seed
can select. The run seed picks which pool entries a run analyses; the
program itself only ever sees the CSV files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The MINOS-like configuration of configs/minos_like.json.
PARAMS = {"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}
E_MIN_GEV = 0.5
E_MAX_GEV = 50.0
REL_ERROR = 0.05
TOLERANCE = 0.005
PSEUDO_SEED = 0

WARMUP_SPECTRUM = "warmup"
WARMUP_REPLICAS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    bins: int
    order: int
    replicas: int
    truths: tuple[str, ...]  # alternated within a run
    pool: int  # generator seeds per truth
    per_run: int  # spectra analysed per run, cycled through the timed loop


# Why each workload exists is stated in BENCHMARK.json. In short: minos-n3 is
# the power/calibration traffic, dominated by sampling; minos-n4 takes the
# same spectra down the order >= 4 null; fine-n4 stresses selection, the
# per-tuple objects, artifact writing and memory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("minos-n3", 30, 3, 100_000, ("quantum", "classical_flat"), 32, 8),
        Workload("minos-n4", 30, 4, 100_000, ("quantum", "classical_flat"), 32, 8),
        Workload("fine-n4", 100, 4, 1000, ("quantum",), 16, 3),
    )
}


def spectrum_name(truth: str, bins: int, gen_seed: int) -> str:
    return f"{truth[0]}{bins}-{gen_seed:02d}"


def spectra_for(workload: Workload, seed: int) -> list[tuple[str, str, int]]:
    """(name, truth, generator seed) of the spectra a run with this seed analyses.

    Workloads with equal bin counts select the same spectra for equal seeds,
    so minos-n3 and minos-n4 analyse one spectrum set at two orders.
    """
    rng = random.Random(f"{workload.bins}/{seed}")
    per_truth = workload.per_run // len(workload.truths)
    picks = [rng.sample(range(workload.pool), per_truth) for _ in workload.truths]
    return [
        (spectrum_name(truth, workload.bins, gen_seed), truth, gen_seed)
        for column in zip(*picks)
        for truth, gen_seed in zip(workload.truths, column)
    ]


def pool_for(workload: Workload) -> list[tuple[str, str, int]]:
    """Every spectrum any seed can select for this workload."""
    return [
        (spectrum_name(truth, workload.bins, gen_seed), truth, gen_seed)
        for truth in workload.truths
        for gen_seed in range(workload.pool)
    ]


def analyze_argv(workload: Workload, spectrum: str) -> list[str]:
    """Arguments of one `nulgi analyze`, run from a fresh directory beside spectra/.

    The paths are relative and the same for every run of a spectrum, because
    report.json echoes them and its digest is compared with the reference.
    """
    return [
        "analyze",
        "--data", f"../spectra/{spectrum}.csv",
        "--out-dir", "out",
        "--params", json.dumps(PARAMS),
        "--order", str(workload.order),
        "--tolerance", repr(TOLERANCE),
        "--replicas", str(workload.replicas),
        "--seed", str(PSEUDO_SEED),
    ]


def warmup_argv(workload: Workload) -> list[str]:
    argv = analyze_argv(workload, WARMUP_SPECTRUM)
    argv[argv.index("--replicas") + 1] = str(WARMUP_REPLICAS)
    return argv


def write_spectra(specs: list[tuple[str, str, int]], bins: int, out_dir: Path) -> None:
    """Generate the given spectra with nulgi and write them as CSV files.

    Also writes the small warm-up spectrum every workload child analyses
    once before its timed loop.
    """
    from nulgi.dataio import write_dataset_csv
    from nulgi.oscillation import OscParams
    from nulgi.synthetic import generate_synthetic

    params = OscParams(**PARAMS)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(name, truth, gen_seed, bins) for name, truth, gen_seed in specs]
    jobs.append((WARMUP_SPECTRUM, "quantum", 0, 30))
    for name, truth, gen_seed, n_bins in jobs:
        points = generate_synthetic(
            params, truth, n_bins, E_MIN_GEV, E_MAX_GEV, REL_ERROR, gen_seed
        )
        write_dataset_csv(points, out_dir / f"{name}.csv")
