#!/usr/bin/env python3
"""Detection power of the order-n analysis versus measurement precision.

Runs the full pipeline on synthetic spectra for a grid of relative errors
under both a quantum truth and a flat classical truth, and prints median
and quantile z-scores per cell. The classical rows double as a calibration
check: their medians should sit near zero.

At order 3 each cell also prints the share of spectra whose exact tail
P(count >= observed), under the null's exact count law, reaches 6 sigma
(p <= Phi(-6)), out of the spectra that have the law; "-" where none does.
"""

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nulgi.montecarlo import PseudoConfig
from nulgi.oscillation import OscParams
from nulgi.pipeline import RunConfig, analyze_dataset
from nulgi.synthetic import TRUTH_MODES, generate_synthetic

SIX_SIGMA_P = ndtr(-6.0)


def exact_tail(law, observed):
    """P(count >= observed) under the exact null law, or None without one."""
    return None if law is None else float(law[observed:].sum())


def z_scores(params, truth, rel_error, args) -> tuple[list, list]:
    """The z of every analysed spectrum, and the exact tails of those that have one.

    Each spectrum is analysed once: its tail reads the law its null was drawn from.
    """
    values, tails = [], []
    for seed in range(args.seeds):
        points = generate_synthetic(
            params, truth, args.bins, args.emin, args.emax, rel_error, seed
        )
        config = RunConfig(
            params=params,
            order=args.order,
            tolerance=args.tolerance,
            pseudo=PseudoConfig(replicas=args.replicas, seed=seed),
        )
        report, _, law = analyze_dataset(points, config)
        if report.status == "ok":
            values.append(report.z_score)
            tail = exact_tail(law, report.n_violations_observed)
            if tail is not None:
                tails.append(tail)
    return values, tails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dm2", type=float, default=2.4e-3)
    ap.add_argument("--sin2-2theta", type=float, default=0.95)
    ap.add_argument("--baseline-km", type=float, default=735.0)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--replicas", type=int, default=20_000)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--tolerance", type=float, default=0.005)
    ap.add_argument("--bins", type=int, default=30)
    ap.add_argument("--emin", type=float, default=0.5)
    ap.add_argument("--emax", type=float, default=50.0)
    ap.add_argument(
        "--rel-errors", type=float, nargs="+", default=[0.08, 0.05, 0.03, 0.02]
    )
    args = ap.parse_args(argv)

    params = OscParams(
        dm2=args.dm2, sin2_2theta=args.sin2_2theta, baseline_km=args.baseline_km
    )

    print(
        f"{args.seeds} seeds, {args.replicas} replicas, order {args.order}, "
        f"tolerance {args.tolerance}"
    )
    print(
        f"{'truth':>16} {'rel_err':>8} {'n':>4} {'z16':>8} {'median':>8} {'z84':>8} "
        f"{'exact>=6s':>10}"
    )
    for truth in TRUTH_MODES:
        for rel_error in args.rel_errors:
            zs, tails = z_scores(params, truth, rel_error, args)
            if not zs:
                print(f"{truth:>16} {rel_error:>8.3f}    no tuples selected")
                continue
            lo, med, hi = np.percentile(zs, [16, 50, 84])
            share = (
                f"{np.mean(np.array(tails) <= SIX_SIGMA_P):.0%} of {len(tails)}"
                if tails else "-"
            )
            print(
                f"{truth:>16} {rel_error:>8.3f} {len(zs):>4} "
                f"{lo:>8.3f} {med:>8.3f} {hi:>8.3f} {share:>10}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
