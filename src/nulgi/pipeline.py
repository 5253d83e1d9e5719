"""End-to-end analysis: dataset in, significance report and artifacts out."""

from __future__ import annotations

import dataclasses
import math
import numbers
import warnings as _warnings
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataio import TupleTable, emit_report, parse_dataset, write_table_csv
from .errors import DataError, DomainError
from .leggett_garg import lgi_bound
from .montecarlo import (
    MIN_REPLICAS_FOR_CLAIM,
    PseudoConfig,
    SignificanceReport,
    chi_square_quantum,
    classical_null_distribution,
    fit_beta_binomial,
    z_significance,
)
from .oscillation import OscParams, accumulated_phase, survival_probability
from .selection import (
    MISMATCH_MODES,
    MeasuredPoint,
    TupleSet,
    attach_phases,
    select_ntuples,
)

MODES = ("analyze", "simulate", "curve", "triples")
STANDARD_ORDERS = (3, 4)

CHI2_CAVEAT = (
    "Tuples share measured points and their K values are strongly correlated; "
    "the chi-square against the model curve treats them as independent and is "
    "a descriptive summary, not a calibrated goodness-of-fit."
)

# fit_curve_params scans dm2 on a FIT_GRID-point log grid over [FIT_DM2_LO,
# FIT_DM2_HI] in eV^2, then FIT_ROUNDS - 1 times on a grid of the same size
# within four steps of the best point.
FIT_DM2_LO = 1.0e-4
FIT_DM2_HI = 1.0e-2
FIT_GRID = 201
FIT_ROUNDS = 4


@dataclass
class RunConfig:
    """Everything one invocation needs; mirrored field-for-field by the config JSON."""

    params: OscParams
    mode: str = "analyze"
    data: Optional[Path] = None
    out_dir: Path = Path("nulgi_out")
    order: int = 3
    tolerance: float = 0.005
    mismatch_mode: str = "relative"
    pseudo: PseudoConfig = field(default_factory=PseudoConfig)
    truth: str = "quantum"
    bins: int = 30
    e_min_gev: float = 0.5
    e_max_gev: float = 50.0
    rel_error: float = 0.05
    flat_p: float = 0.5
    fit_curve: bool = False
    allow_high_order: bool = False

    def __post_init__(self) -> None:
        # A bool is a number to Python, and a string would fail only where
        # the field is first compared, with a TypeError.
        for name in ("tolerance", "e_min_gev", "e_max_gev", "rel_error", "flat_p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a number, got {value!r}")
        # Any JSON value has a truth value: "no" would run the fit.
        for name in ("fit_curve", "allow_high_order"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise DomainError(f"{name} must be true or false, got {value!r}")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.order, int) or self.order < 3:
            raise DomainError(f"order must be an integer >= 3, got {self.order}")
        if self.order not in STANDARD_ORDERS and not self.allow_high_order:
            raise DomainError(
                f"order {self.order} is outside the validated range {STANDARD_ORDERS}; "
                "set allow_high_order to proceed anyway"
            )
        if not self.tolerance > 0.0:
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if self.mismatch_mode not in MISMATCH_MODES:
            raise DomainError(f"mismatch_mode must be one of {MISMATCH_MODES}")


def curve_table(
    params: OscParams, e_min_gev: float, e_max_gev: float, points: int = 400
) -> tuple[np.ndarray, np.ndarray]:
    """Dense model survival curve on a log energy grid."""
    if not 0.0 < e_min_gev < e_max_gev:
        raise DomainError("need 0 < e_min_gev < e_max_gev")
    if points < 2:
        raise DomainError(f"points must be at least 2, got {points}")
    energies = np.geomspace(e_min_gev, e_max_gev, points)
    psis = np.array([accumulated_phase(params, e) for e in energies])
    return energies, np.asarray(survival_probability(params.sin2_2theta, psis))


def fit_curve_params(dataset: Sequence[MeasuredPoint], params: OscParams) -> OscParams:
    """Least-squares fit of the mass splitting and amplitude to the data.

    For a fixed splitting the model is linear in the amplitude, so the
    optimal amplitude has a closed form; the splitting is scanned on a log
    grid which is then refined around the minimum. Deterministic; returns
    params with the two fitted fields replaced.
    """
    energies = np.array([p.energy_gev for p in dataset])
    probs = np.array([p.p_mumu for p in dataset])
    sigmas = np.array([max(p.sigma, 1.0e-6) for p in dataset])
    weights = 1.0 / sigmas**2

    base = dataclasses.replace(params, dm2=1.0)
    psi_per_dm2 = np.array([accumulated_phase(base, e) for e in energies])

    def best_for(dm2_values: np.ndarray) -> tuple[float, float, float]:
        best = (math.inf, params.dm2, params.sin2_2theta)
        for dm2 in dm2_values:
            q = np.sin(psi_per_dm2 * dm2) ** 2
            denom = float(np.sum(weights * q * q))
            amp = 0.0 if denom == 0.0 else float(
                np.sum(weights * q * (1.0 - probs)) / denom
            )
            amp = min(1.0, max(0.0, amp))
            chi2 = float(np.sum(weights * (probs - (1.0 - amp * q)) ** 2))
            if chi2 < best[0]:
                best = (chi2, float(dm2), amp)
        return best

    lo, hi = FIT_DM2_LO, FIT_DM2_HI
    best = best_for(np.geomspace(lo, hi, FIT_GRID))
    for _ in range(FIT_ROUNDS - 1):
        step = (hi / lo) ** (1.0 / (FIT_GRID - 1))
        lo = best[1] / step**4
        hi = best[1] * step**4
        best = best_for(np.geomspace(lo, hi, FIT_GRID))
    return dataclasses.replace(params, dm2=best[1], sin2_2theta=best[2])


def _k_from_survival(comp_probs: np.ndarray, target_probs: np.ndarray) -> np.ndarray:
    n = comp_probs.shape[1] + 1
    return (2 - n) + 2.0 * reduce(np.add, comp_probs.T) - 2.0 * target_probs


def tuple_table(
    tuples: TupleSet, points: Sequence[MeasuredPoint], model_params: OscParams
) -> TupleTable:
    """Every per-tuple column of an analysis, each computed once as an array.

    The K values repeat, tuple for tuple, the scalar float forms of
    tests/oracles.py in the same order: k_value those of
    k_n_quantum_from_survival on the measured points, k_sigma those of
    k_n_uncertainty (sd per point from math.hypot), k_classical_data those
    of k_n_classical on C = 2 P - 1, and k_quantum_model those of
    k_n_quantum_from_survival on the model curve at the component phases
    and their sum. Sums run left to right in component order and products
    likewise (functools.reduce), as Python's sum and math.prod do on
    floats, so every column equals its scalar counterpart bit for bit.
    A classical K above n - 2 would be a bug upstream and raises.
    """
    psi = np.array([p.psi for p in points], dtype=float)
    prob = np.array([p.p_mumu for p in points], dtype=float)
    sigma = np.array([p.sigma for p in points], dtype=float)
    comp, target, n = tuples.comp_idx, tuples.target_idx, tuples.n

    phases = psi[comp]
    phase_sum = reduce(np.add, phases.T)
    k_value = _k_from_survival(prob[comp], prob[target])
    comp_sd, target_sd = sigma[comp], sigma[target]
    k_sigma = 2.0 * np.sqrt(reduce(np.add, (comp_sd * comp_sd).T) + target_sd * target_sd)
    corr = 2.0 * prob[comp] - 1.0
    k_classical = reduce(np.add, corr.T) - reduce(np.multiply, corr.T)
    if (k_classical > n - 2 + 1e-9).any():
        raise DomainError(f"classical K above its bound {n - 2}")
    s2t = model_params.sin2_2theta
    k_model = _k_from_survival(
        survival_probability(s2t, psi)[comp], survival_probability(s2t, phase_sum)
    )
    return TupleTable({
        "component_indices": comp,
        "target_index": target,
        "n": np.full(len(tuples), n),
        "mismatch": tuples.mismatch,
        "component_phases": phases,
        "phase_sum": phase_sum,
        "target_psi": psi[target],
        "k_value": k_value,
        "k_sigma": k_sigma,
        "violation": k_value > lgi_bound(n),
        "k_classical_data": k_classical,
        "k_quantum_model": k_model,
    })


# Tuple tables, each a projection of the columns tuple_table builds:
# analyze's tuples.csv, its K-versus-phase-sum table, and the tuples.csv of
# triples. Index and phase lists are joined by ';' and a violation is 0 or 1.
TUPLE_COLUMNS = (
    "component_indices", "target_index", "n", "mismatch", "component_phases",
    "phase_sum", "target_psi", "k_value", "k_sigma", "violation",
    "k_classical_data", "k_quantum_model",
)
K_VS_PHASE_COLUMNS = (
    "phase_sum", "k_value", "k_sigma", "k_classical_data", "k_quantum_model",
    "violation",
)
TRIPLES_COLUMNS = (
    "component_indices", "target_index", "n", "mismatch", "phase_sum",
    "k_value", "violation",
)


def _config_echo(config: RunConfig, fitted: Optional[OscParams]) -> dict:
    echo = dataclasses.asdict(config)
    echo["data"] = None if config.data is None else str(config.data)
    echo["out_dir"] = str(config.out_dir)
    if fitted is not None:
        echo["fitted_params"] = dataclasses.asdict(fitted)
    return echo


def _analyze(
    points: Sequence[MeasuredPoint], config: RunConfig
) -> tuple[SignificanceReport, Optional[np.ndarray]]:
    """Shared implementation; returns the report plus the raw null counts."""
    if len(points) < config.order:
        raise DataError(
            f"need at least {config.order} points for order {config.order}, "
            f"got {len(points)}"
        )
    decorated = attach_phases(points, config.params)
    tuples = select_ntuples(
        decorated, config.order, config.tolerance, config.mismatch_mode
    )

    if not tuples:
        report = SignificanceReport(
            n_tuples=0,
            n_violations_observed=None,
            null_fit=None,
            z_score=None,
            chi2_quantum=None,
            dof=None,
            status="no_tuples",
            config=_config_echo(config, None),
            tuples=tuple_table(tuples, decorated, config.params),
            notes=["No phase tuples satisfied the sum rule at this tolerance."],
        )
        return report, None

    report_warnings: list[str] = []
    fitted = None
    model_params = config.params
    if config.fit_curve:
        fitted = fit_curve_params(decorated, config.params)
        model_params = fitted

    table = tuple_table(tuples, decorated, model_params)
    observed = int(np.count_nonzero(table["violation"]))

    replicas = config.pseudo.replicas
    if replicas < MIN_REPLICAS_FOR_CLAIM:
        report_warnings.append(
            f"only {replicas} replicas; significance estimates are unstable"
        )
    if all(p.sigma == 0.0 for p in decorated):
        report_warnings.append("all uncertainties are zero; the null is a point mass")

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        counts = classical_null_distribution(decorated, tuples, config.pseudo)
    fit = fit_beta_binomial(counts, len(tuples))
    z = z_significance(observed, fit)
    if fit.kind == "degenerate":
        report_warnings.append(
            "null counts carry no variance; z uses the 1/replicas floor"
        )

    try:
        chi2, dof = chi_square_quantum(
            table["k_value"], table["k_sigma"], table["k_quantum_model"]
        )
    except DomainError as exc:
        chi2, dof = None, None
        report_warnings.append(f"chi-square skipped: {exc}")

    report = SignificanceReport(
        n_tuples=len(tuples),
        n_violations_observed=observed,
        null_fit=fit,
        z_score=float(z),
        chi2_quantum=chi2,
        dof=dof,
        status="ok",
        config=_config_echo(config, fitted),
        tuples=table,
        warnings=report_warnings,
        notes=[CHI2_CAVEAT],
    )
    return report, counts


def analyze_dataset(
    points: Sequence[MeasuredPoint], config: RunConfig
) -> SignificanceReport:
    """Run the full significance analysis in memory.

    Attaches phases, selects tuples, evaluates the observed statistic,
    builds the classical null, fits it, and scores the observation. Writes
    nothing; use run_analysis for the artifact-emitting variant.
    """
    report, _ = _analyze(points, config)
    return report


def _write_artifacts(
    report: SignificanceReport,
    points: Sequence[MeasuredPoint],
    config: RunConfig,
    counts: Optional[np.ndarray],
) -> None:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_report(report, out / "report.json", (
        (out / "tuples.csv", TUPLE_COLUMNS), (out / "k_vs_phase.csv", K_VS_PHASE_COLUMNS)
    ))
    if counts is not None:
        values, freq = np.unique(counts, return_counts=True)
        write_table_csv(
            out / "null_counts.csv",
            ("violations", "replicas"),
            [(int(v), int(f)) for v, f in zip(values, freq)],
        )
    if points:
        lo = min(p.energy_gev for p in points)
        hi = max(p.energy_gev for p in points)
        energies, model = curve_table(config.params, lo, hi)
        header = ["energy_gev", "p_model"]
        cols = [energies, model]
        if "fitted_params" in report.config:
            fitted = OscParams(**report.config["fitted_params"])
            cols.append(curve_table(fitted, lo, hi)[1])
            header.append("p_model_fitted")
        write_table_csv(
            out / "curve.csv",
            header,
            [tuple(float(c[i]) for c in cols) for i in range(len(energies))],
        )


def run_analysis(config: RunConfig) -> SignificanceReport:
    """Parse the configured dataset, analyze it, and write all artifacts.

    Writes report.json, tuples.csv, k_vs_phase.csv, null_counts.csv and
    curve.csv into out_dir. Identical datasets and configs produce
    byte-identical artifacts.
    """
    if config.data is None:
        raise DomainError("analysis requires a dataset path")
    points = parse_dataset(config.data)
    report, counts = _analyze(points, config)
    _write_artifacts(report, points, config, counts)
    return report


def run_triples(config: RunConfig) -> TupleTable:
    """Parse the configured dataset, select its tuples and write tuples.csv.

    Returns the same table analyze reports, with the model K taken from
    config.params. Writes nothing when no tuple is selected.
    """
    if config.data is None:
        raise DomainError("tuple selection requires a dataset path")
    points = attach_phases(parse_dataset(config.data), config.params)
    tuples = select_ntuples(
        points, config.order, config.tolerance, config.mismatch_mode
    )
    table = tuple_table(tuples, points, config.params)
    if len(table):
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_report(table, tables=((out / "tuples.csv", TRIPLES_COLUMNS),))
    return table
