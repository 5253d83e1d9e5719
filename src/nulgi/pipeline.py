"""End-to-end analysis: dataset in, significance report and artifacts out."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataio import (
    ComputedColumn,
    PointColumn,
    TupleTable,
    chunk_rows,
    emit_report,
    parse_dataset,
    staged,
    write_report,
)
from .errors import DomainError, check_budget
from .leggett_garg import lgi_bound
from .montecarlo import (
    MIN_REPLICAS_FOR_CLAIM,
    PseudoConfig,
    SignificanceReport,
    chi_square_quantum,
    classical_null_distribution,
    counts_from_law,
    fit_beta_binomial,
    order3_count_law,
    z_significance,
)
from .oscillation import OscParams, phase_scale, survival_probability
from .selection import Spectrum, TupleSet, attach_phases, select_ntuples

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

# Bytes a curve table holds per point: its arrays, written in chunks of
# dataio.CHUNK_ROWS rows (about 40 measured, the slope of peak RSS from 200k
# to 1M points). It stays at 384 so that the --points refusal does not move.
CURVE_POINT_BYTES = 384


@dataclass
class RunConfig:
    """Everything one invocation needs; mirrored field-for-field by the config JSON.

    truth, bins, e_min_gev, e_max_gev, rel_error and flat_p serve simulate
    (and curve its span); analyze reads the ANALYZE_FIELDS.
    """

    params: OscParams
    data: Optional[Path] = None
    out_dir: Path = Path("nulgi_out")
    order: int = 3
    tolerance: float = 0.005
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
        # the field is first compared, with a TypeError. A nan or inf would
        # run, and write Infinity into report.json or inf into a table.
        for name in ("tolerance", "e_min_gev", "e_max_gev", "rel_error", "flat_p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        # Any JSON value has a truth value: "no" would run the fit.
        for name in ("fit_curve", "allow_high_order"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise DomainError(f"{name} must be true or false, got {value!r}")
        if not isinstance(self.order, int) or self.order < 3:
            raise DomainError(f"order must be an integer >= 3, got {self.order}")
        if self.order not in STANDARD_ORDERS and not self.allow_high_order:
            raise DomainError(
                f"order {self.order} is outside the validated range {STANDARD_ORDERS}; "
                "set allow_high_order to proceed anyway"
            )
        if not self.tolerance > 0.0:
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")


def curve_table(
    params: OscParams, e_min_gev: float, e_max_gev: float, points: int = 400
) -> tuple[np.ndarray, np.ndarray]:
    """Dense model survival curve on a log energy grid.

    Each phase is the float accumulated_phase gives for its energy. A
    point count past CURVE_POINT_BYTES of errors.SIZE_BUDGET_BYTES raises
    DomainError.
    """
    if not 0.0 < e_min_gev < e_max_gev:
        raise DomainError("need 0 < e_min_gev < e_max_gev")
    if points < 2:
        raise DomainError(f"points must be at least 2, got {points}")
    check_budget("points", points, CURVE_POINT_BYTES)
    energies = np.geomspace(e_min_gev, e_max_gev, points)
    psis = phase_scale(params) / energies
    return energies, np.asarray(survival_probability(params.sin2_2theta, psis))


def curve_columns(
    params: OscParams, e_min_gev: float, e_max_gev: float, points: int = 400,
    fitted: Optional[OscParams] = None,
) -> TupleTable:
    """The columns of a curve table, for `nulgi curve` and analyze's curve.csv.

    energy_gev and p_model of curve_table, then p_model_fitted, the fitted
    model on the same energies, when fitted is given.
    """
    energies, model = curve_table(params, e_min_gev, e_max_gev, points)
    columns = {"energy_gev": energies, "p_model": model}
    if fitted is not None:
        columns["p_model_fitted"] = curve_table(fitted, e_min_gev, e_max_gev, points)[1]
    return TupleTable(columns)


def fit_curve_params(dataset: Spectrum, params: OscParams) -> OscParams:
    """Least-squares fit of the mass splitting and amplitude to the data.

    For a fixed splitting the model is linear in the amplitude, so the
    optimal amplitude has a closed form; the splitting is scanned on a log
    grid which is then refined around the minimum. Deterministic; returns
    params with the two fitted fields replaced.
    """
    energies, probs = dataset.energy_gev, dataset.p_mumu
    weights = 1.0 / np.maximum(dataset.sigma, 1.0e-6) ** 2

    psi_per_dm2 = phase_scale(dataclasses.replace(params, dm2=1.0)) / energies

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


def _k_from_survival(comp_probs: list, target_probs: np.ndarray) -> np.ndarray:
    n = len(comp_probs) + 1
    return (2 - n) + 2.0 * reduce(np.add, comp_probs) - 2.0 * target_probs


def tuple_table(tuples: TupleSet, points: Spectrum, model_params: OscParams) -> TupleTable:
    """Every per-tuple column of an analysis, made a chunk of rows at a time.

    The table is tuples.csv, column for column, as analyze and triples
    write it: an index list is joined by ';' and a violation is 0 or 1.
    It holds no per-run or per-point value: a row's order n is its
    component count plus one (report.json's config.order), and a point's
    energy and phase are in points.csv (point_columns), once per point.

    The index columns are gathers (PointColumn). The others are
    ComputedColumns of one chunk function, which computes all
    of them for a slice of rows and keeps its last result; a pass over the
    table in dataio.chunk_rows slices holds one chunk of them, never a
    whole float column.

    The K values repeat, tuple for tuple, the scalar float forms of
    tests/oracles.py in the same order: k_value those of
    k_n_quantum_from_survival on the measured points, k_sigma those of
    k_n_uncertainty (sd per point from math.hypot), k_classical_data those
    of k_n_classical on C = 2 P - 1, and k_quantum_model those of
    k_n_quantum_from_survival on the model curve at the component phases
    and their sum. Sums run left to right in component order and products
    likewise (functools.reduce), as Python's sum and math.prod do on
    floats, so every column equals its scalar counterpart bit for bit,
    whatever the chunk. A chunk whose classical K lies above n - 2 would
    be a bug upstream and raises when it is computed.
    """
    psi, prob, sigma = points.psi, points.p_mumu, points.sigma
    comp, target, n = tuples.comp_idx, tuples.target_idx, tuples.n
    s2t = model_params.sin2_2theta
    model_prob = survival_probability(s2t, psi)
    bound = lgi_bound(n)

    @functools.lru_cache(maxsize=1)
    def columns(start: int, stop: int) -> dict:
        # One contiguous array per component: a gather through each
        # component's index column.
        comps = comp[start:stop].T
        rows_target = target[start:stop]
        phase_sum = reduce(np.add, [psi[c] for c in comps])
        comp_prob = [prob[c] for c in comps]
        k_value = _k_from_survival(comp_prob, prob[rows_target])
        comp_var = [np.square(sigma[c]) for c in comps]
        target_sd = sigma[rows_target]
        k_sigma = 2.0 * np.sqrt(reduce(np.add, comp_var) + target_sd * target_sd)
        corr = [2.0 * p - 1.0 for p in comp_prob]
        k_classical = reduce(np.add, corr) - reduce(np.multiply, corr)
        if (k_classical > n - 2 + 1e-9).any():
            raise DomainError(f"classical K above its bound {n - 2}")
        model_comp = [model_prob[c] for c in comps]
        k_model = _k_from_survival(model_comp, survival_probability(s2t, phase_sum))
        return {
            "phase_sum": phase_sum,
            "k_value": k_value,
            "k_sigma": k_sigma,
            "violation": k_value > bound,
            "k_classical_data": k_classical,
            "k_quantum_model": k_model,
        }

    def chunk(rows: slice) -> dict:
        return columns(rows.start, rows.stop)

    def computed(name: str, dtype: type) -> ComputedColumn:
        return ComputedColumn(chunk, name, np.dtype(dtype), len(tuples))

    # Columns of per-point values are gathers, which the writer formats per point.
    point_ids = np.arange(len(psi))
    return TupleTable({
        "component_indices": PointColumn(point_ids, comp),
        "target_index": PointColumn(point_ids, target),
        "mismatch": tuples.mismatch,
        "phase_sum": computed("phase_sum", float),
        "k_value": computed("k_value", float),
        "k_sigma": computed("k_sigma", float),
        "violation": computed("violation", bool),
        "k_classical_data": computed("k_classical_data", float),
        "k_quantum_model": computed("k_quantum_model", float),
    })


# The columns chi_square_quantum reads, in its order.
K_COLUMNS = ("k_value", "k_sigma", "k_quantum_model")


def table_chunks(table: TupleTable, names: Sequence[str]):
    """Per dataio.chunk_rows slice of the table, the named columns' arrays."""
    for rows in chunk_rows(len(table)):
        yield tuple(table.columns[name][rows] for name in names)


def violation_count(table: TupleTable) -> int:
    """How many of the table's tuples violate the bound, read chunk by chunk."""
    return sum(int(np.count_nonzero(flags)) for flags, in table_chunks(table, ("violation",)))


def point_columns(points: Spectrum) -> TupleTable:
    """points.csv, of analyze and triples: each point of the sorted
    spectrum that the tuples' indices refer to, by its index, with its
    energy and its phase."""
    return TupleTable({
        "index": np.arange(len(points)), "energy_gev": points.energy_gev, "psi": points.psi,
    })


# The RunConfig fields analyze reads: report.json echoes these and no others.
ANALYZE_FIELDS = (
    "params", "data", "out_dir", "order", "tolerance", "pseudo", "fit_curve",
    "allow_high_order",
)


def _config_echo(config: RunConfig, fitted: Optional[OscParams]) -> dict:
    echo = {
        name: value for name, value in dataclasses.asdict(config).items()
        if name in ANALYZE_FIELDS
    }
    echo["data"] = None if config.data is None else str(config.data)
    echo["out_dir"] = str(config.out_dir)
    if fitted is not None:
        echo["fitted_params"] = dataclasses.asdict(fitted)
    return echo


def exact_null_law(
    points: Spectrum, tuples: TupleSet, config: RunConfig
) -> Optional[np.ndarray]:
    """The exact law the analysis draws its null counts from, or None.

    Order 3 without systematics, with a positive sigma at every point a
    tuple reads, takes montecarlo.order3_count_law where its tuple graph is
    narrow enough; every other analysis runs the Monte Carlo null.
    """
    if config.order != 3 or config.pseudo.draws_systematics:
        return None
    if not (points.sigma[tuples.component_points()] > 0.0).all():
        return None
    return order3_count_law(points, tuples)


def _dataset(config: RunConfig) -> Spectrum:
    """The configured dataset, parsed; a config without one raises DomainError."""
    if config.data is None:
        raise DomainError("no dataset: set data in the config or pass --data")
    return parse_dataset(config.data)


def _tuples(
    points: Spectrum, config: RunConfig, fit: bool
) -> tuple[Spectrum, TupleSet, TupleTable, Optional[OscParams]]:
    """The front half of analyze and triples: the spectrum with its phases
    attached, its tuples, their tuple_table and, where fit is set and a
    tuple was kept, the fitted model that the table's model K then uses."""
    decorated = attach_phases(points, config.params)
    tuples = select_ntuples(decorated, config.order, config.tolerance)
    fitted = fit_curve_params(decorated, config.params) if fit and tuples else None
    table = tuple_table(tuples, decorated, config.params if fitted is None else fitted)
    return decorated, tuples, table, fitted


def _analyze(
    points: Spectrum, config: RunConfig
) -> tuple[SignificanceReport, Spectrum, TupleTable, np.ndarray, Optional[np.ndarray]]:
    """Shared implementation; returns the report, the spectrum with its
    phases attached, its tuple table, the raw null counts (none where no
    tuple was kept) and the exact null law the counts were drawn from
    (None where the Monte Carlo null ran or no tuple was kept)."""
    decorated, tuples, table, fitted = _tuples(points, config, config.fit_curve)

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
            notes=["No phase tuples satisfied the sum rule at this tolerance."],
        )
        return report, decorated, table, np.zeros(0, dtype=np.int64), None

    report_warnings: list[str] = []
    # One pass over the table's chunks counts the violations and sums the
    # chi-square, which reads every chunk before it raises. Only the
    # chi-square's own faults skip it: a fault of the table (a classical K
    # above its bound) is kept aside when a chunk raises it and raised here.
    observed = 0
    table_fault: list[DomainError] = []

    def k_chunks():
        nonlocal observed
        try:
            for flags, *k_columns in table_chunks(table, ("violation",) + K_COLUMNS):
                observed += int(np.count_nonzero(flags))
                yield k_columns
        except DomainError as exc:
            table_fault.append(exc)

    try:
        chi2, dof = chi_square_quantum(k_chunks())
        chi2_skipped = None
    except DomainError as exc:
        chi2, dof = None, None
        chi2_skipped = f"chi-square skipped: {exc}"
    if table_fault:
        raise table_fault[0]

    replicas = config.pseudo.replicas
    if replicas < MIN_REPLICAS_FOR_CLAIM:
        report_warnings.append(
            f"only {replicas} replicas; significance estimates are unstable"
        )
    if (decorated.sigma == 0.0).all():
        report_warnings.append("all uncertainties are zero; the null is a point mass")

    law = exact_null_law(decorated, tuples, config)
    if law is not None:
        counts = counts_from_law(law, config.pseudo)
    else:
        counts = classical_null_distribution(decorated, tuples, config.pseudo)
    fit = fit_beta_binomial(counts, len(tuples))
    z = z_significance(observed, fit)
    if fit.kind == "degenerate":
        report_warnings.append(
            "null counts carry no variance; z uses the 1/replicas floor"
        )

    if chi2_skipped is not None:
        report_warnings.append(chi2_skipped)

    report = SignificanceReport(
        n_tuples=len(tuples),
        n_violations_observed=observed,
        null_fit=fit,
        z_score=float(z),
        chi2_quantum=chi2,
        dof=dof,
        status="ok",
        config=_config_echo(config, fitted),
        warnings=report_warnings,
        notes=[CHI2_CAVEAT],
    )
    return report, decorated, table, counts, law


def analyze_dataset(
    points: Spectrum, config: RunConfig
) -> tuple[SignificanceReport, TupleTable, Optional[np.ndarray]]:
    """Run the full significance analysis in memory.

    Attaches phases, selects tuples, evaluates the observed statistic,
    builds the classical null, fits it, and scores the observation.
    Returns the report, the table of its tuples and the exact null law
    its counts were drawn from (None where the Monte Carlo null ran or
    no tuple was kept). Writes nothing; use run_analysis for the
    artifact-emitting variant.
    """
    report, _, table, _, law = _analyze(points, config)
    return report, table, law


def _write_artifacts(out_dir: Path, files: dict) -> None:
    """Write a run's files together (dataio.staged): each under a temporary
    name in out_dir, and onto its own name only once all of them are whole.
    files maps each name to its report (write_report) or table
    (emit_report). Every file is written on every run, header-only where
    it has no rows, so none is left from an earlier run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with staged([out / name for name in files]) as opened:
        for file, content in zip(opened, files.values()):
            write = write_report if isinstance(content, SignificanceReport) else emit_report
            write(content, file)


def null_count_columns(counts: np.ndarray) -> TupleTable:
    """The null-count histogram: each count the null drew (violations), in
    ascending order, and how many replicas drew it (replicas)."""
    replicas = np.bincount(counts)
    violations = np.flatnonzero(replicas)
    return TupleTable({"violations": violations, "replicas": replicas[violations]})


def run_analysis(config: RunConfig) -> SignificanceReport:
    """Parse the configured dataset, analyze it, and write all artifacts.

    Writes report.json, tuples.csv, points.csv, curve.csv and
    null_counts.csv into out_dir on every run, tuples.csv and
    null_counts.csv header-only where no tuple was kept. Each fact is
    written once: a tuple's row holds its point indices and the values
    computed for it, and points.csv each point's energy and phase. The
    files are written in one checked pass over the tuple table (a
    non-finite cell raises DomainError as it is formatted) under temporary
    names, and put onto their names only once all of them are whole, so a
    fault or a killed process leaves no partial file under an artifact's
    name and an earlier run's artifacts as they were. The report carries
    the dataset file's SHA-256. Identical datasets and configs produce
    byte-identical artifacts.
    """
    report, points, table, counts, _ = _analyze(_dataset(config), config)
    report.data_sha256 = hashlib.sha256(Path(config.data).read_bytes()).hexdigest()
    lo, hi = points.energy_gev[[0, -1]].tolist()
    fitted = report.config.get("fitted_params")
    _write_artifacts(config.out_dir, {
        "report.json": report,
        "tuples.csv": table,
        "points.csv": point_columns(points),
        "curve.csv": curve_columns(
            config.params, lo, hi, fitted=None if fitted is None else OscParams(**fitted)
        ),
        "null_counts.csv": null_count_columns(counts),
    })
    return report


def run_triples(config: RunConfig) -> TupleTable:
    """Parse the configured dataset, select its tuples and write tuples.csv
    and points.csv.

    The two files are those analyze writes without fit_curve, byte for
    byte: the same front half (_tuples, with the model K from
    config.params) and the same staged, checked writer, so a fault leaves
    no partial file and an earlier run's files as they were. tuples.csv
    is header-only where no tuple is selected. Returns the tuple table.
    """
    points, _, table, _ = _tuples(_dataset(config), config, fit=False)
    _write_artifacts(config.out_dir, {"tuples.csv": table, "points.csv": point_columns(points)})
    return table
