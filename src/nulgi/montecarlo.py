"""Pseudo-experiment engine: classical null distribution, fit, significance.

The null asks how often measurement noise alone would produce apparent
bound violations if the underlying process obeyed the product rule. Each
replica redraws every correlation estimator as an unbounded normal around
its measured value and evaluates the product-rule form sum(C) - prod(C) on
the tuple's component points. For correlations inside [-1, 1] that form
never exceeds n - 2, so false positives arise exactly when estimator noise
carries a drawn correlation outside the physical interval, which is how
noisy estimates of bounded quantities actually behave. With zero
uncertainties the draws collapse to the data and every replica count is
zero.

Counts of bound violations across replicas are summarized by a
beta-binomial moment fit; shared points make tuples correlated, which is
what the beta-binomial's overdispersion absorbs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .leggett_garg import lgi_bound
from .sampling import (
    STREAM_PSEUDODATA,
    STREAM_SYS_AMPLITUDE,
    STREAM_SYS_PHASE,
    normal,
)
from .selection import MeasuredPoint, TupleSet

MIN_REPLICAS_FOR_CLAIM = 1000

# Budget of one block of the classical null, counted as one float64 row of
# the block's replicas per point (the draws) and per tuple. The block's
# arrays are a few such rows each, which keeps them in a core's L2 cache.
NULL_BLOCK_BYTES = 1 << 19
MIN_BLOCK_REPLICAS = 128


@dataclass(frozen=True)
class PseudoConfig:
    """Knobs for the pseudo-experiment engine.

    tolerance is never read: the engine does not re-select, and the tuples
    come from RunConfig.tolerance. It remains because the report's config
    echo and the accepted pseudo config keys carry it. Systematic nuisances,
    when enabled, are drawn once per replica and shift every point
    coherently, so they are the only cross-bin correlation mechanism.
    """

    replicas: int = 100_000
    seed: int = 0
    tolerance: float = 0.005
    include_systematics: bool = False
    sys_amplitude_sigma: float = 0.0
    sys_phase_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.replicas, int) or self.replicas < 1:
            raise DomainError(f"replicas must be a positive integer, got {self.replicas}")
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.sys_amplitude_sigma < 0.0 or self.sys_phase_sigma < 0.0:
            raise DomainError("systematic sigmas must be non-negative")


@dataclass(frozen=True)
class BetaBinomialFit:
    """Moment fit of per-replica violation counts.

    kind is "beta-binomial" when the counts are overdispersed relative to a
    binomial, "binomial" when not, and "degenerate" when they carry no
    variance at all. alpha and beta are set only in the first case.
    """

    alpha: Optional[float]
    beta: Optional[float]
    trials_n: int
    mean_violations: float
    sd_violations: float
    kind: str
    n_samples: int


@dataclass
class SignificanceReport:
    """Everything run_analysis learned, in one serializable record."""

    n_tuples: int
    n_violations_observed: Optional[int]
    null_fit: Optional[BetaBinomialFit]
    z_score: Optional[float]
    chi2_quantum: Optional[float]
    dof: Optional[int]
    status: str
    config: dict
    tuples: object = field(default_factory=list)  # the pipeline's dataio.TupleTable
    warnings: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    schema_version: int = 1


def _systematic_responses(dataset: Sequence[MeasuredPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Per-point mean shifts per unit nuisance.

    Amplitude: d P / d amplitude = -sin^2(psi). Phase scale: a relative
    rescaling psi -> psi (1 + delta) moves each point by psi * dP/dpsi,
    with the slope estimated from the measured curve itself.
    """
    psis = np.array([p.psi for p in dataset], dtype=float)
    probs = np.array([p.p_mumu for p in dataset], dtype=float)
    amp = -np.sin(psis) ** 2
    slope = np.gradient(probs, psis)
    return amp, slope * psis


def null_block_shape(
    n_tuples: int, n_points: int, replicas: Optional[int] = None
) -> tuple[int, int]:
    """Replicas and tuples per block of the classical null.

    The budget counts one float64 row, as long as the block's replica
    count, per point and per tuple. Replicas are sized so that every point
    and tuple fits, with a floor of MIN_BLOCK_REPLICAS so that numpy's
    per-call overhead stays amortized on large tuple sets; the tuples per
    block then fill what the budget leaves. replicas overrides the derived
    replica count. Pure arithmetic: nothing is allocated.
    """
    floats = NULL_BLOCK_BYTES // 8
    if replicas is None:
        replicas = max(MIN_BLOCK_REPLICAS, floats // max(1, n_tuples + n_points))
    tuples = max(1, min(n_tuples, floats // replicas - n_points))
    return replicas, tuples


def classical_null_distribution(
    dataset: Sequence[MeasuredPoint],
    tuples: TupleSet,
    config: PseudoConfig,
    *,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Per-replica counts of product-rule bound violations.

    Each replica redraws every point's survival probability as an unbounded
    normal around its measured value (variance matched to the measurement),
    forms correlation estimators C = 2P - 1 for each tuple's component
    points, and evaluates sum(C) - prod(C). The count is how many tuples
    land strictly above n - 2. Estimators are not clamped to the physical
    interval: an estimator of a bounded quantity still fluctuates past the
    boundary, and those excursions are the only way this form can exceed
    the bound, so clamping would silence the false-positive rate the null
    exists to measure.

    The bound n - 2 holds for components inside [-1, 1] in exact
    arithmetic only. In floating point the form can land one ulp above it
    when components sit within a few ulp of 1: C = (1, 1 - 2**-53,
    1 - 2**-52), summed and multiplied in component order, gives
    2.0000000000000004 > 2. No tuple or replica is therefore skipped for
    having all its draws in range; every tuple is evaluated in every
    replica.

    Work runs in blocks of replicas x tuples sized by null_block_shape
    from the fixed NULL_BLOCK_BYTES budget, so the memory a block holds is
    a small constant multiple of that budget whatever the replica or tuple
    count (only a spectrum of thousands of points could push its draws
    past it). Within a block the draws are laid out point-major, one row
    per point, so each tuple component is a row gather and the sum and
    product accumulate in place.

    Parameters
    ----------
    dataset : sequence of MeasuredPoint
        Phase-decorated spectrum the tuples index into.
    tuples : TupleSet
        Selected tuples of the dataset, all of one order n.
    config : PseudoConfig
        Replica count, seed, and systematics settings.
    chunk_size : int, optional
        Replicas per block; by default derived from NULL_BLOCK_BYTES. The
        counts are identical for every chunking, because every draw is
        keyed by (seed, stream, replica, point) and every tuple's
        statistic is evaluated with the same operations in the same order.

    Returns
    -------
    int64 array of shape (replicas,): per replica, the number of tuples
    whose product-rule statistic lands strictly above n - 2.
    """
    if len(tuples) == 0:
        raise DomainError("no tuples to evaluate")
    if chunk_size is not None and (not isinstance(chunk_size, int) or chunk_size < 1):
        raise DomainError(f"chunk_size must be a positive integer, got {chunk_size}")
    if config.replicas < MIN_REPLICAS_FOR_CLAIM:
        warnings.warn(
            f"{config.replicas} replicas is below {MIN_REPLICAS_FOR_CLAIM}; "
            "significance estimates will be unstable"
        )
    size = len(dataset)
    if tuples.size != size:
        raise IndexError(f"tuples of a {tuples.size}-point dataset, given {size} points")
    bound = lgi_bound(tuples.n)
    block_replicas, block_tuples = null_block_shape(len(tuples), size, chunk_size)
    # One contiguous index row per component: block slices stay contiguous.
    components = np.ascontiguousarray(tuples.comp_idx.T)

    probs = np.array([p.p_mumu for p in dataset], dtype=float)[:, None]
    point_sd = np.array([p.sigma for p in dataset], dtype=float)[:, None]

    use_sys = config.include_systematics and (
        config.sys_amplitude_sigma > 0.0 or config.sys_phase_sigma > 0.0
    )
    if use_sys:
        amp_resp, phase_resp = _systematic_responses(dataset)

    counts = np.zeros(config.replicas, dtype=np.int64)
    point_ids = np.arange(size)[:, None]

    for start in range(0, config.replicas, block_replicas):
        stop = min(start + block_replicas, config.replicas)
        rows = np.arange(start, stop)[None, :]

        means = probs
        if use_sys:
            d_amp = normal(
                config.seed, STREAM_SYS_AMPLITUDE, rows, 0,
                sd=config.sys_amplitude_sigma,
            )
            d_phase = normal(
                config.seed, STREAM_SYS_PHASE, rows, 0,
                sd=config.sys_phase_sigma,
            )
            means = means + d_amp * amp_resp[:, None] + d_phase * phase_resp[:, None]

        # Point-major draws: corr[point, replica] = 2 P - 1.
        corr = normal(
            config.seed, STREAM_PSEUDODATA, rows, point_ids,
            mean=means, sd=point_sd,
        )
        corr *= 2.0
        corr -= 1.0

        for first in range(0, len(tuples), block_tuples):
            cols = components[:, first:first + block_tuples]
            corr_sum = corr[cols[0]]
            corr_prod = corr_sum.copy()
            for col in cols[1:]:
                c = corr[col]
                corr_sum += c
                corr_prod *= c
            corr_sum -= corr_prod
            counts[start:stop] += np.count_nonzero(corr_sum > bound, axis=0)

    return counts


def fit_beta_binomial(counts: Sequence[int], trials_n: int) -> BetaBinomialFit:
    """Method-of-moments beta-binomial fit to violation counts.

    Falls back to a plain binomial when the counts are not overdispersed,
    and flags a degenerate (zero-variance) sample instead of fitting.
    The fitted mean always reproduces the sample mean; the fitted variance
    reproduces the sample variance whenever the moment system is solvable.
    """
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("counts must be a non-empty 1-d sequence")
    if not isinstance(trials_n, (int, np.integer)) or trials_n < 1:
        raise DomainError(f"trials_n must be a positive integer, got {trials_n}")
    if arr.min() < 0 or arr.max() > trials_n:
        raise DomainError("counts outside [0, trials_n]")
    trials_n = int(trials_n)

    m = float(arr.mean())
    v = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
    mu = m / trials_n
    binom_var = trials_n * mu * (1.0 - mu)

    common = dict(trials_n=trials_n, mean_violations=m, n_samples=int(arr.size))
    if v == 0.0 or binom_var == 0.0:
        return BetaBinomialFit(
            alpha=None, beta=None, sd_violations=0.0 if v == 0.0 else math.sqrt(v),
            kind="degenerate", **common,
        )
    if v <= binom_var or trials_n == 1:
        return BetaBinomialFit(
            alpha=None, beta=None, sd_violations=math.sqrt(binom_var),
            kind="binomial", **common,
        )

    rho = (v / binom_var - 1.0) / (trials_n - 1)
    # rho >= 1 exceeds what a beta-binomial can express; pin just inside.
    rho = min(rho, 1.0 - 1e-12)
    s = (1.0 - rho) / rho
    return BetaBinomialFit(
        alpha=mu * s,
        beta=(1.0 - mu) * s,
        sd_violations=math.sqrt(binom_var * (1.0 + (trials_n - 1) * rho)),
        kind="beta-binomial",
        **common,
    )


def z_significance(observed: int, fit: BetaBinomialFit) -> float:
    """Standard score of the observed count against the fitted null.

    A degenerate (zero-variance) null uses a floor of one expected count per
    n_samples replicas in place of the vanishing standard deviation.
    """
    sd = fit.sd_violations
    if sd <= 0.0:
        sd = 1.0 / max(fit.n_samples, 1)
    return (observed - fit.mean_violations) / sd


def chi_square_quantum(
    k_values: np.ndarray, k_sigma: np.ndarray, k_model: np.ndarray
) -> tuple[float, int]:
    """Goodness of fit of observed K values against the model-curve prediction.

    Takes the observed K, its propagated sd and the model K of each tuple.
    Tuples share measured points and are therefore strongly correlated;
    this statistic treats them as independent and is descriptive only. dof
    is len(k_values) - 1.

    The squares and the sum run in Python floats, one tuple after the
    other: float ** 2 calls C pow, which can differ from x * x in the last
    bit, and np.sum adds in a different order, so either would move the
    reported digits.
    """
    if len(k_values) < 2:
        raise DomainError("need at least two K values for a goodness-of-fit")
    if (np.asarray(k_sigma) <= 0.0).any():
        raise DomainError("every K value needs a positive uncertainty")
    chi2 = 0.0
    for pull in ((np.asarray(k_values) - k_model) / k_sigma).tolist():
        chi2 += pull ** 2
    return chi2, len(k_values) - 1
