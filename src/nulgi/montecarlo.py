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
    KEY_LIMIT,
    STREAM_PSEUDODATA,
    STREAM_SYS_AMPLITUDE,
    STREAM_SYS_PHASE,
    draw_keys,
    normal,
    normal_from_keys,
)
from .selection import MeasuredPoint, TupleSet

MIN_REPLICAS_FOR_CLAIM = 1000

# Budget of one block of the classical null, counted as one float64 row of
# the block's replicas per point (the draws) and per tuple. The block's
# arrays are a few such rows each, which keeps them in a core's L2 cache.
NULL_BLOCK_BYTES = 1 << 19
MIN_BLOCK_REPLICAS = 128

# Guard band of the order-3 key classification: a draw whose correlation C
# lies within ORDER3_BAND of 1, or beyond ORDER3_MAX_CORR in magnitude, is
# classified by the float expression (see classical_null_distribution).
ORDER3_BAND = 1e-5
ORDER3_MAX_CORR = 64.0
# Its edges as _key_thresholds takes them: C >= -M, C > 1 - b, C >= 1 + b, C > M.
ORDER3_EDGES = (
    np.nextafter(-ORDER3_MAX_CORR, -np.inf), 1.0 - ORDER3_BAND,
    np.nextafter(1.0 + ORDER3_BAND, -np.inf), ORDER3_MAX_CORR,
)

# Margin of the order >= 4 block skip: a block whose draws all have C in
# [-1 + NULL_MARGIN, 1 - NULL_MARGIN] cannot violate the bound (see
# classical_null_distribution). Its edges: C >= -1 + b and C > 1 - b.
NULL_MARGIN = 1e-5
MARGIN_EDGES = (np.nextafter(-1.0 + NULL_MARGIN, -np.inf), 1.0 - NULL_MARGIN)


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
        # A bool is an int to Python, and a float or string seed would fail
        # only when the null hashes it, after selection has run.
        for name in ("replicas", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.replicas < 1:
            raise DomainError(f"replicas must be a positive integer, got {self.replicas}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        # Any JSON value has a truth value: "false" would turn the nuisances on.
        flag = self.include_systematics
        if not isinstance(flag, (bool, np.bool_)):
            raise DomainError(f"include_systematics must be true or false, got {flag!r}")
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
    2.0000000000000004 > 2. The counts are those of this float expression
    in every replica. Without systematics, two shortcuts return them
    without evaluating it wherever they can prove its outcome.

    Both classify draws by their integer keys. A draw is C(k) = 2 (p +
    sigma ndtri((k + 0.5) 2**-53)) - 1 of its 53-bit key k
    (sampling.draw_keys), and C(k) is non-decreasing in k: k -> u rounds
    monotonically, the affine steps do for sigma >= 0, and scipy's ndtri
    is assumed monotone. Per point, a bisection over the key
    (_key_thresholds, computing C with the float operations of the draws)
    finds the first key at which C passes each edge, nan ordering above
    every edge, so a draw's side of an edge is an integer comparison of
    its key.

    Order 3 calls ndtri only for a few replicas. In exact arithmetic C_a +
    C_b - C_a C_b - 1 = -(1 - C_a)(1 - C_b), so a pair violates exactly
    when one of its components has C > 1 and the other C < 1. With x the
    replica's vector of "C > 1" flags over the points and L the Laplacian
    of the tuple graph (one edge per tuple, a repeated pair (a, a) adding
    nothing), the count is the cut size x^T L x. The edges are -M, 1 - b,
    1 + b and M (b = ORDER3_BAND, M = ORDER3_MAX_CORR), so each draw's
    flag and whether it sits in the guard band |C - 1| < b or |C| > M are
    key comparisons. A replica with a guard-band draw on a point that some
    tuple uses is recomputed with the float expression; only those
    replicas' draws go through ndtri.

    The guard band keeps the order-3 counts bit-identical. For components
    x, y with |x|, |y| <= M the computed fl(fl(x + y) - fl(x y)) differs
    from x + y - x y by at most u (2 + u)(|x| + |y| + |x y|) < 2.0001 u
    (M + 1)**2, about 9.4e-13 at u = 2**-53 and M = 64, while |(1 - x)(1 -
    y)| is at least about b**2 = 1e-10 when neither lies within b of 1
    (the edges 1 - b and 1 + b are floats, off by at most 2**-53). Outside
    the band the float comparison with 1 therefore has the sign of the
    exact product; the magnitude guard also sends infinite and nan draws
    to the float path. The monotonicity of ndtri is needed outside the
    band only: inside it every draw is evaluated in floating point anyway.

    Order >= 4 skips blocks of replicas. With b = NULL_MARGIN, the keys of
    a point whose draws have C in [-1 + b, 1 - b] form one interval [low,
    high). A block in which every draw of every point that some tuple uses
    has its key inside its point's interval counts 0 in all its replicas,
    and its draws never go through ndtri; a nan or infinite draw lies
    outside. Proof: on the box [-a, a]**k, a = 1 - b, k = n - 1, the form
    sum(C) - prod(C) is multilinear and peaks at a vertex. A vertex with m
    components at -a gives (k - 2m) a - (-1)**m a**k, which is largest at
    m = 0. g(a) = a**k - k a + k - 1 has g(1) = g'(1) = 0 and g'' = k (k -
    1) a**(k-2), so that peak lies at least k (k - 1) / 2 (1 - b)**(k-2)
    b**2 below n - 2 = k - 1, about 3e-10 at n = 4 (the float edges move b
    by at most 2**-53). Summing and multiplying k numbers of magnitude at
    most 1 in component order and subtracting errs by at most about (k**2 +
    k) 2**-53, about 1.3e-15 at n = 4 and below the gap for every order
    under 10**6, so the float form stays at or below n - 2 too. Whole
    blocks are skipped, not replicas or tuples: where the noise reaches
    the physical boundary nearly every replica holds an out-of-margin
    draw, and compacting to those replicas costs more than it saves.

    Runs with systematics, whose means move per replica, evaluate every
    replica with the float expression.

    Work runs in blocks of replicas x tuples sized by null_block_shape
    from the fixed NULL_BLOCK_BYTES budget, so the memory a block holds is
    a small constant multiple of that budget whatever the replica or tuple
    count (only a spectrum of thousands of points could push its draws
    past it). Within a block the keys and draws are laid out point-major,
    one row per point that a tuple uses, so each tuple component is a row
    gather and the sum and product accumulate in place. Each block's keys
    are drawn once, into buffers reused across blocks.

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

    probs = np.array([p.p_mumu for p in dataset], dtype=float)[:, None]
    point_sd = np.array([p.sigma for p in dataset], dtype=float)[:, None]
    # Only the points some tuple reads are drawn, one row each.
    used, local = np.unique(tuples.comp_idx, return_inverse=True)
    local = local.reshape(tuples.comp_idx.shape)
    means, sds = probs[used], point_sd[used]

    use_sys = config.include_systematics and (
        config.sys_amplitude_sigma > 0.0 or config.sys_phase_sigma > 0.0
    )
    counts = np.zeros(config.replicas, dtype=np.int64)
    replica_ids = np.arange(config.replicas)
    if tuples.n == 3 and not use_sys:
        # Key path; only the replicas it returns need the float expression.
        block_replicas, _ = null_block_shape(0, used.size, chunk_size)
        blocks = _key_blocks(config.seed, replica_ids, used, block_replicas)
        replica_ids = _order3_cut_counts(means, sds, local, blocks, counts)
    skip_blocks = tuples.n >= 4 and not use_sys
    if skip_blocks:
        # The keys of a point's in-margin draws are [low, high).
        low, high = _key_thresholds(means, sds, MARGIN_EDGES).astype(np.uint64)
    if use_sys:
        amp_resp, phase_resp = (resp[used][:, None] for resp in _systematic_responses(dataset))

    bound = lgi_bound(tuples.n)
    block_replicas, block_tuples = null_block_shape(len(tuples), used.size, chunk_size)
    # One contiguous index row per component: block slices stay contiguous.
    components = np.ascontiguousarray(local.T)

    for ids, keys in _key_blocks(config.seed, replica_ids, used, block_replicas):
        # Most out-of-margin draws lie above 1 - b: test the top end first.
        if skip_blocks and (keys.max(axis=1) < high).all() and (keys.min(axis=1) >= low).all():
            continue

        block_means = means
        if use_sys:
            rows = ids[None, :]
            d_amp = normal(
                config.seed, STREAM_SYS_AMPLITUDE, rows, 0,
                sd=config.sys_amplitude_sigma,
            )
            d_phase = normal(
                config.seed, STREAM_SYS_PHASE, rows, 0,
                sd=config.sys_phase_sigma,
            )
            block_means = means + d_amp * amp_resp + d_phase * phase_resp

        # Point-major draws: corr[point, replica] = 2 P - 1.
        corr = normal_from_keys(keys, mean=block_means, sd=sds)
        corr *= 2.0
        corr -= 1.0

        block_counts = np.zeros(ids.size, dtype=np.int64)
        for first in range(0, len(tuples), block_tuples):
            cols = components[:, first:first + block_tuples]
            corr_sum = corr[cols[0]]
            corr_prod = corr_sum.copy()
            for col in cols[1:]:
                c = corr[col]
                corr_sum += c
                corr_prod *= c
            corr_sum -= corr_prod
            block_counts += np.count_nonzero(corr_sum > bound, axis=0)
        counts[ids] = block_counts

    return counts


def _key_blocks(seed: int, replica_ids: np.ndarray, points: np.ndarray, block_replicas: int):
    """Yield (ids, keys): blocks of replica_ids and their STREAM_PSEUDODATA keys.

    keys[i, j] is the key of replica ids[j] at point points[i]. Each block's
    keys overwrite the last block's, in the same buffers.
    """
    # Block buffers, reused: fresh arrays of this size cost page faults.
    width = min(block_replicas, replica_ids.size)
    key_buf, scratch_buf = np.empty((2, points.size, width), dtype=np.uint64)
    for start in range(0, replica_ids.size, block_replicas):
        ids = replica_ids[start:start + block_replicas]
        span = slice(0, ids.size)
        yield ids, draw_keys(
            seed, STREAM_PSEUDODATA, ids[None, :], points[:, None], 0,
            out=key_buf[:, span], scratch=scratch_buf[:, span],
        )


def _key_thresholds(probs: np.ndarray, sds: np.ndarray, edges) -> np.ndarray:
    """Per point, the first key whose correlation lies above each edge.

    Returns a (len(edges), points) array of keys in [0, KEY_LIMIT]: per
    edge e, the first key whose float correlation C, computed with the
    operations of the draws, is not C <= e, so that a nan C lies above
    every edge. A non-strict edge C >= e is given as the float just below
    e. Found by bisection on the assumption that C is non-decreasing in
    the key; KEY_LIMIT means no key reaches the edge.
    """
    probs = np.ravel(probs)
    sds = np.ravel(sds)
    edges = np.asarray(edges, dtype=float)[:, None]
    lo = np.zeros((edges.shape[0], probs.size), dtype=np.int64)
    hi = np.full_like(lo, KEY_LIMIT)
    # Every key at or past KEY_LIMIT - 1 maps to u = 1 and reaches every
    # edge (0 * inf is nan at sigma 0), so once lo == hi the step below
    # leaves both in place.
    with np.errstate(invalid="ignore"):
        for _ in range(KEY_LIMIT.bit_length()):
            mid = (lo + hi) >> 1
            # C = 2 P - 1 with the float operations of the draws' path.
            corr = normal_from_keys(mid, mean=probs, sd=sds)
            corr *= 2.0
            corr -= 1.0
            reached = ~(corr <= edges)
            hi = np.where(reached, mid, hi)
            lo = np.where(reached, lo, mid + 1)
    return lo


def _order3_cut_counts(
    means: np.ndarray, sds: np.ndarray, local: np.ndarray, blocks, counts: np.ndarray
) -> np.ndarray:
    """Order-3 counts as cut sizes of key flags; see classical_null_distribution.

    means and sds hold one row per point that a tuple uses, and local holds
    the tuples' components as indices into those rows. blocks yields the
    (ids, keys) of _key_blocks over those rows; each block's cut sizes are
    written to counts[ids]. Returns the replicas that hold a guarded draw,
    whose counts the caller must evaluate in floating point.
    """
    # The edges of the tuple graph over the used points; (a, a) adds nothing.
    ends_a, ends_b = local[local[:, 0] != local[:, 1]].T

    low, band_lo, band_hi, high = (
        edge[:, None].astype(np.uint64) for edge in _key_thresholds(means, sds, ORDER3_EDGES)
    )
    # The safe keys of a point are [low, band_lo), C <= 1 - b, and
    # [band_hi, high), C >= 1 + b. Unsigned wraparound makes each a single
    # comparison: key - band_hi < high - band_hi, then key - low < band_lo -
    # low after adding band_hi - low back.
    upper_width, lower_width, hi_to_low = high - band_hi, band_lo - low, band_hi - low

    guarded = []
    for ids, keys in blocks:
        keys -= band_hi
        upper = keys < upper_width
        # Cut size x^T L x: the tuple edges whose ends differ in "C > 1".
        counts[ids] = np.count_nonzero(upper[ends_a] != upper[ends_b], axis=0)

        keys += hi_to_low
        safe = keys < lower_width
        safe |= upper
        guarded.append(ids[~safe.all(axis=0)])
    return np.concatenate(guarded)


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
