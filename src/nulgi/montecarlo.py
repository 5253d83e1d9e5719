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
zero. At order 3 the count's whole law is also available exactly
(order3_count_law), and counts_from_law draws replica counts from it.

Counts of bound violations across replicas are summarized by a
beta-binomial moment fit; shared points make tuples correlated, which is
what the beta-binomial's overdispersion absorbs.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, check_budget
from .leggett_garg import lgi_bound
from .sampling import (
    KEY_LIMIT,
    STREAM_NULL_COUNT,
    STREAM_PSEUDODATA,
    STREAM_SYS_AMPLITUDE,
    STREAM_SYS_PHASE,
    draw_keys,
    normal,
    normal_from_keys,
    uniform_from_keys,
)
from .selection import Spectrum, TupleSet

MIN_REPLICAS_FOR_CLAIM = 1000
# Bytes an analysis holds per replica of its null: the int64 count and one
# int64 or float64 temporary as long (16 measured, 1M to 4M replicas).
REPLICA_BYTES = 16

# Budget of one block of the classical null, counted as one float64 row of
# the block's replicas per point (the draws) and per tuple. The block's
# arrays are a few such rows each, which keeps them in a core's L2 cache.
NULL_BLOCK_BYTES = 1 << 19
MIN_BLOCK_REPLICAS = 128

# Margin of the block skip: a block whose draws all have C in
# [-1 + NULL_MARGIN, 1 - NULL_MARGIN] cannot violate the bound (see
# classical_null_distribution). Its edges: C >= -1 + b and C > 1 - b.
NULL_MARGIN = 1e-5
MARGIN_EDGES = (np.nextafter(-1.0 + NULL_MARGIN, -np.inf), 1.0 - NULL_MARGIN)

# Half-width, in keys, of the bracket _key_thresholds checks around the
# ndtr estimate of each threshold key before bisecting inside it.
KEY_BRACKET = 1 << 10

# order3_count_law fixes a point whose less likely "C > 1" state has a
# chance below ORDER3_FIXED_MASS at its likely state, and gives up (returns
# None) when its largest factor would exceed ORDER3_LAW_ENTRIES float64s.
ORDER3_FIXED_MASS = 1e-16
ORDER3_LAW_ENTRIES = 1 << 20
# counts_from_law draws keys in blocks of LAW_BLOCK replicas.
LAW_BLOCK = 1 << 14


@dataclass(frozen=True)
class PseudoConfig:
    """Knobs for the pseudo-experiment engine.

    The engine does not re-select: the tuples, and the tolerance they were
    selected at, come from the analysis. Systematic nuisances, when
    enabled, are drawn once per replica and shift every point coherently,
    so they are the only cross-bin correlation mechanism.
    """

    replicas: int = 100_000
    seed: int = 0
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
        # A nan or inf width would run and write NaN or Infinity into the
        # report, which is not JSON.
        for name in ("sys_amplitude_sigma", "sys_phase_sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise DomainError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.sys_amplitude_sigma < 0.0 or self.sys_phase_sigma < 0.0:
            raise DomainError("systematic sigmas must be non-negative")

    @property
    def draws_systematics(self) -> bool:
        """Whether replicas draw nuisances: enabled, with a positive width."""
        return self.include_systematics and (
            self.sys_amplitude_sigma > 0.0 or self.sys_phase_sigma > 0.0
        )


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
    """Everything run_analysis learned, in one serializable record.

    It holds exactly what report.json holds. The per-tuple rows are not
    part of it: they are the analysis's table, written to tuples.csv.
    config echoes the settings the analysis read, and data_sha256 is the
    SHA-256 of the dataset file run_analysis parsed (None for a spectrum
    analyzed in memory).
    """

    n_tuples: int
    n_violations_observed: Optional[int]
    null_fit: Optional[BetaBinomialFit]
    z_score: Optional[float]
    chi2_quantum: Optional[float]
    dof: Optional[int]
    status: str
    config: dict
    data_sha256: Optional[str] = None
    warnings: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    schema_version: int = 2


def _systematic_responses(dataset: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Per-point mean shifts per unit nuisance.

    Amplitude: d P / d amplitude = -sin^2(psi). Phase scale: a relative
    rescaling psi -> psi (1 + delta) moves each point by psi * dP/dpsi,
    with the slope estimated from the measured curve itself.
    """
    psis = dataset.psi
    amp = -np.sin(psis) ** 2
    slope = np.gradient(dataset.p_mumu, psis)
    return amp, slope * psis


def null_block_shape(n_tuples: int, n_points: int) -> tuple[int, int]:
    """Replicas and tuples per block of the classical null.

    The budget counts one float64 row, as long as the block's replica
    count, per point and per tuple. Replicas are sized so that every point
    and tuple fits, with a floor of MIN_BLOCK_REPLICAS so that numpy's
    per-call overhead stays amortized on large tuple sets; the tuples per
    block then fill what the budget leaves. Pure arithmetic: nothing is
    allocated.
    """
    floats = NULL_BLOCK_BYTES // 8
    replicas = max(MIN_BLOCK_REPLICAS, floats // max(1, n_tuples + n_points))
    tuples = max(1, min(n_tuples, floats // replicas - n_points))
    return replicas, tuples


def null_shards(replicas: int, n_points: int, workers: int) -> list[list[range]]:
    """The key blocks of each shard of the classical null, as replica ranges.

    The key-block budget is null_block_shape(0, n_points)'s replica count,
    and there are at most workers shards and at most one per budget's
    worth of replicas. The replicas are cut into equal shards, whose sizes
    differ by at most one, and each shard into the fewest key blocks that
    fit the budget, whose sizes differ by at most one too. Pure
    arithmetic: nothing is allocated.
    """
    budget, _ = null_block_shape(0, n_points)
    workers = min(workers, -(-replicas // budget))
    shards = []
    for i in range(workers):
        start = replicas * i // workers
        size = replicas * (i + 1) // workers - start
        blocks = -(-size // budget)
        shards.append([range(start + size * j // blocks, start + size * (j + 1) // blocks)
                       for j in range(blocks)])
    return shards


def classical_null_distribution(
    dataset: Spectrum, tuples: TupleSet, config: PseudoConfig
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
    exists to measure. Every order takes this one engine; at order 3 the
    pipeline draws from order3_count_law instead where that law exists.

    The bound n - 2 holds for components inside [-1, 1] in exact
    arithmetic only. In floating point the form can land one ulp above it
    when components sit within a few ulp of 1: C = (1, 1 - 2**-53,
    1 - 2**-52), summed and multiplied in component order, gives
    2.0000000000000004 > 2. The counts are those of this float expression
    in every replica. Without systematics, one shortcut, the block skip,
    returns them without evaluating it wherever it can prove its outcome.

    The skip classifies draws by their integer keys. A draw is C(k) = 2 (p
    + sigma ndtri(u(k))) - 1 of its 53-bit key k (sampling.draw_keys), u
    being sampling.uniform_from_keys, and C(k) is non-decreasing in k: k ->
    u rounds monotonically, the affine steps do for sigma >= 0, and scipy's
    ndtri is assumed monotone. Every u lies in (0, 1), the top key's
    included, so every C is finite. Per point, a bisection over the key
    (_key_thresholds, computing C with the float operations of the draws)
    finds the first key at which C passes each edge, so a draw's side of an
    edge is an integer comparison of its key.

    With b = NULL_MARGIN, the keys of a point whose draws have C in [-1 +
    b, 1 - b] form one interval [low, high). A block in which every draw of
    every point that some tuple uses has its key inside its point's
    interval counts 0 in all its replicas, and its draws never go through
    ndtri. Proof: on the box [-a, a]**k, a = 1 - b, k = n - 1 >= 2, the
    form sum(C) - prod(C) is multilinear and peaks at a vertex. A vertex
    with m components at -a gives (k - 2m) a - (-1)**m a**k, which is
    largest at m = 0. g(a) = a**k - k a + k - 1 has g(1) = g'(1) = 0 and
    g'' = k (k - 1) a**(k-2), so that peak lies at least k (k - 1) / 2 (1 -
    b)**(k-2) b**2 below n - 2 = k - 1: b**2 = 1e-10 at n = 3 and about
    3e-10 at n = 4 (the float edges move b by at most 2**-53). Summing and
    multiplying k numbers of magnitude at most 1 in component order and
    subtracting errs by at most about (k**2 + k) 2**-53, about 6.7e-16 at n
    = 3 and 1.3e-15 at n = 4 and below the gap for every order under 10**6,
    so the float form stays at or below n - 2 too. Whole blocks are
    skipped, not replicas or tuples: where the noise reaches the physical
    boundary nearly every replica holds an out-of-margin draw, and
    compacting to those replicas costs more than it saves.

    An inert point, one whose every key lies in its interval (low == 0 and
    high == KEY_LIMIT), cannot stop a block from being skipped, so the
    skip's test draws and reads the live points' rows only; a key block's
    inert rows are drawn once, when one of its slices is not skipped. With
    no live point every count is 0 and no key is drawn at all.

    Runs with systematics, whose means move per replica, evaluate every
    replica with the float expression.

    Work runs in blocks sized from the fixed NULL_BLOCK_BYTES budget. Keys
    are drawn in key blocks of at most null_block_shape(0, points) replicas
    (null_shards), laid out point-major with one row per point that a tuple
    uses, live points first, into two buffers reused from block to block; a
    key block is long enough that numpy's per-call overhead is small beside
    the hash. The block skip and the float expression run on column slices
    of a key block, tuple blocks of null_block_shape(tuples, points)
    replicas, each evaluating as many tuples at a time as the budget
    leaves. So the memory a block holds is a small constant multiple of the
    budget whatever the replica or tuple count (only a spectrum of
    thousands of points could push its draws past it). Each tuple component
    is a row gather and the sum and product accumulate in place.

    The replicas are cut into equal contiguous shards (null_shards), one
    per core in the process's affinity mask and at most one per key-block
    budget, and the shards run on a thread pool: numpy's ufuncs and gathers
    and scipy's ndtri release the GIL. The key thresholds and the
    systematic responses are computed once, before the shards. Each shard
    owns its key buffers and writes only its own replicas' counts. The
    counts do not depend on the worker count or on any blocking: every draw
    is keyed by (seed, stream, replica, point), a replica's count reads
    only its own draws, every tuple's statistic is evaluated with the same
    operations in the same order, and the block skip returns the counts of
    the float expression exactly (the proof above).

    Parameters
    ----------
    dataset : Spectrum
        The spectrum the tuples index into; the phases are read only with
        systematics.
    tuples : TupleSet
        Selected tuples of the dataset, all of one order n.
    config : PseudoConfig
        Replica count, seed, and systematics settings.

    Returns
    -------
    int64 array of shape (replicas,): per replica, the number of tuples
    whose product-rule statistic lands strictly above n - 2. A replica
    count past REPLICA_BYTES of errors.SIZE_BUDGET_BYTES raises DomainError
    before anything is allocated.
    """
    if len(tuples) == 0:
        raise DomainError("no tuples to evaluate")
    check_budget("replicas", config.replicas, REPLICA_BYTES)
    size = len(dataset)
    if tuples.size != size:
        raise IndexError(f"tuples of a {tuples.size}-point dataset, given {size} points")

    probs = dataset.p_mumu[:, None]
    point_sd = dataset.sigma[:, None]
    # Only the points some tuple reads are drawn, one row each.
    used = tuples.component_points()

    use_sys = config.draws_systematics
    counts = np.zeros(config.replicas, dtype=np.int64)
    block_replicas, block_tuples = null_block_shape(len(tuples), used.size)
    bound = lgi_bound(tuples.n)

    # Computed once, read by every shard.
    live = used.size
    if not use_sys:
        low, high = _key_thresholds(probs[used], point_sd[used], MARGIN_EDGES)
        inert = (low == 0) & (high == KEY_LIMIT)
        if inert.all():
            return counts
        # Live points first: the skip's test draws rows [0, live) only.
        order = np.argsort(inert, kind="stable")
        live -= int(np.count_nonzero(inert))
        used = used[order]
        # The keys of a live point's in-margin draws are [low, high).
        low, high = (edge[order[:live]].astype(np.uint64) for edge in (low, high))
    means, sds = probs[used], point_sd[used]
    # Each used point's row, by point: the tuples' rows are gathered
    # through it into one contiguous int32 index row per component, so
    # block slices stay contiguous.
    row = np.zeros(size, dtype=np.int32)
    row[used] = np.arange(used.size, dtype=np.int32)
    components = np.empty((tuples.n - 1, len(tuples)), dtype=np.int32)
    for component, points in zip(components, tuples.comp_idx.T):
        component[:] = row[points]
    if use_sys:
        amp_resp, phase_resp = (resp[used][:, None] for resp in _systematic_responses(dataset))

    def skipped(live_keys: np.ndarray) -> bool:
        """Whether every live draw of a slice of replicas lies in the margin."""
        # Most out-of-margin draws lie above 1 - b: test the top end first.
        return (live_keys.max(axis=1) < high).all() and (live_keys.min(axis=1) >= low).all()

    def run_shard(blocks: list[range]) -> None:
        for block_ids, keys, draw_rest in _key_blocks(config.seed, blocks, used, live):
            spans = [slice(first, first + block_replicas)
                     for first in range(0, block_ids.size, block_replicas)]
            if not use_sys:
                spans = [span for span in spans if not skipped(keys[:live, span])]
                if not spans:
                    continue
                draw_rest()
            for span in spans:
                ids = block_ids[span]
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
                corr = normal_from_keys(keys[:, span], mean=block_means, sd=sds)
                corr *= 2.0
                corr -= 1.0

                block_counts = np.zeros(ids.size, dtype=np.int64)
                for start in range(0, len(tuples), block_tuples):
                    cols = components[:, start:start + block_tuples]
                    corr_sum = corr[cols[0]]
                    c = corr[cols[1]]
                    corr_prod = corr_sum * c
                    corr_sum += c
                    for col in cols[2:]:
                        c = corr[col]
                        corr_sum += c
                        corr_prod *= c
                    corr_sum -= corr_prod
                    block_counts += np.count_nonzero(corr_sum > bound, axis=0)
                counts[ids] = block_counts

    shards = null_shards(config.replicas, used.size, _available_cores())
    with futures.ThreadPoolExecutor(max_workers=len(shards)) as pool:
        shards = [pool.submit(run_shard, blocks) for blocks in shards]
        # Re-raises the first failed shard's exception; leaving the block
        # waits for every worker to finish.
        for shard in shards:
            shard.result()
    return counts


def _available_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _key_blocks(seed: int, blocks: list[range], points: np.ndarray, eager: int):
    """Yield (ids, keys, draw_rest): each block's replica ids and their STREAM_PSEUDODATA keys.

    keys[i, j] is the key of replica ids[j] at point points[i]. The rows of
    the first eager points are drawn before the block is yielded, and
    draw_rest() draws the others. Each block's keys overwrite
    the last block's, in the same buffers.
    """
    # Block buffers, reused: fresh arrays of this size cost page faults.
    width = max(map(len, blocks))
    key_buf, scratch_buf = np.empty((2, points.size, width), dtype=np.uint64)

    def draw(ids, rows):
        if points[rows].size:
            span = slice(0, ids.size)
            draw_keys(
                seed, STREAM_PSEUDODATA, ids[None, :], points[rows, None], 0,
                out=key_buf[rows, span], scratch=scratch_buf[rows, span],
            )

    for block in blocks:
        ids = np.arange(block.start, block.stop)
        draw(ids, slice(0, eager))
        yield ids, key_buf[:, :ids.size], lambda ids=ids: draw(ids, slice(eager, None))


def _key_thresholds(probs: np.ndarray, sds: np.ndarray, edges) -> np.ndarray:
    """Per point, the first key whose correlation lies above each edge.

    Returns a (len(edges), points) array of keys in [0, KEY_LIMIT]: per
    edge e, the first key whose float correlation C, computed with the
    operations of the draws, is not C <= e, so that a nan C lies above
    every edge. A non-strict edge C >= e is given as the float just below
    e. Found by bisection on the assumption that C is non-decreasing in
    the key; KEY_LIMIT means no key reaches the edge.

    The bisection (_first_keys) starts from a bracket of KEY_BRACKET keys
    either side of an ndtr estimate of the threshold; at sigma 0 and where
    the estimate is not finite it searches all of [0, KEY_LIMIT].
    """
    probs = np.ravel(probs)
    sds = np.ravel(sds)
    edges = np.asarray(edges, dtype=float)[:, None]

    def reached(keys):
        # C = 2 P - 1 with the float operations of the draws' path.
        corr = normal_from_keys(keys, mean=probs, sd=sds)
        corr *= 2.0
        corr -= 1.0
        return ~(corr <= edges)

    with np.errstate(divide="ignore", invalid="ignore"):
        # u = (k + 0.5) 2**-53 = ndtr((P - p) / sigma) at P = (1 + e) / 2.
        guess = ndtr(((1.0 + edges) / 2.0 - probs) / sds) * KEY_LIMIT - 0.5
        usable = np.isfinite(guess) & (sds > 0.0)
        guess = np.where(usable, guess, 0.0).astype(np.int64)
        return _first_keys(reached, guess, usable, KEY_BRACKET)


def _first_keys(reached, guess: np.ndarray, usable: np.ndarray, bracket: int) -> np.ndarray:
    """Per element, the first key below KEY_LIMIT at which reached holds, else KEY_LIMIT.

    reached maps an int64 array of keys to a bool array of the same shape
    and is non-decreasing in each key. The search
    bisects the bracket guess +- bracket where usable and both its ends
    check out (the key below it does not reach, unless it starts at 0, and
    its top key does, unless it is KEY_LIMIT), and [0, KEY_LIMIT] elsewhere.
    For a non-decreasing reached both hold the same first key, so the
    bracket only shortens the search.
    """
    lo = np.clip(guess - bracket, 0, KEY_LIMIT)
    hi = np.clip(guess + bracket, 0, KEY_LIMIT)
    usable = usable & ((lo == 0) | ~reached(np.maximum(lo - 1, 0)))
    usable &= (hi == KEY_LIMIT) | reached(np.minimum(hi, KEY_LIMIT - 1))
    lo = np.where(usable, lo, 0)
    hi = np.where(usable, hi, KEY_LIMIT)
    # Each step at least halves hi - lo and leaves lo == hi in place.
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) >> 1
        now = reached(mid)
        hi = np.where(now, mid, hi)
        lo = np.where(now, lo, np.minimum(mid + 1, hi))
    return lo


def order3_count_law(dataset: Spectrum, tuples: TupleSet) -> Optional[np.ndarray]:
    """Exact law of the order-3 null count without systematics, or None.

    Returns pmf, float64, with pmf[k] the probability that a replica of the
    classical null counts k violations, trailing zeros trimmed; None when
    the tuple graph is too wide for exact work. As classical_null_distribution
    explains, a pair violates exactly when one component draw has C > 1 and
    the other C < 1, so the count is the cut size of independent flags x_i =
    [P_i > 1], Bernoulli(q_i) with q_i = Phi((p_i - 1) / sigma_i), on the
    tuple graph. Every sigma a tuple reads must be positive. The law is that
    of the exact arithmetic; the float expression's sign can differ from
    that of -(1 - C_a)(1 - C_b) only where the product is within rounding,
    about 1e-15, of 0.

    A point whose less likely state has probability below ORDER3_FIXED_MASS
    is fixed at its likely state. The law is exact conditional on those
    states, so the neglected mass, its total variation distance from the
    unconditional law, is at most the sum over fixed points of min(q_i, 1 -
    q_i), below ORDER3_FIXED_MASS times the point count.

    The other, active points are summed out by bucket elimination (Dechter
    1999) with factors that are count polynomials: an array over the flags
    of the factor's points whose last axis holds the probability of each
    count. A repeated pair (a, a) adds nothing, a pair that appears m times
    is one edge of weight m (the polynomial t**m where its flags differ),
    an edge between two fixed points shifts the whole law, and an edge to
    one fixed point is a unary shift of the active end's polynomial. Points
    are eliminated in min-degree order; eliminating one multiplies the
    factors that hold it and sums its flag out. With width the most
    neighbours a point has when eliminated, the largest factor has 2**(width
    + 1) x (edges + 1) entries, edges being the tuples that are not a
    repeated pair, and the law is None when that exceeds ORDER3_LAW_ENTRIES.
    No elimination order has a width below the k of a k-core of the active
    points' graph, so the law is None as soon as peeling finds a core that
    wide, before anything is built per edge.
    A 30-bin spectrum's graph is a forest or nearly one (width 1 to 4); at
    100 bins the width is 33 to 39.
    """
    if tuples.n != 3:
        raise DomainError(f"the exact count law is for order 3, got order {tuples.n}")
    if len(tuples) == 0:
        raise DomainError("no tuples to evaluate")
    if tuples.size != len(dataset):
        raise IndexError(f"tuples of a {tuples.size}-point dataset, given {len(dataset)} points")
    pairs = np.sort(tuples.comp_idx, axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    edges = len(pairs)
    if not edges:
        return np.ones(1)
    # The distinct pairs in (a, b) order, each as one key a * size + b, and
    # their ends as rows of the points they use, in ascending point order.
    keys = pairs[:, 0].astype(np.int64)
    keys *= tuples.size
    keys += pairs[:, 1]
    del pairs
    keys, weights = np.unique(keys, return_counts=True)
    first, second = np.divmod(keys, tuples.size)
    in_pair = np.zeros(tuples.size, dtype=bool)
    in_pair[first] = in_pair[second] = True
    used = np.flatnonzero(in_pair)
    row = np.cumsum(in_pair, dtype=np.int32) - 1
    ends = np.stack((row[first], row[second]), axis=1)
    sds = dataset.sigma[used]
    if not (sds > 0.0).all():
        raise DomainError("the exact count law needs a positive sigma at every used point")
    scaled = (dataset.p_mumu[used] - 1.0) / sds
    # Each state's probability from its own tail keeps a rare one's digits.
    above, below = ndtr(scaled), ndtr(-scaled)
    fixed = np.minimum(above, below) < ORDER3_FIXED_MASS
    likely = (above > below).astype(np.int64)

    # The smallest width whose largest factor exceeds the budget.
    too_wide = 0
    while 2 ** (too_wide + 1) * (edges + 1) <= ORDER3_LAW_ENTRIES:
        too_wide += 1
    if _has_core(ends, ~fixed, too_wide):
        return None

    # Count added to a point's polynomial when its flag is 0 and when 1.
    unary = np.zeros((used.size, 2), dtype=np.int64)
    shift = 0
    neighbours = {int(v): set() for v in np.flatnonzero(~fixed)}
    active_edges = []
    for (a, b), weight in zip(ends.tolist(), weights.tolist()):
        if fixed[a] and fixed[b]:
            shift += weight * int(likely[a] != likely[b])
        elif fixed[a] or fixed[b]:
            free, pinned = (b, a) if fixed[a] else (a, b)
            unary[free, 1 - likely[pinned]] += weight
        else:
            neighbours[a].add(b)
            neighbours[b].add(a)
            active_edges.append(((a, b), weight))

    order, width = [], 0
    while neighbours:
        point = min(neighbours, key=lambda v: (len(neighbours[v]), v))
        clique = neighbours.pop(point)
        width = max(width, len(clique))
        if 2 ** (width + 1) * (edges + 1) > ORDER3_LAW_ENTRIES:
            return None
        for other in clique:
            neighbours[other] |= clique - {other}
            neighbours[other].discard(point)
        order.append(point)

    factors = [(pair, _edge_factor(weight)) for pair, weight in active_edges]
    for point in order:
        bucket = [factor for factor in factors if point in factor[0]]
        factors = [factor for factor in factors if point not in factor[0]]
        scope = sorted({point}.union(*(vars_ for vars_, _ in bucket)))
        axis = scope.index(point)
        flags = np.zeros((2, int(unary[point].max()) + 1))
        flags[0, unary[point, 0]] = below[point]
        flags[1, unary[point, 1]] = above[point]
        table = flags.reshape([2 if i == axis else 1 for i in range(len(scope))] + [-1])
        for vars_, factor in bucket:
            shape = [2 if v in vars_ else 1 for v in scope] + [factor.shape[-1]]
            table = _poly_mul(table, factor.reshape(shape))
        factors.append((tuple(v for v in scope if v != point), table.sum(axis=axis)))

    pmf = np.ones(1)
    for _, factor in factors:
        pmf = _poly_mul(pmf, factor)
    return np.trim_zeros(np.concatenate([np.zeros(shift), pmf]), "b")


def _has_core(edges: np.ndarray, alive: np.ndarray, k: int) -> bool:
    """Whether the flagged points, with those of the (a, b) edges that join
    two of them, hold a k-core: points that each have k neighbours or more
    among themselves. The edges hold no repeated pair; alive is not
    modified."""
    alive = alive.copy()
    while True:
        edges = edges[alive[edges].all(axis=1)]
        degree = np.bincount(edges.ravel(), minlength=alive.size)
        peeled = alive & (degree < k)
        if not peeled.any():
            return bool(alive.any())
        alive &= ~peeled


def _edge_factor(weight: int) -> np.ndarray:
    """The count polynomial of a tuple edge: t**weight where its two flags differ."""
    factor = np.zeros((2, 2, weight + 1))
    factor[0, 0, 0] = factor[1, 1, 0] = 1.0
    factor[0, 1, weight] = factor[1, 0, weight] = 1.0
    return factor


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of count polynomials (last axis), broadcast over the flag axes."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    flags = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(flags + (a.shape[-1] + b.shape[-1] - 1,))
    for j in range(b.shape[-1]):
        out[..., j:j + a.shape[-1]] += b[..., j, None] * a
    return out


def law_thresholds(law: np.ndarray) -> np.ndarray:
    """Per cumulative sum c of law, the first key whose uniform reaches it.

    Returns int64 keys in [0, KEY_LIMIT], non-decreasing: per c, the first
    key k with sampling.uniform_from_keys(k) >= c, computed with those float
    operations, and KEY_LIMIT when no key reaches c. A key's uniform is at
    or above c exactly when the key is at or above c's threshold, since the
    uniform is non-decreasing in the key.
    """
    cdf = np.cumsum(law)
    # u = (k + 0.5) 2**-53 first reaches c within two keys of c 2**53.
    guess = np.floor(cdf * float(KEY_LIMIT))
    usable = np.isfinite(guess)
    guess = np.where(usable, np.clip(guess, 0, KEY_LIMIT), 0).astype(np.int64)
    return _first_keys(lambda keys: uniform_from_keys(keys) >= cdf, guess, usable, 2)


def counts_from_law(law: np.ndarray, config: PseudoConfig) -> np.ndarray:
    """Per-replica null counts drawn from the law of order3_count_law.

    Replica r's count is the law's inverse CDF at its uniform
    sampling.uniform_from_keys(draw_keys(seed, STREAM_NULL_COUNT, r, 0)):
    the number of cumulative sums of the law at or below it, clipped to the
    top of the support, which a uniform above the last sum (rounding keeps
    it from being 1 exactly) would pass. A law under which every key gets
    one count, such as a law with one support point, draws no key. Like
    every stream, a replica's count depends on (seed, r) alone. Keys are
    drawn in blocks of LAW_BLOCK replicas into reused buffers, so the
    temporaries stay small whatever the replica count, and LawCounter
    counts each block. A replica count past the budget raises DomainError,
    as in classical_null_distribution.
    """
    check_budget("replicas", config.replicas, REPLICA_BYTES)
    counter = LawCounter(law)
    counts = np.empty(config.replicas, dtype=np.int64)
    if counter.constant is not None:
        counts.fill(counter.constant)
        return counts
    keys, scratch = np.empty((2, min(config.replicas, LAW_BLOCK)), dtype=np.uint64)
    for start in range(0, config.replicas, LAW_BLOCK):
        ids = np.arange(start, min(config.replicas, start + LAW_BLOCK))
        block_keys = draw_keys(
            config.seed, STREAM_NULL_COUNT, ids, 0,
            out=keys[:ids.size], scratch=scratch[:ids.size],
        )
        counter.count(block_keys, out=counts[start:start + ids.size])
    return counts


class LawCounter:
    """Counts of keys under a law, by integer comparison with law_thresholds.

    Clipping to the top of the support S drops every sum from the S-th on:
    the thresholds are non-decreasing, so min(#{j : t_j <= k}, S) is #{j <
    S : t_j <= k}. Equal sums (a zero inside the law) share a threshold, so
    a key counts the distinct thresholds, the levels, at or below it, one
    comparison pass each into a buffer of the narrowest unsigned dtype that
    holds the number of levels, and table maps that number to the count.
    Level 0 is at or below every key and level KEY_LIMIT above every key,
    so neither takes a pass; with no level in between every key gets the
    same count, constant.
    """

    def __init__(self, law: np.ndarray) -> None:
        thresholds = law_thresholds(law)[:np.flatnonzero(law)[-1]]
        levels, first = np.unique(thresholds, return_index=True)
        self.table = np.append(first, thresholds.size)
        self.base = int(np.count_nonzero(levels == 0))
        inner = (levels > 0) & (levels < KEY_LIMIT)
        self.levels = levels[inner].astype(np.uint64)
        self.dtype = np.min_scalar_type(self.base + self.levels.size)
        self.constant = None if self.levels.size else int(self.table[self.base])

    def count(self, keys: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The count of each uint64 key, written to out (int64) when given."""
        if out is None:
            out = np.empty(keys.shape, dtype=np.int64)
        below = np.full(keys.shape, self.base, dtype=self.dtype)
        flags = np.empty(keys.shape, dtype=bool)
        for level in self.levels:
            np.greater_equal(keys, level, out=flags)
            below += flags
        return np.take(self.table, below, out=out, mode="clip")


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
    chunks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[float, int]:
    """Goodness of fit of observed K values against the model-curve prediction.

    Takes the tuples in chunks, each a (observed K, its propagated sd,
    model K) triple of arrays, and reads every chunk before it raises.
    Tuples share measured points and are therefore strongly correlated;
    this statistic treats them as independent and is descriptive only. dof
    is the tuple count - 1.

    The squares and the sum run in Python floats, one tuple after the
    other across the chunks: float ** 2 calls C pow, which can differ from
    x * x in the last bit, and np.sum adds in a different order, so either
    would move the reported digits. The sum does not depend on where the
    chunks are cut.
    """
    chi2, tuples, positive = 0.0, 0, True
    for k_values, k_sigma, k_model in chunks:
        tuples += len(k_values)
        positive = positive and not (np.asarray(k_sigma) <= 0.0).any()
        if positive:
            for pull in ((np.asarray(k_values) - k_model) / k_sigma).tolist():
                chi2 += pull ** 2
    if tuples < 2:
        raise DomainError("need at least two K values for a goodness-of-fit")
    if not positive:
        raise DomainError("every K value needs a positive uncertainty")
    return chi2, tuples - 1
