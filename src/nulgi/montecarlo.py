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
import os
import warnings
from concurrent import futures
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

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
    replicas_drawing_key,
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

# Half-width, in keys, of the bracket _key_thresholds checks around the
# ndtr estimate of each threshold key before bisecting inside it.
KEY_BRACKET = 1 << 10


@dataclass(frozen=True)
class PseudoConfig:
    """Knobs for the pseudo-experiment engine.

    tolerance is never read: the engine does not re-select, and the tuples
    come from RunConfig.tolerance. It remains because the report's config
    echo and the accepted pseudo config keys carry it, so it must be a
    finite number like the widths. Systematic nuisances,
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
        # A nan or inf width or tolerance would run and write NaN or
        # Infinity into the report, which is not JSON.
        for name in ("tolerance", "sys_amplitude_sigma", "sys_phase_sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise DomainError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
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

    Neither key pass draws the keys of an inert point: a used point whose
    keys below the top one, KEY_LIMIT - 1, are all safe. The top key is
    unsafe at every point. Its k + 0.5 = 2**53 - 0.5 is no float64 and
    rounds to even, to 2**53, so u = 1, ndtri(u) = inf and C is inf (nan at
    sigma 0), above every edge. Every lower key has k + 0.5 <= 2**53 - 1.5,
    which rounds to at most 2**53 - 2, so its u < 1. At order 3 the test is
    low == 0 and band_lo >= KEY_LIMIT - 1: every key below the top has C in
    [-M, 1 - b], flag 0. At order >= 4 it is low == 0 and high >=
    KEY_LIMIT - 1: every key below the top lies in the margin. An inert
    point's flag is 0 in every replica, the top key's inf or nan included,
    so a tuple edge from a live point to an inert one is cut exactly when
    the live flag is 1 and an edge between two inert points never is; the
    cut pass and the block skip's test draw the live points' rows only. The
    replicas in which an inert point does draw the top key are found by
    running the hash backwards (sampling.replicas_drawing_key), which is
    exact: draw_keys hashes the words (seed, stream, replica, point, 0),
    each round adding a word to the state modulo 2**64 and mixing it, and
    every round is a bijection of 64-bit words (_mix64's xorshifts and odd
    multiplications invert). So the hash, seen as a function of the replica
    word alone, is a bijection; the top key is drawn by exactly one replica
    word per hash word whose top 53 bits are ones, 2**11 in all, and those
    below the replica count are every replica that draws it. At order 3
    they join the guarded replicas; at order >= 4 a slice holding one is
    not skipped. With no live point no key block is drawn at all, and only
    those replicas reach the float expression, which still reads every used
    point's draw: at order >= 4 the inert rows of a key block are drawn
    once, when one of its slices is not skipped.

    Runs with systematics, whose means move per replica, evaluate every
    replica with the float expression.

    Work runs in blocks sized from the fixed NULL_BLOCK_BYTES budget.
    Keys are drawn in key blocks of null_block_shape(0, points) replicas,
    laid out point-major with one row per point that a tuple uses, live
    points first, into two buffers reused from block to block; a key block
    is long enough that numpy's per-call overhead is small beside the hash.
    The order-3 cut pass draws the live rows only, in key blocks of
    null_block_shape(0, live points) replicas. The block skip and
    the float expression run on column slices of a key block, tuple blocks
    of null_block_shape(tuples, points) replicas, each evaluating as many
    tuples at a time as the budget leaves. So the memory a block holds is a
    small constant multiple of the budget whatever the replica or tuple
    count (only a spectrum of thousands of points could push its draws past
    it). Each tuple component is a row gather and the sum and product
    accumulate in place.

    The replicas are cut at key-block edges into contiguous shards, one per
    core in the process's affinity mask and at most one per key block, and
    the shards run on a thread pool: numpy's ufuncs and gathers and scipy's
    ndtri release the GIL. The key thresholds, the top-key replicas and the
    systematic responses are computed once, before the shards. Each shard
    owns its key buffers and writes only its own replicas' counts; at order
    3 it runs the cut pass and then the float pass over its own guarded and
    top-key replicas. The counts do not depend on the worker count or on
    any blocking: every draw is keyed by (seed, stream, replica, point), a
    replica's count reads only its own draws, every tuple's statistic is
    evaluated with the same operations in the same order, and the key
    shortcuts return the counts of the float expression exactly (the proofs
    above).

    Parameters
    ----------
    dataset : sequence of MeasuredPoint
        Phase-decorated spectrum the tuples index into.
    tuples : TupleSet
        Selected tuples of the dataset, all of one order n.
    config : PseudoConfig
        Replica count, seed, and systematics settings.
    chunk_size : int, optional
        Replicas per key block and per tuple block; by default derived
        from NULL_BLOCK_BYTES. The counts are identical for every chunking.

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

    use_sys = config.include_systematics and (
        config.sys_amplitude_sigma > 0.0 or config.sys_phase_sigma > 0.0
    )
    counts = np.zeros(config.replicas, dtype=np.int64)
    key_replicas, _ = null_block_shape(0, used.size, chunk_size)
    block_replicas, block_tuples = null_block_shape(len(tuples), used.size, chunk_size)
    bound = lgi_bound(tuples.n)

    # Computed once, read by every shard.
    cut_order3 = tuples.n == 3 and not use_sys
    skip_blocks = tuples.n >= 4 and not use_sys
    inert = np.zeros(used.size, dtype=bool)
    if cut_order3 or skip_blocks:
        edges = _key_thresholds(
            probs[used], point_sd[used], ORDER3_EDGES if cut_order3 else MARGIN_EDGES
        )
        # Every key below the top one is safe: C in [-M, 1 - b], or in the margin.
        inert = (edges[0] == 0) & (edges[1] >= KEY_LIMIT - 1)
    # Live points first: the key passes draw rows [0, live) only.
    order = np.argsort(inert, kind="stable")
    live = used.size - int(np.count_nonzero(inert))
    used, local = used[order], np.argsort(order)[local]
    means, sds = probs[used], point_sd[used]
    # One contiguous index row per component: block slices stay contiguous.
    components = np.ascontiguousarray(local.T)
    # The replicas in which an inert point draws its one unsafe key.
    top_keyed = np.empty(0, dtype=np.int64)
    if live < used.size:
        top_keyed = replicas_drawing_key(
            config.seed, STREAM_PSEUDODATA, used[live:], KEY_LIMIT - 1, config.replicas
        )
    if cut_order3 or skip_blocks:
        edges = edges[:, order[:live]]
    if cut_order3:
        # The tuple graph's edges, an inert end as row live, whose flag is
        # always 0; a repeated pair (a, a) and an inert pair add nothing.
        ends = np.minimum(local, live)
        ends = ends[ends[:, 0] != ends[:, 1]].T
    if skip_blocks:
        # The keys of a live point's in-margin draws are [low, high).
        low, high = edges.astype(np.uint64)
    if use_sys:
        amp_resp, phase_resp = (resp[used][:, None] for resp in _systematic_responses(dataset))

    def settled(ids: np.ndarray, live_keys: np.ndarray, unsettled: np.ndarray) -> bool:
        """Whether a slice of replicas counts 0 without the float expression."""
        # Most out-of-margin draws lie above 1 - b: test the top end first.
        return (
            (live_keys.max(axis=1) < high).all()
            and (live_keys.min(axis=1) >= low).all()
            and not (unsettled.size and np.isin(ids, unsettled).any())
        )

    def run_shard(replica_ids: np.ndarray) -> None:
        # Replicas that the key passes cannot settle.
        unsettled = top_keyed[
            (top_keyed >= replica_ids[0]) & (top_keyed <= replica_ids[-1])
        ]
        if cut_order3 and live:
            blocks = _key_blocks(
                config.seed, replica_ids, used[:live],
                null_block_shape(0, live, chunk_size)[0],
            )
            guarded = _order3_cut_counts(edges, ends, blocks, counts)
            unsettled = np.union1d(unsettled, guarded)
        if cut_order3 or (skip_blocks and not live):
            # Every other replica's count is settled: only these need the
            # float expression.
            replica_ids = unsettled
        eager = live if skip_blocks else used.size
        for block_ids, keys, draw_rest in _key_blocks(
            config.seed, replica_ids, used, key_replicas, eager
        ):
            spans = [slice(first, first + block_replicas)
                     for first in range(0, block_ids.size, block_replicas)]
            if skip_blocks:
                spans = [span for span in spans
                         if not settled(block_ids[span], keys[:live, span], unsettled)]
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

                # A top-key draw has C inf (nan at sd 0), and sum(C) -
                # prod(C) can then be inf - inf: a nan, which is rightly no
                # violation. errstate is per thread, so each shard sets it.
                with np.errstate(invalid="ignore"):
                    # Point-major draws: corr[point, replica] = 2 P - 1.
                    corr = normal_from_keys(keys[:, span], mean=block_means, sd=sds)
                    corr *= 2.0
                    corr -= 1.0

                    block_counts = np.zeros(ids.size, dtype=np.int64)
                    for start in range(0, len(tuples), block_tuples):
                        cols = components[:, start:start + block_tuples]
                        corr_sum = corr[cols[0]]
                        corr_prod = corr_sum.copy()
                        for col in cols[1:]:
                            c = corr[col]
                            corr_sum += c
                            corr_prod *= c
                        corr_sum -= corr_prod
                        block_counts += np.count_nonzero(corr_sum > bound, axis=0)
                counts[ids] = block_counts

    # Shards of whole key blocks, as even as the blocks allow.
    n_blocks = -(-config.replicas // key_replicas)
    workers = min(_available_cores(), n_blocks)
    cuts = [min(config.replicas, key_replicas * (n_blocks * i // workers))
            for i in range(workers + 1)]
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        shards = [pool.submit(run_shard, np.arange(start, stop))
                  for start, stop in zip(cuts, cuts[1:])]
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


def _key_blocks(
    seed: int, replica_ids: np.ndarray, points: np.ndarray, block_replicas: int,
    eager: Optional[int] = None,
):
    """Yield (ids, keys, draw_rest): blocks of replica_ids and their STREAM_PSEUDODATA keys.

    keys[i, j] is the key of replica ids[j] at point points[i]. The rows of
    the first eager points (all by default) are drawn before the block is
    yielded, and draw_rest() draws the others. Each block's keys overwrite
    the last block's, in the same buffers.
    """
    # Block buffers, reused: fresh arrays of this size cost page faults.
    width = min(block_replicas, replica_ids.size)
    key_buf, scratch_buf = np.empty((2, points.size, width), dtype=np.uint64)
    eager = points.size if eager is None else eager

    def draw(ids, rows):
        if points[rows].size:
            span = slice(0, ids.size)
            draw_keys(
                seed, STREAM_PSEUDODATA, ids[None, :], points[rows, None], 0,
                out=key_buf[rows, span], scratch=scratch_buf[rows, span],
            )

    for start in range(0, replica_ids.size, block_replicas):
        ids = replica_ids[start:start + block_replicas]
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

    The bisection starts from a bracket of KEY_BRACKET keys either side of
    an ndtr estimate of the threshold where both its ends check out with
    the draws' float operations: the key below the bracket does not reach
    the edge, unless the bracket starts at 0, and its top key does, unless
    it is KEY_LIMIT. Where a check fails, at sigma 0 and where the estimate
    is not finite, the search starts from [0, KEY_LIMIT]. For a
    non-decreasing C both hold the same first key, so the bracket only
    shortens the search.
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
        lo = np.clip(guess - KEY_BRACKET, 0, KEY_LIMIT)
        hi = np.clip(guess + KEY_BRACKET, 0, KEY_LIMIT)
        usable &= (lo == 0) | ~reached(np.maximum(lo - 1, 0))
        usable &= (hi == KEY_LIMIT) | reached(np.minimum(hi, KEY_LIMIT - 1))
        lo = np.where(usable, lo, 0)
        hi = np.where(usable, hi, KEY_LIMIT)
        # Every key at or past KEY_LIMIT - 1 maps to u = 1 and reaches every
        # edge (0 * inf is nan at sigma 0), so once lo == hi the step below
        # leaves both in place; each step at least halves hi - lo.
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            now = reached(mid)
            hi = np.where(now, mid, hi)
            lo = np.where(now, lo, mid + 1)
    return lo


def _order3_cut_counts(
    edges: np.ndarray, ends: np.ndarray, blocks, counts: np.ndarray
) -> np.ndarray:
    """Order-3 counts as cut sizes of key flags; see classical_null_distribution.

    edges holds the _key_thresholds of ORDER3_EDGES, one column per live
    point. ends holds the tuple graph's edges as two rows of point indices,
    where index edges.shape[1] stands for every inert point, whose flag is
    always 0. blocks yields the (ids, keys, _) of _key_blocks over the live
    points; each block's cut sizes are written to counts[ids]. Returns the
    replicas that hold a guarded draw on a live point, whose counts the
    caller must evaluate in floating point.
    """
    live = edges.shape[1]
    low, band_lo, band_hi, high = (edge[:, None].astype(np.uint64) for edge in edges)
    # The safe keys of a point are [low, band_lo), C <= 1 - b, and
    # [band_hi, high), C >= 1 + b. Unsigned wraparound makes each a single
    # comparison: key - band_hi < high - band_hi, then key - low < band_lo -
    # low after adding band_hi - low back.
    upper_width, lower_width, hi_to_low = high - band_hi, band_lo - low, band_hi - low

    guarded = []
    flags = None
    for ids, keys, _ in blocks:
        if flags is None:
            # The "C > 1" flags of the live points, and a last row of 0s.
            flags = np.zeros((live + 1, ids.size), dtype=bool)
        keys -= band_hi
        upper = flags[:, :ids.size]
        np.less(keys, upper_width, out=upper[:live])
        # Cut size x^T L x: the tuple edges whose ends differ in "C > 1".
        counts[ids] = np.count_nonzero(upper[ends[0]] != upper[ends[1]], axis=0)

        keys += hi_to_low
        safe = keys < lower_width
        safe |= upper[:live]
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
