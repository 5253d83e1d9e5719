"""Deterministic, counter-based random streams.

Every variate is a pure function of (seed, stream, index words..., attempt),
hashed through a splitmix64-style mixer to a 53-bit key (draw_keys) and
mapped to a normal via the inverse CDF. Draws therefore never depend on
evaluation order, chunking, or worker count, and any single (replica,
point) value can be reproduced in isolation. Truncation to [0, 1] is done
by re-drawing with an incremented attempt counter, never by clipping.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import DomainError

_U64_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# draw_keys returns keys in [0, KEY_LIMIT): the top 53 bits of the hash.
KEY_LIMIT = 1 << 53
# truncated_normal gives up on an element after this many draws, and draws
# this many elements at a time.
TRUNCATION_ATTEMPTS = 10000
TRUNCATION_BLOCK = 1 << 16

# Stream identifiers; each independent use of randomness gets its own lane.
STREAM_PSEUDODATA = 1       # per-(replica, point) pseudo-measurement draws
STREAM_SYS_AMPLITUDE = 2    # per-replica amplitude nuisance
STREAM_SYS_PHASE = 3        # per-replica phase-scale nuisance
STREAM_SYNTH_PROB = 4       # synthetic dataset probability noise
STREAM_SYNTH_ENERGY = 5     # synthetic dataset bin placement jitter
STREAM_NULL_COUNT = 6       # per-replica count drawn from an exact null law


def _as_u64(word) -> np.ndarray:
    if isinstance(word, (int, np.integer)):
        return np.uint64(int(word) & _U64_MASK)
    arr = np.asarray(word)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DomainError("index words must be integers")
    return arr.astype(np.uint64)


def _mix64(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint64(30))
    h = h * np.uint64(0xBF58476D1CE4E5B9)
    h = h ^ (h >> np.uint64(27))
    h = h * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _mix64_into(h: np.ndarray, scratch: np.ndarray) -> None:
    """_mix64 in place on h, with scratch (same shape) for the shifts."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(h, np.uint64(shift), out=scratch)
        h ^= scratch
        h *= np.uint64(factor)
    np.right_shift(h, np.uint64(31), out=scratch)
    h ^= scratch


def _hash_words(*words, out=None, scratch=None) -> np.ndarray:
    """Avalanche-combine integer words (scalars or broadcastable arrays).

    Rounds below the full broadcast shape allocate as they go. The round
    that reaches it writes into out when given, and it and the remaining
    rounds then mix in place, their shifts going to scratch (allocated when
    not given). The integer operations are the same either way: additions
    wrap modulo 2**64, so h + golden + word may be added in any order.
    """
    words = [_as_u64(word) for word in words]
    shape = np.broadcast(*words).shape
    h = np.uint64(0)
    full = False
    # Wraparound is the mixer's working principle, not an error.
    with np.errstate(over="ignore"):
        for word in words:
            if full:
                h += _GOLDEN + word
            else:
                if out is not None and np.broadcast(h, word).shape == shape:
                    h = np.add(h, _GOLDEN + word, out=out)
                else:
                    h = h + _GOLDEN + word
                if not shape or h.shape != shape:
                    h = _mix64(h)
                    continue
                full = True
                if scratch is None:
                    scratch = np.empty_like(h)
            _mix64_into(h, scratch)
    return h


def draw_keys(seed: int, stream: int, *index_words, out=None, scratch=None) -> np.ndarray:
    """53-bit integer key of each draw, one per broadcast element.

    uniform_open is uniform_from_keys of the key, a non-decreasing function
    of it, so a draw's side of any threshold is a comparison of its key.
    out and scratch, uint64 arrays of the broadcast shape, receive the keys
    and the hash's temporaries, so a caller drawing block after block can
    reuse them instead of allocating afresh.
    """
    h = _hash_words(seed, stream, *index_words, out=out, scratch=scratch)
    if isinstance(h, np.ndarray):
        h >>= np.uint64(11)
        return h
    return h >> np.uint64(11)


def uniform_from_keys(keys) -> np.ndarray:
    """The uniform (k + 0.5) * 2**-53 of each draw_keys key k, in the open interval (0, 1).

    The top key, KEY_LIMIT - 1, takes the uniform of KEY_LIMIT - 2: its k +
    0.5 = 2**53 - 0.5 is no float64 and would round to even, to 2**53, and
    so to u = 1 and an infinite normal. Every other k + 0.5 rounds to at
    most 2**53 - 2. So u lies strictly between 0 and 1, every normal drawn
    from a key is finite, and u is a non-decreasing function of the key.
    """
    return (np.minimum(keys, KEY_LIMIT - 2).astype(np.float64) + 0.5) * 2.0**-53


def normal_from_keys(keys, mean=0.0, sd=1.0) -> np.ndarray:
    """mean + sd * ndtri(u) of draw_keys keys, the value normal returns."""
    return mean + sd * ndtri(uniform_from_keys(keys))


def uniform_open(seed: int, stream: int, *index_words) -> np.ndarray:
    """Uniform draw in the open interval (0, 1), one per broadcast element.

    It is uniform_from_keys of the draw's key, so 0 < u < 1 holds for every
    key, the top one included.
    """
    return uniform_from_keys(draw_keys(seed, stream, *index_words))


def normal(seed: int, stream: int, *index_words, mean=0.0, sd=1.0) -> np.ndarray:
    """Unbounded normal draw keyed by the given words."""
    return normal_from_keys(draw_keys(seed, stream, *index_words, 0), mean, sd)


def truncated_normal(seed: int, stream: int, index_a, index_b, mean, sd) -> np.ndarray:
    """Normal draws truncated to [0, 1] by resampling.

    index_a and index_b are integer arrays keying each element (e.g. replica
    and point indices), broadcast with mean and sd. Attempt a of an element
    draws normal_from_keys(draw_keys(seed, stream, index_a, index_b, a)).
    An element with sd == 0 returns its mean clamped to [0, 1]. Raises if
    an element fails to land within TRUNCATION_ATTEMPTS draws, which for
    sane inputs (mean within a few sd of the interval) cannot happen.

    The elements are drawn TRUNCATION_BLOCK at a time, in flat order, so
    the draws' temporaries do not grow with the element count.
    """
    means, sds = np.asarray(mean, dtype=float), np.asarray(sd, dtype=float)
    idx_a, idx_b, means, sds = np.broadcast_arrays(index_a, index_b, means, sds)
    if np.any(sds < 0.0):
        raise DomainError("sd must be non-negative")
    out = np.clip(means, 0.0, 1.0, out=np.empty(means.shape))
    for start in range(0, out.size, TRUNCATION_BLOCK):
        # Flat positions of the block's elements still to land, in increasing order.
        pending = start + np.flatnonzero(sds.flat[start:start + TRUNCATION_BLOCK] != 0.0)
        for attempt in range(TRUNCATION_ATTEMPTS):
            if not pending.size:
                break
            keys = draw_keys(seed, stream, idx_a.flat[pending], idx_b.flat[pending], attempt)
            draw = normal_from_keys(keys, means.flat[pending], sds.flat[pending])
            ok = (draw >= 0.0) & (draw <= 1.0)
            out.flat[pending[ok]] = draw[ok]
            pending = pending[~ok]
        if pending.size:
            raise RuntimeError(
                f"truncated draw failed to land in [0.0, 1.0] after {TRUNCATION_ATTEMPTS} attempts"
            )
    return out
