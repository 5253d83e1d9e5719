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
# truncated_normal gives up on an element after this many draws.
TRUNCATION_ATTEMPTS = 10000

# Stream identifiers; each independent use of randomness gets its own lane.
STREAM_PSEUDODATA = 1       # per-(replica, point) pseudo-measurement draws
STREAM_SYS_AMPLITUDE = 2    # per-replica amplitude nuisance
STREAM_SYS_PHASE = 3        # per-replica phase-scale nuisance
STREAM_SYNTH_PROB = 4       # synthetic dataset probability noise
STREAM_SYNTH_ENERGY = 5     # synthetic dataset bin placement jitter


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


# _mix64's steps in reverse: each xorshift, then the inverse modulo 2**64 of
# the odd factor applied before it.
_UNMIX_STEPS = tuple(
    (np.uint64(shift), None if factor is None else np.uint64(pow(factor, -1, 1 << 64)))
    for shift, factor in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None))
)


def _unmix64(h: np.ndarray) -> np.ndarray:
    """The inverse of _mix64, as a new array."""
    h = np.array(h, dtype=np.uint64)
    _unmix64_into(h, np.empty_like(h), np.empty_like(h))
    return h


def _unmix64_into(h: np.ndarray, scratch: np.ndarray, partial: np.ndarray) -> None:
    """_mix64 undone in place on h, with scratch and partial (same shape) for temporaries.

    Each step of _mix64 is a bijection of 64-bit words. A multiplication by
    an odd factor is undone by the factor's inverse modulo 2**64. h = x ^
    (x >> s) shows the top s bits of x, and x_1 = h ^ (h >> s) then holds
    its top 2 s bits, and h ^ (x_1 >> s) its top 3 s bits: all of x, for
    every shift s >= 22 the mixer uses.
    """
    for shift, factor in _UNMIX_STEPS:
        np.right_shift(h, shift, out=scratch)
        np.bitwise_xor(h, scratch, out=partial)
        np.right_shift(partial, shift, out=scratch)
        h ^= scratch
        if factor is not None:
            h *= factor


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

    uniform_open is (key + 0.5) * 2**-53, a non-decreasing function of the
    key, so a draw's side of any threshold is a comparison of its key.
    out and scratch, uint64 arrays of the broadcast shape, receive the keys
    and the hash's temporaries, so a caller drawing block after block can
    reuse them instead of allocating afresh.
    """
    h = _hash_words(seed, stream, *index_words, out=out, scratch=scratch)
    if isinstance(h, np.ndarray):
        h >>= np.uint64(11)
        return h
    return h >> np.uint64(11)


def replicas_drawing_key(seed: int, stream: int, points, key: int, replicas: int) -> np.ndarray:
    """The replicas r < replicas that draw key at some p in points, sorted.

    A replica r draws key at p when draw_keys(seed, stream, r, p, 0) ==
    key. The search runs the hash backwards: the 2**11 hash words whose
    top 53 bits are key are unmixed, and the words added before each mix
    subtracted, round by round down to the replica word. Each round adds a
    word and mixes, a bijection of 64-bit words while the other words stay
    fixed, so each hash word has exactly one replica word, and the words
    found below replicas are every replica that draws key. Temporaries
    hold 2**11 words, whatever the point or replica count.
    """
    words = np.uint64(key) << np.uint64(11) | np.arange(1 << 11, dtype=np.uint64)
    # Wraparound is the mixer's working principle, not an error.
    with np.errstate(over="ignore"):
        # Back through the attempt round (word 0), to the point round's sum.
        lifted = _unmix64(_unmix64(words) - _GOLDEN) - _GOLDEN
        offset = _hash_words(seed, stream) + _GOLDEN
        h, scratch, partial = np.empty((3, lifted.size), dtype=np.uint64)
        found = [np.empty(0, dtype=np.uint64)]
        for point in np.ravel(points).tolist():
            np.subtract(lifted, _as_u64(point), out=h)
            _unmix64_into(h, scratch, partial)
            h -= offset
            found.append(h[h < np.uint64(replicas)])
    return np.unique(np.concatenate(found)).astype(np.int64)


def uniform_from_keys(keys) -> np.ndarray:
    """The open-interval uniform (key + 0.5) * 2**-53 of draw_keys keys."""
    return (keys.astype(np.float64) + 0.5) * 2.0**-53


def normal_from_keys(keys, mean=0.0, sd=1.0) -> np.ndarray:
    """mean + sd * ndtri(u) of draw_keys keys, the value normal returns."""
    return mean + sd * ndtri(uniform_from_keys(keys))


def uniform_open(seed: int, stream: int, *index_words) -> np.ndarray:
    """Uniform draw in the open interval (0, 1), one per broadcast element."""
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
    """
    means, sds = np.asarray(mean, dtype=float), np.asarray(sd, dtype=float)
    idx_a, idx_b, means, sds = np.broadcast_arrays(index_a, index_b, means, sds)
    if np.any(sds < 0.0):
        raise DomainError("sd must be non-negative")
    out = np.clip(means, 0.0, 1.0, out=np.empty(means.shape))
    idx_a, idx_b, means, sds = (arr.ravel() for arr in (idx_a, idx_b, means, sds))
    # Flat positions of the elements still to land, in increasing order.
    pending = np.flatnonzero(sds != 0.0)
    for attempt in range(TRUNCATION_ATTEMPTS):
        if not pending.size:
            break
        keys = draw_keys(seed, stream, idx_a[pending], idx_b[pending], attempt)
        draw = normal_from_keys(keys, means[pending], sds[pending])
        ok = (draw >= 0.0) & (draw <= 1.0)
        out.ravel()[pending[ok]] = draw[ok]
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError(
            f"truncated draw failed to land in [0.0, 1.0] after {TRUNCATION_ATTEMPTS} attempts"
        )
    return out
