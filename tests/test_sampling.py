"""Counter-based streams against the allocating hash of tests/oracles.py."""

import numpy as np
import pytest

from nulgi.sampling import (
    KEY_LIMIT,
    STREAM_PSEUDODATA,
    draw_keys,
    normal,
    uniform_from_keys,
    uniform_open,
)

import oracles

ROWS = np.arange(1000, 1300)[None, :]
POINTS = np.arange(30)[:, None]

WORDS = {
    "scalars": (7, STREAM_PSEUDODATA, 12, 5),
    "broadcast": (7, STREAM_PSEUDODATA, ROWS, POINTS),
    "negative": (2**64 - 1, STREAM_PSEUDODATA, -np.arange(50)[None, :], -3),
    "attempt word": (7, STREAM_PSEUDODATA, ROWS, POINTS, 4),
}
MEANS = np.linspace(0.0, 1.0, 30)[:, None]
SDS = np.linspace(0.0, 2.0, 30)[:, None]


def bits(x):
    """The float64 bit patterns of x, with its shape."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case", WORDS)
def test_uniform_open_is_bit_equal_to_the_allocating_hash(case):
    got = uniform_open(*WORDS[case])
    want = oracles.counter_uniform(*WORDS[case])
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("case", WORDS)
def test_normal_is_bit_equal_to_the_allocating_hash(case):
    # Per-point means and sds (one sd is 0); on the (1, 50) negative words
    # they also widen the result past the draws' shape, to (30, 50).
    mean, sd = (0.25, 0.5) if case == "scalars" else (MEANS, SDS)
    got = normal(*WORDS[case], mean=mean, sd=sd)
    want = oracles.counter_normal(*WORDS[case], mean=mean, sd=sd)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def test_keys_written_into_reused_buffers_are_the_same_keys():
    words = (7, STREAM_PSEUDODATA, ROWS, POINTS, 0)
    fresh = draw_keys(*words)
    out, scratch = np.full((2, 30, 400), 12345, dtype=np.uint64)
    for _ in range(2):
        keys = draw_keys(*words, out=out[:, :300], scratch=scratch[:, :300])
        assert np.shares_memory(keys, out)
        assert np.array_equal(keys, fresh)
    assert np.array_equal(
        bits(uniform_from_keys(fresh)), bits(oracles.counter_uniform(*words))
    )
    assert fresh.max() < KEY_LIMIT
