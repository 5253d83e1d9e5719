"""Counter-based streams against the allocating hash of tests/oracles.py."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nulgi import sampling
from nulgi.errors import DomainError
from nulgi.sampling import (
    KEY_LIMIT,
    STREAM_PSEUDODATA,
    STREAM_SYNTH_PROB,
    draw_keys,
    normal,
    normal_from_keys,
    truncated_normal,
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


@given(
    st.lists(st.integers(0, KEY_LIMIT - 1), max_size=64),
    st.floats(-1e300, 1e300),
    st.floats(0.0, 1e300),
)
def test_every_key_draws_a_finite_value_inside_the_open_interval(keys, mean, sd):
    keys = sorted({0, KEY_LIMIT - 2, KEY_LIMIT - 1, *keys})
    u = uniform_from_keys(np.array(keys, dtype=np.uint64))
    assert ((0.0 < u) & (u < 1.0)).all()
    assert (np.diff(u) >= 0.0).all()
    # Below the top key u is (k + 0.5) 2**-53 in float64; the top key
    # takes the value of the key below it.
    want = [(float(k) + 0.5) * 2.0**-53 for k in keys[:-1]]
    assert u[:-1].tolist() == want and u[-1] == u[-2]
    assert np.isfinite(normal_from_keys(np.array(keys, dtype=np.uint64), mean, sd)).all()


def test_the_top_key_draws_what_the_key_below_it_draws_at_every_point():
    keys = np.array([[KEY_LIMIT - 1], [KEY_LIMIT - 2]], dtype=np.uint64)
    top, below = normal_from_keys(keys, mean=MEANS.T, sd=SDS.T)
    assert np.array_equal(bits(top), bits(below))
    assert np.isfinite(top).all()


# Per point: sd 0 below, inside and above [0, 1]; means outside the
# interval, which take many redraws; means at and near its ends.
TRUNC_MEANS = np.array([-0.2, 0.5, 1.2, -0.3, 1.4, 0.0, 1.0, 0.02, 0.98, 0.5, 0.7, 0.3])
TRUNC_SDS = np.array([0.0, 0.0, 0.0, 0.2, 0.3, 0.05, 0.05, 0.05, 0.05, 2.0, 0.1, 0.01])

TRUNCATED = {
    "scalars": (5, STREAM_SYNTH_PROB, 3, 4, 0.9, 0.2),
    "broadcast": (
        7, STREAM_PSEUDODATA, np.arange(40)[None, :], np.arange(12)[:, None],
        TRUNC_MEANS[:, None], TRUNC_SDS[:, None],
    ),
    "negative": (
        2**64 - 1, STREAM_PSEUDODATA, -np.arange(30)[:, None], -3, TRUNC_MEANS, TRUNC_SDS,
    ),
    "synthetic": (0, STREAM_SYNTH_PROB, 0, np.arange(12), TRUNC_MEANS, TRUNC_SDS),
}


@pytest.mark.parametrize("case", TRUNCATED)
def test_truncated_normal_is_bit_equal_to_a_redraw_loop(case):
    got = truncated_normal(*TRUNCATED[case])
    want = oracles.counter_truncated_normal(*TRUNCATED[case])
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))
    assert ((got >= 0.0) & (got <= 1.0)).all()


def test_truncated_normal_rejects_a_negative_sd():
    with pytest.raises(DomainError, match="sd must be non-negative"):
        truncated_normal(0, STREAM_SYNTH_PROB, 0, np.arange(3), 0.5, np.array([0.1, -0.1, 0.1]))


def test_truncated_normal_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(sampling, "TRUNCATION_ATTEMPTS", 3)
    with pytest.raises(RuntimeError, match="after 3 attempts"):
        truncated_normal(0, STREAM_SYNTH_PROB, 0, np.arange(4), -50.0, 1.0)
