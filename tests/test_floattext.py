"""floattext's array formatter against repr, value by value."""

import numpy as np
import pytest

from nulgi import floattext
from nulgi.floattext import float_text


def assert_repr(values):
    """The array passes write every value as its repr, in order."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), 8192):
        part = values[start:start + 8192]
        got, want = floattext._array_text(part), list(map(repr, part.tolist()))
        if got != want:
            wrong = [(w, g) for w, g in zip(want, got) if w != g]
            raise AssertionError(f"{len(got)} cells for {len(want)} values, "
                                 f"{len(wrong)} differ, first {wrong[:5]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


@pytest.mark.parametrize("seed", [20240, 20241])
def test_random_bit_patterns(seed):
    # Two seeds of 550 000 patterns: over a million finite doubles in all.
    bits = np.random.default_rng(seed).integers(0, 2**64, size=550_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) > 500_000
    # Subnormals turn up among them too.
    exponents = (values.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    assert np.count_nonzero(exponents == 0) > 100
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    assert_repr(np.concatenate([values, edges]))


def test_short_decimals_and_their_neighbours():
    rng = np.random.default_rng(7)
    mantissas = rng.integers(1, 10**7, size=60_000)
    exponents = rng.integers(-40, 40, size=60_000)
    decimals = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    simple = [d / 10**p for d in range(1, 1000) for p in range(6)]
    assert_repr(with_neighbours(decimals + simple))
    assert_repr(-with_neighbours(decimals[:1000]))


def test_powers_of_two_and_integers():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(with_neighbours(np.concatenate([powers, -powers])))
    integers = np.concatenate([np.arange(0, 100_000), 2.0**53 - np.arange(1000),
                               10.0 ** np.arange(23), 10.0 ** np.arange(23) - 1])
    assert_repr(with_neighbours(integers))


def test_the_switch_points_of_the_exponent_form():
    # repr is positional from 1e-4 up to, not including, 1e16.
    edges = [1e-4, 9.9999999999999e-5, 1.0000000000001e-4, 1e16, 9999999999999998.0,
             1.0000000000000002e16, 123456789012345.6, 1234567890123456.8, 0.00012345678901234567]
    assert_repr(with_neighbours(edges + [-e for e in edges]))
    text = floattext._array_text(np.array([1e-4, 1e-5, 1e16, 1e15, 5e-324, -0.0]))
    assert text == ["0.0001", "1e-05", "1e+16", "1000000000000000.0", "5e-324", "-0.0"]


def test_three_digit_exponents():
    rng = np.random.default_rng(11)
    exponents = rng.integers(-320, 308, size=20_000)
    values = rng.uniform(1, 10, size=20_000) * 10.0 ** exponents.astype(float)
    assert np.count_nonzero(np.abs(exponents) >= 100) > 10_000
    assert_repr(with_neighbours(values))
    assert floattext._array_text(np.array([1e100, 1e-100, 1e99, 1e-99])) == [
        "1e+100", "1e-100", "1e+99", "1e-99"]


@pytest.mark.parametrize("length", [0, 1, 7, 1000])
def test_float_text_is_repr_at_every_length(length):
    values = np.random.default_rng(length).normal(size=length) * 1e-3
    values[: length // 2] *= -1e20
    assert float_text(values) == list(map(repr, values.tolist()))
