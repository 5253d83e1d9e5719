"""repr text of many float64 values at once, for the CSV writer.

float_text(values) equals list(map(repr, values.tolist())) for every
finite double, -0.0 included, but works in numpy passes over the whole
array rather than one interpreter call per value. They have two steps.

Digits. Each value's shortest decimal that reads back as the same double,
the closest one where several are shortest, comes from Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020; the algorithm of
Java 19's Double.toString) in uint64 arithmetic: three round-to-odd
products of a 126-bit power of ten with the binary significand, each 64 x
126 bits emulated on 32-bit limbs. repr picks the same decimal. For a
subnormal Schubfach may keep a second digit that repr drops, so the rare
subnormal takes repr itself.

Layout. Trailing zeros are stripped and each value is laid out by repr's
rules: positional for 1e-4 <= |x| < 1e16, with at least one digit on each
side of the point, else d.ddd, e, a sign and an exponent of at least two
digits. A value's digits are written, zero-padded and right-aligned, into
a 24-byte row of three uint64 words; the integer digits move one byte
down to make room for the point, and the bytes before the sign become
spaces, by masks from a template table indexed by (sign, integer digits,
fraction digits). The rows are decoded once and split on the spaces. The
few values in exponent form get their exponent appended as text.

The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U(2**63 - 1)
_MIN_NORMAL = 2.0**-1022
# One row of the exponent table per biased exponent, and as many again for
# a significand of 0 (a power of two), whose interval below is narrower.
_POWER_OF_TWO_ROWS = 2048
# A row of text: 24 bytes, the last digit in the last byte.
_ROW_BYTES = 24
# Digits a row shows before its point (<= 16) and after it (<= 20), plus one.
_INTEGERS, _FRACTIONS = 17, 21


@functools.cache
def _exponent_table():
    """Schubfach's constants per biased exponent, and again for a power of two.

    For q the binary exponent, k = floor(log10(2^q)) (of 3/4 2^q at a
    power of two) and h = q + floor(log2(10^-k)) + 2: g = floor(10^-k /
    2^r) + 1 for the r that puts it in [2^125, 2^126), as its halves g1
    2^63 + g0; the shift h + 2 of the significand; the shift of the
    interval's lower end, h + 1 (h at a power of two); and k. One row per
    constant, one column per exponent.
    """
    row = np.arange(2 * _POWER_OF_TWO_ROWS)
    biased = row % _POWER_OF_TWO_ROWS
    power_of_two = (row >= _POWER_OF_TWO_ROWS) & (biased > 1)
    q = biased - 1075  # 1023 of bias and 52 fraction bits; a subnormal's row goes unused
    k = (q * 661971961083 - power_of_two * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    g = []
    for e in range(int(-k.max()), int(-k.min()) + 1):
        r = ((e * 913124641741) >> 38) - 125
        if e < 0:
            beta = (1 << -r) // 10**-e
        else:
            beta = 10**e >> r if r >= 0 else 10**e << -r
        g.append(divmod(beta + 1, 1 << 63))
    g1, g0 = np.array(g, dtype=_U)[k.max() - k].T
    table = np.stack([g1, g0, *(a.astype(_U) for a in (h + 2, h + 1 - power_of_two, k))])
    table.flags.writeable = False
    return table


@functools.cache
def _text_tables():
    """pow10[j] = 10^j; group[v] the four ASCII digits of v < 10^4 in its low
    bytes, first digit lowest; the template table; exponent text by e + 400.

    template[:, (sign 17 + integer digits) 21 + fraction digits] holds, per
    row word three masks: bytes taken from the digits shifted one byte down
    (the integer part), bytes kept in place (the fraction) and bytes set
    (the point, the sign and the spaces before them).
    """
    pow10 = 10 ** np.arange(19)
    v = np.arange(10_000, dtype=_U)
    group = sum((v // _U(10 ** (3 - i)) % _U(10) + _U(48)) << _U(8 * i) for i in range(4))
    # Byte masks per (sign, integer digits, fraction digits) and byte j of the row.
    negative, integer, fraction = np.ix_(range(2), range(_INTEGERS), range(_FRACTIONS))
    j = np.arange(_ROW_BYTES)
    point = _ROW_BYTES - 1 - fraction[..., None]
    start = point - integer[..., None] - negative[..., None]
    shifted = (j >= point - integer[..., None]) & (j < point)
    kept = j > point
    fixed = np.where(j < start, ord(" "), 0) + np.where(j == point, ord("."), 0)
    fixed += np.where((j == start) & (negative[..., None] == 1), ord("-"), 0)
    masks = np.stack(np.broadcast_arrays(shifted * 255, kept * 255, fixed), axis=-2)
    masks = masks.astype(np.uint8)
    # (sign, integer, fraction, mask, word) -> (word, mask), one column per index.
    template = masks.view("<u8").reshape(-1, 3, 3).transpose(2, 1, 0).reshape(9, -1)
    template = template.astype(_U)
    exponent = [f"e{'-' if e < 0 else '+'}{abs(e):02d}" for e in range(-400, 400)]
    for table in (pow10, group, template):
        table.flags.writeable = False
    return pow10, group, template, exponent


def _product(g, cp0, cp1):
    """The 128-bit product of g < 2^64 with cp0 + cp1 2^32, as (high, low) words."""
    g0, g1 = g & _LOW32, g >> _U(32)
    p00, p01, p10, p11 = g0 * cp0, g0 * cp1, g1 * cp0, g1 * cp1
    mid = (p00 >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    high = p11 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    return high, (mid << _U(32)) | (p00 & _LOW32)


def _round_to_odd(x1, y1, y0):
    """Schubfach's r_o(g cp / 2^127) from x1 = high(g0 cp) and (y1, y0) = g1 cp."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z & _LOW63) != 0)


def _add_shifted(high, low, g, shift, back, sign):
    """(high, low) + sign g 2^shift on 128 bits; back is 64 - shift."""
    addend = g << shift
    if sign > 0:
        new_low = low + addend
        return high + (g >> back) + (new_low < low), new_low
    new_low = low - addend
    return high - (g >> back) - (new_low > low), new_low


def _interval(bits):
    """Schubfach's vb, vbl and vbr, the value and its rounding interval's
    ends in units of 10^k / 4 rounded to odd, and k, for each double's bits."""
    fraction = bits & _U(2**52 - 1)
    row = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    row[fraction == 0] += _POWER_OF_TWO_ROWS
    table = _exponent_table()
    g1, g0, cp_shift, left = table[:4, row]
    cp = (fraction | _U(2**52)) << cp_shift
    cp0, cp1 = cp & _LOW32, cp >> _U(32)
    x1, x0 = _product(g0, cp0, cp1)
    y1, y0 = _product(g1, cp0, cp1)
    vb = _round_to_odd(x1, y1, y0)
    # The interval's ends, c 4 + 2 and c 4 - 2 (- 1 at a power of two), shifted as cp.
    right = cp_shift - _U(1)
    right_back, left_back = _U(64) - right, _U(64) - left
    vbr = _round_to_odd(_add_shifted(x1, x0, g0, right, right_back, 1)[0],
                        *_add_shifted(y1, y0, g1, right, right_back, 1))
    vbl = _round_to_odd(_add_shifted(x1, x0, g0, left, left_back, -1)[0],
                        *_add_shifted(y1, y0, g1, left, left_back, -1))
    return vb, vbl, vbr, table[4, row].view(np.int64)


def _shortest(bits):
    """The shortest decimal (D, k), |x| = D 10^k, of each normal double's bits.

    Among the shortest the closest is taken, the even one on a tie. D has
    16 or 17 digits, trailing zeros included.
    """
    vb, vbl, vbr, k = _interval(bits)
    # u = s 10^k and w = (s + 1) 10^k bracket v; u' and w' are the
    # multiples of 10 10^k that bracket it. In = inside the interval.
    odd = bits & _U(1)
    low_end, high_end = vbl + odd, vbr - odd
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = low_end <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= high_end
    four_s = vb & ~_U(3)
    uin = low_end <= four_s
    win = four_s + _U(4) <= high_end
    quarter = vb & _U(3)
    closer_up = (quarter > 2) | ((quarter == 2) & (s & _U(1)).astype(bool))
    step = np.where(uin != win, win, closer_up)
    digits = np.where(upin != wpin, sp10 + wpin * _U(10), s + step)
    return digits.view(np.int64), k


def float_text(values: np.ndarray) -> list:
    """repr of each value of a 1-D float64 array of finite values, as a list of str."""
    return _array_text(np.ascontiguousarray(values, dtype=np.float64))


def _decimal(bits):
    """Each double's shortest digits without trailing zeros, their count and
    repr's point, |x| = 0.digits 10^point. A zero or a subnormal is 0, one digit."""
    digits, k = _shortest(bits)
    count = (digits >= 10**16) + 16
    # Trailing zeros move from the digits into k.
    tail = np.flatnonzero(digits == digits // 10 * 10)
    if len(tail):
        d, zeros = digits[tail], np.zeros(len(tail), dtype=np.int64)
        for places in (16, 8, 4, 2, 1):
            quotient = d // 10**places
            whole = quotient * 10**places == d
            d = np.where(whole, quotient, d)
            zeros += whole * places
        digits[tail], k[tail], count[tail] = d, k[tail] + zeros, count[tail] - zeros
    tiny = np.flatnonzero(bits & _U(2**63 - 2**52) == 0)
    digits[tiny], k[tiny], count[tiny] = 0, 0, 1
    return digits, count, count + k


def _rows(bits):
    """The doubles' text rows, and (index, point, digit count) of each value
    in exponent form, whose row holds only its mantissa."""
    pow10, group, template, _ = _text_tables()
    digits, count, point = _decimal(bits)
    scientific = (point < -3) | (point > 16)
    # The digits before the point (d.ddd in exponent form) and after it,
    # at least one each: a whole number gets a zero, appended to N.
    before = np.where(scientific, 1, point)
    after = count - before
    number = digits * pow10[np.maximum(1 - after, 0)]
    negative = (bits >> _U(63)).view(np.int64)
    layout = (negative * _INTEGERS + np.maximum(before, 1)) * _FRACTIONS + np.maximum(after, 1)

    # The number's 24 zero-padded digits: 4-digit groups, the first 7 zeros.
    groups = []
    for _ in range(4):
        higher = number // 10_000
        groups.append(group[number - higher * 10_000])
        number = higher
    g5, g4, g3, g2 = groups
    # Eight ASCII zeros, the last one or-ed with the leading digit (< 10).
    first = (number.view(_U) << _U(56)) | _U(0x3030303030303030)
    words = (first, g2 | (g3 << _U(32)), g4 | (g5 << _U(32)))
    rows = np.empty((len(bits), 3), dtype=_U)
    for i, word in enumerate(words):
        down = word >> _U(8)
        if i < 2:
            down |= words[i + 1] << _U(56)
        shifted, kept, fixed = template[3 * i:3 * i + 3, layout]
        np.bitwise_or((down & shifted) | (word & kept), fixed, out=rows[:, i])
    exponent_form = np.flatnonzero(scientific)
    return rows, zip(exponent_form.tolist(), point[exponent_form].tolist(),
                     count[exponent_form].tolist())


def _array_text(values: np.ndarray) -> list:
    """float_text of a contiguous float64 array, in numpy passes."""
    rows, exponent_form = _rows(values.view(_U))
    text = str(rows.astype("<u8", copy=False), "ascii")
    del rows
    cells = text.split()
    exponent = _text_tables()[3]
    for i, point, count in exponent_form:
        cells[i] = (cells[i][:-2] if count == 1 else cells[i]) + exponent[point - 1 + 400]
    for i in np.flatnonzero((values != 0.0) & (np.abs(values) < _MIN_NORMAL)).tolist():
        cells[i] = repr(values[i].item())
    return cells
