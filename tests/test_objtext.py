"""The OBJ writer's float text, byte for byte against '%.17g' % x."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_liouville._objtext import _BAND_LINES, _float_lines


def kernel_lines(values):
    """``values`` three to a line as the writer's v records, and as '%.17g' writes them."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = np.resize(values, (-(-values.size // 3), 3))
    out = io.BytesIO()
    _float_lines(out, b"v", lambda lo, hi: rows[lo:hi], len(rows))
    expected = "".join("v %.17g %.17g %.17g\n" % tuple(r) for r in rows.tolist())
    return out.getvalue(), expected.encode("ascii")


def assert_kernel_matches(values):
    got, expected = kernel_lines(values)
    if got != expected:
        pairs = zip(got.split(b"\n"), expected.split(b"\n"))
        bad = [(g, e) for g, e in pairs if g != e]
        pytest.fail(f"{len(bad)} lines differ, first: {bad[0]}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_raw_bit_patterns(bits):
    assert_kernel_matches(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e-4, max_value=1e16), st.booleans()),
                min_size=1, max_size=60))
def test_fixed_notation_range(signed):
    assert_kernel_matches([-x if negative else x for x, negative in signed])


def test_seeded_patterns_across_bands():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=3 * _BAND_LINES + 7, dtype=np.uint64)
    # exponents of 1e-5 .. 1e17, the fixed-notation range and its edges
    exponent = rng.integers(1006, 1080, size=bits.size, dtype=np.uint64)
    in_range = (bits & np.uint64(2**52 - 1)) | (exponent << np.uint64(52))
    assert_kernel_matches(np.concatenate([bits, in_range]).view(np.float64))
    assert_kernel_matches(rng.uniform(-10.0, 10.0, 20000) * 10.0 ** rng.integers(-6, 18, 20000))


def decade_edges():
    """Floats next to 10^k for k = -5 .. 17: the decade and the range ends."""
    values = []
    for k in range(-5, 18):
        for toward in (0.0, math.inf):
            x = 10.0**k
            for _ in range(4):
                values.append(x)
                x = math.nextafter(x, toward)
    return values


def seventeenth_digit_ties():
    """Doubles whose 17-digit significand ends in an exact half, with odd and even digits.

    x = m 2^-(q + 1) with m odd gives x 10^q = m 5^q / 2, so in the decade
    X = 16 - q its 17th digit is followed by exactly 5 and nothing else.
    """
    values = []
    for q in range(1, 21):
        m = 10 ** (16 - q) * 2 ** (q + 1) + 1
        for step in range(0, 40, 2):
            if m + step < 2**53:
                values.append(math.ldexp(m + step, -(q + 1)))
    return values


EDGES = [1e-4, 9999999999999999.0, 1e16, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1.0, 0.5, 0.1, 123.0, 100.0,
         1e15 + 0.25, 1e15 + 0.75, 2.0**53, 2.0**53 - 1.0]


@pytest.mark.parametrize(
    "values",
    [EDGES, decade_edges(), seventeenth_digit_ties()],
    ids=["edges", "decade-neighbours", "ties"],
)
def test_edge_values(values):
    values = np.array(values)
    assert_kernel_matches(np.concatenate([values, -values]))
