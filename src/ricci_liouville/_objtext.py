"""Wavefront OBJ bytes of a mesh, built on whole arrays.

Each record type is laid out as a fixed-width byte row per line that
holds every slot a line of that type can use.  A keep mask per field,
looked up by a code, selects the slots its text uses; band by band the
other slots are zeroed and the zero bytes deleted, which leaves the
records.  Floats read as '%.17g' writes them: a value with
1e-4 <= |x| < 1e16 is written in fixed notation from its exact 17-digit
significand, and every other value (zeros, subnormals, tiny, huge and
non-finite ones) goes through '%.17g' itself.
"""

from __future__ import annotations

import io
from functools import cache

import numpy as np

# lines per band: 4095 values, small enough that the band's temporaries
# come from the same heap pages band after band, also in a fresh process
# where nothing larger has been freed yet; from about 1500 lines the heap
# is trimmed and faulted in again after each band (7.0k minor faults per
# 201 x 157 export in a fresh process at 2730 lines, against 3.0k; 29.0k
# against 11.8k at 401 x 314).
_BAND_LINES = 1365

# slots of one float field: separator, sign, the '0.000' of |x| < 1, then
# 18 slots for the 17 significant digits and the point among them
_FLOAT_FIELD = b" -0.000" + b"0" * 18
_DIGITS = 7
# the '%.17g' text of any float64 has at most 24 characters
_WIDEST = 24
# keep codes of fixed-notation values: 20 decades, 0 .. 18 digit slots, 2 signs
_FIXED = 20 * 19 * 2
_POW5 = np.array([5**q for q in range(22)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
# by decimal exponent X = -4 .. 15: 1 for X < 0, else 10^(16 - X), the
# divisor that splits the integer part off a 17-digit significand
_POINT_SPLIT = np.array([1] * 4 + [10 ** (16 - x) for x in range(16)])


@cache
def _float_tables():
    """(words, trailing, keep): slot words, their trailing zeros, and keep masks.

    words[c] is the 4-byte text of the chunk c < 10^4 written with 4
    digits, words[10^4 + h] '00' and h < 100 with 2 digits, and
    words[10^4 + 100] '-0.0'; trailing counts the trailing zero digits of
    each chunk and each h >= 10.  keep[((X + 4) * 19 + R) * 2 + neg] is the mask of a value in
    fixed notation with decimal exponent X in -4 .. 15, R digit slots in
    use and sign neg, and keep[_FIXED + L] that of a '%.17g' text of L
    characters written from slot 1.
    """
    c = np.arange(10000)
    digits = (c[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    head = b"".join(b"00%02d" % h for h in range(100)) + b"-0.0"
    words = np.concatenate((digits.view(np.uint32).ravel(), np.frombuffer(head, np.uint32)))
    zeros = sum(c % 10**i == 0 for i in range(1, 5))
    trailing = np.concatenate((zeros, zeros[:100], [0]))

    k = np.arange(len(_FLOAT_FIELD))
    x10 = np.arange(-4, 16)[:, None, None, None]
    size = np.arange(19)[:, None, None]
    neg = np.arange(2)[:, None]
    keep = (
        (k == 0)
        | ((k == 1) & (neg == 1))
        | ((x10 < 0) & ((k == 2) | (k == 3) | ((k > _DIGITS + x10) & (k < _DIGITS))))
        | ((k >= _DIGITS) & (k < _DIGITS + size))
    )
    fallback = k <= np.arange(_WIDEST + 1)[:, None]
    return words, trailing, np.concatenate((keep.reshape(-1, k.size), fallback))


def _scaled(bits, q):
    """round_half_even(x 10^q) as int64, for the float64 bit patterns of normal x > 0.

    x 10^q = f 5^q 2^(e + q) for the 53-bit significand f.  The product
    (16 f) 5^q < 2^106 (q <= 21) is formed exactly from 32-bit limbs as the
    words (hi, lo), then shifted right by 4 - (e + q), which is 1 .. 63
    for the decades the callers pass, and rounded half to even.
    """
    f = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) << np.uint64(4)
    m = _POW5[q]
    fh, fl, mh, ml = f >> np.uint64(32), f & _LOW32, m >> np.uint64(32), m & _LOW32
    mid = fh * ml + fl * mh
    low = fl * ml
    lo = low + (mid << np.uint64(32))
    hi = fh * mh + (mid >> np.uint64(32)) + (lo < low)
    # e = E - 1075 for the biased exponent E, the top bits of a positive x
    right = (1079 - q - (bits >> np.uint64(52)).view(np.int64)).astype(np.uint64)
    sig = (hi << (64 - right)) | (lo >> right)
    full = np.uint64(1) << right
    twice_rest = (lo & (full - np.uint64(1))) << np.uint64(1)
    sig += (twice_rest > full) | ((twice_rest == full) & (sig & np.uint64(1) == 1))
    return sig.view(np.int64)


def _float_fields(values, fields):
    """Write each value's '%.17g' text into its field of ``fields``; return the keep codes.

    values is a float64 array and fields a uint8 array of its shape plus
    one axis of len(_FLOAT_FIELD) slots, slot 0 holding the separator.
    Slots 1 .. 24 are written in full, and then those of each value
    outside the fixed-notation range take its '%.17g' text.
    """
    words, trailing, _ = _float_tables()
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e16)
    # the other values stand in as 1.0 until their text is written
    mag[~fast] = 1.0
    x10 = np.floor(np.log10(mag)).astype(np.int64)
    bits = mag.view(np.uint64)
    sig = _scaled(bits, 16 - x10)
    # log10 may miss the decade by one; a significand that rounds to 10^17
    # reads 10^16 one decade up
    redo = np.nonzero((sig >= 10**17) | (sig < 10**16))
    if redo[0].size:
        x10[redo] += np.where(sig[redo] < 10**16, -1, 1)
        sig[redo] = _scaled(bits[redo], 16 - x10[redo])
    # the 17 digits with a 0 put in after the integer part, or at the end
    # for |x| < 1: that slot takes the point
    decade = x10 + 4
    spaced = 10 * sig - 9 * (sig % _POINT_SPLIT.take(decade))
    index = np.empty(values.shape + (6,), dtype=np.int64)
    index[..., 0] = 10100  # '-0.0'
    head, rest = np.divmod(spaced, 10**16)
    np.add(head, 10000, out=index[..., 1])
    upper, lower = np.divmod(rest, 10**8)
    np.divmod(upper, 10**4, out=(index[..., 2], index[..., 3]))
    np.divmod(lower, 10**4, out=(index[..., 4], index[..., 5]))
    fields[..., 1:].view(np.uint32)[...] = words.take(index)
    point = np.where(x10 < 0, _DIGITS + 17, _DIGITS + 1 + x10)
    np.put_along_axis(fields, point[..., None], ord("."), axis=-1)
    # trailing zeros of the digit slots, word by word from the end
    zeros = trailing.take(index)
    tail = zeros[..., 1]
    for i in range(2, 6):
        tail = zeros[..., i] + (index[..., i] == 0) * tail
    size = np.maximum(x10 + 1, 18 - tail)
    code = (decade * 19 + size) * 2 + np.signbit(values)
    slow = np.nonzero(~fast)
    if slow[0].size:
        texts = ["%.17g" % v for v in values[slow].tolist()]
        padded = "".join(t.ljust(_WIDEST) for t in texts).encode("ascii")
        fields[slow + (slice(1, 1 + _WIDEST),)] = np.frombuffer(padded, np.uint8).reshape(
            -1, _WIDEST
        )
        code[slow] = _FIXED + np.array([len(t) for t in texts])
    return code


def _write_lines(out, prefix: bytes, field: bytes, keep, rows: int, fill):
    """Write ``rows`` lines of ``prefix``, 3 fields and LF to ``out``, band by band.

    fill(lo, hi, fields) writes lines lo .. hi - 1 into fields, a
    (hi - lo, 3, len(field)) view of the band's rows, and returns the
    keep code of each field, a row of the mask table ``keep``.  It must
    rewrite every slot that a mask may drop: those are zeroed, and the
    zero bytes deleted, so a band's text is its rows less their zeros.
    """
    template = np.frombuffer(prefix + field * 3 + b"\n", np.uint8)
    row = np.empty((min(_BAND_LINES, rows), template.size), np.uint8)
    row[:] = template
    body = slice(len(prefix), -1)
    for lo in range(0, rows, _BAND_LINES):
        n = min(_BAND_LINES, rows - lo)
        fields = row[:n, body].reshape(n, 3, len(field))
        mask = keep.take(fill(lo, lo + n, fields), axis=0)
        if mask.all():  # face lines whose numbers all have the full width
            out.write(row[:n])
            continue
        np.multiply(fields, mask, out=fields)
        # bytes.translate deletes without branching on a mask, unlike a boolean index
        out.write(row[:n].tobytes().translate(None, b"\0"))


def _float_lines(out, prefix: bytes, rows, count: int):
    """Write a line of ``prefix`` and 3 values per row of rows(lo, hi), for rows 0 .. count - 1."""
    _write_lines(
        out, prefix, _FLOAT_FIELD, _float_tables()[2], count,
        lambda lo, hi, fields: _float_fields(rows(lo, hi), fields),
    )


def _face_lines(out, faces, count: int):
    """Write 'f a//a b//b c//c' for each row of 0-based ``faces`` into vertices 1 .. count."""
    width = len(str(count))
    number = np.arange(1, count + 1)
    # each vertex number's 'k//k' with k zero-padded to width digits
    text = np.full((count, 2 * width + 2), ord("/"), dtype=np.uint8)
    for i in range(width):
        text[:, width - 1 - i] = text[:, 2 * width + 1 - i] = number // 10**i % 10 + ord("0")
    length = np.searchsorted(10 ** np.arange(1, width), number, side="right") + 1
    # a number of L digits keeps the separator, '//' and the last L digits of each copy
    k, size = np.arange(2 * width + 3), np.arange(width + 1)[:, None]
    keep = (k == 0) | ((k > width - size) & (k <= width + 2)) | (k > 2 * width + 2 - size)

    def fill(lo, hi, fields):
        corners = faces[lo:hi]
        fields[..., 1:] = text.take(corners, axis=0)
        return length.take(corners)

    _write_lines(out, b"f", b" " + text[0].tobytes(), keep, len(faces), fill)


def obj_bytes(header: bytes, count: int, vertex_rows, normal_rows, faces) -> bytes:
    """OBJ bytes: ``header``, then ``count`` v and vn records and the f records of ``faces``.

    vertex_rows(lo, hi) and normal_rows(lo, hi) give vertices and normals
    lo .. hi - 1 as (hi - lo, 3) rows; faces hold 0-based corners, written
    1-based as k//k.
    """
    out = io.BytesIO()
    out.write(header)
    _float_lines(out, b"v", vertex_rows, count)
    _float_lines(out, b"vn", normal_rows, count)
    _face_lines(out, faces, count)
    # with no export alive, CPython hands back the BytesIO's own bytes object
    return out.getvalue()
