"""Polynomial products by Kronecker substitution on packed ints.

A coefficient list with entries in [0, m) is packed into one Python int with
one fixed-width slot per coefficient.  Multiplying two packed ints multiplies
the polynomials, and any sum of such products (a matrix-vector product with
packed rows, say) is computed in the same way.  As long as every slot of the
result stays below 2^(8 * width), no carry crosses a slot, so reading the
slots gives the exact integer coefficients.  The caller picks the width
from a bound on the result's slots, e.g. min(len a, len b) * (m - 1)^2 for
a plain product.

A packed value can also be reduced mod m without unpacking it: barrett
returns a slot width and a reduction that maps every slot at once from
[0, bound] to [0, m), by Barrett's multiply-shift-mask step applied to all
slots in one go.  Its width holds bound and 9 m^2 (4 bytes at least), so
the product bound of degree-24 polynomials mod any m up to 13367 fits
4-byte slots; see barrett for the passes and why the last one is exact.

Slots of 1, 2, 4 or 8 bytes go through array and memoryview; wider slots
(moduli above about 2^32 / sqrt(len)) go through int.to_bytes and
int.from_bytes.  Both sides use the native byte order, so slot i holds c_i
counted from the start of the byte string; slots must therefore be told the
full slot count of the value, and returns its leading slots as they stand.
mul leaves its product unreduced, so a caller that reduces anyway (as
QExpansion does) pays for one reduction, not two.
"""

import sys
from array import array

_ORDER = sys.byteorder
#: array typecode for each native slot width in bytes
_CODES = {array(code).itemsize: code for code in "BHILQ"}


def slot_width(bound):
    """Bytes per slot for slot values in [0, bound]."""
    need = (bound.bit_length() + 7) // 8
    return next((w for w in sorted(_CODES) if w >= need), need)


def pack(coeffs, width):
    """One int holding the coefficients (each < 2^(8 * width)), one per slot."""
    code = _CODES.get(width)
    if code is not None:
        return int.from_bytes(array(code, coeffs), _ORDER)
    return int.from_bytes(b"".join(c.to_bytes(width, _ORDER) for c in coeffs), _ORDER)


def slots(value, width, size, count=None):
    """The first count (default all) of the size slots of value as a list,
    each as it stands (no reduction)."""
    data = memoryview(value.to_bytes(size * width, _ORDER))
    data = data[: (size if count is None else count) * width]
    code = _CODES.get(width)
    if code is not None:
        return data.cast(code).tolist()
    return [
        int.from_bytes(data[i : i + width], _ORDER)
        for i in range(0, len(data), width)
    ]


def barrett(m, bound, size):
    """(width, reduce): slot-wise reduction mod m of packed values.

    reduce(value) takes a value of at most size slots of width bytes, each
    slot c in [0, bound], and returns the value whose slots are c mod m.
    width is the least that holds bound and 9 m^2, and at least 4 bytes:
    products of values this short cost little more at 4 bytes than at 1
    or 2, while every extra pass below costs four or more operations.

    A pass takes floor(floor(c / 2^t) * mu / 2^s) as the quotient of every
    slot at once, with one multiply, shifts and masks, and subtracts m
    times it.  While floor(c / 2^t) * mu < 2^(8 * width) no slot reaches
    the next; each mask drops the bits a shift brings in from the slot
    above; and as the quotient never exceeds c / m, no slot borrows.  A
    mask is the repunit with a 1 in every slot times the slot's mask, one
    multiplication instead of packing size copies.
      - The last pass is exact: t = 0, s is the bit length of B * m for B
        the bound of its input, and mu = ceil(2^s / m) = (2^s + e) / m,
        0 <= e < m.  For c = q * m + r, c * mu / 2^s = q + (r + c * e / 2^s)
        / m, and c * e < B * m < 2^s makes r + c * e / 2^s < r + 1 <= m.
        It fits when B * mu < 2^(8 * width); for B <= 2m, B * mu is at
        most 8 m^2 + 2m < 9 m^2.
      - Until it fits, passes with mu = floor(2^(t + s) / m) come first,
        with s = 8 * width - len(B) + len(m) - 1 (lengths in bits), which
        keeps floor(c / 2^t) * mu below 2^(8 * width).  Such a pass leaves
        every slot below m + 2^t + (B >> t) * e / 2^s, with
        e = 2^(t + s) - m * mu < m: at most 2m for t = 0, which it takes
        when B < 2^s, and otherwise t balances the two error terms.
    At degree 24, with bound = 24 (m - 1)^2 + m - 1 from a product of two
    reduced polynomials, slots are 4 bytes up to m = 13367 and 8 bytes up to
    m = 876706517; one pass serves m <= 43, two serve every m up to 6689,
    and no m below 10^4 takes more than three.
    """
    width = max(4, slot_width(max(bound, 9 * m * m)))
    bits = 8 * width
    ones = ((1 << bits * size) - 1) // ((1 << bits) - 1)  # 1 in every slot

    def low_bits(shift):  # in every slot, the bits below bits - shift
        return ones * ((1 << (bits - shift)) - 1)

    passes = []
    while True:
        s = (bound * m).bit_length()
        mu = -(-(1 << s) // m)
        if not bound * mu >> bits:
            passes.append((0, None, mu, s, low_bits(s)))
            break
        s = bits - bound.bit_length() + m.bit_length() - 1
        t = 0 if bound >> s == 0 else (bound.bit_length() + m.bit_length() - s) // 2
        mu = (1 << (t + s)) // m
        passes.append((t, low_bits(t) if t else None, mu, s, low_bits(s)))
        bound = m + (1 << t) + ((bound >> t) * ((1 << (t + s)) - m * mu) >> s)

    def reduce(value):
        for t, keep_t, mu, s, keep in passes:
            value -= m * (((value >> t & keep_t if t else value) * mu >> s) & keep)
        return value

    return width, reduce


def mul(a, b, m, count=None):
    """Exact product of two coefficient lists with entries in [0, m).

    Returns the first count coefficients (default: all len a + len b - 1)
    from one multiplication of packed ints, unreduced: each lies in
    [0, min(len a, len b) * (m - 1)^2].  A square (b is a) packs once, and
    CPython squares an int by itself in about 70 % of a product's time.
    """
    size = max(len(a) + len(b) - 1, 0)
    width = slot_width(max(min(len(a), len(b)), 1) * (m - 1) ** 2)
    x = pack(a, width)
    return slots(x * (x if b is a else pack(b, width)), width, size, count)
