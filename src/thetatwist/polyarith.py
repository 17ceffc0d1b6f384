"""Polynomial products mod m by Kronecker substitution on packed ints.

A coefficient list with entries in [0, m) is packed into one Python int with
one fixed-width slot per coefficient.  Multiplying two packed ints multiplies
the polynomials, and any sum of such products (a matrix-vector product with
packed rows, say) is computed in the same way.  As long as every slot of the
result stays below 2^(8 * width), no carry crosses a slot, so unpacking gives
the exact integer coefficients, which are then reduced mod m.  The caller
picks the width from a bound on the result's slots, e.g.
min(len a, len b) * (m - 1)^2 for a plain product.

Slots of 1, 2, 4 or 8 bytes go through array and memoryview; wider slots
(moduli above about 2^32 / sqrt(len)) go through int.to_bytes and
int.from_bytes.  Both sides use the native byte order, so slot i holds c_i
counted from the start of the byte string; unpack must therefore be told the
full slot count of the value, and returns its leading slots; split keeps
the leading slots packed and unpacks the rest.
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


def _slots(data, width, m):
    """Every slot of a byte buffer, each mod m."""
    code = _CODES.get(width)
    if code is not None:
        return [c % m for c in data.cast(code)]
    return [
        int.from_bytes(data[i : i + width], _ORDER) % m
        for i in range(0, len(data), width)
    ]


def unpack(value, width, size, m, count=None):
    """The first count (default all) of the size slots of value, each mod m."""
    count = size if count is None else count
    data = memoryview(value.to_bytes(size * width, _ORDER))
    return _slots(data[: count * width], width, m)


def split(value, width, size, at, m):
    """Value's first at slots as a packed int, and its other size - at slots mod m.

    The leading slots stay packed, unreduced, for further packed sums.
    """
    data = memoryview(value.to_bytes(size * width, _ORDER))
    cut = at * width
    return int.from_bytes(data[:cut], _ORDER), _slots(data[cut:], width, m)


def mul(a, b, m, count=None):
    """Product of two coefficient lists with entries in [0, m), mod m.

    Returns the first count coefficients (default: all len a + len b - 1)
    from one multiplication of packed ints.
    """
    size = max(len(a) + len(b) - 1, 0)
    width = slot_width(max(min(len(a), len(b)), 1) * (m - 1) ** 2)
    return unpack(pack(a, width) * pack(b, width), width, size, m, count)
