"""The packed-integer product kernel against schoolbook multiplication."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from thetatwist.polyarith import mul, pack, slot_width, split, unpack

import oracles

# 4294967311 and 2^61 - 1 are primes above 2^32: their products need slots
# wider than 8 bytes
PRIMES = (2, 3, 13, 251, 65521, 4294967291, 4294967311, 2**61 - 1)
moduli = st.one_of(st.sampled_from(PRIMES), st.integers(2, 2**80))


@st.composite
def operands(draw):
    m = draw(moduli)
    coeffs = st.lists(st.integers(0, m - 1), max_size=40)
    return m, draw(coeffs), draw(coeffs)


@settings(max_examples=300, deadline=None)
@given(operands())
def test_packed_product_matches_schoolbook(case):
    m, a, b = case
    full = oracles.poly_mul_mod(a, b, m)
    assert mul(a, b, m) == full
    for count in {0, len(full) // 2, len(full)}:
        assert mul(a, b, m, count) == full[:count]


@pytest.mark.parametrize("m", [7, 4294967311])
def test_packed_product_edge_cases(m):
    assert mul([], [], m) == []
    assert mul([], [1, 2, 3], m) == [0, 0]
    assert mul([m - 1], [m - 1], m) == [1]
    assert mul([0, 0, 0], [0, 0], m) == [0, 0, 0, 0]
    a, b = [m - 1] * 9, [m - 1] * 4
    assert mul(a, b, m) == oracles.poly_mul_mod(a, b, m)


def test_slot_width_is_smallest_that_holds_the_bound():
    assert slot_width(0) == 1
    assert slot_width(255) == 1
    assert slot_width(256) == 2
    assert slot_width(2**16) == 4
    assert slot_width(2**32) == 8
    assert slot_width(2**64 - 1) == 8
    assert slot_width(2**64) == 9


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_pack_unpack_roundtrip(width):
    coeffs = [0, 1, 2**(8 * width) - 1, 5, 0]
    value = pack(coeffs, width)
    assert unpack(value, width, len(coeffs), 2**(8 * width)) == coeffs
    assert unpack(value, width, len(coeffs), 2**(8 * width), 2) == coeffs[:2]
    low, high = split(value, width, len(coeffs), 2, 7)
    assert low == pack(coeffs[:2], width)
    assert high == [c % 7 for c in coeffs[2:]]
