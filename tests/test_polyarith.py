"""The packed-integer kernels against schoolbook multiplication and plain % m."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from thetatwist.ffield import is_prime, primes_upto
from thetatwist.polyarith import barrett, mul, pack, slot_width, slots

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
    # mul is exact: reduced mod m it is the schoolbook product, and no slot
    # exceeds the bound its width was chosen for
    m, a, b = case
    full = oracles.poly_mul_mod(a, b, m)
    exact = mul(a, b, m)
    assert [c % m for c in exact] == full
    assert all(c <= min(len(a), len(b)) * (m - 1) ** 2 for c in exact)
    for count in {0, len(full) // 2, len(full)}:
        assert mul(a, b, m, count) == exact[:count]


@pytest.mark.parametrize("m", [7, 4294967311])
def test_packed_product_edge_cases(m):
    assert mul([], [], m) == []
    assert mul([], [1, 2, 3], m) == [0, 0]
    assert mul([m - 1], [m - 1], m) == [(m - 1) ** 2]
    assert mul([0, 0, 0], [0, 0], m) == [0, 0, 0, 0]
    # every middle slot reaches the bound min(9, 4) * (m - 1)^2
    a, b = [m - 1] * 9, [m - 1] * 4
    assert mul(a, b, m) == [j * (m - 1) ** 2 for j in (1, 2, 3, 4, 4, 4, 4, 4, 4, 3, 2, 1)]
    assert [c % m for c in mul(a, b, m)] == oracles.poly_mul_mod(a, b, m)


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
    assert slots(value, width, len(coeffs)) == coeffs
    assert slots(value, width, len(coeffs), 2) == coeffs[:2]


def _frobenius_bound(n, p):
    # the slot bound of the Frobenius set-up of a degree-n polynomial mod p
    return n * (p - 1) ** 2 + p - 1


def _width_at_24(p):
    return barrett(p, _frobenius_bound(24, p), 1)[0]


def _next_prime(p):
    p += 1
    while not is_prime(p):
        p += 1
    return p


# the largest primes whose Frobenius set-up at degree 24 packs into 4- and
# 8-byte slots, as pinned by test_barrett_widths_at_degree_24
LARGEST_AT_24 = {4: 13367, 8: 876706517}
BARRETT_PRIMES = (2, 3, 5, 97, 997, 9973, *LARGEST_AT_24.values())


def test_barrett_widths_at_degree_24():
    for width, p in LARGEST_AT_24.items():
        assert _width_at_24(p) == width
        assert _width_at_24(_next_prime(p)) > width
    # every prime up to 10^4 and beyond keeps 4-byte slots
    assert {_width_at_24(p) for p in primes_upto(LARGEST_AT_24[4])} == {4}


@pytest.mark.parametrize("p", BARRETT_PRIMES)
def test_barrett_reduces_every_slot(p):
    rng = random.Random(p)
    for n in (2, 3, 7, 12, 24, 30):
        bound = _frobenius_bound(n, p)
        width, reduce = barrett(p, bound, 2 * n)
        edge = [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, bound - 1, bound]
        for _ in range(20):
            cs = [rng.choice(edge + [rng.randrange(bound + 1)]) for _ in range(2 * n)]
            value = reduce(pack(cs, width))
            assert slots(value, width, 2 * n) == [c % p for c in cs]
        top = reduce(pack([bound] * (2 * n), width))
        assert slots(top, width, 2 * n) == [bound % p] * (2 * n)


@pytest.mark.parametrize("p", BARRETT_PRIMES)
def test_barrett_reduced_product_matches_schoolbook(p):
    # an unreduced product of two degree-(n - 1) polynomials reaches
    # n (p - 1)^2 in its middle slot, inside the Frobenius bound
    rng = random.Random(2 * p)
    for n in (2, 5, 13, 24, 30):
        width, reduce = barrett(p, _frobenius_bound(n, p), 2 * n)
        for a, b in (
            ([p - 1] * n, [p - 1] * n),
            ([rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(n)]),
        ):
            value = reduce(pack(a, width) * pack(b, width))
            got = slots(value, width, 2 * n - 1)
            assert got == oracles.poly_mul_mod(a, b, p)
