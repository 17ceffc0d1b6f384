"""Distinct-degree factorization and gcd mod p against sympy."""

import random

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from thetatwist.ffield import primes_upto
from thetatwist.polyverify import (
    BUNDLED_LABELS,
    _ddf,
    _frobenius,
    _gcd,
    _has_pattern,
    _is_squarefree,
    _rev_inverse,
    bundled_record,
)

from oracles import degree_patterns, poly_mul_mod

X = sympy.symbols("x")


def reduced(coeffs, p):
    """coeffs mod p as a stripped list."""
    f = [c % p for c in coeffs]
    while f and not f[-1]:
        f.pop()
    return f


def setup_of(f, p):
    """_frobenius of a monic f mod p, with u as verify_record passes it."""
    return _frobenius(f, p, [c % p for c in _rev_inverse(f)])


def ddf(f, p):
    return _ddf(setup_of(f, p), p)


def sympy_degrees(f, p):
    """Sorted irreducible-factor degrees of a squarefree f mod p, by sympy."""
    poly = sympy.Poly(list(reversed(f)), X, modulus=p)
    _, factors = poly.factor_list()
    assert all(e == 1 for _, e in factors)
    return tuple(sorted(g.degree() for g, _ in factors))


def test_ddf_matches_sympy_on_bundled_records():
    checked = 0
    for k, ell in BUNDLED_LABELS:
        record = bundled_record(k, ell)
        for p in primes_upto(300):
            fp = reduced(record.coeffs, p)
            if not _is_squarefree(fp, p):
                continue
            assert ddf(fp, p) == sympy_degrees(fp, p), (k, ell, p)
            checked += 1
    assert checked >= 6 * 55


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 31, 997, 4294967311)),
    st.lists(st.integers(0, 2**40), min_size=2, max_size=20),
)
def test_ddf_matches_sympy_on_random_squarefree(p, low):
    f = [c % p for c in low] + [1]
    assume(_is_squarefree(f, p))
    assert ddf(f, p) == sympy_degrees(f, p)


def sympy_gcd(a, b, p):
    """Monic gcd of two stripped lists mod p, by sympy, as ascending coefficients."""
    ga = sympy.Poly(list(reversed(a)) or [0], X, modulus=p)
    gb = sympy.Poly(list(reversed(b)) or [0], X, modulus=p)
    g = ga.gcd(gb)
    if g.is_zero:
        return []
    return reduced([int(c) for c in reversed(g.monic().all_coeffs())], p)


coefficient_lists = st.lists(st.integers(0, 2**64), max_size=25)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 7, 997, 4294967311)),
    coefficient_lists,
    coefficient_lists,
    coefficient_lists,
)
def test_poly_gcd_matches_sympy(p, common, a, b):
    # a shared factor makes nontrivial gcds common; empty lists give zero
    # and length-one lists give constants
    fa = reduced(poly_mul_mod(common, a, p), p)
    fb = reduced(poly_mul_mod(common, b, p), p)
    assert _gcd(fa, fb, p) == sympy_gcd(fa, fb, p)
    assert _gcd(fa, (), p) == sympy_gcd(fa, [], p)


def _is_irreducible(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p).is_irreducible


def _plant(degrees, p, rng):
    """A product of distinct monic irreducibles of the given degrees mod p.

    A degree with no irreducible left to draw (over F_2 there are only two
    of degree 1, say) is dropped; returns (product, planted degrees).
    """
    chosen = set()
    for d in degrees:
        for _ in range(400):
            g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if g not in chosen and _is_irreducible(g, p):
                chosen.add(g)
                break
    f = [1]
    for g in chosen:
        f = poly_mul_mod(f, g, p)
    return f, tuple(sorted(len(g) - 1 for g in chosen))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_ddf_finds_planted_factors(p, degrees, rng):
    f, planted = _plant(degrees, p, rng)
    assume(len(f) > 2)
    assert ddf(f, p) == planted


@pytest.mark.parametrize(
    "p, degrees",
    [
        # n = 16: degrees 1, 2, 3 and 4 are found at consecutive steps;
        # then 2 * 5 exceeds the 6 left, so the scan stops and the sextic is
        # the irreducible remainder
        (3, (1, 2, 3, 4, 6)),
        # n = 24: both factors are found at d = 12, where 2d equals the
        # remaining degree, so the stop must not come one step early
        (2, (12, 12)),
        (5, (12, 12)),
        # n = 14: equal degrees next to each other, two cubics at d = 3 and
        # two quartics at d = 4, which use up all that is left
        (3, (3, 3, 4, 4)),
        # n = 24: two factors at each of d = 1, 2, 4 and 5, none at d = 3,
        # and the two quintics at 2d = the remaining degree 10
        (7, (4, 4, 5, 5, 1, 1, 2, 2)),
    ],
)
def test_ddf_planted_block_shapes(p, degrees):
    f, planted = _plant(degrees, p, random.Random(sum(degrees) * p))
    assert planted == tuple(sorted(degrees))
    assert ddf(f, p) == planted


def has_pattern(f, p, *patterns):
    return _has_pattern(setup_of(f, p), p, *patterns)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 31, 997)),
    st.lists(st.integers(0, 2**40), max_size=12),
    st.lists(st.integers(0, 2**40), max_size=4),
)
def test_has_pattern_agrees_with_ddf(p, low, square):
    # f = (low + x^len) * (square + x^len)^2: monic, and not squarefree
    # whenever the squared factor has positive degree; every pattern has
    # degree deg f >= 2, as in verify_record
    base = tuple(low) + (1,)
    sq = tuple(square) + (1,)
    f = poly_mul_mod(base, poly_mul_mod(sq, sq, p), p)
    assume(len(f) > 2)
    observed = ddf(f, p)
    patterns = degree_patterns(len(f) - 1)
    for pattern in patterns:
        assert (has_pattern(f, p, pattern) == pattern) == (observed == pattern), pattern
    assert has_pattern(f, p, *patterns) == (observed if observed in patterns else None)


def _planted(p, degrees, seed=0):
    f, planted = _plant(degrees, p, random.Random(seed))
    assert planted == tuple(sorted(degrees))
    return f


def test_has_pattern_planted_cases():
    # L = 4 is even: the quadratic divides x^{p^2} - x, so G = gcd(f, (h_1 -
    # x)(h_2 - x)) has the expected degree 2, and only G | x^p - x tells it
    # from two linear factors
    f = _planted(3, (2, 4))
    assert ddf(f, 3) == (2, 4)
    assert has_pattern(f, 3, (1, 1, 4)) is None
    # four linears and a quadratic against two of each: only deg G tells them apart
    f = _planted(7, (1, 1, 1, 1, 2))
    assert has_pattern(f, 7, (1, 1, 2, 2)) is None
    assert has_pattern(f, 7, (1, 1, 1, 1, 2)) == (1, 1, 1, 1, 2)
    # g^2 h is not squarefree; with h = 1 and g quadratic G = 1 has the
    # expected degree 0, so only h_L == x rejects it
    g = _planted(5, (2,))
    for h in ((1,), _planted(5, (3,), seed=2)):
        f = poly_mul_mod(poly_mul_mod(g, g, 5), h, 5)
        assert ddf(f, 5) is None
        for pattern in degree_patterns(len(f) - 1):
            assert has_pattern(f, 5, pattern) is None, pattern
    # L = 1: a product of distinct linears splits, one quadratic factor does not
    f = poly_mul_mod(poly_mul_mod((1, 1), (2, 1), 11), (5, 1), 11)
    assert has_pattern(f, 11, (1, 1, 1)) == (1, 1, 1)
    f = _planted(11, (1, 2, 1))
    assert has_pattern(f, 11, (1, 1, 1, 1)) is None
    # the two patterns of an ambiguous class, ell = 7: (1, 7) and eight fixed points
    f = _planted(13, (1, 7))
    candidates = ((1,) * 8, (1, 7))
    assert has_pattern(f, 13, *candidates) == (1, 7)
    assert has_pattern(f, 13, candidates[0]) is None
    f = _planted(13, (1,) * 8)
    assert has_pattern(f, 13, *candidates) == (1,) * 8
    f = _planted(13, (1, 1, 6))
    assert has_pattern(f, 13, *candidates) is None
    # p <= deg f: x(x - 1)(x - 2) c with c an irreducible cubic over F_3 has
    # trace 3 = 0 and divides x^27 - x, so the trace and the walk alone would
    # pass (3, 3); only the m = 1 term of the gcd tells the linears apart
    cubic = _planted(3, (3,))
    f = poly_mul_mod(poly_mul_mod(poly_mul_mod((0, 1), (2, 1), 3), (1, 1), 3), cubic, 3)
    assert setup_of(f, 3)[3] == 0
    assert ddf(f, 3) == (1, 1, 1, 3)
    assert has_pattern(f, 3, (3, 3)) is None
    assert has_pattern(f, 3, (1, 1, 1, 3)) == (1, 1, 1, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 31, 997, 4294967311)),
    st.lists(st.integers(0, 2**40), min_size=2, max_size=20),
)
def test_frobenius_trace_counts_linear_factors(p, low):
    # the trace of the Frobenius matrix is the number of linear factors mod
    # p, so exactly that number wherever p > deg f
    f = [c % p for c in low] + [1]
    assume(_is_squarefree(f, p))
    linear = ddf(f, p).count(1)
    trace = setup_of(f, p)[3]
    assert trace == linear % p
    if p > len(low):
        assert trace == linear
