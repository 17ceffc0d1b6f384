"""Lanes: several primes checked on one Frobenius set-up mod their product.

A lane's set-up works in (Z/N)[x]/f, N the product of its primes, which is
by CRT one copy of F_p[x]/f per prime.  Every value it computes must reduce
mod each p to what the set-up of p alone computes, and every per-prime
answer of the pattern check must be that of a lane of p alone, and the
lane's one Euclid mod N must give each prime the gcd of its reductions,
however often the lane splits where a leading coefficient is not a unit.
verify_record groups its primes greedily, as long as polyarith.barrett's
slots for N stay native.
"""

import random
from math import prod

import pytest

from thetatwist import polyarith, polyverify
from thetatwist.ffield import primes_upto
from thetatwist.polyverify import (
    ProjPolyRecord,
    _admissible_patterns,
    _ddf,
    _frobenius,
    _gcd,
    _has_pattern,
    _lanes,
    _rev_inverse,
    bundled_record,
    verify_record,
)
from thetatwist.qseries import delta_k

import oracles


def _setup(coeffs, lane):
    """_frobenius of the monic integer coeffs mod the product of lane, with
    u as verify_record passes it."""
    N = prod(lane)
    return _frobenius([c % N for c in coeffs], lane, [c % N for c in _rev_inverse(coeffs)])


def _checked(coeffs, k, ell, lane):
    """(candidates, the lane's answers, the answers of each prime alone)."""
    series = delta_k(k, ell, max(lane))
    candidates = [_admissible_patterns(series.coeff(p), pow(p, k - 1, ell), ell) for p in lane]
    together = _has_pattern(_setup(coeffs, lane), lane, candidates)
    alone = [_has_pattern(_setup(coeffs, (p,)), (p,), [c])[0] for p, c in zip(lane, candidates)]
    return candidates, together, alone


def test_a_lane_answers_each_prime_as_that_prime_alone():
    # (22, 11) is ramified at 2, 5 and 19, ambiguous at 3 and 53, and
    # 2, 3, 5 and 7 lie below n = 12
    coeffs = bundled_record(22, 11).coeffs
    lane = (2, 3, 5, 7, 19, 53)
    candidates, together, alone = _checked(coeffs, 22, 11, lane)
    assert together == alone
    assert [p for p, found in zip(lane, together) if found is None] == [2, 5, 19]
    assert [p for p, c in zip(lane, candidates) if len(c) > 1] == [3, 53]
    assert all(_ddf(_setup(coeffs, (p,)), p) is None for p in (2, 5, 19))


def test_a_lane_answers_each_prime_of_a_mutated_record_as_that_prime_alone():
    coeffs = list(bundled_record(22, 11).coeffs)
    coeffs[3] += 1
    rep = verify_record(ProjPolyRecord(tuple(coeffs)), 22, 11, 60)
    statuses = {p: status for p, status, _, _ in rep.outcomes}
    lane = (2, 3, 5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    assert {statuses[p] for p in lane} >= {"FAIL", "skipped-ramified"}
    candidates, together, alone = _checked(coeffs, 22, 11, lane)
    assert together == alone
    # a miss in the lane is a miss alone too, which the DDF then reports
    for p, found in zip(lane, together):
        assert (found is None) == (statuses[p] in ("FAIL", "skipped-ramified")), p


@pytest.mark.parametrize("n", (2, 12, 24, 30))
def test_lanes_hold_each_prime_once_in_order_within_native_slots(n):
    primes = [p for p in primes_upto(3000) if p != 23] + [p for p in primes_upto(60000) if p > 29000]
    lanes = _lanes(primes, n)
    assert [p for lane in lanes for p in lane] == primes

    def width(lane):
        N = prod(lane)
        return polyarith.barrett(N, n * (N - 1) ** 2 + N - 1, 2 * n)[0]

    assert all(width(lane) <= 8 for lane in lanes)
    # greedy: a lane ends only where its next prime does not fit, and a
    # prime that fits with neither neighbour stands alone
    for lane, after in zip(lanes, lanes[1:]):
        assert width(lane + after[:1]) > 8, lane
    if n == 24:
        # primes pair up to about 2.96 * 10^4, where (N - 1)^2 * 24 reaches 2^64
        assert max(map(len, lanes)) == 9 and lanes[0] == (2, 3, 5, 7, 11, 13, 17, 19, 29)
        alone = [lane for lane in lanes if len(lane) == 1]
        assert alone[0] == (29611,) and alone == [(p,) for p in primes if p >= 29611]


def test_fail_fast_checks_one_prime_per_lane(monkeypatch):
    lanes = []
    frobenius = polyverify._frobenius

    def counted(f, lane, u):
        lanes.append(lane)
        return frobenius(f, lane, u)

    monkeypatch.setattr(polyverify, "_frobenius", counted)
    coeffs = list(bundled_record(26, 23).coeffs)
    coeffs[5] -= 1
    rep = verify_record(ProjPolyRecord(tuple(coeffs)), 26, 23, 200, fail_fast=True)
    assert lanes == [(p,) for p, status, _, _ in rep.outcomes if status != "skipped-ell"]
    assert rep.outcomes[-1][1] == "FAIL" and rep.counts["fail"] == 1


def _crt(per_prime, lane):
    """The coefficient list mod the product N of lane that reduces to
    per_prime[j] mod lane[j], padded with zeros to the longest, unstripped."""
    N = prod(lane)
    out = [0] * max(map(len, per_prime), default=0)
    for p, poly in zip(lane, per_prime):
        e = N // p * pow(N // p, -1, p)
        for i, c in enumerate(poly):
            out[i] = (out[i] + e * c) % N
    return out


def _each_alone(a, b, lane):
    return [oracles.poly_gcd([c % p for c in a], [c % p for c in b], p) for p in lane]


LANE = (5, 7, 11)


@pytest.mark.parametrize(
    "a, b",
    [
        # b's top coefficient is 0 mod 7 alone: 7 drops it, 5 and 11 keep it,
        # and gcd(x^2 - 1, x - 1) = x - 1 mod 5 and 11 but 1 mod 7
        pytest.param(_crt([(4, 0, 1), (6, 0, 1), (10, 0, 1)], LANE),
                     _crt([(4, 1), (3, 0), (10, 1)], LANE), id="top-zero-mod-one-prime"),
        # a split within a split: b's top vanishes mod 5 and 7, then mod 7 alone
        pytest.param(_crt([(1, 2, 3, 4, 1)] * 3, LANE),
                     _crt([(2, 3, 1, 0), (2, 0, 0, 0), (2, 3, 1, 1)], LANE), id="nested-splits"),
        # b is 0 mod 7: gcd(a, 0) = monic(a) there, a unit gcd elsewhere
        pytest.param(_crt([(1, 2, 3), (3, 0, 2), (1, 0, 1)], LANE),
                     _crt([(2, 1), (0, 0), (3, 1)], LANE), id="b-zero-mod-one-prime"),
        # a common factor x + 1 everywhere, and x + 2 too mod 11 alone
        pytest.param(_crt([oracles.poly_mul_mod((1, 1), (3, 4, 1), p) for p in LANE], LANE),
                     _crt([oracles.poly_mul_mod((1, 1), (2, 1), p) for p in LANE], LANE),
                     id="common-factors-differ"),
        # the input a's top coefficient is 0 mod 5 and 11, and a is unstripped
        pytest.param(_crt([(3, 1, 0, 0), (3, 1, 2, 0), (3, 1, 0, 0)], LANE),
                     _crt([(1, 1)] * 3, LANE), id="a-top-zero-mod-two-primes"),
        pytest.param([], _crt([(3, 0, 2), (0, 0, 0), (1, 1)], LANE), id="a-empty"),
        pytest.param(_crt([(3, 0, 2), (0, 5, 0), (1, 1)], LANE), [], id="b-empty"),
        pytest.param([], [], id="both-empty"),
        # constants: 35 is 0 mod 5 and both are 0 mod 7, so gcd(4, 0) = 1
        # mod 5, gcd(0, 0) = [] mod 7 and gcd(3, 2) = 1 mod 11
        pytest.param([14], [35], id="constants"),
        pytest.param([7], [2], id="constant-zero-mod-one-prime"),
    ],
)
def test_lane_gcd_gives_each_prime_its_own_gcd(a, b):
    assert _gcd(a, b, LANE) == _each_alone(a, b, LANE)
    assert _gcd(b, a, LANE) == _each_alone(b, a, LANE)


def test_lane_gcd_splits_where_the_gcd_degrees_differ():
    # gcd(x^2 - 1, x - 1) has degree 1 mod 5 and 11 and degree 0 mod 7,
    # where b is the constant 3
    a = _crt([(4, 0, 1), (6, 0, 1), (10, 0, 1)], LANE)
    b = _crt([(4, 1), (3, 0), (10, 1)], LANE)
    assert _gcd(a, b, LANE) == [[4, 1], [1], [10, 1]]
    # a lane of one prime is Euclid mod p
    assert _gcd([c % 7 for c in a], [c % 7 for c in b], (7,)) == [[1]]


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL_PRIMES = primes_upto(3000)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from((2, 3, 5, 7, 13, 31, 997, 29611)), min_size=1, max_size=5,
             unique=True),
    st.integers(0, 4),
    st.integers(0, 2**32),
)
def test_lane_gcd_matches_the_gcd_of_each_reduction(lane, common, seed):
    # per prime, a and b share a random factor of degree up to common, so
    # the primes' gcds differ in degree and the lane splits, often at 2 and 3
    lane, rng = tuple(sorted(lane)), random.Random(seed)

    def poly(p, degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(p)]

    per_prime = {p: [poly(p, rng.randrange(common + 1)) for _ in range(3)] for p in lane}
    a = _crt([oracles.poly_mul_mod(g, poly(p, rng.randrange(6)), p)
              for p, (g, _, _) in per_prime.items()], lane)
    b = _crt([oracles.poly_mul_mod(g, h, p) for p, (g, _, h) in per_prime.items()], lane)
    assert _gcd(a, b, lane) == _each_alone(a, b, lane)
    assert _gcd(b, a, lane) == _each_alone(b, a, lane)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 2**40), min_size=2, max_size=26),
    st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=5, unique=True),
    st.integers(0, 2**32),
)
def test_a_lane_reduces_to_the_set_up_of_each_prime(low, lane, seed):
    # x^p, the trace, a walk of three steps and a product of each prime's
    # copy equal those of the prime's own set-up, for any monic f
    coeffs, lane, n = low + [1], tuple(sorted(lane)), len(low)
    rng = random.Random(seed)
    N = prod(lane)
    work, frobenius, mulmod, trace, _, xp, u = _setup(coeffs, lane)
    assert u == [c % N for c in _rev_inverse(coeffs)]
    x = [0, 1] + [0] * (n - 2)
    h, a, b = ([rng.randrange(N) for _ in range(n)] for _ in range(3))
    walk = [h]
    for _ in range(3):
        walk.append(frobenius(walk[-1]))
    product = mulmod(a, b)
    for p in lane:
        one, frob_p, mulmod_p, trace_p, (e,), xp_p, _ = _setup(coeffs, (p,))
        assert e == 1
        assert [c % p for c in work] == one
        assert trace % p == trace_p
        assert [c % p for c in frobenius(x)] == frob_p(x) == xp_p == [c % p for c in xp]
        own = [[c % p for c in h]]
        for _ in range(3):
            own.append(frob_p(own[-1]))
        assert [[c % p for c in g] for g in walk] == own
        assert [c % p for c in product] == mulmod_p([c % p for c in a], [c % p for c in b])
