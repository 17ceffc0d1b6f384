"""Lanes: several primes checked on one Frobenius set-up mod their product.

A lane's set-up works in (Z/N)[x]/f, N the product of its primes, which is
by CRT one copy of F_p[x]/f per prime.  Every value it computes must reduce
mod each p to what the set-up of p alone computes, and every per-prime
answer of the pattern check must be that of a lane of p alone.
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
    _has_pattern,
    _lanes,
    _rev_inverse,
    bundled_record,
    verify_record,
)
from thetatwist.qseries import delta_k


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


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL_PRIMES = primes_upto(3000)


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
    work, frobenius, mulmod, trace, _ = _setup(coeffs, lane)
    x = [0, 1] + [0] * (n - 2)
    h, a, b = ([rng.randrange(N) for _ in range(n)] for _ in range(3))
    walk = [h]
    for _ in range(3):
        walk.append(frobenius(walk[-1]))
    product = mulmod(a, b)
    for p in lane:
        one, frob_p, mulmod_p, trace_p, (e,) = _setup(coeffs, (p,))
        assert e == 1
        assert [c % p for c in work] == one
        assert trace % p == trace_p
        assert [c % p for c in frobenius(x)] == frob_p(x)
        own = [[c % p for c in h]]
        for _ in range(3):
            own.append(frob_p(own[-1]))
        assert [[c % p for c in g] for g in walk] == own
        assert [c % p for c in product] == mulmod_p([c % p for c in a], [c % p for c in b])
