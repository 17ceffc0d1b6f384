"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All arithmetic is exact, so every equality here is
asserted with zero tolerance; the only numeric bounds are the runtime caps.
"""

import math
import random
import time

from thetatwist.ffield import primes_upto
from thetatwist.galrep import screen_exceptional
from thetatwist.polyverify import (
    BUNDLED_LABELS,
    ProjPolyRecord,
    bundled_record,
    verify_record,
)
from thetatwist.qseries import SUPPORTED_WEIGHTS, QExpansion, delta_k, eisenstein, series_mul, theta_power
from thetatwist.twist import published_discrepancy, twist_search

import oracles

SIX_PAIRS = ((16, 13), (20, 17), (22, 11), (22, 19), (26, 13), (26, 23))
EXPECTED_TWISTS = {
    (16, 13): (2, 12),
    (20, 17): (2, 16),
    (22, 19): (2, 18),
    (26, 13): (1, 12),
    (26, 23): (2, 22),
    (22, 11): (0, 12),  # congruence-satisfying pair; published i=1 violates it
}
WORKING_PRIMES = (11, 13, 17, 19, 23)


def _clear_series_caches():
    delta_k.cache_clear()
    eisenstein.cache_clear()


def test_criterion_1_twist_table_reproduction():
    worst = 0.0
    for (k, ell), expected in EXPECTED_TWISTS.items():
        _clear_series_caches()
        t0 = time.perf_counter()
        i, kp, cert = twist_search(k, ell, extended=1000)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert (i, kp) == expected, (k, ell, i, kp)
        cert.validate()
        assert dt < 0.25, f"twist_search({k}, {ell}) took {dt:.2f}s"
    assert published_discrepancy(22, 11, *EXPECTED_TWISTS[(22, 11)]) is not None
    for k, ell in ((16, 13), (20, 17), (22, 19), (26, 13), (26, 23)):
        assert published_discrepancy(k, ell, *EXPECTED_TWISTS[(k, ell)]) is None
    print(
        f"\nACCEPTANCE 1 (twist-table reproduction): PASS -- 6/6 pairs exact, "
        f"(22,11) discrepancy warned, worst pair {worst:.3f}s < 0.25s"
    )


def test_criterion_2_extended_congruence_to_1000():
    worst = 0.0
    for k, ell in SIX_PAIRS:
        i, kp, cert = twist_search(k, ell, extended=1000)
        # twist_search cached both series; time them built cold
        _clear_series_caches()
        t0 = time.perf_counter()
        f = delta_k(k, ell, 1000)
        g = delta_k(kp, ell, 1000)
        for n in range(1001):
            assert f.coeff(n) == pow(n, i, ell) * g.coeff(n) % ell, (k, ell, n)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert cert.extended_terms == 1000
        assert dt < 0.25, f"extended check ({k}, {ell}) took {dt:.2f}s"
    print(
        f"\nACCEPTANCE 2 (extended congruence n <= 1000): PASS -- exact for all "
        f"six pairs, worst pair {worst:.3f}s < 0.25s (series built cold)"
    )


def test_criterion_3_bundled_polynomial_consistency():
    t0 = time.perf_counter()
    ambiguous_total = 0
    for k, ell in BUNDLED_LABELS:
        rep = verify_record(bundled_record(k, ell), k, ell, 1000)
        c = rep.counts
        assert c["fail"] == 0, (k, ell, rep.failures)
        skipped = c["skipped_ramified"] + c["skipped_ell"]
        assert skipped < 10, (k, ell, skipped)
        for p, status, observed, predicted in rep.outcomes:
            assert status != "FAIL"
            if status == "ambiguous-pass":
                assert observed in predicted
                ambiguous_total += 1
    assert bundled_record(16, 13).coeffs == bundled_record(26, 13).coeffs
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"verification took {dt:.1f}s"
    print(
        f"\nACCEPTANCE 3 (bundled polynomials, pmax=1000): PASS -- 0 FAIL on all "
        f"six records, <10 skips each, {ambiguous_total} ambiguous-passes, "
        f"(16,13)==(26,13), total {dt:.1f}s < 2s"
    )


def test_criterion_4_mutation_discriminating_power():
    rng = random.Random(20250811)
    trials = 0
    for k, ell in BUNDLED_LABELS:
        rec = bundled_record(k, ell)
        for _ in range(20):
            idx = rng.randrange(rec.degree)  # non-leading coefficient
            coeffs = list(rec.coeffs)
            coeffs[idx] += rng.choice((1, -1))
            mutated = ProjPolyRecord(tuple(coeffs), k=k, ell=ell)
            rep = verify_record(mutated, k, ell, 200, fail_fast=True)
            assert rep.counts["fail"] >= 1, (k, ell, idx)
            trials += 1
    print(
        f"\nACCEPTANCE 4 (discriminating power): PASS -- {trials}/120 single "
        f"+-1 mutations each caught within pmax=200"
    )


def test_criterion_5_screening():
    for k, ell in SIX_PAIRS:
        rep = screen_exceptional(k, ell, 200)
        assert rep.verdict == "likely unexceptional", (k, ell, rep)
    control_691 = screen_exceptional(12, 691, 200)
    assert control_691.reducible_candidate and control_691.reducible_j == 0
    assert control_691.verdict == "possibly exceptional"
    control_23 = screen_exceptional(12, 23, 200)
    assert control_23.dihedral_candidate or control_23.reducible_candidate
    assert control_23.verdict == "possibly exceptional"
    print(
        "\nACCEPTANCE 5 (screening): PASS -- six pairs likely "
        "unexceptional at pbound=200; (12,691) reducible j=0; (12,23) dihedral"
    )


def test_criterion_6_series_engine_oracles():
    taus = oracles.eta24_int(200)
    for ell in WORKING_PRIMES:
        f = delta_k(12, ell, 200)
        assert list(f.coeffs) == [t % ell for t in taus], ell

    checked = 0
    for k in SUPPORTED_WEIGHTS:
        for ell in WORKING_PRIMES:
            f = delta_k(k, ell, 1000)
            for m in range(2, 1001):
                for n in range(m, 1000 // m + 1):
                    if math.gcd(m, n) == 1:
                        assert f.coeff(m * n) == f.coeff(m) * f.coeff(n) % ell
            for p in primes_upto(1000):
                pk = pow(p, k - 1, ell)
                r = 1
                while p ** (r + 1) <= 1000:
                    lhs = f.coeff(p ** (r + 1))
                    rhs = (f.coeff(p) * f.coeff(p ** r) - pk * f.coeff(p ** (r - 1))) % ell
                    assert lhs == rhs, (k, ell, p, r)
                    r += 1
            checked += 1
    print(
        f"\nACCEPTANCE 6 (series-engine oracles): PASS -- eta-product match to "
        f"200 terms for 5 primes; Hecke relations to 1000 on {checked} (k, ell) pairs"
    )


def test_criterion_7_group_action_oracle():
    t0 = time.perf_counter()
    from thetatwist.polyverify import _admissible_patterns

    classes = 0
    for ell in (5, 7, 11, 13):
        for t in range(ell):
            for d in range(1, ell):
                candidates = _admissible_patterns(t, d, ell)
                observed = oracles.companion_orbits(t, d, ell)
                if len(candidates) > 1:
                    assert observed in candidates, (ell, t, d)
                else:
                    assert (observed,) == candidates, (ell, t, d)
                classes += 1
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"group-action sweep took {dt:.1f}s"
    print(
        f"\nACCEPTANCE 7 (group-action oracle): PASS -- {classes} (t, d) classes "
        f"exhaustive over ell in (5,7,11,13), {dt:.2f}s < 5s"
    )


def test_criterion_8_theta_and_hasse_identities():
    for k, ell in SIX_PAIRS:
        f = delta_k(k, ell, 500)
        iterated = f
        for _ in range(ell):
            iterated = theta_power(iterated, 1)
        assert iterated.coeffs == theta_power(f, 1).coeffs, (k, ell)
        one = QExpansion(ell, [1] + [0] * 500, ell - 1)  # the weight ell - 1 unit
        shifted = series_mul(one, f)
        assert shifted.coeffs == f.coeffs, (k, ell)
        assert shifted.weight == k + ell - 1, (k, ell)
    print(
        "\nACCEPTANCE 8 (theta and multiply-by-one identities): PASS -- "
        "theta^ell == theta and 1*f == f, weight k + ell - 1, exactly on 500-term series"
    )
