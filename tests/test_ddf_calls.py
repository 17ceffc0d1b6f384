"""verify_record factors a polynomial only where the predicted pattern fails.

Each prime's predicted pattern is checked directly, and the DDF, the only
factorization path, runs just where that check fails: at the primes skipped
as ramified and at the primes that FAIL.  verify_record reaches it through
_ddf, which takes the Frobenius set-up of the pattern check, so each tested
prime builds exactly one set-up.  The trace of the Frobenius matrix and
f(0) give the exact number of roots in F_p at every prime, so the pattern
check runs at most one gcd, and none at all where the predicted degree L
is 1 or prime.  On a correct record every DDF call ends
at its squarefree test, so the degree loop runs only at FAIL primes.
The polyverify module bindings of _ddf, _frobenius, _has_pattern and _gcd
are wrapped, since verify_record and _has_pattern look them up there.  tables verifies each projective representation once: the (26, 13)
record, which twists to the same delta_12 mod 13 as (16, 13) and has the
same coefficients, gets the (16, 13) report relabelled.
"""

import json

import pytest

from thetatwist import cli, polyverify
from thetatwist.ffield import is_prime
from thetatwist.polyverify import BUNDLED_LABELS, ProjPolyRecord, bundled_record, verify_record

FALLBACK = ("skipped-ramified", "FAIL")


@pytest.fixture
def ddf_ends():
    """Per _ddf call under ddf_calls: (its result, None for a reduction that
    is not squarefree, and the Frobenius steps its degree loop took)."""
    return []


@pytest.fixture
def ddf_calls(monkeypatch, ddf_ends):
    calls = []
    ddf = polyverify._ddf

    def counted(setup, p):
        calls.append(p)
        steps = []
        frobenius = setup[1]

        def step(h):
            steps.append(p)
            return frobenius(h)

        result = ddf((setup[0], step, *setup[2:]), p)
        ddf_ends.append((result, len(steps)))
        return result

    monkeypatch.setattr(polyverify, "_ddf", counted)
    return calls


@pytest.fixture
def setup_calls(monkeypatch):
    calls = []
    frobenius = polyverify._frobenius

    def counted(f, p, u):
        calls.append(p)
        return frobenius(f, p, u)

    monkeypatch.setattr(polyverify, "_frobenius", counted)
    return calls


def test_bundled_records_factor_only_at_skipped_primes(ddf_calls, ddf_ends):
    total = 0
    for k, ell in BUNDLED_LABELS:
        ddf_calls.clear()
        rep = verify_record(bundled_record(k, ell), k, ell, 1000)
        fallback = [p for p, status, _, _ in rep.outcomes if status in FALLBACK]
        assert ddf_calls == fallback, (k, ell)
        assert len(fallback) == rep.counts["skipped_ramified"] + rep.counts["fail"]
        total += len(ddf_calls)
    # one ddf per prime would be 1002 calls
    assert total == 9
    # and each ends at its squarefree test: no degree loop runs on a correct record
    assert ddf_ends == [(None, 0)] * 9


def test_mutated_record_factors_at_each_fail(ddf_calls, ddf_ends):
    coeffs = list(bundled_record(26, 23).coeffs)
    coeffs[3] += 1
    rep = verify_record(ProjPolyRecord(tuple(coeffs)), 26, 23, 200)
    assert rep.counts["fail"] >= 10
    assert ddf_calls == [p for p, status, _, _ in rep.outcomes if status in FALLBACK]
    # the degree loop runs at the FAIL primes only, and its pattern is the
    # one reported there; every other call ends at its squarefree test
    walked = {p: result for p, (result, steps) in zip(ddf_calls, ddf_ends) if steps}
    assert walked == {p: observed for p, status, observed, _ in rep.outcomes if status == "FAIL"}
    assert all(end == (None, 0) for p, end in zip(ddf_calls, ddf_ends) if p not in walked)


def _tested(rep):
    return [p for p, status, _, _ in rep.outcomes if status != "skipped-ell"]


def test_one_setup_per_tested_prime_on_bundled_records(setup_calls):
    for k, ell in BUNDLED_LABELS:
        setup_calls.clear()
        rep = verify_record(bundled_record(k, ell), k, ell, 1000)
        assert setup_calls == _tested(rep), (k, ell)


def test_one_setup_per_tested_prime_on_a_mutated_record(setup_calls, ddf_calls):
    coeffs = list(bundled_record(26, 23).coeffs)
    coeffs[3] += 1
    rep = verify_record(ProjPolyRecord(tuple(coeffs)), 26, 23, 200)
    assert rep.counts["fail"] >= 10
    # the FAIL primes reach the DDF, which reuses the pattern check's set-up
    assert setup_calls == _tested(rep)
    assert set(ddf_calls) >= set(rep.failures)


def test_tables_builds_one_setup_per_prime_of_five_representations(setup_calls, capsys):
    assert cli.main(["tables"]) == 0
    capsys.readouterr()
    # six records would build 1002; the (26, 13) scan is the (16, 13) one
    assert len(setup_calls) == 835


def test_tables_transports_the_report_it_would_compute(capsys):
    assert cli.main(["tables", "--format", "json", "--full"]) == 0
    rows = json.loads(capsys.readouterr().out)["verification"]
    (row,) = [row for row in rows if (row["k"], row["ell"]) == (26, 13)]
    report = verify_record(bundled_record(26, 13), 26, 13, 1000)
    assert row == json.loads(json.dumps(report.to_json_dict(full=True)))


@pytest.fixture
def pattern_checks(monkeypatch):
    """Per _has_pattern call: [p, deg f, the patterns' degrees L, _gcd calls]."""
    checks, active = [], []
    has_pattern, gcd = polyverify._has_pattern, polyverify._gcd

    def tracked(setup, p, *patterns):
        active.append([p, len(setup[0]) - 1, {pattern[-1] for pattern in patterns}, 0])
        checks.append(active[-1])
        try:
            return has_pattern(setup, p, *patterns)
        finally:
            active.pop()

    def counted(*args):
        if active:  # the DDF fallback's calls are not counted
            active[-1][3] += 1
        return gcd(*args)

    monkeypatch.setattr(polyverify, "_has_pattern", tracked)
    monkeypatch.setattr(polyverify, "_gcd", counted)
    return checks


def test_pattern_check_runs_at_most_one_gcd(pattern_checks):
    for k, ell in BUNDLED_LABELS:
        verify_record(bundled_record(k, ell), k, ell, 1000)
    assert len(pattern_checks) == 1002
    for p, n, tops, gcds in pattern_checks:
        # at most the gcd G of step 3, at every p, and none where every L
        # is 1 or prime
        assert gcds <= 1, (p, n, tops)
        if all(top == 1 or is_prime(top) for top in tops):
            assert gcds == 0, (p, n, tops)
    # without the exact root count there would be 993 of G and 993 of the
    # divisibility test gcd(x^p - x, G) == G
    assert sum(check[3] for check in pattern_checks) == 656
