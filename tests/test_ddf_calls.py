"""verify_record factors a polynomial only where the predicted pattern fails.

Each prime's predicted pattern is checked directly, and ddf, the only
factorization path, runs just where that check fails: at the primes skipped
as ramified and at the primes that FAIL.  The polyverify module binding of
ddf is wrapped, since verify_record looks it up there.
"""

import pytest

from thetatwist import polyverify
from thetatwist.polyverify import BUNDLED_LABELS, ProjPolyRecord, bundled_record, verify_record
from thetatwist.qseries import delta_k

FALLBACK = ("skipped-ramified", "FAIL")


@pytest.fixture
def ddf_calls(monkeypatch):
    calls = []
    ddf = polyverify.ddf

    def counted(f):
        calls.append(f.modulus)
        return ddf(f)

    monkeypatch.setattr(polyverify, "ddf", counted)
    return calls


def test_bundled_records_factor_only_at_skipped_primes(ddf_calls):
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


def test_mutated_record_factors_at_each_fail(ddf_calls):
    coeffs = list(bundled_record(26, 23).coeffs)
    coeffs[3] += 1
    rep = verify_record(ProjPolyRecord(tuple(coeffs)), 26, 23, 200, series=delta_k(26, 23, 200))
    assert rep.counts["fail"] >= 10
    assert ddf_calls == [p for p, status, _, _ in rep.outcomes if status in FALLBACK]
