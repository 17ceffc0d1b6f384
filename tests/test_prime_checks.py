"""The per-prime loops must not re-prove primes their callers already know.

ell is checked once per public call and each p comes from a sieve, so no
Miller-Rabin runs inside a scan: verify_record reduces the record mod p
itself instead of building a ModPoly, which proves its modulus prime.
Every thetatwist module binding of is_prime is wrapped with one counter,
since `from .ffield import is_prime` makes a separate binding.
"""

import sys

import pytest

from thetatwist.ffield import is_prime
from thetatwist.galrep import screen_exceptional
from thetatwist.polyverify import bundled_record, verify_record
from thetatwist.qseries import delta_k


@pytest.fixture
def is_prime_calls(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    modules = [m for name, m in sys.modules.items() if name.startswith("thetatwist.")]
    for module in modules:
        if getattr(module, "is_prime", None) is is_prime:
            monkeypatch.setattr(module, "is_prime", counted)
    return calls


def test_screen_runs_no_primality_test_on_a_warm_cache(is_prime_calls):
    screen_exceptional(16, 13, 200)
    is_prime_calls.clear()
    screen_exceptional(16, 13, 200)
    assert is_prime_calls == []


def test_warm_delta_k_runs_no_primality_test(is_prime_calls):
    # a cold Delta builds no E4, so ell is remembered per cached (k, ell)
    delta_k.cache_clear()
    for k in (12, 26):
        delta_k(k, 13, 50)
        is_prime_calls.clear()
        delta_k(k, 13, 40)
        delta_k(k, 13, 80)
        assert is_prime_calls == []
    delta_k.cache_clear()


def test_verify_record_tests_each_prime_once(is_prime_calls):
    delta_k(26, 23, 1000)
    is_prime_calls.clear()
    rep = verify_record(bundled_record(26, 23), 26, 23, 1000)
    tested = [p for p, status, _, _ in rep.outcomes if p != 23]
    assert len(tested) == 167
    # none per tested prime, and ell was proved when the series was cached
    assert is_prime_calls == []
