"""No modulus is proved prime twice in one process.

Every public entry point checks ell through ffield.check_prime, which runs
Miller-Rabin once per prime and remembers it, and never remembers a
composite.  It refuses what is not an int before it looks at what it
remembers, so 13.0, equal to a proved 13, is refused too.  Each p of a scan comes from a sieve and never reaches it:
verify_record reduces the record mod p itself and proves only ell, before
its series is built.  Every thetatwist module binding of
is_prime is wrapped with one counter, since `from .ffield import is_prime`
makes a separate binding, and check_prime's memory starts empty.
"""

import sys

import pytest

from thetatwist import ffield
from thetatwist.ffield import is_prime
from thetatwist.galrep import screen_exceptional
from thetatwist.polyverify import bundled_record, verify_record
from thetatwist.qseries import SUPPORTED_WEIGHTS, delta_k


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
    monkeypatch.setattr(ffield, "_PROVED", set())
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


def test_cold_delta_k_proves_ell_once_for_all_six_weights(is_prime_calls):
    delta_k.cache_clear()
    for k in SUPPORTED_WEIGHTS:
        delta_k(k, 691, 50)
    delta_k.cache_clear()
    assert is_prime_calls == [691]


@pytest.mark.parametrize("m", [13.0, "13", 13.5, None], ids=["float", "str", "fraction", "None"])
def test_a_modulus_that_is_not_an_int_is_refused_before_the_memory(is_prime_calls, m):
    ffield.check_prime(13)
    with pytest.raises(ValueError, match="is not an int"):
        ffield.check_prime(m)
    assert is_prime_calls == [13]


def test_a_composite_ell_is_tested_on_every_call(is_prime_calls):
    for _ in range(2):
        with pytest.raises(ValueError, match="15 is not prime"):
            ffield.check_prime(15)
    assert is_prime_calls == [15, 15]
