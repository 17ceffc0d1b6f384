import pytest

from thetatwist import ffield
from thetatwist.ffield import factorize, is_prime, primes_upto

import oracles


def test_is_prime_against_naive():
    for n in range(2000):
        assert is_prime(n) == oracles.naive_is_prime(n), n


def test_is_prime_carmichael():
    # Carmichael numbers fool Fermat tests but not Miller-Rabin
    for n in (561, 1105, 1729, 2465, 6601, 8911):
        assert not is_prime(n)
    assert is_prime(691)
    assert is_prime(999983)


#: psi_12 and psi_13, the least strong pseudoprimes to the prime bases up to
#: 37 and up to 41 (Sorenson and Webster 2015), with their factors
PSI_12 = (318665857834031151167461, 399165290221, 798330580441)
PSI_13 = (3317044064679887385961981, 1287836182261, 2575672364521)


def test_check_prime_refuses_the_strong_pseudoprimes_psi_12_and_psi_13(monkeypatch):
    monkeypatch.setattr(ffield, "_PROVED", set())
    for (n, p, q), message in ((PSI_12, "is not prime"), (PSI_13, "is not below")):
        assert n == p * q
        with pytest.raises(ValueError, match=f"modulus {n} {message}"):
            ffield.check_prime(n)
    # the largest prime below psi_13 is proved; the Mersenne prime 2^89 - 1
    # lies beyond, where a pass of the 13 bases proves nothing
    ffield.check_prime(PSI_13[0] - 168)
    with pytest.raises(ValueError, match="the proved range"):
        ffield.check_prime(2**89 - 1)


def test_is_prime_refuses_the_range_it_cannot_prove():
    # psi_13 passes all 13 bases, so is_prime answers nothing from it up
    n, p, q = PSI_13
    assert n == p * q
    for m in (n, n + 1, 2**89 - 1):
        with pytest.raises(ValueError, match=f"modulus {m} is not below {n}, the proved range"):
            is_prime(m)
    assert is_prime(n - 168)
    assert not any(is_prime(m) for m in range(n - 167, n))


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_upto(2000)
    assert all(oracles.naive_is_prime(p) for p in ps)
    assert len(ps) == 303


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(13 * 13 - 1) == {2: 3, 3: 1, 7: 1}
    for n in range(2, 500):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert oracles.naive_is_prime(p)
            prod *= p ** e
        assert prod == n
