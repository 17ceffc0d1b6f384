"""Integer helpers for arithmetic mod a prime ell.

Values mod ell are plain Python ints; every function here takes and returns
ints.  Factorization is trial division, which keeps moduli up to about 10^6
(and group orders ell +- 1) cheap.

check_prime is the one primality prover behind the public entry points.  It
proves primes below psi_13 = 3317044064679887385961981, where Miller-Rabin to
the bases 2..41 is deterministic, and refuses every modulus from there up, as
is_prime does.
It remembers every modulus it has proved, so each prime runs Miller-Rabin
once per process; a composite is never remembered and raises on every call.
"""

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13, the least strong pseudoprime to all of _MR_BASES (Sorenson and
#: Webster 2015); below it is_prime is a proof, and from it up is_prime raises
_PROVED_BELOW = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin primality test to the prime bases 2..41, a proof for
    n < _PROVED_BELOW; from there up, where composites pass every base,
    ValueError."""
    if n >= _PROVED_BELOW:
        raise ValueError(f"{n} is not below {_PROVED_BELOW}, the range is_prime proves")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: moduli check_prime has proved prime in this process
_PROVED = set()


def check_prime(m):
    """Raise ValueError unless m is an int proved prime, below _PROVED_BELOW;
    a prime is tested once per process.  The type is checked first, so
    13.0, equal to a proved 13, is refused too."""
    if not isinstance(m, int):
        raise ValueError(f"modulus {m!r} is not an int")
    if m not in _PROVED:
        if m >= _PROVED_BELOW:
            raise ValueError(f"modulus {m} is not below {_PROVED_BELOW}, the proved range")
        if not is_prime(m):
            raise ValueError(f"modulus {m} is not prime")
        _PROVED.add(m)


def primes_upto(n):
    """All primes <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(2, n + 1) if mark[i]]


def factorize(n):
    """Prime factorization {p: e} by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def legendre(a, ell):
    """Legendre symbol (a / ell): 0 if ell | a, 1 for nonzero squares, -1 otherwise.

    ell must be an odd prime: check_prime proves it first, so a composite
    ell raises ValueError rather than answer Euler's criterion mod ell.
    """
    check_prime(ell)
    if ell == 2:
        raise ValueError("Legendre symbol needs an odd modulus")
    s = pow(a, (ell - 1) // 2, ell)
    return -1 if s == ell - 1 else s
