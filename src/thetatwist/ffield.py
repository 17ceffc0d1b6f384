"""Integer helpers for arithmetic mod a prime ell.

Values mod ell are plain Python ints; every function here takes and returns
ints.  Factorization is trial division; it serves only the L of
polyverify._has_pattern, a degree at most ell + 1.
_projective_order is the one walk that decides the projective order of a
Frobenius class, for the screen (capped at 5) and the verifier (capped at
ell + 1).

check_prime is the one primality prover behind the public entry points.  It
proves primes below psi_13 = 3317044064679887385961981, where Miller-Rabin to
the bases 2..41 is deterministic, and refuses every modulus from there up
through is_prime, the one place that range is refused.
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
        raise ValueError(f"modulus {n} is not below {_PROVED_BELOW}, the proved range")
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


def _projective_order(t, d, ell, most):
    """The projective order of the class of x^2 - t x + d over F_ell, or None
    when it exceeds most.

    ell is a prime, d a unit and the discriminant t^2 - 4d nonzero mod ell;
    none of this is checked.  With s = t^2/d - 2 = r + 1/r for the eigenvalue
    ratio r != 1, V_n = r^n + r^-n satisfies V_0 = 2, V_1 = s and
    V_(n+1) = s V_n - V_(n-1), and V_n - 2 = (r^n - 1)^2 / r^n, so the order
    is the least n >= 1 with V_n = 2, n - 1 multiplications.
    """
    s = (t * t * pow(d, -1, ell) - 2) % ell
    v, w, n = 2, s, 1  # V_(n-1), V_n
    while w != 2:
        if n == most:
            return None
        v, w, n = w, (s * w - v) % ell, n + 1
    return n
