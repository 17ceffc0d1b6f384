"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values by a different route from the
package: integer eta-product expansion instead of Eisenstein monomials,
exhaustive power enumeration instead of factored-order computation, explicit
matrix orbits on the projective line instead of pattern formulas, and root
counting and trial division instead of distinct-degree factorization.
Keep these naive.
"""

from itertools import product


def sigma(j, n):
    """Sum of d^j over the divisors d of n, as an exact integer."""
    return sum(d ** j for d in range(1, n + 1) if n % d == 0)


def poly_mul_int(a, b, nmax):
    """Truncated product of integer coefficient lists."""
    out = [0] * (nmax + 1)
    for i, ai in enumerate(a[: nmax + 1]):
        if ai:
            for j, bj in enumerate(b[: nmax + 1 - i]):
                out[i + j] += ai * bj
    return out


def poly_mul_mod(a, b, m):
    """Full schoolbook product of two coefficient lists, reduced mod m."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % m for c in out]


def poly_divmod_monic(a, f, m):
    """Quotient and remainder of a by the monic f mod m, by long division,
    one leading term at a time; the remainder as exactly deg f entries in
    [0, m)."""
    n = len(f) - 1
    rem = [c % m for c in a]
    q = [0] * max(len(rem) - n, 0)
    for top in range(len(rem) - 1, n - 1, -1):
        c = q[top - n] = rem[top]
        for i in range(n + 1):
            rem[top - n + i] = (rem[top - n + i] - c * f[i]) % m
    return q, (rem + [0] * n)[:n]


def poly_rem_monic(a, f, m):
    """The remainder of poly_divmod_monic(a, f, m)."""
    return poly_divmod_monic(a, f, m)[1]


def poly_gcd(a, b, m):
    """Monic gcd of two coefficient lists mod the prime m, by schoolbook
    Euclid on whole remainders; [] for gcd(0, 0)."""

    def strip(c):
        c = [x % m for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = strip(a), strip(b)
    while b:
        rem = a
        while len(rem) >= len(b):
            c = rem[-1] * pow(b[-1], -1, m)
            shift = len(rem) - len(b)
            rem = strip(
                [x - c * b[i - shift] if i >= shift else x for i, x in enumerate(rem)]
            )
        a, b = b, rem
    return [x * pow(a[-1], -1, m) % m for x in a] if a else []


def ddf_by_trial_division(f, m):
    """Sorted degrees of the irreducible factors of a nonzero f mod the
    prime m, or None when one of them repeats.

    Trial division by every monic polynomial of degree d = 1, 2, ... in
    turn, while 2d <= the degree left: each divisor found has no factor of
    lower degree left to share, so it is irreducible, and it is divided out
    once and must not divide again.  What is left is 1 or irreducible.
    Costs about m^(deg f / 2) divisions: for small m and deg f only.
    """
    f = [c % m for c in f]
    while not f[-1]:
        f.pop()
    f = [c * pow(f[-1], -1, m) % m for c in f]
    degrees, d = [], 1
    while 2 * d <= len(f) - 1:
        for low in product(range(m), repeat=d):
            g = [*low, 1]
            q, r = poly_divmod_monic(f, g, m)
            if not any(r):
                if not any(poly_divmod_monic(q, g, m)[1]):
                    return None
                f = q
                degrees.append(d)
        d += 1
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return tuple(degrees)


def degree_patterns(n):
    """Every sorted pattern {1^a, L^b} of degree n."""
    out = [(1,) * n]
    for top in range(2, n + 1):
        out.extend((1,) * (n - b * top) + (top,) * b for b in range(1, n // top + 1))
    return out


def eta24_int(nmax):
    """Coefficients of q * prod_{m>=1} (1 - q^m)^24 over Z, indices 0..nmax."""
    f = [0] * (nmax + 1)
    f[0] = 1
    for m in range(1, nmax + 1):
        for i in range(nmax, m - 1, -1):
            f[i] -= f[i - m]
    f3 = poly_mul_int(poly_mul_int(f, f, nmax), f, nmax)
    f6 = poly_mul_int(f3, f3, nmax)
    f12 = poly_mul_int(f6, f6, nmax)
    f24 = poly_mul_int(f12, f12, nmax)
    return [0] + f24[:nmax]


def eisenstein_int(k, nmax):
    """Integer E4 or E6 coefficients, indices 0..nmax."""
    const, j = {4: (240, 3), 6: (-504, 5)}[k]
    return [1] + [const * sigma(j, n) for n in range(1, nmax + 1)]


def brute_order(a, m):
    """Multiplicative order of a mod m by successive powers."""
    assert a % m != 0
    x, n = a % m, 1
    while x != 1:
        x = x * a % m
        n += 1
    return n


def quad_mul(x, y, c, m):
    """(a0 + a1*s)(b0 + b1*s) with s^2 = c, as a coefficient pair mod m."""
    a0, a1 = x
    b0, b1 = y
    return ((a0 * b0 + c * a1 * b1) % m, (a0 * b1 + a1 * b0) % m)


def brute_quad_order(x, c, m):
    """Order of a0 + a1*sqrt(c) in F_{m^2} by successive multiplication."""
    assert x != (0, 0)
    y, n = x, 1
    while y != (1, 0):
        y = quad_mul(y, x, c, m)
        n += 1
    return n


def p1_points(ell):
    """The ell + 1 points of the projective line: infinity plus affine."""
    return [(1, 0)] + [(x, 1) for x in range(ell)]


def p1_normalize(u, v, ell):
    u, v = u % ell, v % ell
    if v:
        return (u * pow(v, -1, ell) % ell, 1)
    return (1, 0)


def companion_orbits(t, d, ell):
    """Orbit-length multiset of [[0, -d], [1, t]] acting on the projective line."""
    seen = set()
    lengths = []
    for start in p1_points(ell):
        if start in seen:
            continue
        n = 0
        pt = start
        while pt not in seen:
            seen.add(pt)
            n += 1
            u, v = pt
            pt = p1_normalize(-d * v, u + t * v, ell)
        lengths.append(n)
    return tuple(sorted(lengths))


def projective_order(t, d, ell):
    """Least n >= 1 with C^n scalar mod ell, C = [[0, -d], [1, t]] the
    companion matrix of x^2 - t x + d (d a unit), by repeated multiplication."""
    a, b, c, e = 0, -d % ell, 1, t % ell  # C^n = [[a, b], [c, e]], n = 1
    n = 1
    while b or c or a != e:
        a, b, c, e = b, (t * b - d * a) % ell, e, (t * e - d * c) % ell
        n += 1
    return n


def poly_roots(coeffs, p):
    """All roots in F_p of an ascending integer coefficient list."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
