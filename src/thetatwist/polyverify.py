"""Parse projective polynomials and verify them against Frobenius data.

A ProjPolyRecord holds the exact integer coefficients of a degree ell+1
polynomial whose splitting field realizes a projective mod-ell
representation; parse_poly reads one from text, one regular-expression
match per term, and given the (k, ell) label it is the label check too.
verify_record checks it against the eigenform of weight k: for each prime
p the distinct-degree factorization pattern of the polynomial mod p must
equal the cycle type of Frobenius on the ell + 1 points of the projective
line, which _admissible_patterns reads off (a_p mod ell, p^{k-1} mod ell):
whether the discriminant is a square tells split from nonsplit, and
ffield._projective_order finds the projective order, the least n with
V_n(s) = 2 in the Lucas sequence of s = a_p^2 / p^{k-1} - 2.  The
prediction is checked directly (_has_pattern: the number of roots in F_p,
read off the trace of the Frobenius matrix, one walk of the Frobenius map
and at most one gcd); only where it fails does _ddf, a plain degree-by-degree
distinct-degree factorization, run, to tell a FAIL from a reduction that
is not squarefree.  Both report a miss as None: _has_pattern when no
predicted pattern holds, _ddf for a reduction that is not squarefree,
which is skipped as ramified, as p = ell always is.
Both run on a set-up of _frobenius, the Frobenius map as a linear operator
on packed integer rows (polyarith) with slot-wise Barrett reduction mod N,
N the product of a lane of primes: (Z/N)[x]/f is by CRT one F_p[x]/f per
p, so one step serves them all, and CRT idempotents select the copies
that a step treats apart.  verify_record groups its primes greedily into
lanes while barrett's slots for N stay native, 8 bytes at most (_lanes).
A lane's check runs one _gcd, a lockstep Euclid mod N, and a prime it
misses goes to _ddf, which sets up p alone only for a squarefree reduction.

This is a consistency test across many primes, not a proof of correctness:
reports say how far the scan went.  A report is its outcomes, one
(p, status, observed, predicted) per prime; its counts and failures are
read off them, and its JSON is its fields with tuples as lists.  Mod-p
polynomials are coefficient lists in ascending order with the zero
polynomial written as the empty list.

ProjPolyRecord and VerificationReport are collections.namedtuple
subclasses.  No modulus is proved prime twice: verify_record and delta_k
prove ell through ffield.check_prime, which remembers each prime it
proved, and the sieved p of verify_record never reach it, since it reduces
the record mod p itself and calls the private kernels on coefficient lists.
"""

import os
import re
from collections import Counter, namedtuple
from math import gcd, prod
from operator import mul as _imul

from . import polyarith
from .errors import ParseError
from .ffield import _projective_order, check_prime, factorize, primes_upto
from .qseries import MAX_PRECISION, _read, delta_k

MATCH = "match"
AMBIGUOUS_PASS = "ambiguous-pass"
SKIPPED_RAMIFIED = "skipped-ramified"
SKIPPED_ELL = "skipped-ell"
FAIL = "FAIL"
#: the counts key of each status, in the order of a report's counts
_COUNT_KEYS = {MATCH: "match", AMBIGUOUS_PASS: "ambiguous_pass",
               SKIPPED_RAMIFIED: "skipped_ramified", SKIPPED_ELL: "skipped_ell", FAIL: "fail"}

#: (k, ell) labels of the records shipped in the data directory
BUNDLED_LABELS = ((16, 13), (20, 17), (22, 11), (22, 19), (26, 13), (26, 23))


class ProjPolyRecord(namedtuple("ProjPolyRecord", "coeffs k ell", defaults=(None, None))):
    """Exact integer polynomial c_0 + c_1 x + ... + c_deg x^deg, with label."""

    __slots__ = ()

    @property
    def degree(self):
        return len(self.coeffs) - 1


#: one term, or the longest start of one that the text holds: sign,
#: coefficient, '*', x, '^', '{', exponent and, after '{', '}', in this
#: order, each optional and followed by any whitespace ('_' in the pattern)
_TERM = re.compile(r"""
    _ ([-+−]?) _ (?: (\d+) _ (?: (\*) _ )? )?
    (?: (x) _ (?: (\^) _ (?: (\{) _ )? (?: (\d+) _ (?(6) (?: (\}) _ )? ) )? )? )?
    """.replace("_", r"[ \t\r\n]*"), re.VERBOSE)


def parse_poly(text, k=None, ell=None):
    """Parse a sum of c*x^e / x^e / c*x / x / c terms into a record.

    Exponents may be braced (x^{14}) or bare (x^14); whitespace is ignored;
    '*' between a coefficient and x is required; '-' or the minus sign '−'
    negates.  Each term is one match of _TERM; a ParseError gives the end of
    the longest prefix that can begin an expression.  ParseError also
    refuses an exponent that appears twice, an exponent above
    qseries.MAX_PRECISION, or with ell given above ell + 1, before any list
    is built (by its length first), and a coefficient longer than int()
    converts, at its start.  Without ell any shape is returned, a non-monic
    one included.  With ell given the parse is the label check: _check_shape
    refuses a degree other than ell + 1 or a leading coefficient other than
    1 with ValueError.
    """
    bound, name = (MAX_PRECISION, "the maximum") if ell is None else (ell + 1, "ell + 1 =")
    terms, i = {}, 0
    while not terms or i < len(text):
        m = _TERM.match(text, i)
        sign, coef, star, x, caret, brace, exp, close = m.groups()
        if terms and not sign:
            raise ParseError(f"expected '+' or '-', got {text[i]!r}", i)
        i = m.end()
        if not (coef or x):
            raise ParseError("expected a term", i)
        if coef and x and not star:
            raise ParseError("missing '*' between coefficient and x", m.start(4))
        if star and not x:
            raise ParseError("expected 'x' after '*'", i)
        if caret and not exp:
            raise ParseError("expected digits", i)
        if brace and not close:
            raise ParseError("expected '}'", i)
        exp = (exp or ("1" if x else "")).lstrip("0")  # "" is exponent 0
        if len(exp) > len(str(bound)):  # refused before int() reads it
            raise ParseError(f"exponent of {len(exp)} digits exceeds {name} {bound}", i)
        e = int(exp or 0)
        if e > bound:
            raise ParseError(f"exponent {e} exceeds {name} {bound}", i)
        if e in terms:
            raise ParseError(f"exponent {e} appears twice", i)
        try:
            c = int(coef or 1)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"coefficient of {len(coef)} digits is too long", m.start(2)) from None
        terms[e] = -c if sign in ("-", "−") else c

    deg = max(terms)
    coeffs = tuple(terms.get(e, 0) for e in range(deg + 1))
    if ell is not None:
        _check_shape(coeffs, ell)
    return ProjPolyRecord(coeffs=coeffs, k=k, ell=ell)


def _check_shape(coeffs, ell):
    """Raise ValueError unless coeffs is monic of degree ell + 1."""
    if len(coeffs) != ell + 2:
        raise ValueError(f"degree {len(coeffs) - 1} != ell + 1 = {ell + 1}")
    if coeffs[-1] != 1:
        raise ValueError("labeled records must be monic")


# -- raw coefficient-list kernels (ascending order, stripped) --


def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _gcd(a, b, lane):
    """Per p of lane, the monic gcd of a and b mod p, in lane's order.

    a and b have entries in [0, N), N the product of lane, distinct primes;
    gcd(a, 0) = monic(a), gcd(0, 0) = [].  Euclid runs mod N, the primes in
    lockstep, while the divisor's leading coefficient c is a unit; else the
    lane splits at g = gcd(c, N) (dynamic evaluation, Della Dora, Dicrescenzo
    and Duval): the primes of g drop c, the others keep it, each branch mod
    its own product.  The normal step, deg a = deg b + 1, takes its quotient
    c1 x + c0 in one pass, r_i = a_i - c0 b_i - c1 b_(i-1); c0 makes r at
    deg b vanish, and the strip drops it.  Any other step pops one leading
    coefficient of a per shift, until deg a = deg b + 1 or deg a < deg b.
    """
    out, branches = {}, [(list(a), _strip(list(b)), lane, prod(lane))]
    while branches:
        a, b, primes, N = branches.pop()
        while b:
            try:
                inv = pow(b[-1], -1, N)
            except ValueError:  # split at g = gcd(c, N); c is 0 mod g, and stripped
                g = gcd(b[-1], N)
                for M in (g, N // g):
                    branches.append(([x % M for x in a], _strip([x % M for x in b]),
                                     tuple(p for p in primes if M % p == 0), M))
                break
            db = len(b) - 1
            while len(a) > db:
                if len(a) == db + 2:
                    up = [0, *b]  # b times x, so that up[i] = b_(i-1)
                    c1 = a[-1] * inv % N
                    c0 = (a[-2] - c1 * up[-2]) * inv % N
                    a = [(x - c0 * y - c1 * z) % N for x, y, z in zip(a, b, up)]
                    break
                c = a.pop()
                if c:
                    c = c * inv % N
                    s = len(a) - db
                    a[s:] = [(x - c * y) % N for x, y in zip(a[s:], b)]
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        else:  # a is the gcd mod N, its leading coefficient a unit unless a is the input
            for p in primes:
                g = _strip(a if p == N else [x % p for x in a])
                inv = pow(g[-1], -1, p) if g else 1
                out[p] = g if inv == 1 else [x * inv % p for x in g]
    return list(map(out.get, lane))


def _is_squarefree(f, p):
    """True iff the nonzero coefficient list f mod the prime p is squarefree:
    gcd(f, f') = 1, a vanishing derivative handled by the gcd."""
    return len(_gcd(f, [i * f[i] % p for i in range(1, len(f))], (p,))[0]) == 1


def _rev_inverse(f):
    """u = 1/rev(f) mod x^n over Z for a monic integer f of degree n.

    u_0 = 1, u_k = -(f_(n-k) u_0 + ... + f_(n-1) u_(k-1)): the recurrence
    needs no division, so u reduced mod p is the u of f mod p.
    """
    n = len(f) - 1
    u = [1]
    for k in range(1, n):
        u.append(-sum(map(_imul, f[n - k : n], u)))
    return u


def _frobenius(f, lane, u):
    """(f, frobenius, mulmod, trace, idempotents, xp, u): the Frobenius map
    of a monic f mod N, N the product of lane, a tuple of distinct primes.

    The primes are not checked (verify_record took them from a sieve); f is
    monic of degree n >= 2 with entries in [0, N), and u is _rev_inverse(f)
    mod N, which verify_record computes once per record over Z.  Mod each p
    of lane, frobenius(h) = h^p mod f and mulmod(a, b) = a * b mod f, on
    lists of n entries in [0, N); trace is the trace of the Frobenius matrix
    Q, the sum over i < n of slot i of the reduced row x^(i*p) mod f (one
    shift and one mask each), the number of distinct roots of f in F_p,
    mod p (see _has_pattern); the idempotent of p is 1 mod p and 0 mod the
    other primes; xp is x^p mod f, as a list; and u is returned as given.
    The maps work on packed ints (polyarith) with the slot width of
    polyarith.barrett for slots up to bound = n(N - 1)^2 + N - 1.  x^p, its
    squarings and the Frobenius rows x^(i*p) mod f, i < n, stay packed from
    first to last, reduced mod f through the quotient.  The square and
    multiply ladder for x^p starts at x^(p >> r), r the least shift that
    takes every p below n: that power is one slot and needs no reduction, so
    the squarings that stay below degree n cost nothing, and for p < n none
    is left.  A step multiplies by x the copies whose p has its bit,
    c + e_S (x c - c), e_S their idempotent (0 or 1 for one prime).  A
    product c = L + x^n H of at most 2n slots has every slot reduced mod N
    at once (Barrett); then the quotient Q of c by f is the top n slots of
    H * rev(u), where u holds the first n terms of x^n / f in powers of 1/x,
    and c mod f is L + Q * (-f_low mod N) truncated to n slots.  Each of
    these products has n or fewer terms of (N - 1)^2 per slot, so every slot
    stays within bound.  The Frobenius map is one sum over the packed rows,
    sum(map(mul, h, rows)).  Its result and mulmod's are reduced mod N
    slot-wise by the same Barrett reduction and read out as they stand
    (polyarith.slots), with no % N per coefficient.
    """
    n, N = len(f) - 1, prod(lane)
    width, reduce = polyarith.barrett(N, n * (N - 1) ** 2 + N - 1, 2 * n)
    bits = 8 * width
    pack, slots = polyarith.pack, polyarith.slots
    u_rev = pack(u[::-1], width)
    f_neg = pack([-c % N for c in f[:n]], width)
    top, middle = n * bits, (n - 1) * bits
    low = (1 << top) - 1

    def remainder(c):  # a packed c mod f, slots within bound, not reduced mod N
        c = reduce(c)
        q = reduce((c >> top) * u_rev >> middle)
        return (c & low) + (q * f_neg & low)

    def mulmod(a, b):
        return slots(reduce(remainder(pack(a, width) * pack(b, width))), width, n)

    def frobenius(h):
        return slots(reduce(sum(map(_imul, h, rows))), width, n)

    r = (max(lane) // n).bit_length()  # the least r with p >> r < n for every p
    idempotents = [N // p * pow(N // p, -1, p) for p in lane]
    copies = list(zip(idempotents, lane))
    xp = reduce(sum(e << (p >> r) * bits for e, p in copies))  # x = one slot up
    selectors = ([lane[0] >> i & 1 for i in reversed(range(r))] if len(lane) == 1 else
                 [sum(e for e, p in copies if p >> i & 1) % N for i in reversed(range(r))])
    for e in selectors:
        xp *= xp
        if e == 1:
            xp <<= bits
        elif e:
            xp = reduce(xp)
            xp = (xp << bits) * e + xp * (N + 1 - e)
        xp = reduce(remainder(xp))
    rows = [1, xp]
    for _ in range(n - 2):
        rows.append(reduce(remainder(rows[-1] * xp)))
    mask = (1 << bits) - 1
    trace = sum(row >> i * bits & mask for i, row in enumerate(rows)) % N
    return f, frobenius, mulmod, trace, idempotents, slots(xp, width, n), u


def _ddf(setup, p):
    """Degree multiset of the irreducible factors of a monic f mod p, or None.

    setup is _frobenius(f, lane, u) for a lane holding p.  f mod p is tested
    first: None if it is not squarefree, as a miss of _has_pattern; else it
    is walked on setup, or for a longer lane on p's own set-up, built here.
    Distinct-degree factorization: a factor of degree e divides x^{p^d} - x
    exactly when e | d.  x^{p^d} mod f starts at the set-up's x^p and steps
    by the Frobenius map h -> sum h_i x^{ip}, one packed matrix-vector
    product (von zur Gathen-Shoup).  At each d = 1, 2, ... the gcd of f with
    x^{p^d} - x is the product of its factors of degree dividing d, so its
    degree less that of the factors counted at the e | d, e < d, is the
    degree-d part, a multiple of d; nothing is divided out.  The scan stops
    once 2d exceeds the degree not yet counted, which is then one
    irreducible factor.  Only the degrees are returned, never the factors.
    """
    work = setup[0] if len(setup[4]) == 1 else [c % p for c in setup[0]]
    if not _is_squarefree(work, p):
        return None
    if len(setup[4]) > 1:
        setup = _frobenius(work, (p,), [c % p for c in setup[6]])
    frobenius, h = setup[1], setup[5]  # h = x^{p^d} mod f, at d = 1
    left, out, d = len(work) - 1, [], 1
    while 2 * d <= left:
        h = frobenius(h) if d > 1 else h
        u = [h[0], (h[1] - 1) % p, *h[2:]]  # h - x
        new = len(_gcd(work, u, (p,))[0]) - 1 - sum(e for e in out if d % e == 0)
        assert new % d == 0, "the degree-d part must be a multiple of d"
        out.extend([d] * (new // d))
        left -= new
        d += 1
    if left:
        out.append(left)
    return tuple(out)  # ascending: the remainder's degree is at least d


def _has_pattern(setup, lane, candidates):
    """Per p of lane, the one of its candidates that equals _ddf at p, or None.

    setup is _frobenius(f, lane, u) of a monic f of degree at least 2, and
    candidates holds per prime a tuple of patterns that differ in a: each
    a sorted tuple {1^a, L^b}, a ones and b copies of one degree L, as
    _admissible_patterns returns them.  A non-squarefree f has no pattern,
    so None is returned for it.  Checking a known pattern needs no
    factorization (Rabin's irreducibility test is the case a = 0, b = 1).

    The trace lemma: the trace t of the Frobenius matrix Q (setup's trace)
    is N_1 mod p, N_1 the number of distinct roots of f in F_p.  F_p[x]/f
    is the product of the local rings F_p[x]/g^e of its factors g; Q maps
    each power of the maximal ideal g into the next, so it acts as zero on
    the nilpotent part and as the Frobenius map of F_{p^d} on the residue
    field, d = deg g, whose characteristic polynomial is x^d - 1 by the
    normal basis theorem, and the trace of that is 1 for d = 1 and 0
    otherwise (Berlekamp's Q-matrix counts factors the same way).  As
    0 <= N_1 <= p, N_1 = t when t != 0; when t == 0, N_1 = p if f(0) == 0
    and N_1 = 0 otherwise.  So every check knows N_1 exactly, and with
    n = deg f:
      0. N_1 == a, checked before any walk;
      1. deg f == a + bL is not checked: in verify_record both are ell + 1,
         as the record is monic of that degree;
      2. h_L == x, where h_d = x^{p^d} mod f is walked with the Frobenius
         map.  This holds exactly when f | x^{p^L} - x, that is when f is
         squarefree and the degree of every factor divides L;
      3. for a composite L, G = gcd(f, prod (h_m - x) mod f) over m = L/q
         for the primes q | L has degree a.
    After step 2 f is squarefree with every factor of degree dividing L,
    and by step 0 exactly a of them are linear.  A factor of degree e
    divides h_m - x exactly when e | m.  Every proper divisor of L above 1
    divides some L/q, and L divides none of them, so G is the product of
    the factors of degree below L, the a linear ones included, and
    deg G == a leaves no factor of degree strictly between 1 and L.  For a
    prime L there is no such degree: the product is empty and no gcd runs.
    Either way the n - a degrees left are all L, b of them, and a check
    runs at most one gcd.  Conversely f with pattern {1^a, L^b} passes
    every step.  In a lane, step 3 multiplies 1 + e_S (h_m - x - 1), e_S
    the idempotent of the primes that take that m, so mod p it is p's own
    product, and one _gcd serves them all.  The walk starts at x^p.
    """
    work, frobenius, mulmod, trace, idempotents, xp, _ = setup
    n, N = len(work) - 1, prod(lane)
    x = [0, 1] + [0] * (n - 2)
    trying, steps, select = {}, {}, {}  # per j: pattern, m = L/q; per m: e_S
    for j, (p, patterns, e) in enumerate(zip(lane, candidates, idempotents)):
        roots = trace % p or (p if work[0] % p == 0 else 0)  # N_1, the distinct roots in F_p
        for pattern in patterns:
            if pattern.count(1) == roots:
                trying[j], top = pattern, pattern[-1]
                steps[j] = {top // q for q in factorize(top)} - {1}
                for m in steps[j]:
                    select[m] = (select.get(m, 0) + e) % N
    h, product = [x, xp], None  # h[d] = h_d; every m is at least 2
    for d in range(2, max((pattern[-1] for pattern in trying.values()), default=0) + 1):
        h.append(frobenius(h[-1]))
        e = select.get(d)
        if e:
            u = list(h[d]) if e == 1 else [e * c % N for c in h[d]]
            u[0], u[1] = (u[0] + 1 - e) % N, (u[1] - e) % N
            product = u if product is None else mulmod(product, u)
    found = [None] * len(lane)
    for j, pattern in trying.items():
        if [c % lane[j] for c in h[pattern[-1]]] == x:
            found[j] = pattern
    gcds = [j for j in trying if found[j] and steps[j]]
    if gcds:
        primes = tuple(lane[j] for j in gcds)
        M = prod(primes)
        if M != N:
            work, product = [c % M for c in work], [c % M for c in product]
        for j, g in zip(gcds, _gcd(work, product, primes)):
            if len(g) - 1 != found[j].count(1):
                found[j] = None
    return found


class VerificationReport(namedtuple("VerificationReport", "k ell pmax outcomes counts failures")):
    """Per-prime outcomes of the factorization-pattern consistency check.

    outcomes holds (p, status, observed, predicted) per prime.  counts, the
    number of primes per status under the status's count key, and failures,
    the FAIL primes in order, are read off the outcomes (_tally).
    """

    __slots__ = ()

    @property
    def ok(self):
        return self.counts["fail"] == 0

    def to_json_dict(self, full=False):
        """The fields as they stand; outcomes only when full."""
        d = self._asdict()
        if not full:
            del d["outcomes"]
        return d

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict, a document without outcomes read as ();
        refuses what misfits the layout (qseries._read), and a document
        whose counts or failures are not those its outcomes give."""
        pattern = [int, ...]
        outcome = [int, tuple(_COUNT_KEYS), (pattern, None), (pattern, [pattern, pattern], None)]
        layout = {"k": int, "ell": int, "pmax": int, "outcomes": [outcome, ...],
                  "counts": dict.fromkeys(_COUNT_KEYS.values(), int), "failures": [int, ...]}
        report = cls(**_read(cls, d, layout, outcomes=[]))
        if "outcomes" in d and _tally(report.outcomes) != (report.counts, report.failures):
            raise ValueError("VerificationReport counts and failures disagree with its outcomes")
        return report


def _tally(outcomes):
    """(counts, failures) of a report, read off its outcomes."""
    tally = Counter(status for _, status, _, _ in outcomes)
    counts = {key: tally[status] for status, key in _COUNT_KEYS.items()}
    return counts, tuple(p for p, status, _, _ in outcomes if status == FAIL)


def _admissible_patterns(t, d, ell):
    """The degree patterns Frobenius may have on the ell + 1 projective points.

    The class is that of x^2 - t x + d over F_ell, for a prime ell (proved
    by the caller) and a unit d.  A zero discriminant t^2 - 4d returns the
    pair that trace and determinant cannot tell apart: all points fixed (a
    scalar) and one fixed point with one ell-cycle (not semisimple).
    Otherwise the one pattern of the class, whose projective order n comes
    from _projective_order, which never exceeds ell + 1.  A split class
    (square discriminant) fixes its two eigenlines and moves the other
    ell - 1 points in n-cycles; a nonsplit class moves all ell + 1 in
    n-cycles.
    """
    square = pow(t * t - 4 * d, (ell - 1) // 2, ell)  # Euler's criterion
    if not square:
        return (1,) * (ell + 1), (1, ell)
    n = _projective_order(t, d, ell, ell + 1)
    if square == 1:
        return ((1, 1) + (n,) * ((ell - 1) // n),)
    return ((n,) * ((ell + 1) // n),)


def verify_record(record, k, ell, pmax, fail_fast=False):
    """Check one polynomial record against Frobenius patterns for p <= pmax.

    For each unramified prime the observed distinct-degree multiset must be
    one of _admissible_patterns(a_p, p^(k-1), ell): the predicted cycle
    type, or either of the pair for a zero discriminant, which passes as
    ambiguous.  The prediction is checked first with _has_pattern, on the
    set-up of a lane (_lanes); when it holds, it is the observed pattern.
    Only otherwise does _ddf run, on the lane's set-up, to report the
    observed pattern of a FAIL; its None, a reduction that is not
    squarefree, skips the prime as ramified.  Each prime appends one
    (p, status, observed, predicted), FAIL when observed is not a predicted
    pattern; the counts per status and the FAIL primes are read off the
    outcomes after the scan (_tally).  With fail_fast every lane is one
    prime and the scan stops at the first FAIL, which is enough for
    mutation testing.  Each p comes from primes_upto's sieve, so the record
    is reduced mod each lane's product N here, with no
    primality test.  After the label checks ell is proved prime
    (check_prime), and a record not monic of degree ell + 1 raises the
    labelled parse_poly's ValueError (_check_shape), both before any series
    is built; so every reduction keeps that degree and u = 1/rev(f) mod x^n
    is computed once, over Z, and reduced mod N for each set-up.  The a_p
    come from delta_k(k, ell, pmax).  Raises ValueError too when no prime
    was compared, since an empty scan would otherwise read consistent.
    """
    if record.ell is not None and record.ell != ell:
        raise ValueError("record label disagrees with requested ell")
    if record.k is not None and record.k != k:
        raise ValueError("record label disagrees with requested k")
    check_prime(ell)
    _check_shape(record.coeffs, ell)
    coeffs, u = record.coeffs, _rev_inverse(record.coeffs)
    f = delta_k(k, ell, pmax)
    tested = [p for p in primes_upto(pmax) if p != ell]
    outcomes, stop = [], pmax
    for lane in ((p,) for p in tested) if fail_fast else _lanes(tested, ell + 1):
        candidates = [_admissible_patterns(f.coeff(p), pow(p, k - 1, ell), ell) for p in lane]
        N = prod(lane)
        setup = _frobenius([c % N for c in coeffs], lane, [c % N for c in u])
        found = _has_pattern(setup, lane, candidates)
        for p, patterns, observed in zip(lane, candidates, found):
            observed = observed or _ddf(setup, p)
            if observed is None:
                outcomes.append((p, SKIPPED_RAMIFIED, None, None))
                continue
            status = (FAIL if observed not in patterns
                      else AMBIGUOUS_PASS if len(patterns) > 1 else MATCH)
            outcomes.append((p, status, observed, patterns if len(patterns) > 1 else patterns[0]))
        if fail_fast and outcomes[-1][1] == FAIL:
            stop = lane[0]
            break
    if ell <= stop:
        outcomes.append((ell, SKIPPED_ELL, None, None))
        outcomes.sort()
    counts, failures = _tally(outcomes)
    if counts["match"] + counts["ambiguous_pass"] + counts["fail"] == 0:
        raise ValueError(
            f"no prime p <= {pmax} could be checked "
            f"({counts['skipped_ramified']} ramified, {counts['skipped_ell']} ell skip)"
        )
    return VerificationReport(k, ell, pmax, tuple(outcomes), counts, failures)


def _lanes(primes, n):
    """The primes in greedy runs of consecutive ones, each as long as the
    slots of polyarith.barrett for its product N at degree n, which hold
    n (N - 1)^2 + N - 1 and 9 N^2, stay native (8 bytes at most)."""
    lanes = []
    for p in primes:
        N = prod(lanes[-1], start=p) if lanes else p
        bound = max(n * (N - 1) ** 2 + N - 1, 9 * N * N)
        if lanes and polyarith.slot_width(bound) in polyarith._CODES:
            lanes[-1] += (p,)
        else:
            lanes.append((p,))
    return lanes


def data_path(k, ell, data_dir=None):
    """Path, as a str, of the polynomial file pk<k>_l<ell>.txt.

    The file is looked up in data_dir, by default the package's data directory.
    """
    if data_dir is None:
        data_dir = os.path.join(os.path.dirname(__file__), "data")
    return os.path.join(data_dir, f"pk{k}_l{ell}.txt")


def load_poly_file(path, k=None, ell=None):
    """parse_poly of a UTF-8 text file: with ell given, a labelled record."""
    with open(path, encoding="utf-8") as fh:
        return parse_poly(fh.read(), k=k, ell=ell)


def bundled_record(k, ell, data_dir=None):
    """The shipped Table row for (k, ell), read by the labelled parse_poly.

    Without data_dir, a label outside BUNDLED_LABELS raises ValueError naming
    the bundled ones; a file missing under data_dir raises OSError.
    """
    if data_dir is None and (k, ell) not in BUNDLED_LABELS:
        labels = ", ".join(f"({a}, {b})" for a, b in BUNDLED_LABELS)
        raise ValueError(f"no bundled record for (k, ell) = ({k}, {ell}); bundled: {labels}")
    return load_poly_file(data_path(k, ell, data_dir), k=k, ell=ell)
