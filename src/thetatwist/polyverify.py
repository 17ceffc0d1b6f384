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
Both share one set-up per prime: _frobenius builds the Frobenius map as a
linear operator on packed integer rows (polyarith), with slot-wise Barrett
reduction mod p.  verify_record takes monic records of degree ell + 1 only,
as the labelled parse_poly does, and computes the u = 1/rev(f) mod x^n of
that reduction mod f once over Z, reducing it mod each p.

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


def _monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gcd(a, b, p):
    """Monic gcd of two coefficient lists with entries in [0, p).

    One loop of Euclid: a is reduced by b, gcd(a, 0) = monic(a) and
    gcd(0, 0) = [].  The normal step, deg a = deg b + 1, takes its quotient
    c1 x + c0 in one pass over the coefficients, r_i = a_i - c0 b_i -
    c1 b_(i-1), instead of two shifts; c0 makes r at deg b vanish, and the
    strip drops it.  Any other step pops one leading coefficient of a per
    shift, in place, until deg a = deg b + 1 or deg a < deg b.
    """
    a, b = list(a), _strip(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            if len(a) == db + 2:
                up = [0, *b]  # b times x, so that up[i] = b_(i-1)
                c1 = a[-1] * inv % p
                c0 = (a[-2] - c1 * up[-2]) * inv % p
                a = [(x - c0 * y - c1 * z) % p for x, y, z in zip(a, b, up)]
                break
            c = a.pop()
            if c:
                c = c * inv % p
                s = len(a) - db
                a[s:] = [(x - c * y) % p for x, y in zip(a[s:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return _monic(a, p)


def _deriv(a, p):
    return _strip([i * a[i] % p for i in range(1, len(a))])


def _is_squarefree(f, p):
    """True iff the nonzero coefficient list f mod the prime p is squarefree:
    gcd(f, f') = 1, a vanishing derivative handled by the gcd."""
    return len(_gcd(f, _deriv(f, p), p)) == 1


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


def _frobenius(f, p, u):
    """(f, frobenius, mulmod, trace): the Frobenius map of a monic f mod p.

    f is a monic coefficient list of degree n >= 2 with entries in [0, p),
    p a prime that is not checked (verify_record took it from a sieve), and
    u is _rev_inverse(f) reduced mod p, which verify_record computes once
    per record over Z.  One set-up serves both _has_pattern and _ddf at a
    prime.  frobenius(h) = h^p mod f and mulmod(a, b) = a * b mod f take
    and return coefficient lists of length n with entries in [0, p), and
    trace is the trace of the Frobenius matrix Q mod p: the sum over i < n
    of the coefficient of x^i in x^(i*p) mod f, slot i of row i, read off
    the reduced rows with one shift and one mask each.  It is the number of
    distinct roots of f in F_p, mod p (see _has_pattern).  The maps
    work on packed ints (polyarith) with the slot width of polyarith.barrett
    for slots up to bound = n(p - 1)^2 + p - 1.  x^p, its squarings and the
    Frobenius rows x^(i*p) mod f, i < n, stay packed from first to last,
    reduced mod f through the quotient.  The square and multiply ladder for
    x^p starts at x^e, e the longest binary prefix of p below n: that power
    is one slot and needs no reduction, so the squarings that stay below
    degree n cost nothing, and for p < n none is left.  A product
    c = L + x^n H of at most 2n slots has every slot reduced mod p at once
    (Barrett); then the quotient Q of c by f is the top n slots of
    H * rev(u), where u holds the first n terms of x^n / f in powers of
    1/x, and c mod f is L + Q * (-f_low mod p) truncated to n slots.
    Each of these products has n or fewer terms of (p - 1)^2 per slot, so
    every slot stays within bound.  The Frobenius map is one sum over the
    packed rows, sum(map(mul, h, rows)).  Its result and mulmod's are
    reduced mod p slot-wise by the same Barrett reduction and read out as
    they stand (polyarith.slots), with no % p per coefficient.
    """
    n = len(f) - 1
    width, reduce = polyarith.barrett(p, n * (p - 1) ** 2 + p - 1, 2 * n)
    bits = 8 * width
    pack, slots = polyarith.pack, polyarith.slots
    u_rev = pack(u[::-1], width)
    f_neg = pack([-c % p for c in f[:n]], width)
    top, middle = n * bits, (n - 1) * bits
    low = (1 << top) - 1

    def remainder(c):  # a packed c mod f, slots within bound, not reduced mod p
        c = reduce(c)
        q = reduce((c >> top) * u_rev >> middle)
        return (c & low) + (q * f_neg & low)

    def mulmod(a, b):
        return slots(reduce(remainder(pack(a, width) * pack(b, width))), width, n)

    def frobenius(h):
        return slots(reduce(sum(map(_imul, h, rows))), width, n)

    e = p  # x^p mod f by square and multiply from x^e, x = one slot up
    while e >= n:
        e >>= 1
    xp = 1 << e * bits
    for bit in bin(p)[2 + e.bit_length() :]:
        xp *= xp
        if bit == "1":
            xp <<= bits
        xp = reduce(remainder(xp))
    rows = [1, xp]
    for _ in range(n - 2):
        rows.append(reduce(remainder(rows[-1] * xp)))
    mask = (1 << bits) - 1
    trace = sum(row >> i * bits & mask for i, row in enumerate(rows)) % p
    return f, frobenius, mulmod, trace


def _ddf(setup, p):
    """Degree multiset of the irreducible factors of a monic f, or None.

    setup is _frobenius(f, p, u).  A non-squarefree f returns None, as a
    miss of _has_pattern does.
    Distinct-degree factorization: a factor of degree e divides x^{p^d} - x
    exactly when e | d.  x^{p^d} mod f is advanced by the Frobenius map
    h -> sum h_i x^{ip}, one packed matrix-vector product per degree step
    (von zur Gathen-Shoup).  At each d = 1, 2, ... the gcd of f with
    x^{p^d} - x is the product of its factors of degree dividing d, so its
    degree less that of the factors counted at the e | d, e < d, is the
    degree-d part, a multiple of d; nothing is divided out.  The scan stops
    once 2d exceeds the degree not yet counted, which is then one
    irreducible factor.  Only the degrees are returned, never the factors.
    """
    work, frobenius = setup[:2]
    if not _is_squarefree(work, p):
        return None
    left = len(work) - 1
    out = []
    h = [0, 1] + [0] * (left - 2)  # the Frobenius iterate x^{p^d} mod f, starting at x
    d = 1
    while 2 * d <= left:
        h = frobenius(h)
        u = list(h)
        u[1] = (u[1] - 1) % p
        new = len(_gcd(work, u, p)) - 1 - sum(e for e in out if d % e == 0)
        assert new % d == 0, "the degree-d part must be a multiple of d"
        out.extend([d] * (new // d))
        left -= new
        d += 1
    if left:
        out.append(left)
    return tuple(out)  # ascending: the remainder's degree is at least d


def _has_pattern(setup, p, *patterns):
    """The first of patterns that equals _ddf(setup, p), or None if none does.

    Each pattern is a sorted tuple {1^a, L^b}: a ones and b copies of one
    degree L (every pattern _admissible_patterns returns has this form).
    A non-squarefree f has no pattern, so None is returned for it.  setup is
    _frobenius(f, p, u) of a monic f of degree at least 2, one Frobenius
    set-up that serves all the patterns and the _ddf that verify_record
    runs on a miss.  Checking a known pattern needs no
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
    every step.
    """
    work, frobenius, mulmod, trace = setup
    n = len(work) - 1
    x = [0, 1] + [0] * (n - 2)
    roots = trace or (p if work[0] == 0 else 0)  # N_1, the distinct roots in F_p
    for pattern in patterns:
        a, top = pattern.count(1), pattern[-1]
        if roots != a:
            continue
        steps = {top // q for q in factorize(top)} - {1}
        h, product = x, None
        for d in range(1, top + 1):
            h = frobenius(h)
            if d in steps:
                u = list(h)
                u[1] = (u[1] - 1) % p
                product = u if product is None else mulmod(product, u)
        if h != x:
            continue
        if product is None or len(_gcd(work, product, p)) - 1 == a:
            return pattern
    return None


class VerificationReport(namedtuple("VerificationReport", "k ell pmax outcomes counts failures")):
    """Per-prime outcomes of the factorization-pattern consistency check.

    outcomes holds (p, status, observed, predicted) per prime.  counts, the
    number of primes per status under the status's count key, and failures,
    the FAIL primes in order, are read off the outcomes by verify_record.
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
        refuses what misfits the layout (qseries._read)."""
        pattern = [int, ...]
        outcome = [int, tuple(_COUNT_KEYS), (pattern, None), (pattern, [pattern, pattern], None)]
        layout = {"k": int, "ell": int, "pmax": int, "outcomes": [outcome, ...],
                  "counts": dict.fromkeys(_COUNT_KEYS.values(), int), "failures": [int, ...]}
        return cls(**_read(cls, d, layout, outcomes=[]))


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
    ambiguous.  The prediction is checked first with _has_pattern, all-fixed
    before (1, ell) for the pair; when it holds, it is the observed pattern.
    Only otherwise does _ddf run, on the same _frobenius set-up, to report
    the observed pattern of a FAIL; its None, a reduction that is not
    squarefree, skips the prime as ramified.  Each prime appends one
    (p, status, observed, predicted), FAIL when observed is not a predicted
    pattern; the counts per status and the FAIL primes are read off the
    outcomes after the scan.  With fail_fast the scan stops at the first
    FAIL, which is enough for mutation testing.  Each p comes from
    primes_upto's sieve, so the record is reduced mod p here, with no
    primality test.  After the label checks ell is proved prime
    (check_prime), and a record not monic of degree ell + 1 raises the
    labelled parse_poly's ValueError (_check_shape), both before any series
    is built; so every reduction keeps that degree and u = 1/rev(f) mod x^n
    is computed once, over Z, and reduced mod p for each set-up.  The a_p
    come from delta_k(k, ell, pmax).  Raises ValueError too when no prime
    was compared, since an empty scan would otherwise read consistent.
    """
    if record.ell is not None and record.ell != ell:
        raise ValueError("record label disagrees with requested ell")
    if record.k is not None and record.k != k:
        raise ValueError("record label disagrees with requested k")
    check_prime(ell)
    _check_shape(record.coeffs, ell)
    f = delta_k(k, ell, pmax)
    u = _rev_inverse(record.coeffs)
    outcomes = []
    for p in primes_upto(pmax):
        if p == ell:
            outcomes.append((p, SKIPPED_ELL, None, None))
            continue
        candidates = _admissible_patterns(f.coeff(p), pow(p, k - 1, ell), ell)
        predicted = candidates if len(candidates) > 1 else candidates[0]
        setup = _frobenius([c % p for c in record.coeffs], p, [c % p for c in u])
        observed = _has_pattern(setup, p, *candidates) or _ddf(setup, p)
        if observed is None:
            outcomes.append((p, SKIPPED_RAMIFIED, None, None))
            continue
        if observed not in candidates:
            status = FAIL
        else:
            status = AMBIGUOUS_PASS if len(candidates) > 1 else MATCH
        outcomes.append((p, status, observed, predicted))
        if fail_fast and status == FAIL:
            break
    tally = Counter(status for _, status, _, _ in outcomes)
    counts = {key: tally[status] for status, key in _COUNT_KEYS.items()}
    if counts["match"] + counts["ambiguous_pass"] + counts["fail"] == 0:
        raise ValueError(
            f"no prime p <= {pmax} could be checked "
            f"({counts['skipped_ramified']} ramified, {counts['skipped_ell']} ell skip)"
        )
    failures = tuple(p for p, status, _, _ in outcomes if status == FAIL)
    return VerificationReport(k, ell, pmax, tuple(outcomes), counts, failures)


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
