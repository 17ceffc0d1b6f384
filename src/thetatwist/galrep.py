"""Frobenius conjugacy data derived from characteristic polynomials.

For an unramified prime p the attached Frobenius has characteristic
polynomial x^2 - a_p x + p^{k-1} over F_ell, held as the ints (trace, det).
Its image in PGL_2(F_ell) is classified by the discriminant t^2 - 4d: split
(distinct eigenvalues in F_ell) when it is a nonzero square, nonsplit
(conjugate eigenvalues in F_{ell^2}) when it is a non-square, and ambiguous
when it vanishes (scalar vs. non-semisimple cannot be told apart from trace
and determinant alone).  The projective order of the class is the order of
the eigenvalue ratio r, read off the projective invariant t^2/d = r + 1/r + 2
with a Lucas sequence, so the classification never leaves integer arithmetic
mod ell.  The order determines the cycle type of the class on the ell+1
points of the projective line.

ell must be prime.  frobenius_class and predicted_degree_pattern check it on
every call through ffield.check_prime, which runs Miller-Rabin once per
prime per process, so the scans call them once per tested p.

screen_exceptional runs three bounded congruence tests (reducible, dihedral,
small projective image) against the coefficients of delta_k.  These are
heuristic candidate flags reconstructed from the classical congruences, not
proofs; the report records the prime bound that was scanned.

FrobeniusClass and ScreeningReport are collections.namedtuple subclasses,
immutable tuples with named fields.
"""

from collections import namedtuple

from .ffield import check_prime, factorize, legendre, primes_upto
from .qseries import delta_k

SPLIT = "split"
NONSPLIT = "nonsplit"
AMBIGUOUS = "ambiguous"


class FrobeniusClass(namedtuple("FrobeniusClass", "kind order", defaults=(None,))):
    """PGL_2(F_ell) conjugacy type: split/nonsplit with projective order, or ambiguous."""

    __slots__ = ()

    @property
    def is_ambiguous(self):
        return self.kind == AMBIGUOUS


def _lucas_v(s, n, ell):
    """V_n mod ell for V_0 = 2, V_1 = s, V_{m+1} = s*V_m - V_{m-1}.

    Ladder over the bits of n on the pair (V_m, V_{m+1}), using
    V_{2m} = V_m^2 - 2 and V_{2m+1} = V_m*V_{m+1} - s.
    """
    v, w = 2, s
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w = (v * w - s) % ell, (w * w - 2) % ell
        else:
            v, w = (v * v - 2) % ell, (v * w - s) % ell
    return v


def frobenius_class(trace, det, ell):
    """Classify the class of x^2 - trace*x + det over F_ell, for a prime ell.

    A composite ell or a det divisible by ell raises ValueError.  Zero
    discriminant t^2 - 4d gives the ambiguous class.  Otherwise the
    eigenvalue ratio r (either one) has order dividing N = ell - 1 when the
    discriminant is a square (split) and N = ell + 1 when it is not
    (nonsplit).  With s = t^2/d - 2 = r + 1/r, the Lucas value
    V_m(s) = r^m + r^-m equals 2 exactly when (r^m - 1)^2 = 0, so the
    projective order is the least m | N with V_m(s) = 2, found by stripping
    the prime factors of N.
    """
    check_prime(ell)
    t, d = trace % ell, det % ell
    if not d:
        raise ValueError("determinant must be a unit")
    sign = legendre(t * t - 4 * d, ell)
    if sign == 0:
        return FrobeniusClass(AMBIGUOUS)
    kind, n = (SPLIT, ell - 1) if sign == 1 else (NONSPLIT, ell + 1)
    s = (t * t * pow(d, -1, ell) - 2) % ell
    for q in factorize(n):
        while n % q == 0 and _lucas_v(s, n // q, ell) == 2:
            n //= q
    return FrobeniusClass(kind, n)


def predicted_degree_pattern(fc, ell):
    """Cycle-length multiset of the class acting on the ell+1 projective points.

    A composite ell raises ValueError.  Split(n) fixes the two eigenlines
    and moves the remaining ell-1 points in n-cycles; NonSplit(n) has no
    fixed points and only n-cycles.  Ambiguous returns the pair of
    admissible patterns (all fixed for a scalar, one fixed point plus one
    ell-cycle for the non-semisimple class).
    """
    check_prime(ell)
    if fc.kind == AMBIGUOUS:
        return (1,) * (ell + 1), (1, ell)
    n = fc.order
    if fc.kind == SPLIT:
        return tuple(sorted([1, 1] + [n] * ((ell - 1) // n)))
    return (n,) * ((ell + 1) // n)


class ScreeningReport(
    namedtuple("ScreeningReport", "k ell bound reducible_candidate reducible_j"
               " dihedral_candidate small_image_candidate verdict")
):
    """Outcome of the three heuristic exceptional-prime tests."""

    __slots__ = ()

    def to_json_dict(self):
        return self._asdict()

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict; a missing or unknown key is a ValueError."""
        try:
            return cls(**d)
        except TypeError:
            raise ValueError(
                f"a screening document has exactly the keys {', '.join(cls._fields)}"
            ) from None


def screen_exceptional(k, ell, bound):
    """Scan primes p <= bound for congruences that betray a small image.

    reducible: some fixed j has a_p = p^j + p^{k-1-j} for every tested p.
    dihedral: a_p = 0 for every tested p that is a non-residue mod ell.
    small image: every non-ambiguous projective order lies in {1,...,5}
    (the orders occurring in the exceptional polyhedral subgroups).
    The verdict is "likely unexceptional" only when all three are clear.
    Raises ValueError when no prime p != ell lies in the scan, since every
    test would then pass vacuously.
    """
    f = delta_k(k, ell, bound)
    primes = [p for p in primes_upto(bound) if p != ell]
    if not primes:
        raise ValueError(f"no prime p <= {bound} other than ell = {ell} to screen")
    a = {p: f.coeff(p) for p in primes}

    # p0^j and p0^(k-1-j) advance by one multiplication per j; the other
    # primes are tested only at a j where p0 passes, which makes p0^j a root
    # of x^2 - a_p0 x + p0^(k-1): none passes where that has no root in F_ell
    p0, rest = primes[0], primes[1:]
    x, y, p0_inv = 1, pow(p0, k - 1, ell), pow(p0, -1, ell)
    reducible_j = None
    for j in range(ell - 1 if legendre(a[p0] ** 2 - 4 * y, ell) != -1 else 0):
        if (x + y) % ell == a[p0] and all(
            a[p] == (pow(p, j, ell) + pow(p, (k - 1 - j) % (ell - 1), ell)) % ell
            for p in rest
        ):
            reducible_j = j
            break
        x, y = x * p0 % ell, y * p0_inv % ell

    nonres = [p for p in primes if legendre(p, ell) == -1]
    dihedral = bool(nonres) and all(a[p] == 0 for p in nonres)

    # lazy: classification stops at the first order > 5; no order at all reads as 6
    orders = (frobenius_class(a[p], pow(p, k - 1, ell), ell).order for p in primes)
    orders = (n for n in orders if n is not None)
    small_image = next(orders, 6) <= 5 and all(n <= 5 for n in orders)

    reducible = reducible_j is not None
    clear = not (reducible or dihedral or small_image)
    return ScreeningReport(
        k=k,
        ell=ell,
        bound=bound,
        reducible_candidate=reducible,
        reducible_j=reducible_j,
        dihedral_candidate=dihedral,
        small_image_candidate=small_image,
        verdict="likely unexceptional" if clear else "possibly exceptional",
    )
