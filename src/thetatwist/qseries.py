"""Truncated q-expansion arithmetic over F_ell.

A QExpansion records a prime modulus, a precision n0 and the coefficients
a_0..a_{n0} as plain integers in [0, ell).  All arithmetic stays in F_ell;
every series built here has integer coefficients and needs no division, so
no big-integer stage is ever needed.  A product truncates to the smaller
precision, and reading a coefficient past the recorded precision raises
rather than silently returning zero.  A series product is one multiplication
of packed integers (Kronecker substitution, see polyarith).

The generators provided here are the weight 4 and 6 Eisenstein series and
the one-dimensional cusp forms delta_k for k in {12, 16, 18, 20, 22, 26};
theta_power applies the theta operator q d/dq any number of times, and
prove_congruence proves two forms equal through their Sturm index.  Delta
is q (eta^3)^8 from Jacobi's sparse eta^3, 3 squarings; each delta_k above
12 is one product, by E4 or E6, of a lower-weight delta_k at the same
(ell, n0): E4 for weights 16, 20, 22 and 26, E6 for 18, 22 and 26.  A sweep
over the six weights at one (ell, n0) costs 8 series products.

eisenstein and delta_k share one cache: one series per (k, ell), at the
largest precision asked so far.  A shorter request is a truncation, exact
since coefficient n of a product needs only coefficients <= n; a longer one
rebuilds the entry.  Arguments are checked before the lookup, so a warm call
refuses what a cold one refuses.

Everything is level 1 with trivial character, so the only type a series
carries is an optional weight tag, a plain int.
"""

from itertools import cycle
from math import isqrt
from operator import mul

from . import polyarith
from .errors import (
    CoefficientMismatch,
    InsufficientPrecision,
    ModulusMismatch,
    UnsupportedWeight,
    WeightIncongruent,
)
from .ffield import check_prime, primes_upto

#: weights k > 12 with dim S_k(SL_2(Z)) = 1, as steps (k0, j) in
#: delta_k = delta_{k0} * E_j
_DELTA_STEPS = {16: (12, 4), 18: (12, 6), 20: (16, 4), 22: (16, 6), 26: (22, 4)}

SUPPORTED_WEIGHTS = (12,) + tuple(sorted(_DELTA_STEPS))

#: largest precision of a series; eisenstein and delta_k refuse more,
#: so a request far beyond memory fails as ValueError, not MemoryError, and
#: an unlabelled polyverify.parse_poly refuses a larger exponent
MAX_PRECISION = 10**7


class QExpansion:
    """Truncated q-series over F_ell, optionally tagged with a weight."""

    __slots__ = ("ell", "coeffs", "weight")

    def __init__(self, ell, coeffs, weight=None):
        coeffs = tuple([c % ell for c in coeffs])
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.ell = ell
        self.coeffs = coeffs
        self.weight = weight

    @property
    def precision(self):
        return len(self.coeffs) - 1

    def coeff(self, n):
        """a_n, for 0 <= n <= precision; never zero-extends."""
        if n < 0 or n > self.precision:
            raise InsufficientPrecision(
                f"coefficient {n} beyond recorded precision {self.precision}"
            )
        return self.coeffs[n]

    def truncate(self, n0):
        """The series to precision n0 >= 0; itself when it ends there already."""
        if n0 < 0:
            raise ValueError(f"precision {n0} is negative")
        if n0 > self.precision:
            raise InsufficientPrecision(
                f"cannot extend precision {self.precision} to {n0}"
            )
        if n0 == self.precision:
            return self
        return QExpansion(self.ell, self.coeffs[: n0 + 1], self.weight)

    def _check(self, other):
        if self.ell != other.ell:
            raise ModulusMismatch(f"moduli differ: {self.ell} vs {other.ell}")

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (
            self.ell == other.ell
            and self.coeffs == other.coeffs
            and self.weight == other.weight
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision >= 6 else ""
        return f"QExpansion(ell={self.ell}, prec={self.precision}, k={self.weight}, [{head}{tail}])"

    def to_json_dict(self):
        return {
            "ell": self.ell,
            "N": None if self.weight is None else 1,
            "k": self.weight,
            "coeffs": list(self.coeffs),
        }

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict, a missing "N" or "k" read as None; refuses
        what misfits the layout (_read) and an ell not prime (check_prime)."""
        layout = {"ell": int, "N": (None, 1), "k": (None, int), "coeffs": [int, ...]}
        d = _read(cls, d, layout, N=None, k=None)
        check_prime(d["ell"])
        return cls(d["ell"], d["coeffs"], d["k"])


def _read(cls, d, layout, **defaults):
    """The JSON document d of a cls, with each key of defaults it lacks
    filled in, as _fit reads it; every from_json_dict reads through here."""
    return _fit({**defaults, **d} if type(d) is dict else d, layout, cls.__name__)


def _fit(x, layout, at):
    """x with each list in it a tuple, as the record had it, if x fits
    layout; else a ValueError naming the first misfit by its path at.

    A layout is an exact type (a bool is not an int); a dict, an object with
    exactly its keys; a list, a list (or tuple) fitting it item by item, or
    as [layout, ...] one of any length; a tuple, a union; or a literal value.
    """
    if isinstance(layout, dict):
        if type(x) is not dict or x.keys() != layout.keys():
            raise ValueError(f"{at} must be an object with exactly the keys {', '.join(layout)}")
        return {key: _fit(x[key], sub, f"{at}.{key}") for key, sub in layout.items()}
    if isinstance(layout, tuple):
        for option in layout:
            try:
                return _fit(x, option, at)
            except ValueError:
                pass
    elif type(x) in (list, tuple) and isinstance(layout, list):
        items = layout[:1] * len(x) if layout[1:] == [...] else layout
        if len(x) == len(items):
            return tuple([_fit(v, s, f"{at}[{i}]") for i, (v, s) in enumerate(zip(x, items))])
    elif type(x) is layout or (type(x) is type(layout) and x == layout):
        return x
    raise ValueError(f"{at} is {x!r:.60}, not {_show(layout)}")


def _show(layout):
    """A layout as a message names it: int, 'FAIL', [int, ...], None or int."""
    if isinstance(layout, list):
        return f"[{', '.join(map(_show, layout))}]"
    if isinstance(layout, tuple):
        return " or ".join(map(_show, layout))
    return getattr(layout, "__name__", "..." if layout is ... else repr(layout))


def series_mul(f, g):
    """Cauchy product truncated to the smaller precision.

    Both coefficient lists are packed into ints and multiplied once
    (Kronecker substitution, see polyarith); series_mul(f, f) packs once and
    squares.  The first n + 1 slots of the exact product are the truncated
    series, reduced mod ell once, by the QExpansion constructor.
    """
    f._check(g)
    n = min(f.precision, g.precision)
    a = f.coeffs[: n + 1]
    out = polyarith.mul(a, a if g is f else g.coeffs[: n + 1], f.ell, n + 1)
    weight = None if f.weight is None or g.weight is None else f.weight + g.weight
    return QExpansion(f.ell, out, weight)


def _sigma_mod(j, n0, ell):
    """[sigma_j(m) mod ell for m in 0..n0], 0 at m = 0, in one step per m:
    sigma_j(p^e s) = sigma_j(s) + p^j sigma_j(p^(e-1) s), p the least prime."""
    spf = [0] * (n0 + 1)  # smallest prime factor of each composite, else 0
    for p in reversed(primes_upto(isqrt(n0))):
        spf[p * p :: p] = [p] * ((n0 - p * p) // p + 1)
    sig = [0, 1][: n0 + 1] + [0] * (n0 - 1)
    rest = [1] * (n0 + 1)  # m with every factor of its smallest prime removed
    for m in range(2, n0 + 1):
        p = spf[m]
        if p:
            q = m // p
            s = rest[m] = rest[q] if q % p == 0 else q
            sig[m] = (sig[s] + (sig[p] - 1) * sig[q]) % ell  # sig[p] - 1 = p^j
        else:
            sig[m] = (1 + pow(m, j, ell)) % ell
    return sig


#: (k, ell) -> E_k (k = 4, 6) or delta_k mod ell, at the largest precision built
_SERIES = {}


def _check(ell, n0, least):
    """Refuse a composite ell, an ell below 5 and a precision n0 outside
    [least, MAX_PRECISION]; eisenstein and delta_k call it first."""
    check_prime(ell)
    if ell < 5:
        raise ValueError("ell >= 5 required")
    if n0 < least:
        raise ValueError(f"precision must be at least {least}")
    if n0 > MAX_PRECISION:
        raise ValueError(f"precision {n0} exceeds the maximum {MAX_PRECISION}")


def _series(k, ell, n0):
    """E_k (one _sigma_mod), Delta (Jacobi's eta^3) or delta_k (one product)
    mod ell to precision n0, from the cache or built into it."""
    f = _SERIES.get((k, ell))
    if f is not None and n0 <= f.precision:
        return f.truncate(n0)
    if k in (4, 6):
        const, j = (240, 3) if k == 4 else (-504, 5)
        sig = _sigma_mod(j, n0, ell)
        f = QExpansion(ell, [1] + [const * s for s in sig[1:]], k)
    else:
        if k == 12:
            # Jacobi: prod (1 - q^m)^3 = sum_j (-1)^j (2j + 1) q^(j(j+1)/2),
            # and Delta = q prod (1 - q^m)^24 is q times its eighth power
            eta3 = [0] * n0
            for j in range((isqrt(8 * n0 - 7) + 1) // 2):  # j(j+1)/2 < n0
                eta3[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
            f = QExpansion(ell, eta3)
            for _ in range(3):
                f = series_mul(f, f)
            f = QExpansion(ell, (0,) + f.coeffs, 12)
        else:
            k0, j = _DELTA_STEPS[k]
            f = series_mul(_series(k0, ell, n0), _series(j, ell, n0))
        assert f.coeffs[0] == 0 and f.coeffs[1] == 1, "normalization broke"
        assert f.weight == k, "weight tag broke"
    _SERIES[k, ell] = f
    return f


def eisenstein(k, ell, n0):
    """Level-1 Eisenstein series E4 or E6 mod ell, to precision n0 >= 0."""
    if k not in (4, 6):
        raise UnsupportedWeight(f"only E4 and E6 are provided, not E{k}")
    _check(ell, n0, 0)
    return _series(k, ell, n0)


def delta_k(k, ell, n0):
    """The normalized cusp form of level 1 and weight k, reduced mod ell.

    delta_12 is Delta = q (eta^3)^8, three squarings of Jacobi's series.
    Every other weight is one product delta_{k0} * E_j from its predecessor
    in _DELTA_STEPS, through the shared cache, so a cold weight costs the
    products of its chain (6 for delta_26 = Delta * E4 * E6 * E4), builds
    only the Eisenstein series that chain multiplies by, and each further
    weight at the same (ell, n0) or below costs one.
    """
    _check_delta(k, ell, n0)
    return _series(k, ell, n0)


def _check_delta(k, ell, n0):
    """Refuse what delta_k refuses, in its order: a weight outside
    SUPPORTED_WEIGHTS, then (_check) a composite ell, an ell below 5 and a
    precision n0 outside [1, MAX_PRECISION]."""
    if k != 12 and k not in _DELTA_STEPS:
        raise UnsupportedWeight(
            f"weight {k} not in the one-dimensional list {SUPPORTED_WEIGHTS}"
        )
    _check(ell, n0, 1)


# both names empty the one shared cache
eisenstein.cache_clear = delta_k.cache_clear = _SERIES.clear


def theta_power(f, i):
    """theta (q d/dq) applied i times in one pass: a_n -> n^i * a_n.

    n^i mod ell depends on n mod ell only, so the powers of 0..ell-1 are
    computed once and cycled along the coefficients.
    """
    if i < 0:
        raise ValueError("theta exponent must be nonnegative")
    if i == 0:
        return f
    ell = f.ell
    powers = [pow(r, i, ell) for r in range(min(ell, len(f.coeffs)))]
    weight = None if f.weight is None else f.weight + i * (ell + 1)
    return QExpansion(ell, map(mul, cycle(powers), f.coeffs), weight)


def prove_congruence(f, g, upto=0):
    """Prove f = g as mod-ell forms and return the Sturm index of the pair.

    Level-1 forms of weights congruent mod ell - 1 are equal mod ell once
    they agree through index floor(w/12), w the larger weight (Sturm; the
    smaller is aligned by E_{ell-1} = 1 mod ell); the index is at least 1.
    Both series need weight tags and precision m = max(upto, Sturm index);
    a_0..a_m are compared and the first n that differs raises
    CoefficientMismatch.
    """
    f._check(g)
    if f.weight is None or g.weight is None:
        raise ValueError("both series need weight tags")
    if (f.weight - g.weight) % (f.ell - 1):
        raise WeightIncongruent(f"weights {f.weight} and {g.weight} differ mod {f.ell - 1}")
    if upto < 0:
        raise ValueError(f"last index {upto} is negative")
    sturm = max(1, max(f.weight, g.weight) // 12)
    m = max(upto, sturm)
    if f.precision < m or g.precision < m:
        raise InsufficientPrecision(f"need precision {m}, have {f.precision} and {g.precision}")
    a, b = f.coeffs[: m + 1], g.coeffs[: m + 1]
    if a != b:
        n = next(n for n in range(m + 1) if a[n] != b[n])
        raise CoefficientMismatch(n, a[n], b[n])
    return sturm
