"""Truncated q-expansion arithmetic over F_ell.

A QExpansion records a prime modulus, a precision n0 and the coefficients
a_0..a_{n0} as plain integers in [0, ell).  All arithmetic stays in F_ell;
the Eisenstein constants and 1728 are invertible for ell >= 5, so no
big-integer stage is ever needed.  Binary operations truncate to the smaller
precision, and reading a coefficient past the recorded precision raises
rather than silently returning zero.  A series product is one multiplication
of packed integers (Kronecker substitution, see polyarith), not a
coefficient-by-coefficient Cauchy loop.

The generators provided here are the weight 4 and 6 Eisenstein series, the
one-dimensional cusp forms delta_k for k in {12, 16, 18, 20, 22, 26} (as
monomials in E4, E6 and the discriminant form), the theta operator q d/dq,
and the weight ell-1 form with q-expansion 1 whose multiplication shifts
nominal weight without touching coefficients.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import polyarith
from .errors import (
    InsufficientPrecision,
    ModulusMismatch,
    UnsupportedWeight,
)
from .ffield import check_prime, factorize

TRIVIAL = "trivial"

#: weights k with dim S_k(SL_2(Z)) = 1, as exponent pairs (a, b) in
#: delta_k = Delta * E4^a * E6^b
_DELTA_EXPONENTS = {
    12: (0, 0),
    16: (1, 0),
    18: (0, 1),
    20: (2, 0),
    22: (1, 1),
    26: (2, 1),
}

SUPPORTED_WEIGHTS = tuple(sorted(_DELTA_EXPONENTS))


@dataclass(frozen=True)
class FormType:
    """Type (N, k, eps) of a form: level, weight, nebentypus descriptor."""

    level: int = 1
    weight: int = 0
    eps: str = TRIVIAL


class QExpansion:
    """Truncated q-series over F_ell, optionally tagged with a form type."""

    __slots__ = ("ell", "coeffs", "form_type")

    def __init__(self, ell, coeffs, form_type=None):
        coeffs = tuple(c % ell for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.ell = ell
        self.coeffs = coeffs
        self.form_type = form_type

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
        if n0 > self.precision:
            raise InsufficientPrecision(
                f"cannot extend precision {self.precision} to {n0}"
            )
        return QExpansion(self.ell, self.coeffs[: n0 + 1], self.form_type)

    def _check(self, other):
        if self.ell != other.ell:
            raise ModulusMismatch(f"moduli differ: {self.ell} vs {other.ell}")

    def _combined_type(self, other, weight_action):
        a, b = self.form_type, other.form_type
        if a is None or b is None:
            return None
        if a.level != b.level or a.eps != b.eps:
            return None
        w = weight_action(a.weight, b.weight)
        return None if w is None else FormType(a.level, w, a.eps)

    def __add__(self, other):
        self._check(other)
        n = min(self.precision, other.precision)
        coeffs = [x + y for x, y in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        ft = self._combined_type(other, lambda k1, k2: k1 if k1 == k2 else None)
        return QExpansion(self.ell, coeffs, ft)

    def __sub__(self, other):
        self._check(other)
        n = min(self.precision, other.precision)
        coeffs = [x - y for x, y in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        ft = self._combined_type(other, lambda k1, k2: k1 if k1 == k2 else None)
        return QExpansion(self.ell, coeffs, ft)

    def scale(self, scalar):
        """Multiply every coefficient by a scalar in F_ell."""
        s = scalar % self.ell
        return QExpansion(self.ell, [s * c for c in self.coeffs], self.form_type)

    def __mul__(self, other):
        return series_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (
            self.ell == other.ell
            and self.coeffs == other.coeffs
            and self.form_type == other.form_type
        )

    def __hash__(self):
        return hash((self.ell, self.coeffs, self.form_type))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision >= 6 else ""
        k = self.form_type.weight if self.form_type else None
        return f"QExpansion(ell={self.ell}, prec={self.precision}, k={k}, [{head}{tail}])"

    def to_json_dict(self):
        ft = self.form_type
        return {
            "ell": self.ell,
            "N": ft.level if ft else None,
            "k": ft.weight if ft else None,
            "coeffs": list(self.coeffs),
        }

    @classmethod
    def from_json_dict(cls, d):
        ft = None
        if d.get("k") is not None:
            ft = FormType(d.get("N") or 1, d["k"])
        return cls(d["ell"], d["coeffs"], ft)


def series_mul(f, g):
    """Cauchy product truncated to the smaller precision.

    Both coefficient lists are packed into ints and multiplied once
    (Kronecker substitution, see polyarith); the first n + 1 slots of the
    product are the truncated series.
    """
    f._check(g)
    n = min(f.precision, g.precision)
    out = polyarith.mul(f.coeffs[: n + 1], g.coeffs[: n + 1], f.ell, n + 1)
    ft = f._combined_type(g, lambda k1, k2: k1 + k2)
    return QExpansion(f.ell, out, ft)


def _sigma_mod(j, n0, ell):
    # sig[m] = sum of d^j over divisors d of m, mod ell
    sig = [0] * (n0 + 1)
    for d in range(1, n0 + 1):
        pd = pow(d, j, ell)
        for m in range(d, n0 + 1, d):
            sig[m] += pd
    return sig


@lru_cache(maxsize=None)
def eisenstein(k, ell, n0):
    """Level-1 Eisenstein series E4 or E6 mod ell, to precision n0."""
    if k not in (4, 6):
        raise UnsupportedWeight(f"only E4 and E6 are provided, not E{k}")
    check_prime(ell)
    if ell < 5:
        raise ValueError("ell >= 5 required")
    const, j = (240, 3) if k == 4 else (-504, 5)
    sig = _sigma_mod(j, n0, ell)
    coeffs = [1] + [const * sig[m] for m in range(1, n0 + 1)]
    return QExpansion(ell, coeffs, FormType(1, k))


@lru_cache(maxsize=None)
def delta_k(k, ell, n0):
    """The normalized cusp form of level 1 and weight k, reduced mod ell.

    Computed as Delta * E4^a * E6^b with Delta = (E4^3 - E6^2)/1728.
    """
    if k not in _DELTA_EXPONENTS:
        raise UnsupportedWeight(
            f"weight {k} not in the one-dimensional list {SUPPORTED_WEIGHTS}"
        )
    check_prime(ell)
    if ell < 5:
        raise ValueError("ell >= 5 required")
    if n0 < 1:
        raise ValueError("precision must be at least 1")
    e4 = eisenstein(4, ell, n0)
    e6 = eisenstein(6, ell, n0)
    e4sq = series_mul(e4, e4)
    delta = (series_mul(e4sq, e4) - series_mul(e6, e6)).scale(
        pow(1728, -1, ell)
    )
    a, b = _DELTA_EXPONENTS[k]
    f = delta
    for _ in range(a):
        f = series_mul(f, e4)
    for _ in range(b):
        f = series_mul(f, e6)
    assert f.coeffs[0] == 0 and f.coeffs[1] == 1, "normalization broke"
    return QExpansion(ell, f.coeffs, FormType(1, k))


def theta(f):
    """q d/dq: a_n -> n*a_n; shifts the weight tag by ell + 1."""
    ell = f.ell
    coeffs = [n * c for n, c in enumerate(f.coeffs)]
    ft = f.form_type
    if ft is not None:
        ft = FormType(ft.level, ft.weight + ell + 1, ft.eps)
    return QExpansion(ell, coeffs, ft)


def theta_power(f, i):
    """theta applied i times in one pass: a_n -> n^i * a_n."""
    if i < 0:
        raise ValueError("theta exponent must be nonnegative")
    if i == 0:
        return f
    ell = f.ell
    coeffs = [pow(n, i, ell) * c for n, c in enumerate(f.coeffs)]
    ft = f.form_type
    if ft is not None:
        ft = FormType(ft.level, ft.weight + i * (ell + 1), ft.eps)
    return QExpansion(ell, coeffs, ft)


def hasse(ell, n0):
    """Constant series 1 with weight tag ell - 1.

    Multiplying by it changes nominal weight without changing coefficients,
    which is what lets forms of congruent weights be compared directly.
    """
    check_prime(ell)
    return QExpansion(ell, [1] + [0] * n0, FormType(1, ell - 1))


def index_gamma1(N):
    """Index of the level-N congruence subgroup Gamma_1(N) in SL_2(Z)."""
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return 1
    if N == 2:
        return 3
    idx = N * N
    for p in factorize(N):
        idx = idx // (p * p) * (p * p - 1)
    return idx


def sturm_bound(N, k):
    """Coefficient index up to which forms of compatible type must agree."""
    return max(1, k * index_gamma1(N) // 12)


def equal_upto(f, g, m):
    """Whether f and g agree as forms up to and including coefficient m.

    When both carry form-type tags the tags must be compatible: same level
    and character, and weights congruent mod ell - 1 (incongruent weights can
    never be equal as mod-ell forms, whatever the coefficients say).  Index 0
    is compared too, so Eisenstein-vs-cusp comparisons fail immediately.
    """
    if f.ell != g.ell:
        raise ModulusMismatch(f"moduli differ: {f.ell} vs {g.ell}")
    if f.precision < m or g.precision < m:
        raise InsufficientPrecision(
            f"need precision {m}, have {f.precision} and {g.precision}"
        )
    ta, tb = f.form_type, g.form_type
    if ta is not None and tb is not None:
        if ta.level != tb.level or ta.eps != tb.eps:
            return False
        if (ta.weight - tb.weight) % (f.ell - 1) != 0:
            return False
    return f.coeffs[: m + 1] == g.coeffs[: m + 1]
