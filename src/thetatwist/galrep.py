"""Screen a pair (k, ell) for an exceptional mod-ell image.

For an unramified prime p the attached Frobenius has characteristic
polynomial x^2 - a_p x + p^{k-1} over F_ell.  screen_exceptional runs three
bounded congruence tests (reducible, dihedral, small projective image)
against the coefficients of delta_k.  These are heuristic candidate flags
reconstructed from the classical congruences, not proofs; the report
records the prime bound that was scanned.  The scan stops at a witness
against each test (Serre; Swinnerton-Dyer), which an unexceptional pair has
at small p, so it reads a_p for p <= 31 off a table of the integer a_p,
reduced mod ell, and builds delta_k mod ell only to go past 31.  It asks
of each p only whether the projective order exceeds 5, which
ffield._projective_order, the walk the verifier uses too, answers capped at
5, so the screen factorizes nothing.  Square classes are Euler's criterion
inline, and ell is proved prime once per call, as delta_k proves it.

ScreeningReport is a collections.namedtuple subclass, an immutable tuple
with named fields.
"""

from collections import namedtuple

from .ffield import _projective_order, primes_upto
from .qseries import _check_delta, _read, delta_k


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
        """Inverse of to_json_dict; refuses what misfits the layout (qseries._read)."""
        return cls(**_read(cls, d, {
            "k": int, "ell": int, "bound": int, "reducible_candidate": bool,
            "reducible_j": (None, int), "dihedral_candidate": bool, "small_image_candidate": bool,
            "verdict": ("likely unexceptional", "possibly exceptional")}))


_SMALL_PRIMES = primes_upto(31)
#: a_p(delta_k) over Z at each p of _SMALL_PRIMES, one row per weight k,
#: read per call and reduced mod ell: every unexceptional pair with
#: ell < 3000 has its three witnesses at p <= 31, so its screen builds no series
_SMALL_AP = {
    12: "-24 252 4830 -16744 534612 -577738 -6905934 10661420 18643272 128406630"
        " -52843168",
    16: "216 -3348 52110 2822456 20586852 -190073338 1646527986 1563257180"
        " 9451116072 -36902568330 71588483552",
    18: "-528 -4284 -1025850 3225992 -753618228 2541064526 -5429742318 1487499860"
        " -317091823464 2433410602590 -8849722053088",
    20: "456 50652 -2377410 -16917544 -16212108 50421615062 225070099506"
        " -1710278572660 14036534788872 1137835269510 -104626880141728",
    22: "-288 -128844 21640950 -768078808 -94724929188 -80621789794 3052282930002"
        " -7920788351740 -73845437470344 -4253031736469010 1900541176310432",
    26: "-48 -195804 -741989850 39080597192 8419515299052 -81651045335314"
        " -2519900028948078 -6082056370308940 -94995280296320424"
        " -271246959476737410 4291666067521509152",
}


def _prime_coefficients(k, ell, bound):
    """(p, a_p mod ell) for each prime p <= bound but ell, ascending: from
    _SMALL_AP for p <= 31, and past 31 from delta_k to precision bound."""
    for p, a in zip(_SMALL_PRIMES, _SMALL_AP[k].split()):
        if p > bound:
            return
        if p != ell:
            yield p, int(a) % ell
    if bound > 31:
        a = delta_k(k, ell, bound).coeffs
        for p in primes_upto(bound):
            if p > 31 and p != ell:
                yield p, a[p]


def _reducible_j(k, ell, coeffs):
    """The least j with a_p = p^j + p^(k-1-j) mod ell at each (p, a_p) of
    coeffs, or None; the primes after p0 are tested where p0 passes."""
    (p0, a0), rest = coeffs[0], coeffs[1:]
    x, y, p0_inv = 1, pow(p0, k - 1, ell), pow(p0, -1, ell)
    for j in range(ell - 1):
        if (x + y) % ell == a0 and all(
            a == (pow(p, j, ell) + pow(p, (k - 1 - j) % (ell - 1), ell)) % ell
            for p, a in rest
        ):
            return j
        x, y = x * p0 % ell, y * p0_inv % ell
    return None


def screen_exceptional(k, ell, bound):
    """Scan primes p <= bound for congruences that betray a small image.

    reducible: some fixed j has a_p = p^j + p^{k-1-j} for every tested p.
    dihedral: a_p = 0 for every tested p that is a non-residue mod ell.
    small image: every non-ambiguous projective order lies in {1,...,5}
    (the orders occurring in the exceptional polyhedral subgroups).
    The verdict is "likely unexceptional" only when all three are clear.

    One pass over the primes in increasing order, on the integer a_p of
    _SMALL_AP reduced mod ell for p <= 31 and past that on delta_k to
    precision bound (_prime_coefficients), stops at the all-clear report
    once it holds a witness against each test: a rootless p
    (x^2 - a_p x + p^(k-1) has no root mod ell, so no j passes), a
    non-residue p with a_p != 0, and a p of projective order above 5.  The
    order witness comes from the shared walk of _projective_order capped at
    5, skipping a p whose discriminant vanishes: its class may be scalar or
    not semisimple.  An unexceptional pair with ell < 3000 finds all three
    at p <= 31 and builds no series.
    Otherwise the flags come from the same pass, and the j search runs only
    when no p was rootless, so every flag is that of a full scan.
    The arguments are refused as delta_k refuses them, ell proved prime
    included, before any sieve or series, and a bound below 2, where every
    test would pass vacuously.
    """
    _check_delta(k, ell, bound)
    if bound < 2:
        raise ValueError(f"no prime p <= {bound} other than ell = {ell} to screen")
    # nonres and large are None before a p bears on their test, 0 while
    # every such p fits it, and then the first p against it
    rootless = nonres = large = None
    half = (ell - 1) // 2  # Euler's criterion: x^half is -1 at a non-residue
    coeffs = []  # (p, a_p) for the j search, while no p is rootless
    for p, a in _prime_coefficients(k, ell, bound):
        d = pow(p, k - 1, ell)
        disc = a * a - 4 * d
        if not rootless:
            coeffs.append((p, a))
            if pow(disc, half, ell) == ell - 1:
                rootless = p
        if not nonres and pow(p, half, ell) == ell - 1:
            nonres = p if a else 0
        if not large and disc % ell:
            large = 0 if _projective_order(a, d, ell, 5) else p
        if rootless and nonres and large:
            break

    reducible_j = None if rootless else _reducible_j(k, ell, coeffs)
    reducible, dihedral, small_image = reducible_j is not None, nonres == 0, large == 0
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
