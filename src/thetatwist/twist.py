"""Search for theta-twist relations between eigenforms of different weights.

Two normalized eigenforms f1, f2 of weights k1, k2 satisfy f1 = theta^i f2
mod ell exactly when k1 = k2 + 2i (mod ell-1) and they agree through the
Sturm index of f1 and theta^i f2.  check_twist proves that congruence with
one qseries.prove_congruence comparison, which reaches the level-1 bound
ell(ell+1)/12 too, reads the recorded a_p(f1) = p^i a_p(f2) at every prime
p != ell up to that bound off the compared series, and certifies one
candidate pair.  twist_search scans (k', i) in a fixed deterministic order
and returns the first pair check_twist certifies, which reduces a weight
k > ell+1 form to one of weight k' <= ell+1 with an equivalent twisted
representation (and an equal projective one); TwistCertificate.validate
re-runs check_twist.  Every series they read comes from qseries.delta_k and
its cache, and theta^i from qseries.theta_power.  TwistCertificate is a
collections.namedtuple subclass.
"""

from collections import namedtuple

from .errors import CoefficientMismatch, NotFound, ThetaTwistError
from .ffield import primes_upto
from .qseries import SUPPORTED_WEIGHTS, _read, delta_k, prove_congruence, theta_power

#: (i, k') pairs printed in the reference table these computations reproduce.
#: The (22, 11) row is printed there with i = 1, which fails the weight
#: congruence 22 = 12 + 2i (mod 10); the search reports the congruent pair
#: and callers surface the difference as a warning, never as a failure,
#: since the projective conclusion does not depend on i.
PUBLISHED_TWISTS = {
    (16, 13): (2, 12),
    (20, 17): (2, 16),
    (22, 11): (1, 12),
    (22, 19): (2, 18),
    (26, 13): (1, 12),
    (26, 23): (2, 22),
}


def weight_congruent(k1, k2, i, ell):
    """Whether k1 = k2 + 2i (mod ell - 1)."""
    return (k1 - k2 - 2 * i) % (ell - 1) == 0


def twist_bound(ell):
    """Prime bound ell(ell+1)/12 for the pairwise check at level 1."""
    return ell * (ell + 1) // 12


class TwistCertificate(
    namedtuple("TwistCertificate", "ell k1 k2 i bound extended_terms checks")
):
    """Auditable witness that f1 = theta^i f2, i.e. rho_{f1} ~ rho_{f2} (x) chi^i.

    checks stores (p, a_p(f1), p^i * a_p(f2)) for every prime p != ell
    up to the bound, read off the series that check_twist compared, so the
    claim can be read without re-running the search, and validate
    re-derives all of it.  The series identity a_n = n^i a_n' was confirmed
    through max(extended_terms, Sturm index, bound), so every certificate
    is a proof, of theta^i for the i it stores.
    """

    __slots__ = ()

    def validate(self):
        """Re-prove the certificate; raises ValueError unless it is re-derived.

        delta_k rebuilds the forms of weights k1 and k2 mod ell to the
        precision check_twist reads, max(twist_bound(ell), extended_terms,
        Sturm index of f1 and theta^i f2), check_twist re-proves the
        congruence on them with i and extended_terms, and its certificate
        must equal this one field by field.  Whatever delta_k or check_twist
        refuses (a weight outside the supported list, an incongruence, a
        mismatch) is a ValueError too.
        """
        try:
            sturm = max(self.k1, self.k2 + self.i * (self.ell + 1)) // 12
            n0 = max(twist_bound(self.ell), self.extended_terms, sturm)
            f1, f2 = (delta_k(k, self.ell, n0) for k in (self.k1, self.k2))
            proved = check_twist(f1, f2, self.i, self.extended_terms)
        except ThetaTwistError as exc:
            raise ValueError(f"certificate does not re-prove: {exc}") from exc
        if proved != self:
            wrong = [name for name, a, b in zip(self._fields, self, proved) if a != b]
            raise ValueError(f"the re-derived certificate differs in {', '.join(wrong)}")

    @property
    def prime_checks(self):
        """checks, under the name perfbench's tracer (perfbench/layers.py) reads."""
        return self.checks

    def to_json_dict(self):
        return self._asdict()

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict; refuses what misfits the layout (qseries._read)."""
        layout = {**dict.fromkeys(cls._fields, int), "checks": [[int, int, int], ...]}
        return cls(**_read(cls, d, layout))


def check_twist(f1, f2, i, extended=0):
    """Prove f1 = theta^i f2 and certify a_p(f1) = p^i a_p(f2) up to the twist bound.

    One prove_congruence comparison of f1 with theta^i f2 runs through
    max(extended, Sturm index, twist bound), so both series must reach it
    and the certificate is a proof for every extended >= 0; a negative
    extended is a ValueError.  The recorded (p, a_p(f1), p^i a_p(f2)) at
    every prime p != ell up to the twist bound are then read off the
    compared series, and the certificate stores i as given.
    """
    if extended < 0:
        raise ValueError(f"extended {extended} is negative")
    g = theta_power(f2, i)
    ell = f1.ell
    bound = twist_bound(ell)
    prove_congruence(f1, g, max(extended, bound))
    a, b = f1.coeffs, g.coeffs
    checks = tuple((p, a[p], b[p]) for p in primes_upto(bound) if p != ell)
    return TwistCertificate(ell=ell, k1=f1.weight, k2=f2.weight, i=i, bound=bound,
                            extended_terms=extended, checks=checks)


def twist_search(k, ell, extended=1000):
    """Find (i, k') with delta_k = theta^i delta_k' mod ell, plus certificate.

    Candidates k' run over the one-dimensional weights <= ell + 1 in
    increasing order, and i over [0, ell-2] in increasing order; the first
    pair that check_twist certifies wins, making the result deterministic.
    A weight-congruent candidate is tested at p = 2 alone first, where most
    fail, as 2^i a_2(delta_k') against a_2(delta_k); one that passes gets
    one check_twist call at the certificate's precision, which reaches every
    candidate's Sturm index (theta^i delta_k' has weight at most
    ell^2 - 1), and a CoefficientMismatch moves on.
    Every series comes from delta_k at that precision, which builds each
    chain once and refuses an unsupported weight, a composite ell or ell < 5.
    """
    prec = max(twist_bound(ell), extended)
    f1 = delta_k(k, ell, prec)
    for kp in SUPPORTED_WEIGHTS:
        if kp > ell + 1:
            break
        f2 = delta_k(kp, ell, prec)
        for i in range(ell - 1):
            if not weight_congruent(k, kp, i, ell):
                continue
            # most candidates fail at p = 2, where a_2(theta^i f2) = 2^i a_2(f2)
            if pow(2, i, ell) * f2.coeffs[2] % ell != f1.coeffs[2]:
                continue
            try:
                return i, kp, check_twist(f1, f2, i, extended)
            except CoefficientMismatch:
                continue
    raise NotFound(
        f"no twist pair found for (k={k}, ell={ell}); "
        "ell may be exceptional or the configuration unsupported"
    )


def published_discrepancy(k, ell, i, kp):
    """Warning text when a found pair differs from the published table row."""
    ref = PUBLISHED_TWISTS.get((k, ell))
    if ref is None or ref == (i, kp):
        return None
    ri, rkp = ref
    note = f"found (i={i}, k'={kp}) but the published table lists (i={ri}, k'={rkp})"
    if not weight_congruent(k, rkp, ri, ell):
        note += (
            f"; the published pair violates the weight congruence "
            f"{k} = {rkp} + 2*{ri} (mod {ell - 1}) and the projective "
            "conclusion is unaffected by i"
        )
    return note
