"""Exact mod-ell computations with level-1 eigenforms.

The package computes truncated q-expansions of the one-dimensional cusp
forms delta_k over F_ell, searches for theta-twist relations identifying a
weight k > ell+1 form with a twist of one of weight k' <= ell+1, and
independently verifies projective polynomials of degree ell+1 by comparing
their factorization patterns mod p with predicted Frobenius cycle types.
"""

from .errors import (
    CoefficientMismatch,
    InsufficientPrecision,
    ModulusMismatch,
    NotFound,
    ParseError,
    ThetaTwistError,
    UnsupportedWeight,
    WeightIncongruent,
)
from .ffield import is_prime, primes_upto
from .galrep import ScreeningReport, screen_exceptional
from .polyverify import (
    BUNDLED_LABELS,
    ProjPolyRecord,
    VerificationReport,
    bundled_record,
    load_poly_file,
    parse_poly,
    verify_record,
)
from .qseries import (
    SUPPORTED_WEIGHTS,
    QExpansion,
    delta_k,
    eisenstein,
    prove_congruence,
    series_mul,
    theta_power,
)
from .twist import (
    PUBLISHED_TWISTS,
    TwistCertificate,
    check_twist,
    published_discrepancy,
    twist_bound,
    twist_search,
    weight_congruent,
)

__version__ = "0.1.0"
