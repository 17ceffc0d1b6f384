"""The package's public names are pinned, so adding or removing one is a
deliberate edit of PUBLIC_NAMES."""

import types

import pytest

import thetatwist
from thetatwist.qseries import QExpansion

#: every name `import thetatwist` binds that does not start with '_',
#: submodules left out (which of them are bound depends on what was imported)
PUBLIC_NAMES = [
    "BUNDLED_LABELS", "CoefficientMismatch",
    "InsufficientPrecision", "ModulusMismatch",
    "NotFound", "PUBLISHED_TWISTS", "ParseError",
    "ProjPolyRecord", "QExpansion", "SUPPORTED_WEIGHTS", "ScreeningReport",
    "ThetaTwistError", "TwistCertificate", "UnsupportedWeight", "VerificationReport",
    "WeightIncongruent", "bundled_record", "check_twist", "delta_k", "eisenstein",
    "is_prime",
    "load_poly_file", "parse_poly", "primes_upto",
    "prove_congruence", "published_discrepancy", "screen_exceptional", "series_mul",
    "theta_power", "twist_bound", "twist_search", "verify_record", "weight_congruent",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, obj in vars(thetatwist).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


#: deleted names, each with the module that defined it
GONE = {"theta": "qseries", "hasse": "qseries",
        "equal_upto": "qseries", "sturm_bound": "qseries",
        "ModPoly": "polyverify", "ddf": "polyverify", "is_squarefree_mod": "polyverify",
        "PrimeMismatch": "errors", "NotSquarefree": "errors",
        "DuplicateTerm": "errors", "NonMonicWarning": "errors",
        "FrobeniusClass": "galrep", "SPLIT": "galrep", "NONSPLIT": "galrep",
        "AMBIGUOUS": "galrep", "frobenius_class": "galrep",
        "predicted_degree_pattern": "galrep", "legendre": "ffield"}


@pytest.mark.parametrize("name", GONE)
def test_second_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(thetatwist, name)
    with pytest.raises(AttributeError):
        getattr(getattr(thetatwist, GONE[name]), name)


def test_a_series_has_no_product_operator_and_no_hash():
    f = QExpansion(13, [1, 2, 3], 12)
    with pytest.raises(TypeError):
        f * f
    with pytest.raises(TypeError):
        hash(f)
    assert f == QExpansion(13, [14, 15, 16], 12)
