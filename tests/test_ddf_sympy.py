"""Distinct-degree factorization against sympy's factorization mod p."""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from thetatwist.ffield import primes_upto
from thetatwist.polyverify import (
    BUNDLED_LABELS,
    ModPoly,
    bundled_record,
    ddf,
    is_squarefree_mod,
    reduce_mod,
)

X = sympy.symbols("x")


def sympy_degrees(f):
    """Sorted irreducible-factor degrees of a squarefree ModPoly, by sympy."""
    poly = sympy.Poly(list(reversed(f.coeffs)), X, modulus=f.modulus)
    _, factors = poly.factor_list()
    assert all(e == 1 for _, e in factors)
    return tuple(sorted(g.degree() for g, _ in factors))


def test_ddf_matches_sympy_on_bundled_records():
    checked = 0
    for k, ell in BUNDLED_LABELS:
        record = bundled_record(k, ell)
        for p in primes_upto(300):
            fp = reduce_mod(record, p)
            if not is_squarefree_mod(fp):
                continue
            assert ddf(fp) == sympy_degrees(fp), (k, ell, p)
            checked += 1
    assert checked >= 6 * 55


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 31, 997, 4294967311)),
    st.lists(st.integers(0, 2**40), max_size=20),
)
def test_ddf_matches_sympy_on_random_squarefree(p, low):
    f = ModPoly(p, tuple(low) + (1,))
    assume(is_squarefree_mod(f))
    assert ddf(f) == sympy_degrees(f)
