"""Distinct-degree factorization and gcd mod p against sympy."""

import random

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from thetatwist.ffield import primes_upto
from thetatwist.polyverify import (
    BUNDLED_LABELS,
    ModPoly,
    _gcd,
    bundled_record,
    ddf,
    is_squarefree_mod,
)

from oracles import poly_mul_mod

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
            fp = ModPoly(p, record.coeffs)
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


def sympy_gcd(a, b, p):
    """Monic gcd of two ModPolys mod p, by sympy, as ascending coefficients."""
    ga = sympy.Poly(list(reversed(a.coeffs)) or [0], X, modulus=p)
    gb = sympy.Poly(list(reversed(b.coeffs)) or [0], X, modulus=p)
    g = ga.gcd(gb)
    if g.is_zero:
        return ()
    return ModPoly(p, reversed(g.monic().all_coeffs())).coeffs


coefficient_lists = st.lists(st.integers(0, 2**64), max_size=25)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 7, 997, 4294967311)),
    coefficient_lists,
    coefficient_lists,
    coefficient_lists,
)
def test_poly_gcd_matches_sympy(p, common, a, b):
    # a shared factor makes nontrivial gcds common; empty lists give zero
    # and length-one lists give constants
    fa = ModPoly(p, poly_mul_mod(common, a, p))
    fb = ModPoly(p, poly_mul_mod(common, b, p))
    assert tuple(_gcd(fa.coeffs, fb.coeffs, p)) == sympy_gcd(fa, fb, p)
    assert tuple(_gcd(fa.coeffs, (), p)) == sympy_gcd(fa, ModPoly(p, ()), p)


def _is_irreducible(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p).is_irreducible


def _plant(degrees, p, rng):
    """A product of distinct monic irreducibles of the given degrees mod p.

    A degree with no irreducible left to draw (over F_2 there are only two
    of degree 1, say) is dropped; returns (product, planted degrees).
    """
    chosen = set()
    for d in degrees:
        for _ in range(400):
            g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if g not in chosen and _is_irreducible(g, p):
                chosen.add(g)
                break
    f = [1]
    for g in chosen:
        f = poly_mul_mod(f, g, p)
    return ModPoly(p, f), tuple(sorted(len(g) - 1 for g in chosen))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_ddf_finds_planted_factors(p, degrees, rng):
    f, planted = _plant(degrees, p, rng)
    assert ddf(f) == planted


@pytest.mark.parametrize(
    "p, degrees",
    [
        # n = 16, blocks of 3: degrees 1, 2 and 3 all hit the first block,
        # then 4 hits the second and 6 is the irreducible remainder
        (3, (1, 2, 3, 4, 6)),
        # n = 24, blocks of 4: the gcd of the block 9..12 is all of what is
        # left, and both factors come out at its last degree
        (2, (12, 12)),
        (5, (12, 12)),
        # n = 14, blocks of 3: two cubics at the end of the first block,
        # two quartics at the start of the next, which holds only degree 4
        (3, (3, 3, 4, 4)),
        # n = 24, blocks of 4: two quartics at the end of the block 1..4,
        # two quintics in the next block, which holds only degree 5
        (7, (4, 4, 5, 5, 1, 1, 2, 2)),
    ],
)
def test_ddf_planted_block_shapes(p, degrees):
    f, planted = _plant(degrees, p, random.Random(sum(degrees) * p))
    assert planted == tuple(sorted(degrees))
    assert ddf(f) == planted
