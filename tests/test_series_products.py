"""Each delta_k above weight 12 is one series product from its predecessor.

series_mul and _sigma_mod are counted through the qseries module bindings,
which delta_k and eisenstein look up on every call.  The cache starts cold,
so every count is the cost of building from nothing.
"""

import random

import pytest

from thetatwist import cli, qseries
from thetatwist.qseries import QExpansion, delta_k, eisenstein, series_mul

import oracles

WEIGHTS = (12, 16, 18, 20, 22, 26)

#: delta_k = Delta * E4^a * E6^b
EXPONENTS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}

#: the j of each sigma_j a cold chain builds: sigma_3 for E4, sigma_5 for E6
SIGMA_JS = {12: [], 16: [3], 18: [5], 20: [3], 22: [3, 5], 26: [3, 5]}


@pytest.fixture
def products(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append((f.weight, g.weight))
        return series_mul(f, g)

    delta_k.cache_clear()
    eisenstein.cache_clear()
    monkeypatch.setattr(qseries, "series_mul", counted)
    yield calls
    delta_k.cache_clear()
    eisenstein.cache_clear()


@pytest.fixture
def sigmas(monkeypatch):
    calls = []
    sigma_mod = qseries._sigma_mod

    def counted(j, n0, ell):
        calls.append((j, n0, ell))
        return sigma_mod(j, n0, ell)

    monkeypatch.setattr(qseries, "_sigma_mod", counted)
    return calls


def test_six_weights_at_one_precision_cost_eight_products(products):
    for k in WEIGHTS:
        delta_k(k, 13, 50)
    # 3 for Delta, then one per further weight
    assert len(products) == 8


@pytest.mark.parametrize(
    "k, cold", [(12, 3), (16, 4), (18, 4), (20, 5), (22, 5), (26, 6)]
)
def test_single_cold_weight_costs_its_chain(products, sigmas, k, cold):
    delta_k(k, 13, 50)
    assert len(products) == cold
    # Delta is three squarings of Jacobi's eta^3 and needs no divisor sum;
    # E4 and E6 are built only where the chain multiplies by them
    assert sorted(j for j, _, _ in sigmas) == SIGMA_JS[k]


def _direct(k, ell, n0):
    e4, e6 = eisenstein(4, ell, n0), eisenstein(6, ell, n0)
    e4cube, e6sq = series_mul(series_mul(e4, e4), e4), series_mul(e6, e6)
    inv = pow(1728, -1, ell)
    f = QExpansion(ell, [(x - y) * inv for x, y in zip(e4cube.coeffs, e6sq.coeffs)], 12)
    a, b = EXPONENTS[k]
    for g in [e4] * a + [e6] * b:
        f = series_mul(f, g)
    return f


def test_sigma_mod_matches_the_divisor_sum_oracle():
    # ell <= n too, where ell divides some m and some sigma_j(m)
    for j in (3, 5):
        exact = [0] + [oracles.sigma(j, m) for m in range(1, 401)]
        for ell in (5, 7, 13, 691, 4294967311):
            for n in [*range(60), 400]:
                assert qseries._sigma_mod(j, n, ell) == [s % ell for s in exact[: n + 1]]


def test_every_weight_matches_the_direct_monomial():
    # against E4^3 - E6^2, the route Delta was built by before Jacobi's eta^3
    delta_k.cache_clear()
    rng = random.Random(7)
    for ell in (5, 13, 691, 4294967311):
        requests = [(k, n0) for k in WEIGHTS for n0 in (1, 2, 150, 300)]
        rng.shuffle(requests)
        for k, n0 in requests:
            f = delta_k(k, ell, n0)
            assert f == _direct(k, ell, n0), (k, ell, n0)
            assert f.weight == k and f.precision == n0


def test_tables_builds_each_series_once_at_its_largest_precision(products, sigmas, capsys):
    argv = ["tables", "--pmax", "100", "--pbound", "100", "--extended", "150", "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # one product per link of each chain, and one E4 and one E6 per ell but
    # 17: Delta needs neither, and (20, 17) and its twist candidates 12 and
    # 16 need only E4, so E6 mod 17 is never built (it was 10 sigmas when
    # Delta was (E4^3 - E6^2)/1728).  A cache keyed on the precision too
    # builds 85 products and 30 sigmas, at the twist bound, at the screen's
    # and verification's 100 and at the twist certificate's 150.  This cache
    # builds 58 and 20, each chain twice, if the twist search asks for its
    # bound first or the screen runs before the twist, and 31 products,
    # delta_18 mod 19 twice, if it builds a candidate at the twist bound
    # before the certificate's precision
    assert len(sigmas) == 9
    assert len(products) == 30
    held = {key: f.precision for key, f in qseries._SERIES.items()}
    assert all(f.weight == k and f.ell == ell for (k, ell), f in qseries._SERIES.items())
    # one series per (k, ell): 29 of them, all at the twist certificate's 150
    assert len(held) == 29
    assert set(held.values()) == {150}
