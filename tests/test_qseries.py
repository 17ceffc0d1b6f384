import random

import pytest

from thetatwist.errors import (
    CoefficientMismatch,
    InsufficientPrecision,
    ModulusMismatch,
    UnsupportedWeight,
    WeightIncongruent,
)
from thetatwist import polyarith, qseries
from thetatwist.ffield import check_prime, primes_upto
from thetatwist.qseries import (
    MAX_PRECISION,
    SUPPORTED_WEIGHTS,
    QExpansion,
    delta_k,
    eisenstein,
    prove_congruence,
    series_mul,
    theta_power,
)

import oracles

WORKING_PRIMES = [11, 13, 17, 19, 23]


def test_eisenstein_small_values():
    # frozen from the integer series: 240*sigma3(1..2) = 240, 2160
    assert eisenstein(4, 13, 2).coeffs == (1, 240 % 13, 2160 % 13) == (1, 6, 2)
    # -504 mod 13 = 3 (the constant itself: -504 = -39*13 + 3)
    assert eisenstein(6, 13, 1).coeffs == (1, (-504) % 13) == (1, 3)
    assert eisenstein(4, 13, 5).coeff(0) == 1
    assert eisenstein(6, 17, 5).coeff(0) == 1


def test_eisenstein_matches_integer_oracle():
    for k in (4, 6):
        ints = oracles.eisenstein_int(k, 60)
        for ell in WORKING_PRIMES:
            got = eisenstein(k, ell, 60)
            assert list(got.coeffs) == [c % ell for c in ints]


def test_eisenstein_rejects():
    with pytest.raises(UnsupportedWeight):
        eisenstein(8, 13, 5)
    with pytest.raises(ValueError):
        eisenstein(4, 3, 5)
    with pytest.raises(ValueError):
        eisenstein(4, 15, 5)


def test_series_mul_basics():
    one_plus = QExpansion(13, [1, 1, 0])
    one_minus = QExpansion(13, [1, 12, 0])
    assert series_mul(one_plus, one_minus).coeffs == (1, 0, 12)
    f = QExpansion(13, [3, 7, 11, 2])
    one = QExpansion(13, [1, 0, 0, 0])
    assert series_mul(f, one).coeffs == f.coeffs


def test_series_mul_e4_e6_against_integer_oracle():
    nmax = 50
    e10_int = oracles.poly_mul_int(
        oracles.eisenstein_int(4, nmax), oracles.eisenstein_int(6, nmax), nmax
    )
    # frozen spot values: a_1 = -264 = 9 mod 13, a_2 = -135432 = 2 mod 13
    assert e10_int[1] == -264 and e10_int[2] == -135432
    for ell in WORKING_PRIMES:
        got = series_mul(eisenstein(4, ell, nmax), eisenstein(6, ell, nmax))
        assert list(got.coeffs) == [c % ell for c in e10_int]
    prod13 = series_mul(eisenstein(4, 13, 2), eisenstein(6, 13, 2))
    assert prod13.coeffs == (1, 9, 2)


def test_series_square_packs_once(monkeypatch):
    packs = []
    pack = polyarith.pack

    def counted(coeffs, width):
        packs.append(len(coeffs))
        return pack(coeffs, width)

    monkeypatch.setattr(polyarith, "pack", counted)
    rng = random.Random(18)
    for ell in (13, 4294967311):
        f = QExpansion(ell, [rng.randrange(ell) for _ in range(60)], 4)
        packs.clear()
        square = series_mul(f, f)
        assert packs == [60]
        assert list(square.coeffs) == oracles.poly_mul_mod(f.coeffs, f.coeffs, ell)[:60]
        assert square.weight == 8
        packs.clear()
        assert series_mul(f, QExpansion(ell, f.coeffs, 4)) == square
        assert packs == [60, 60]


def test_series_mul_truncates_to_smaller_precision():
    f = QExpansion(13, [1, 2, 3, 4, 5])
    g = QExpansion(13, [1, 1])
    assert series_mul(f, g).precision == 1
    with pytest.raises(ModulusMismatch):
        series_mul(f, QExpansion(11, [1, 1]))


def test_series_mul_commutative_associative():
    rng = random.Random(7)
    for _ in range(20):
        f = QExpansion(13, [rng.randrange(13) for _ in range(31)])
        g = QExpansion(13, [rng.randrange(13) for _ in range(31)])
        h = QExpansion(13, [rng.randrange(13) for _ in range(31)])
        assert series_mul(f, g).coeffs == series_mul(g, f).coeffs
        assert (
            series_mul(series_mul(f, g), h).coeffs
            == series_mul(f, series_mul(g, h)).coeffs
        )


def test_a_series_needs_its_constant_coefficient():
    with pytest.raises(ValueError, match="at least the constant coefficient"):
        QExpansion(13, [])


def test_qexpansion_repr_and_equality():
    assert repr(QExpansion(13, [0, 1, 24], 12)) == "QExpansion(ell=13, prec=2, k=12, [0, 1, 11])"
    assert repr(QExpansion(13, range(10))) == (
        "QExpansion(ell=13, prec=9, k=None, [0, 1, 2, 3, 4, 5, ...])"
    )
    f = QExpansion(13, [0, 1, 2])
    assert f != (0, 1, 2) and not f == [0, 1, 2]


def test_coeff_never_zero_extends():
    f = QExpansion(13, [0, 1, 2])
    assert f.coeff(2) == 2
    with pytest.raises(InsufficientPrecision):
        f.coeff(3)
    with pytest.raises(InsufficientPrecision):
        f.coeff(-1)
    assert f.truncate(2) is f and f.truncate(1).coeffs == (0, 1)
    with pytest.raises(InsufficientPrecision):
        f.truncate(3)
    for n0 in (-1, -2):  # -2 sliced from the end, to precision 1
        with pytest.raises(ValueError, match=f"precision {n0} is negative"):
            f.truncate(n0)


def test_delta12_matches_eta_product_oracle():
    taus = oracles.eta24_int(200)
    for ell in WORKING_PRIMES:
        f = delta_k(12, ell, 200)
        assert list(f.coeffs) == [t % ell for t in taus]


def test_delta_k_frozen_values():
    assert delta_k(12, 13, 3).coeff(2) == (-24) % 13 == 2
    assert delta_k(16, 13, 3).coeff(2) == 216 % 13 == 8
    # independent route for delta16 = eta^24 * E4 over Z
    d16 = oracles.poly_mul_int(oracles.eta24_int(30), oracles.eisenstein_int(4, 30), 30)
    assert d16[2] == 216
    got = delta_k(16, 13, 30)
    assert list(got.coeffs) == [c % 13 for c in d16]


def test_delta_k_normalization_and_tags():
    for k in SUPPORTED_WEIGHTS:
        for ell in WORKING_PRIMES:
            f = delta_k(k, ell, 10)
            assert f.coeff(0) == 0
            assert f.coeff(1) == 1
            assert f.weight == k


def test_delta_k_rejects():
    with pytest.raises(UnsupportedWeight):
        delta_k(14, 13, 5)
    with pytest.raises(ValueError):
        delta_k(12, 4, 5)
    with pytest.raises(ValueError):
        delta_k(12, 13, 0)


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


# (function, refused or edge arguments, a longer series of that (k, ell) to
# cache first, or of (k, 13) where ell itself can never be cached, cold outcome)
WARM_CASES = {
    "delta n0=0": (delta_k, (12, 13, 0), (12, 13, 50), ValueError),
    "delta n0<0": (delta_k, (26, 13, -3), (26, 13, 50), ValueError),
    "eisenstein n0=0": (eisenstein, (6, 13, 0), (6, 13, 50), QExpansion(13, [1], 6)),
    "eisenstein n0<0": (eisenstein, (4, 13, -1), (4, 13, 50), ValueError),
    "delta composite ell": (delta_k, (12, 15, 5), (12, 13, 50), ValueError),
    "eisenstein composite ell": (eisenstein, (4, 15, 5), (4, 13, 50), ValueError),
    "delta ell < 5": (delta_k, (16, 3, 5), (16, 13, 50), ValueError),
    "delta weight": (delta_k, (14, 13, 5), (12, 13, 50), UnsupportedWeight),
    "eisenstein weight": (eisenstein, (8, 13, 5), (4, 13, 50), UnsupportedWeight),
    "delta too long": (delta_k, (12, 13, MAX_PRECISION + 1), (12, 13, 50), ValueError),
    "eisenstein too long": (eisenstein, (6, 13, MAX_PRECISION + 1), (6, 13, 50), ValueError),
}


@pytest.mark.parametrize("fn, args, longer, cold", WARM_CASES.values(), ids=WARM_CASES)
def test_warm_cache_refuses_what_a_cold_one_refuses(fn, args, longer, cold):
    fn.cache_clear()
    try:
        assert _outcome(fn, *args) == cold
        fn(*longer)
        assert _outcome(fn, *args) == cold
        # nothing is ever cached for a refused ell
        if longer[1] != args[1]:
            assert all(ell != args[1] for _, ell in qseries._SERIES)
    finally:
        fn.cache_clear()


def test_warm_cache_truncates_and_rebuilds_exactly():
    delta_k.cache_clear()
    long = delta_k(22, 13, 200)
    short = delta_k(22, 13, 60)
    assert short.coeffs == long.coeffs[:61] and short.weight == 22
    # a longer request replaces the entry of every link of the chain
    longer = delta_k(22, 13, 300)
    assert longer.coeffs[:201] == long.coeffs
    assert {key: f.precision for key, f in qseries._SERIES.items()} == {
        (4, 13): 300, (6, 13): 300, (12, 13): 300, (16, 13): 300, (22, 13): 300,
    }
    delta_k.cache_clear()


def _hecke_ok(f, k, ell, nmax):
    # multiplicativity on coprime pairs and the p-power recursion
    import math

    for m in range(2, nmax + 1):
        for n in range(2, nmax // m + 1):
            if math.gcd(m, n) == 1:
                assert f.coeff(m * n) == f.coeff(m) * f.coeff(n) % ell
    for p in primes_upto(nmax):
        pk = pow(p, k - 1, ell)
        r = 1
        while p ** (r + 1) <= nmax:
            lhs = f.coeff(p ** (r + 1))
            rhs = (f.coeff(p) * f.coeff(p ** r) - pk * f.coeff(p ** (r - 1))) % ell
            assert lhs == rhs, (p, r)
            r += 1


def test_hecke_relations_spot():
    _hecke_ok(delta_k(16, 13, 300), 16, 13, 300)
    _hecke_ok(delta_k(22, 11, 300), 22, 11, 300)


def test_theta():
    f = delta_k(12, 13, 20)
    tf = theta_power(f, 1)
    assert tf.coeff(2) == 2 * f.coeff(2) % 13 == 4
    assert tf.coeff(13) == 0
    assert tf.weight == 12 + 13 + 1
    const = QExpansion(13, [1, 0, 0])
    assert theta_power(const, 1).coeffs == (0, 0, 0)


def test_theta_power():
    f = delta_k(12, 13, 50)
    t2 = theta_power(theta_power(f, 1), 1)
    assert theta_power(f, 2).coeffs == t2.coeffs
    # against n^2 a_n directly, past n = ell where the powers repeat
    assert t2.coeffs == tuple(n * n * c % 13 for n, c in enumerate(f.coeffs))
    assert theta_power(f, 2).weight == t2.weight
    assert theta_power(f, 0) is f
    with pytest.raises(ValueError, match="theta exponent must be nonnegative"):
        theta_power(f, -1)


def test_theta_fermat_identity():
    # theta^ell = theta because n^ell = n mod ell
    for ell in (11, 13):
        f = delta_k(12, ell, 100)
        iterated = f
        for _ in range(ell):
            iterated = theta_power(iterated, 1)
        assert iterated.coeffs == theta_power(f, 1).coeffs


def test_sturm_bound():
    # prove_congruence returns floor(w/12) for the larger weight w, at least 1
    assert prove_congruence(delta_k(26, 13, 5), delta_k(26, 13, 5)) == 2
    assert prove_congruence(delta_k(12, 13, 5), delta_k(12, 13, 5)) == 1
    e4 = eisenstein(4, 13, 5)
    assert prove_congruence(e4, e4) == 1  # floor would be 0; minimum is 1


def test_equal_upto():
    f = delta_k(16, 13, 10)
    assert prove_congruence(f, f, 10) == 1
    g = delta_k(12, 13, 10)
    t2g = theta_power(g, 2)  # weight 40 = 16 mod 12
    assert prove_congruence(f, t2g) == prove_congruence(f, t2g, 3) == 3
    tg = theta_power(g, 1)  # weight 26, incongruent to 16 mod 12
    with pytest.raises(WeightIncongruent):
        prove_congruence(f, tg, 2)
    # also differs in coefficients: a_2 is 8 vs 4
    assert f.coeff(2) == 8 and tg.coeff(2) == 4


def test_equal_upto_checks_index_zero():
    e4 = eisenstein(4, 13, 5)
    f = QExpansion(13, [0] + list(e4.coeffs[1:]), e4.weight)
    with pytest.raises(CoefficientMismatch) as exc:
        prove_congruence(e4, f, 5)
    assert (exc.value.index, exc.value.lhs, exc.value.rhs) == (0, 1, 0)


def test_equal_upto_errors():
    f = delta_k(12, 13, 5)
    with pytest.raises(InsufficientPrecision):
        prove_congruence(f, f, 6)
    with pytest.raises(ModulusMismatch):
        prove_congruence(f, delta_k(12, 11, 5), 5)


def test_equal_upto_refuses_negative_index():
    # no coefficient is compared below index 0, so a pass would be vacuous;
    # the tags are congruent, so only the index is refused
    with pytest.raises(ValueError, match="negative"):
        prove_congruence(QExpansion(13, [1, 2, 3], 12), QExpansion(13, [4, 5, 6], 12), -1)


def test_prove_congruence_refuses_an_untagged_series():
    # without both weights there is no Sturm index and no congruence to prove
    f = delta_k(12, 13, 5)
    with pytest.raises(ValueError, match="weight tags"):
        prove_congruence(f, QExpansion(13, f.coeffs))
    with pytest.raises(ValueError, match="weight tags"):
        prove_congruence(QExpansion(13, f.coeffs), f)


def test_equal_upto_weight_incongruent_tags_fail():
    # same coefficients but incongruent weight tags can never be equal forms
    f = QExpansion(13, [0, 1, 2], 12)
    g = QExpansion(13, [0, 1, 2], 14)
    with pytest.raises(WeightIncongruent):
        prove_congruence(f, g, 2)
    h = QExpansion(13, [0, 1, 2], 24)
    assert prove_congruence(f, h, 2) == 2


def test_qexpansion_json_roundtrip():
    f = delta_k(16, 13, 8)
    d = f.to_json_dict()
    assert d["ell"] == 13 and d["N"] == 1 and d["k"] == 16
    assert QExpansion.from_json_dict(d) == f
    bare = QExpansion(13, [1, 2, 3])
    assert QExpansion.from_json_dict(bare.to_json_dict()) == bare
    del d["N"]
    assert QExpansion.from_json_dict(d) == f
    for level in (0, 2, 11):
        d["N"] = level
        with pytest.raises(ValueError, match=rf"QExpansion\.N is {level}, not None or 1"):
            QExpansion.from_json_dict(d)


@pytest.mark.parametrize(
    "change, error",
    [
        # 13.0 gave a series with float coefficients, "13" a bare TypeError
        ({"ell": 13.0}, r"QExpansion\.ell is 13\.0, not int"),
        ({"ell": "13"}, r"QExpansion\.ell is '13', not int"),
        ({"coeffs": [1.5, 2]}, r"QExpansion\.coeffs\[0\] is 1\.5, not int"),
        ({"k": 16.0}, r"QExpansion\.k is 16\.0, not None or int"),
        ({"k": "16"}, r"QExpansion\.k is '16', not None or int"),
        ({"k": True}, r"QExpansion\.k is True, not None or int"),  # a bool is an int subclass
        ({"coeffs": [True, 0]}, r"QExpansion\.coeffs\[0\] is True, not int"),
    ],
    ids=["ell-float", "ell-str", "coeff-float", "k-float", "k-str", "k-bool", "coeff-bool"],
)
def test_qexpansion_from_json_refuses_what_is_not_an_int(change, error):
    check_prime(13)  # 13.0 == 13 is remembered as proved
    d = dict({"ell": 13, "N": 1, "k": 16, "coeffs": [0, 1, 2]}, **change)
    with pytest.raises(ValueError, match=error):
        QExpansion.from_json_dict(d)


@pytest.mark.parametrize(
    "doc",
    [
        {"ell": 13, "coeffs": 5},  # was a bare TypeError
        {"ell": 13, "k": 12},  # the two missing keys were a KeyError
        {"k": 12, "coeffs": [0, 1]},
        [13, [0, 1]],
        {"ell": 13, "coeffs": [1, 2], "bogus": 1},  # was accepted
    ],
    ids=["coeffs-int", "no-coeffs", "no-ell", "list", "unknown-key"],
)
def test_qexpansion_from_json_refuses_a_document_of_another_structure(doc):
    with pytest.raises(ValueError, match=r"QExpansion( must be an object with exactly the keys"
                                         r" ell, N, k, coeffs|\.coeffs is 5, not \[int, \.\.\.\])"):
        QExpansion.from_json_dict(doc)


def test_a_series_refuses_an_ell_that_is_not_an_int():
    # delta_k(12, 13.0, 5) ended in an AttributeError traceback
    delta_k(12, 13, 5)
    with pytest.raises(ValueError, match="modulus 13.0 is not an int"):
        delta_k(12, 13.0, 5)


@pytest.mark.parametrize("ell", [15, 1, 0, -13])
def test_qexpansion_from_json_refuses_an_ell_not_prime(ell):
    # a series is over F_ell: 15 and 1 were read as moduli, 0 ended in a
    # bare ZeroDivisionError
    d = {"ell": ell, "N": 1, "k": 16, "coeffs": [0, 1, 2]}
    with pytest.raises(ValueError, match=f"modulus {ell} is not prime"):
        QExpansion.from_json_dict(d)
