
import re

import pytest

from thetatwist import cli, qseries, twist
from thetatwist.errors import (
    CoefficientMismatch,
    InsufficientPrecision,
    NotFound,
    WeightIncongruent,
)
from thetatwist.ffield import primes_upto
from thetatwist.polyverify import _admissible_patterns
from thetatwist.qseries import (
    SUPPORTED_WEIGHTS,
    QExpansion,
    delta_k,
    prove_congruence,
    theta_power,
)
from thetatwist.twist import (
    PUBLISHED_TWISTS,
    TwistCertificate,
    check_twist,
    published_discrepancy,
    twist_bound,
    twist_search,
    weight_congruent,
)

SIX_PAIRS = [(16, 13), (20, 17), (22, 11), (22, 19), (26, 13), (26, 23)]
EXPECTED = {
    (16, 13): (2, 12),
    (20, 17): (2, 16),
    (22, 11): (0, 12),  # the published i = 1 fails the weight congruence
    (22, 19): (2, 18),
    (26, 13): (1, 12),
    (26, 23): (2, 22),
}


def test_weight_congruent():
    assert weight_congruent(16, 12, 2, 13)
    for k in (12, 16, 22):
        assert weight_congruent(k, k, 0, 13)
    assert not weight_congruent(22, 12, 1, 11)
    assert weight_congruent(22, 12, 0, 11)
    assert weight_congruent(22, 12, 5, 11)


def test_twist_bound():
    assert twist_bound(13) == 15
    assert twist_bound(11) == 11
    assert twist_bound(23) == 46
    assert twist_bound(17) == 25
    assert twist_bound(19) == 31


def test_check_twist_20_17():
    f1 = delta_k(20, 17, 60)
    f2 = delta_k(16, 17, 60)
    cert = check_twist(f1, f2, 2, extended=60)
    # all primes up to 25 except the ramified 17
    assert [p for p, _, _ in cert.checks] == [2, 3, 5, 7, 11, 13, 19, 23]
    assert all(lhs == rhs for _, lhs, rhs in cert.checks)
    assert cert.bound == 25 and cert.extended_terms == 60
    assert cert.prime_checks is cert.checks  # the name perfbench/layers.py reads
    cert.validate()


def test_check_twist_self():
    f = delta_k(12, 13, 20)
    cert = check_twist(f, f, 0, extended=20)
    assert all(lhs == rhs for _, lhs, rhs in cert.checks)
    cert.validate()


def test_check_twist_weight_incongruent():
    with pytest.raises(WeightIncongruent):
        check_twist(delta_k(16, 13, 20), delta_k(12, 13, 20), 1)


def _corrupt(f, n):
    """f with a_n raised by 1."""
    coeffs = list(f.coeffs)
    coeffs[n] = (coeffs[n] + 1) % f.ell
    return QExpansion(f.ell, coeffs, f.weight)


def test_check_twist_prime_mismatch():
    # p = 11 lies above the Sturm index 3 and below the bound 15, so only a
    # comparison through the bound reads it
    f1 = delta_k(16, 13, 20)
    with pytest.raises(CoefficientMismatch) as exc:
        check_twist(f1, _corrupt(delta_k(12, 13, 20), 11), 2)
    assert exc.value.index == 11


def test_check_twist_compares_every_index_up_to_the_bound():
    # n = 4 lies above the Sturm index 3 and below the bound 15, off the
    # primes: a scan of the primes alone would certify this pair
    f1, f2 = delta_k(16, 13, 20), delta_k(12, 13, 20)
    with pytest.raises(CoefficientMismatch) as exc:
        check_twist(_corrupt(f1, 4), f2, 2, extended=0)
    assert exc.value.index == 4


def test_check_twist_records_the_i_it_proved():
    # theta^10 kills every a_n with 11 | n mod 11 and theta^0 does not, so
    # i = 10 is not i = 0 mod ell - 1
    f2 = delta_k(12, 11, 40)
    f1 = theta_power(f2, 10)
    assert check_twist(f1, f2, 10).i == 10
    with pytest.raises(CoefficientMismatch) as exc:
        check_twist(f1, f2, 0)
    assert exc.value.index == 11


#: the Sturm index of delta_k and theta^i delta_k' for the six twist pairs
STURM = {(16, 13): 3, (20, 17): 4, (22, 11): 1, (22, 19): 4, (26, 13): 2, (26, 23): 5}


def test_sturm_indices_of_the_six_twists():
    for (k, ell), (i, kp) in EXPECTED.items():
        f, g = delta_k(k, ell, 10), theta_power(delta_k(kp, ell, 10), i)
        assert prove_congruence(f, g) == STURM[k, ell], (k, ell)


@pytest.mark.parametrize("k, ell, n", [(16, 13, 2), (26, 23, 4)])
def test_check_twist_proves_through_the_sturm_index(k, ell, n):
    # extended = 0 still compares through the Sturm index: n = 4 lies off
    # the primes, n = 2 on one
    i, kp = EXPECTED[k, ell]
    f1, f2 = delta_k(k, ell, 60), delta_k(kp, ell, 60)
    with pytest.raises(CoefficientMismatch) as exc:
        check_twist(_corrupt(f1, n), f2, i, extended=0)
    assert exc.value.index == n
    with pytest.raises(CoefficientMismatch) as exc:
        check_twist(f1, _corrupt(f2, n), i, extended=0)
    assert exc.value.index == n


def test_check_twist_reads_through_a_sturm_index_above_the_bound():
    # delta_12 = theta^5 delta_26 mod 7: the Sturm index (26 + 5 * 8) // 12 = 5
    # passes the twist bound 4, so precision 4 no longer proves it
    f1, f2 = delta_k(12, 7, 5), delta_k(26, 7, 5)
    with pytest.raises(InsufficientPrecision):
        check_twist(f1.truncate(4), f2.truncate(4), 5)
    cert = check_twist(f1, f2, 5)
    assert (cert.bound, cert.extended_terms) == (4, 0)
    cert.validate()  # rebuilds both series through the Sturm index


def test_check_twist_insufficient_precision():
    with pytest.raises(InsufficientPrecision):
        check_twist(delta_k(16, 13, 10), delta_k(12, 13, 10), 2)
    with pytest.raises(InsufficientPrecision):
        check_twist(delta_k(16, 13, 20), delta_k(12, 13, 20), 2, extended=50)


@pytest.mark.parametrize("n", [4, 13])
def test_check_twist_coefficient_mismatch(n):
    # 4 is a composite inside the bound 15, and 13 = ell the prime the scan
    # skips: only the full series identity sees either corruption
    f1, f2 = delta_k(16, 13, 40), delta_k(12, 13, 40)
    corrupted = _corrupt(f1, n)
    with pytest.raises(CoefficientMismatch) as exc:
        check_twist(corrupted, f2, 2, extended=40)
    assert exc.value.index == n
    assert exc.value.lhs == corrupted.coeff(n)
    assert exc.value.rhs == pow(n, 2, 13) * f2.coeff(n) % 13 == f1.coeff(n)


def test_check_twist_refuses_negative_extended():
    with pytest.raises(ValueError):
        check_twist(delta_k(16, 13, 20), delta_k(12, 13, 20), 2, extended=-5)


def test_twist_search_refuses_negative_extended():
    with pytest.raises(ValueError):
        twist_search(16, 13, extended=-7)


def test_check_twist_requires_tags():
    f = delta_k(16, 13, 20)
    bare = QExpansion(13, f.coeffs)
    with pytest.raises(ValueError):
        check_twist(f, bare, 2)


def test_twist_search_reproduces_table():
    for (k, ell), expected in EXPECTED.items():
        i, kp, cert = twist_search(k, ell, extended=300)
        assert (i, kp) == expected, (k, ell)
        assert cert.k1 == k and cert.k2 == kp and cert.ell == ell
        cert.validate()


def test_twist_search_roundtrip_series_identity():
    for k, ell in SIX_PAIRS:
        i, kp, _ = twist_search(k, ell, extended=300)
        f = delta_k(k, ell, 300)
        g = theta_power(delta_k(kp, ell, 300), i)
        prove_congruence(f, g, 300)


def test_twist_search_self_twist():
    assert twist_search(12, 13, extended=50)[:2] == (0, 12)
    assert twist_search(22, 23, extended=50)[:2] == (0, 22)


def test_twist_search_not_found():
    # no one-dimensional weight fits below ell + 1 = 8
    with pytest.raises(NotFound):
        twist_search(16, 7, extended=20)


def test_twist_search_finds_the_projective_weight():
    assert twist_search(26, 13, extended=100)[1] == 12
    assert twist_search(20, 17, extended=100)[1] == 16
    # a found k' is its own projective weight, reached with no twist
    for k, ell in SIX_PAIRS:
        kp = twist_search(k, ell, extended=100)[1]
        assert twist_search(kp, ell, extended=100)[:2] == (0, kp)


def test_twist_keeps_every_frobenius_class():
    # a_p(delta_k) = p^i a_p(delta_k') and p^(k-1) = p^(2i) p^(k'-1) mod ell, so
    # t^2/d and t^2 - 4d agree up to a square: tables relies on this to verify
    # a projective representation once for all its twists
    for k, ell in SIX_PAIRS:
        i, kp, _ = twist_search(k, ell, extended=100)
        f, g = delta_k(k, ell, 3000), delta_k(kp, ell, 3000)
        for p in primes_upto(3000):
            if p == ell:
                continue
            assert _admissible_patterns(f.coeff(p), pow(p, k - 1, ell), ell) == (
                _admissible_patterns(g.coeff(p), pow(p, kp - 1, ell), ell)
            ), (k, ell, i, kp, p)


@pytest.mark.parametrize("k, ell", SIX_PAIRS + [(26, 59), (18, 37), (26, 101)])
def test_twist_search_proves_exactly_the_candidates_that_agree_at_2(k, ell, monkeypatch):
    # every weight-congruent (k', i) before the winner whose theta^i delta_k'
    # agrees with delta_k at q^2 reaches check_twist, and no other
    calls = []

    def counted(f1, f2, i, extended=0):
        calls.append((f2.weight, i))
        return check_twist(f1, f2, i, extended)

    monkeypatch.setattr(twist, "check_twist", counted)
    i, kp, _ = twist_search(k, ell, extended=50)
    a2 = delta_k(k, ell, 2).coeffs[2]
    agree = [
        (w, j)
        for w in SUPPORTED_WEIGHTS
        if w <= ell + 1
        for j in range(ell - 1)
        if weight_congruent(k, w, j, ell) and theta_power(delta_k(w, ell, 2), j).coeffs[2] == a2
    ]
    assert calls == agree[: agree.index((kp, i)) + 1]


def test_tables_makes_one_check_twist_call_per_pair(monkeypatch, capsys):
    # one call per pair, at the certificate's precision: the search has no
    # second tier at the twist bound
    calls = []

    def counted(f1, f2, i, extended=0):
        calls.append((f1.weight, f2.weight, i, extended))
        return check_twist(f1, f2, i, extended)

    monkeypatch.setattr(twist, "check_twist", counted)
    argv = ["tables", "--pmax", "100", "--pbound", "100", "--extended", "150", "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == [(k, kp, i, 150) for (k, _), (i, kp) in EXPECTED.items()]


def test_published_discrepancy():
    assert published_discrepancy(16, 13, 2, 12) is None
    note = published_discrepancy(22, 11, 0, 12)
    assert note is not None and "weight congruence" in note
    assert PUBLISHED_TWISTS[(22, 11)] == (1, 12)
    assert not weight_congruent(22, 12, 1, 11)


def test_certificate_json_roundtrip():
    _, _, cert = twist_search(16, 13, extended=50)
    doc = cert.to_json_dict()
    assert TwistCertificate.from_json_dict(doc) == cert


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("checks"),  # was KeyError('checks')
        lambda doc: doc.pop("extended_terms"),  # was a TypeError
        lambda doc: doc.update(proved=True),  # was a TypeError
        lambda doc: doc.update(prime_checks=doc.pop("checks")),
    ],
    ids=["no-checks", "no-extended_terms", "unknown-key", "prime_checks"],
)
def test_certificate_from_json_refuses_a_missing_or_unknown_key(edit):
    _, _, cert = twist_search(16, 13, extended=50)
    doc = cert.to_json_dict()
    edit(doc)
    with pytest.raises(ValueError, match="exactly the keys"):
        TwistCertificate.from_json_dict(doc)
    with pytest.raises(ValueError, match="exactly the keys"):
        TwistCertificate.from_json_dict(list(doc.items()))


_CERT_INT_KEYS = ["ell", "k1", "k2", "i", "bound", "extended_terms"]


@pytest.mark.parametrize(
    "key, replace",
    [(key, str) for key in _CERT_INT_KEYS] + [(key, lambda v: True) for key in _CERT_INT_KEYS],
    ids=_CERT_INT_KEYS + [f"{key}-bool" for key in _CERT_INT_KEYS],
)
def test_certificate_from_json_refuses_a_field_that_is_not_an_int(key, replace):
    # validate() reads the Sturm index off ell, k1, k2 and i; a bool is an
    # int subclass, and "extended_terms": true passed validate()
    _, _, cert = twist_search(16, 13, extended=50)
    doc = cert.to_json_dict()
    doc[key] = replace(doc[key])
    with pytest.raises(ValueError, match=rf"TwistCertificate\.{key} is .*, not int$"):
        TwistCertificate.from_json_dict(doc)


@pytest.mark.parametrize(
    "checks, error",
    [
        (5, "checks is 5, not [[int, int, int], ...]"),
        ([["a", "b"]], "checks[0] is ['a', 'b'], not [int, int, int]"),
        ([[2, 8.0, 8]], "checks[0][1] is 8.0, not int"),
        ([[2, 8]], "checks[0] is [2, 8], not [int, int, int]"),
    ],
    ids=["int", "str-pair", "float", "pair"],
)
def test_certificate_from_json_refuses_checks_not_int_triples(checks, error):
    # each was read as it stood
    doc = twist_search(16, 13, extended=50)[2].to_json_dict()
    with pytest.raises(ValueError, match=re.escape(f"TwistCertificate.{error}")):
        TwistCertificate.from_json_dict({**doc, "checks": checks})


def test_certificate_validate_catches_corruption():
    _, _, cert = twist_search(16, 13, extended=50)
    bad_checks = ((2, 1, 2),) + cert.checks[1:]
    bad = TwistCertificate(
        ell=cert.ell,
        k1=cert.k1,
        k2=cert.k2,
        i=cert.i,
        bound=cert.bound,
        extended_terms=cert.extended_terms,
        checks=bad_checks,
    )
    with pytest.raises(ValueError):
        bad.validate()
    incongruent = TwistCertificate(
        ell=cert.ell,
        k1=cert.k1,
        k2=cert.k2,
        i=cert.i + 1,
        bound=cert.bound,
        extended_terms=cert.extended_terms,
        checks=cert.checks,
    )
    with pytest.raises(ValueError):
        incongruent.validate()


def _self_consistent(cert, **fields):
    """cert with fields replaced and its checks rewritten to agree with each
    other at the primes of its bound."""
    cert = cert._replace(**fields)
    primes = [p for p in primes_upto(cert.bound) if p != cert.ell]
    return cert._replace(checks=tuple((p, 0, 0) for p in primes))


def test_certificate_validate_rederives_from_series():
    _, _, cert = twist_search(16, 13, extended=200)
    # both series are rebuilt, at max(twist bound, extended_terms)
    delta_k.cache_clear()
    cert.validate()
    held = {key: f.precision for key, f in qseries._SERIES.items() if key[0] in (12, 16)}
    assert held == {(12, 13): 200, (16, 13): 200}
    forged = _self_consistent(cert)  # every stored lhs equals its rhs
    with pytest.raises(ValueError):
        forged.validate()
    # i = 8 passes the weight congruence 16 = 12 + 2i (mod 12), and only
    # the re-derived series refute it
    assert weight_congruent(16, 12, 8, 13)
    with pytest.raises(ValueError, match="re-prove"):
        _self_consistent(cert, i=8).validate()
    with pytest.raises(ValueError, match="bound"):
        cert._replace(bound=cert.bound + 1).validate()
    with pytest.raises(ValueError):
        cert._replace(ell=17).validate()
    with pytest.raises(ValueError):
        _self_consistent(cert, ell=17, bound=twist_bound(17)).validate()
    # an unsupported weight is a refused certificate, not a typed error
    with pytest.raises(ValueError) as exc:
        cert._replace(k2=14).validate()
    assert type(exc.value) is ValueError


def test_certificate_validate_refuses_negative_extended_terms():
    _, _, cert = twist_search(16, 13, extended=50)
    bad = cert._replace(extended_terms=-5)
    with pytest.raises(ValueError):
        bad.validate()
    with pytest.raises(ValueError):
        TwistCertificate.from_json_dict(bad.to_json_dict()).validate()
