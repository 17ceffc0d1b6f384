from functools import lru_cache

import pytest

from thetatwist import ffield, galrep, qseries
from thetatwist.errors import UnsupportedWeight
from thetatwist.ffield import _projective_order, primes_upto
from thetatwist.galrep import ScreeningReport, screen_exceptional
from thetatwist.qseries import delta_k

import oracles


#: the primes at which _projective_order capped at 5 is judged against the
#: projective order of the Frobenius class, that of its companion matrix
PREDICATE_ELLS = (5, 7, 11, 13, 23, 29, 31, 41, 61, 101, 211, 331)


def test_projective_order_capped_at_5_agrees_with_oracle():
    tested = 0
    for ell in PREDICATE_ELLS:
        for t in range(ell):
            for d in range(1, ell):
                if (t * t - 4 * d) % ell:
                    order = oracles.projective_order(t, d, ell)
                    capped = order if order <= 5 else None
                    assert _projective_order(t, d, ell, 5) == capped, (t, d, ell)
                    tested += 1
    assert tested == 170664


def test_screen_calls_neither_frobenius_class_nor_factorize():
    # galrep binds none of these names, so the screen cannot reach them
    for name in ("frobenius_class", "factorize", "legendre", "_order_at_most_5"):
        assert not hasattr(galrep, name), name
    cases = [(16, 13, 200), (12, 691, 2000), (16, 59, 2000), (12, 23, 200),
             (26, 1000003, 200), (16, 999983, 200)]
    reports = []
    for case in cases:
        qseries.delta_k.cache_clear()
        reports.append(screen_exceptional(*case))
    assert [rep.verdict == "possibly exceptional" for rep in reports] == [
        False, True, True, True, False, False
    ]


def test_screen_proves_ell_once_per_call_not_per_prime(monkeypatch):
    # ell is proved through qseries' own binding before the scan; no tested
    # p reaches ffield.check_prime
    screen_exceptional(26, 1000003, 200)  # warm: ell proved, series cached
    calls = []

    def counted(m):
        calls.append(m)

    monkeypatch.setattr(ffield, "check_prime", counted)
    rep = screen_exceptional(26, 1000003, 200)
    assert rep.verdict == "likely unexceptional"
    assert calls == []


def test_screen_unexceptional_pairs():
    for k, ell in [(16, 13), (22, 11)]:
        rep = screen_exceptional(k, ell, 200)
        assert rep.verdict == "likely unexceptional"
        assert not rep.reducible_candidate
        assert not rep.dihedral_candidate
        assert not rep.small_image_candidate
        assert rep.bound == 200


def test_screen_reducible_691():
    rep = screen_exceptional(12, 691, 50)
    assert rep.reducible_candidate and rep.reducible_j == 0
    assert rep.verdict == "possibly exceptional"
    # the classical congruence itself: a_p = 1 + p^11 mod 691
    f = delta_k(12, 691, 50)
    for p in primes_upto(50):
        if p != 691:
            assert f.coeff(p) == (1 + pow(p, 11, 691)) % 691


def test_screen_weight12_unflagged_at_working_primes():
    for ell in (11, 13, 17, 19):
        rep = screen_exceptional(12, ell, 200)
        assert rep.verdict == "likely unexceptional", ell


def test_screen_dihedral_23():
    rep = screen_exceptional(12, 23, 200)
    assert rep.dihedral_candidate
    assert rep.verdict == "possibly exceptional"
    # a_p vanishes exactly on the non-residues in this range
    f = delta_k(12, 23, 200)
    for p in primes_upto(200):
        if p != 23 and pow(p, 11, 23) == 22:
            assert f.coeff(p) == 0


def test_screening_report_json_roundtrip():
    rep = screen_exceptional(16, 13, 100)
    assert ScreeningReport.from_json_dict(rep.to_json_dict()) == rep


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {},  # each was a TypeError
        lambda doc: {"foo": 1},
        lambda doc: [1],
        lambda doc: {**doc, "foo": 1},
        lambda doc: {key: doc[key] for key in list(doc)[1:]},
    ],
    ids=["empty", "foo", "list", "extra-key", "no-k"],
)
def test_screening_report_from_json_refuses_a_document_of_another_structure(edit):
    doc = screen_exceptional(16, 13, 100).to_json_dict()
    with pytest.raises(ValueError, match="ScreeningReport must be an object with exactly the keys"
                                         " k, ell, bound"):
        ScreeningReport.from_json_dict(edit(doc))


@pytest.mark.parametrize(
    "edit",
    [
        {"k": True},
        {"bound": "x"},
        {"ell": "11"},
        {"ell": 13.0},
        {"reducible_candidate": "false"},
        {"small_image_candidate": 0},
        {"reducible_j": True},
        {"reducible_j": "0"},
        {"verdict": 1},
        {"verdict": "foo"},  # was accepted
    ],
    ids=["k-true", "bound-str", "ell-str", "ell-float", "flag-str", "flag-int",
         "j-true", "j-str", "verdict-int", "verdict-unknown"],
)
def test_screening_report_from_json_refuses_a_wrong_typed_value(edit):
    doc = screen_exceptional(16, 13, 100).to_json_dict()
    with pytest.raises(ValueError, match=rf"ScreeningReport\.{next(iter(edit))} is .*, not "):
        ScreeningReport.from_json_dict({**doc, **edit})


@pytest.mark.parametrize(
    "edit",
    [
        {"reducible_candidate": True},
        {"reducible_j": 0},
        {"verdict": "possibly exceptional"},
        {"dihedral_candidate": True},
        {"reducible_candidate": True, "reducible_j": 0},
    ],
    ids=["reducible-flag", "reducible-j", "verdict", "dihedral-flag", "reducible-both"],
)
def test_screening_report_from_json_refuses_a_verdict_its_flags_do_not_give(edit):
    # each was accepted, "likely unexceptional" with a flag set among them
    doc = screen_exceptional(16, 13, 100).to_json_dict()
    assert doc["verdict"] == "likely unexceptional" and doc["reducible_j"] is None
    with pytest.raises(ValueError, match="ScreeningReport.reducible_candidate or verdict disagrees"):
        ScreeningReport.from_json_dict({**doc, **edit})


def test_screening_report_from_json_keeps_a_reducible_j():
    rep = screen_exceptional(12, 691, 50)
    assert rep.reducible_j == 0
    assert ScreeningReport.from_json_dict(rep.to_json_dict()) == rep


#: (a, b) with delta_k = delta * E4^a * E6^b, the normalized cusp form of
#: weight 12 + 4a + 6b, since each S_k is one-dimensional
_MONOMIALS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}


def test_small_prime_table_equals_the_integer_oracle():
    primes = primes_upto(31)
    delta, e4, e6 = oracles.eta24_int(31), oracles.eisenstein_int(4, 31), oracles.eisenstein_int(6, 31)
    assert set(galrep._SMALL_AP) == set(_MONOMIALS) == set(qseries.SUPPORTED_WEIGHTS)
    for k, (a, b) in _MONOMIALS.items():
        f = delta
        for g in [e4] * a + [e6] * b:
            f = oracles.poly_mul_int(f, g, 31)
        row = [int(x) for x in galrep._SMALL_AP[k].split()]
        assert row == [f[p] for p in primes], k
        # Deligne's bound |a_p| <= 2 p^((k-1)/2)
        assert all(f[p] ** 2 <= 4 * p ** (k - 1) for p in primes), k
        for ell in (5, 13, 691, 1000003):
            series = delta_k(k, ell, 31)
            assert [x % ell for x in row] == [series.coeff(p) for p in primes], (k, ell)
            assert list(galrep._prime_coefficients(k, ell, 31)) == [
                (p, series.coeff(p)) for p in primes if p != ell
            ], (k, ell)
    assert int(galrep._SMALL_AP[12].split()[0]) == -24  # tau(2)
    assert int(galrep._SMALL_AP[26].split()[-1]) == 4291666067521509152


def test_unexceptional_screen_stops_at_the_first_stage():
    # every witness of (26, 691) is at some p <= 31, read off the table, so
    # no series is built, whatever the bound
    qseries.delta_k.cache_clear()
    rep = screen_exceptional(26, 691, 10**4)
    assert rep.verdict == "likely unexceptional" and rep.bound == 10**4
    assert qseries._SERIES == {}


def test_exceptional_screen_builds_to_the_bound():
    qseries.delta_k.cache_clear()
    rep = screen_exceptional(16, 59, 2000)
    assert rep.small_image_candidate and rep.verdict == "possibly exceptional"
    assert qseries._SERIES[16, 59].precision == 2000


def test_screen_within_the_first_stage_builds_no_series():
    # a bound of at most 31 reads every a_p off the table
    qseries.delta_k.cache_clear()
    assert screen_exceptional(12, 23, 20).dihedral_candidate
    assert (12, 23) not in qseries._SERIES


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((16, 13, 10**8), ValueError, "precision 100000000 exceeds the maximum 10000000"),
        ((14, 13, 100), UnsupportedWeight, "weight 14 not in the one-dimensional list"),
        ((16, 15, 100), ValueError, "modulus 15 is not prime"),
        ((16, 3, 100), ValueError, "ell >= 5 required"),
        ((16, 13, 1), ValueError, "no prime p <= 1 other than ell = 13 to screen"),
        ((16, 13, 0), ValueError, "precision must be at least 1"),
    ],
    ids=["precision-too-large", "weight-14", "composite-ell", "ell-3", "no-prime", "precision-0"],
)
def test_screen_refuses_its_arguments_before_any_sieve_or_series(monkeypatch, args, error, message):
    def no_sieve(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr(galrep, "primes_upto", no_sieve)
    qseries.delta_k.cache_clear()
    with pytest.raises(error, match=message) as exc:
        screen_exceptional(*args)
    assert type(exc.value) is error
    assert qseries._SERIES == {}


@lru_cache(maxsize=None)
def _naive_order(t, d, ell):
    """The projective order of the class of x^2 - t x + d, None when its
    discriminant vanishes (the class the screen leaves out as ambiguous)."""
    return oracles.projective_order(t, d, ell) if (t * t - 4 * d) % ell else None


def _naive_screen(k, ell, bound):
    """All three flags and reducible_j, classifying every prime, no early
    exit, each projective order found by powering the companion matrix."""
    f = delta_k(k, ell, bound)
    primes = [p for p in primes_upto(bound) if p != ell]
    a = {p: f.coeff(p) for p in primes}
    # reducible at j: p^j is a root of x^2 - a_p x + p^(k-1), the other being p^(k-1-j)
    reducible_j = next(
        (
            j
            for j in range(ell - 1)
            if all((pow(p, 2 * j, ell) - a[p] * pow(p, j, ell) + pow(p, k - 1, ell)) % ell == 0
                   for p in primes)
        ),
        None,
    )
    nonres = [p for p in primes if pow(p, (ell - 1) // 2, ell) == ell - 1]
    dihedral = bool(nonres) and all(a[p] == 0 for p in nonres)
    orders = [_naive_order(a[p], pow(p, k - 1, ell), ell) for p in primes]
    orders = [n for n in orders if n is not None]
    small_image = bool(orders) and max(orders) <= 5
    return reducible_j, dihedral, small_image


def test_screen_matches_naive_recomputation():
    # At bound 2 only p0 = 2 is tested.  At the larger bounds some pairs are
    # reducible at a j > 0, so the running powers of p0 must match away from
    # their start.
    flagged = {}
    reducible_past_0 = {}
    for bound in (2, 3, 20, 200):
        flagged[bound] = reducible_past_0[bound] = 0
        for k in (12, 16, 18, 20, 22, 26):
            for ell in primes_upto(299):
                if ell < 5:
                    continue
                rep = screen_exceptional(k, ell, bound)
                reducible_j, dihedral, small_image = _naive_screen(k, ell, bound)
                assert rep.reducible_j == reducible_j, (k, ell, bound)
                assert rep.reducible_candidate == (reducible_j is not None), (k, ell, bound)
                assert rep.dihedral_candidate == dihedral, (k, ell, bound)
                assert rep.small_image_candidate == small_image, (k, ell, bound)
                flagged[bound] += rep.verdict == "possibly exceptional"
                reducible_past_0[bound] += bool(reducible_j)
    assert reducible_past_0 == {2: 107, 3: 23, 20: 22, 200: 22}
    # the sweep must exercise flagged pairs too, not only clean ones
    assert flagged[200] >= 20


#: the exceptional primes 5 <= ell < 3000 of each delta_k (Swinnerton-Dyer),
#: all below 1000
CLASSICAL_EXCEPTIONAL = {
    12: (5, 7, 23, 691),
    16: (5, 7, 11, 31, 59),
    18: (5, 7, 11, 13),
    20: (5, 7, 11, 13, 283, 617),
    22: (5, 7, 13, 17, 131, 593),
    26: (5, 7, 11, 17, 19),
}


@pytest.mark.parametrize(
    "k, ell", [(k, ell) for k, ells in CLASSICAL_EXCEPTIONAL.items() for ell in ells]
)
def test_screen_matches_naive_recomputation_on_the_exceptional_pairs(k, ell):
    # each pair misses a witness at every p <= 1000, so the screen runs
    # through the second stage to the bound
    rep = screen_exceptional(k, ell, 1000)
    reducible_j, dihedral, small_image = _naive_screen(k, ell, 1000)
    assert rep.reducible_j == reducible_j
    assert rep.reducible_candidate == (reducible_j is not None)
    assert rep.dihedral_candidate == dihedral
    assert rep.small_image_candidate == small_image
    assert rep.verdict == "possibly exceptional"


def test_screen_flags_exactly_the_classical_exceptional_pairs():
    # every other pair with ell < 3000 has its three witnesses at p <= 31,
    # so its screen reads the table and builds no series
    flagged = set()
    for k in CLASSICAL_EXCEPTIONAL:
        for ell in primes_upto(2999)[2:]:
            qseries.delta_k.cache_clear()
            if screen_exceptional(k, ell, 200).verdict == "possibly exceptional":
                flagged.add((k, ell))
            else:
                assert qseries._SERIES == {}, (k, ell)
    assert flagged == {(k, ell) for k, ells in CLASSICAL_EXCEPTIONAL.items() for ell in ells}


#: the possibly exceptional pairs 5 <= ell < 10^5 at bound 200: the
#: classical ones and the reducible 3617 and 43867, numerators of B_16 and B_18
FLAGGED_BELOW_10_5 = {
    (k, ell)
    for k, ells in CLASSICAL_EXCEPTIONAL.items()
    for ell in ells + {16: (3617,), 18: (43867,)}.get(k, ())
}


def test_screen_flags_exactly_32_pairs_below_10_5():
    assert len(FLAGGED_BELOW_10_5) == 32
    flagged = set()
    for ell in primes_upto(10**5)[2:]:
        for k in CLASSICAL_EXCEPTIONAL:
            if screen_exceptional(k, ell, 200).verdict == "possibly exceptional":
                flagged.add((k, ell))
        qseries.delta_k.cache_clear()
    assert flagged == FLAGGED_BELOW_10_5
