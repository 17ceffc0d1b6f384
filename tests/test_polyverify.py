import json
import random
import re
import tracemalloc
import warnings
from itertools import product

import pytest

from thetatwist import polyverify
from thetatwist.errors import ParseError
from thetatwist.polyverify import (
    BUNDLED_LABELS,
    ProjPolyRecord,
    VerificationReport,
    _admissible_patterns,
    _ddf,
    _frobenius,
    _gcd,
    _has_pattern,
    _is_squarefree,
    _rev_inverse,
    bundled_record,
    parse_poly,
    verify_record,
)

from thetatwist.ffield import primes_upto
from thetatwist.qseries import MAX_PRECISION, delta_k

import oracles


def _setup(f, p):
    """_frobenius of a monic f mod p, with u as verify_record passes it."""
    return _frobenius(f, p, [c % p for c in _rev_inverse(f)])


def _monic(f, p):
    """f reduced mod p, stripped and made monic."""
    f = [c % p for c in f]
    while not f[-1]:
        f.pop()
    return [c * pow(f[-1], -1, p) % p for c in f]


def ddf(f, p):
    """_ddf of a monic f of degree at least 2 mod p."""
    return _ddf(_setup(f, p), p)


def test_parse_simple():
    rec = parse_poly("x^2-4*x+4")
    assert rec.coeffs == (4, -4, 1)
    assert parse_poly("x").coeffs == (0, 1)
    assert parse_poly("x^{3} - x").coeffs == (0, -1, 0, 1)
    assert parse_poly("7").coeffs == (7,)
    assert parse_poly("-x^3+2").coeffs == (2, 0, 0, -1)
    assert parse_poly(" 5*x \t+ 1 ").coeffs == (1, 5)
    assert parse_poly("x ^ { 3 } − 2 * x").coeffs == (0, -2, 0, 1)  # U+2212 minus
    assert parse_poly("−x^{ 2 }+ 1").coeffs == (1, 0, -1)


def test_parse_round_trips_a_random_polynomial():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ws = st.text(" \t\r\n", max_size=2)

    @st.composite
    def spelled(draw):
        """(coefficients, text): any spelling of a nonzero integer polynomial."""
        big = st.integers(-(10**20), 10**20)
        coeffs = draw(st.lists(big, max_size=30)) + [draw(big.filter(bool))]
        terms = draw(st.permutations([(e, c) for e, c in enumerate(coeffs) if c]))
        parts = []
        for e, c in terms:
            if c < 0:
                parts.append(draw(st.sampled_from("-−")))
            elif parts or draw(st.booleans()):
                parts.append("+")
            if e == 0 or abs(c) != 1 or draw(st.booleans()):
                parts.append(str(abs(c)))
                if e:
                    parts.append("*")
            if e:
                parts.append("x")
            if e > 1 or e == 1 and draw(st.booleans()):
                braced = draw(st.booleans())
                parts += ["^", "{", str(e), "}"] if braced else ["^", str(e)]
        return tuple(coeffs), draw(ws) + "".join(part + draw(ws) for part in parts)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(spelled())
    def round_trip(case):
        coeffs, text = case
        assert parse_poly(text).coeffs == coeffs

    round_trip()


def test_parse_braced_and_bare_exponents_agree():
    assert parse_poly("x^{14}+7*x^{13}-2").coeffs == parse_poly("x^14+7*x^13-2").coeffs


def test_parse_bundled_22_11():
    rec = bundled_record(22, 11)
    assert rec.degree == 12
    assert rec.coeffs[0] == -111
    assert rec.coeffs[1] == -41
    assert rec.coeffs[12] == 1
    assert rec.coeffs[10] == 0  # the x^10 term is absent from the expression


def test_parse_duplicate_term():
    with pytest.raises(ParseError, match="exponent 3 appears twice"):
        parse_poly("x^3 + x^3")
    with pytest.raises(ParseError, match="exponent 0 appears twice"):
        parse_poly("2 - 1")


#: malformed texts and the position of the error each raises: the end of
#: the longest prefix that can begin a polynomial expression
PARSE_ERROR_POSITIONS = {
    "": 0, "x^": 2, "3**x": 2, "x+": 2, "+": 1, "4x": 1, "x^{3": 4, "x4": 1, "* x": 0,
    "2^3": 1, "x^{}": 3, "x - - x": 4, "5 *": 3, "−": 1,
}


def test_parse_errors():
    for text, position in PARSE_ERROR_POSITIONS.items():
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert exc.value.position == position, text


def test_parse_nonmonic_warns():
    # an unlabelled parse returns a non-monic record as it is, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = parse_poly("2*x^2+1")
    assert rec.coeffs == (1, 0, 2)


def test_labelled_parse_refuses_an_exponent_above_ell_plus_1():
    with pytest.raises(ParseError, match=r"exponent 15 exceeds ell \+ 1 = 14"):
        parse_poly("x^15 + 1", k=16, ell=13)
    assert parse_poly("x^14 + 1", k=16, ell=13).degree == 14
    assert parse_poly("x^15 + 1").degree == 15  # unlabelled, the bound is MAX_PRECISION
    for text in ("x^99999999999999999999", "x^20000000"):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"exceeds the maximum {MAX_PRECISION}"):
                parse_poly(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, text  # refused before a coefficient list is built


def test_parse_refuses_numbers_longer_than_int_reads():
    # a coefficient past int()'s digit limit is refused at its start, and an
    # exponent with more digits than its bound by its length, before int()
    with pytest.raises(ParseError, match="coefficient of 5000 digits") as exc:
        parse_poly("9" * 5000 + "*x")
    assert exc.value.position == 0
    with pytest.raises(ParseError, match=r"exponent of 5000 digits exceeds ell \+ 1 = 14") as exc:
        parse_poly("x^" + "9" * 5000, k=16, ell=13)
    assert exc.value.position == 5002
    with pytest.raises(ParseError, match=f"exponent of 9 digits exceeds the maximum {MAX_PRECISION}"):
        parse_poly("x^123456789")
    # leading zeros are not digits of the bound
    assert parse_poly("x^" + "0" * 5000 + "14 + 1", k=16, ell=13).degree == 14


def test_validate_label():
    # a labelled parse is the label check: degree ell + 1, then monic
    with pytest.raises(ValueError, match=r"degree 2 != ell \+ 1 = 14"):
        parse_poly("x^2+1", k=16, ell=13)
    with pytest.raises(ValueError, match="must be monic"):
        parse_poly("2*x^14+1", k=16, ell=13)
    for k, ell in BUNDLED_LABELS:
        assert bundled_record(k, ell).degree == ell + 1


def test_poly_gcd_mod():
    f = (4, 0, 3)  # 3x^2 + 4
    assert _gcd(f, (), 5) == [3, 0, 1]  # monic(f)
    assert _gcd((), f, 5) == [3, 0, 1]
    assert _gcd((), (), 5) == []
    assert _gcd((), (3,), 5) == [1]
    assert _gcd((3,), f, 5) == [1]
    assert _gcd((4, 0, 1), (4, 1), 5) == [4, 1]  # gcd(x^2 - 1, x - 1)
    assert _gcd((1, 5, 1), (5, 2), 7) == [6, 1]  # (x-1)^2 and its derivative


# each pair reaches one shape of Euclid step in _gcd
@pytest.mark.parametrize(
    "a, b, p",
    [
        # an unstripped a one longer than b: the fused step's c1 is 0
        pytest.param((1, 2, 3, 0), (1, 1, 1), 7, id="c1-zero"),
        pytest.param((3, 1, 0), (4, 1), 7, id="c1-zero-linear-b"),
        # a degree-0 divisor, as the first step and as the last of a chain
        pytest.param((2, 5), (3,), 7, id="constant-b"),
        # x^2 + 1 mod x + 1 leaves 2, then x + 1 mod 2
        pytest.param((1, 0, 1), (1, 1), 5, id="constant-remainder"),
        # a first step with deg a - deg b >= 2, then normal steps
        pytest.param((1, 2, 3, 4, 5, 6, 1), (3, 0, 1), 7, id="long-first-step"),
        pytest.param((6, 0, 0, 0, 0, 0, 0, 0, 1), (1, 5, 1), 7, id="x8-minus-1"),
        # equal degrees: one shift, then normal steps
        pytest.param((1, 2, 3, 4, 1), (4, 3, 2, 1, 1), 7, id="equal-degrees"),
        pytest.param((0, 1, 1, 1), (0, 2, 2, 2), 3, id="equal-degrees-associates"),
        # gcd with 0
        pytest.param((4, 0, 3), (), 5, id="b-zero"),
        pytest.param((), (4, 0, 3), 5, id="a-zero"),
        pytest.param((), (), 5, id="both-zero"),
        # a shared factor mod 2 and mod 2^61 - 1
        pytest.param((1, 0, 1, 1, 0, 1), (1, 1, 0, 1), 2, id="mod-2"),
        pytest.param((5, 2**61 - 3, 7, 1), (2**61 - 6, 2, 1), 2**61 - 1, id="mod-2^61-1"),
    ],
)
def test_gcd_step_shapes_match_oracle(a, b, p):
    expected = oracles.poly_gcd(a, b, p)
    assert _gcd(a, b, p) == expected
    assert _gcd(b, a, p) == oracles.poly_gcd(b, a, p)


def test_gcd_random_planted_factors_match_oracle():
    rng = random.Random(61)
    for p in (2, 3, 97, 876706517, 2**61 - 1):
        for _ in range(40):
            common = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1]
            a = oracles.poly_mul_mod(common, [rng.randrange(p) for _ in range(rng.randrange(12))], p)
            b = oracles.poly_mul_mod(common, [rng.randrange(p) for _ in range(rng.randrange(12))], p)
            while a and not a[-1]:
                a.pop()
            assert _gcd(a, b, p) == oracles.poly_gcd(a, b, p), (p, a, b)


def test_is_squarefree_mod():
    assert not _is_squarefree([1, 5, 1], 7)  # (x-1)^2
    assert _is_squarefree([1, 0, 1], 7)  # x^2 + 1, -1 non-square
    assert {x * x % 7 for x in range(1, 7)} == {1, 2, 4}
    for p in (5, 7):
        frob = [0] * (p + 1)
        frob[1] = p - 1
        frob[p] = 1
        assert _is_squarefree(frob, p)  # x^p - x


def _mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_ddf_examples():
    assert ddf([1, 0, 1], 7) == (2,)
    assert ddf([6, 0, 1], 7) == (1, 1)
    # fixture: (x-1)(x^2+1)(x^2+x+3); both quadratics verified irreducible
    assert oracles.poly_roots([1, 0, 1], 7) == []
    assert oracles.poly_roots([3, 1, 1], 7) == []
    f = _mul_int(_mul_int([-1, 1], [1, 0, 1]), [3, 1, 1])
    assert ddf([c % 7 for c in f], 7) == (1, 2, 2)


def test_ddf_rejects_non_squarefree():
    assert ddf([1, 5, 1], 7) is None


def test_ddf_degree_one_counts_match_root_enumeration():
    rng = random.Random(99)
    for p in (5, 7, 11, 31, 101):
        done = 0
        while done < 12:
            deg = rng.randrange(2, 9)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            if not _is_squarefree(f, p):
                continue
            done += 1
            pattern = ddf(f, p)
            assert sum(pattern) == deg
            n_roots = len(oracles.poly_roots(f, p))
            assert pattern.count(1) == n_roots


def test_ddf_full_splitting_polynomial():
    # x^p - x splits into all degree-1 factors
    for p in (5, 7, 11):
        frob = [0] * (p + 1)
        frob[1] = p - 1
        frob[p] = 1
        assert ddf(frob, p) == (1,) * p


def test_trial_division_counts_the_irreducibles():
    # the judge below, checked on its own: there are (1/d) sum_{e | d}
    # mu(d/e) p^e monic irreducibles of degree d over F_p (Gauss)
    for p, d, count in [(2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 6, 9),
                        (3, 2, 3), (3, 3, 8), (3, 4, 18), (5, 2, 10), (5, 3, 40)]:
        lows = product(range(p), repeat=d)
        assert sum(oracles.ddf_by_trial_division([*low, 1], p) == (d,) for low in lows) == count


def _matches_trial_division(f, p):
    """_ddf and _has_pattern on f mod p, made monic, against
    oracles.ddf_by_trial_division."""
    expected = oracles.ddf_by_trial_division(f, p)
    f = _monic(f, p)
    setup = _setup(f, p)
    assert _ddf(setup, p) == expected, (p, f)  # None for a non-squarefree f
    for pattern in oracles.degree_patterns(len(f) - 1):
        assert (_has_pattern(setup, p, pattern) == pattern) == (pattern == expected), (p, f, pattern)
    return expected


def _irreducible(d, p, rng):
    while True:
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if oracles.ddf_by_trial_division(g, p) == (d,):
            return g


@pytest.mark.parametrize(
    "p, degrees",
    [
        # a degree and its divisors together: the gcd at d = 6 holds the
        # factors of degree 1, 2 and 3 too, and at d = 4 the two quadratics
        (2, (1, 2, 3, 6)),
        (3, (1, 2, 3, 6)),
        (3, (2, 2, 4)),
        (5, (1, 1, 2, 4)),
        (2, (4, 4)),
        # p <= deg f with trace 0: three linear factors over F_3
        (3, (1, 1, 1, 3)),
        # p > deg f, where the trace counts the linear factors exactly
        (11, (1, 2, 3)),
        (11, (1, 1, 4)),
        # trace 0 with every element of F_p a root, where f(0) = 0 tells
        # p roots from none, and trace 0 with no root
        (2, (1, 1, 3)),
        (5, (1, 1, 1, 1, 1, 2)),
        (3, (2, 2)),
    ],
)
def test_ddf_and_has_pattern_match_trial_division_on_planted_mixes(p, degrees):
    rng = random.Random(p * 100 + len(degrees))
    factors = []
    for d in degrees:
        g = _irreducible(d, p, rng)
        while g in factors:
            g = _irreducible(d, p, rng)
        factors.append(g)
    f = [1]
    for g in factors:
        f = oracles.poly_mul_mod(f, g, p)
    assert _matches_trial_division(f, p) == tuple(sorted(degrees))
    # with a planted factor squared no pattern holds
    assert _matches_trial_division(oracles.poly_mul_mod(f, factors[-1], p), p) is None


def test_ddf_and_has_pattern_match_trial_division_on_random_polynomials():
    rng = random.Random(24)
    seen = set()
    for p, top in [(2, 10), (3, 8), (5, 6), (7, 6), (11, 5)]:
        for i in range(60):
            if i % 2:  # a product of small factors: repeats and divisor mixes are common
                f = [rng.randrange(1, p)]
                while len(f) <= 2:
                    for _ in range(rng.randrange(2, 5)):
                        d = rng.randrange(1, 4)
                        f = oracles.poly_mul_mod(f, [rng.randrange(p) for _ in range(d)] + [1], p)
            else:
                f = [rng.randrange(p) for _ in range(rng.randrange(2, top + 1))] + [rng.randrange(1, p)]
            seen.add(_matches_trial_division(f, p))
    # squarefree and not, split and not, and patterns with a degree and its divisors
    assert None in seen and (1, 1) in seen and (2, 4) in seen and len(seen) > 40


def test_verify_record_bundled_16_13():
    rep = verify_record(bundled_record(16, 13), 16, 13, 100)
    assert rep.counts["fail"] == 0
    assert rep.failures == ()
    assert rep.counts["skipped_ell"] == 1
    statuses = {p: s for p, s, _, _ in rep.outcomes}
    assert statuses[13] == "skipped-ell"


def test_bundled_records_16_13_and_26_13_identical():
    assert bundled_record(16, 13).coeffs == bundled_record(26, 13).coeffs


def test_verify_record_rejects_wrong_label():
    rec = bundled_record(16, 13)
    with pytest.raises(ValueError):
        verify_record(rec, 16, 17, 50)
    # a mislabelled weight must not read as a broken polynomial
    with pytest.raises(ValueError, match="requested k"):
        verify_record(rec, 20, 13, 100)


def test_verify_record_rejects_a_composite_ell():
    # delta_k, the one source of the series, proves the modulus prime
    unlabeled = ProjPolyRecord(bundled_record(16, 13).coeffs)
    with pytest.raises(ValueError, match="15 is not prime"):
        verify_record(unlabeled, 16, 15, 100)


def test_verify_record_refuses_a_record_of_another_shape_before_the_scan(monkeypatch):
    # verify_record reads the one shape the labelled parse_poly reads, monic
    # of degree ell + 1, and refuses any other with the same texts before
    # any series is built or any prime is scanned
    def no_scan(n):
        raise AssertionError("a prime was scanned")

    def no_series(k, ell, n0):
        raise AssertionError("a series was built")

    monkeypatch.setattr(polyverify, "primes_upto", no_scan)
    monkeypatch.setattr(polyverify, "delta_k", no_series)
    for coeffs, error in [
        # not monic, primitive or not: 2 f would vanish mod 2
        ((3, 0, 0, 0, 0, 0, 2), "labeled records must be monic"),
        ((2, 0, 0, 0, 0, 0, 2), "labeled records must be monic"),
        ((1, 0, 0, 0, 0, 1, 0), "labeled records must be monic"),
        # of a degree other than ell + 1 = 6, unstripped or zero
        ((1, 0, 1), r"degree 2 != ell \+ 1 = 6"),
        ((1, 0, 0, 0, 0, 0, 1, 0), r"degree 7 != ell \+ 1 = 6"),
        ((), r"degree -1 != ell \+ 1 = 6"),
        ((0,), r"degree 0 != ell \+ 1 = 6"),
    ]:
        with pytest.raises(ValueError, match=f"^{error}$"):
            verify_record(ProjPolyRecord(coeffs), 16, 5, 50)
    # a wrong shape at a large pmax costs no series, and ell is proved first
    with pytest.raises(ValueError, match=r"^degree -1 != ell \+ 1 = 24$"):
        verify_record(ProjPolyRecord(()), 26, 23, 20000)
    with pytest.raises(ValueError, match="^modulus 15 is not prime$"):
        verify_record(ProjPolyRecord(()), 16, 15, 50)
    with pytest.raises(ValueError, match=r"^degree 2 != ell \+ 1 = 6$"):
        parse_poly("x^2 + 1", k=16, ell=5)
    with pytest.raises(ValueError, match="^labeled records must be monic$"):
        parse_poly("2*x^6 + 3", k=16, ell=5)


def test_verify_record_detects_mutation():
    rec = bundled_record(16, 13)
    coeffs = list(rec.coeffs)
    coeffs[1] += 1
    mutated = ProjPolyRecord(tuple(coeffs), k=16, ell=13)
    rep = verify_record(mutated, 16, 13, 100, fail_fast=True)
    assert rep.counts["fail"] >= 1


def _check_against_orbits(t, d, ell):
    """_admissible_patterns(t, d, ell) is the companion matrix's orbit
    pattern on the projective line, or holds it for a zero discriminant."""
    candidates = _admissible_patterns(t, d, ell)
    observed = oracles.companion_orbits(t, d, ell)
    if (t * t - 4 * d) % ell:
        assert candidates == (observed,), (ell, t, d)
    else:
        assert len(candidates) == 2 and observed in candidates, (ell, t, d)


def test_admissible_patterns_match_companion_matrix_orbits():
    # every class at each prime 5 <= ell <= 31; acceptance criterion 7
    # sweeps ell <= 13
    for ell in primes_upto(31)[2:]:
        for t in range(ell):
            for d in range(1, ell):
                _check_against_orbits(t, d, ell)
    # a sample at larger ell, where the orders have more divisors: random
    # classes and the zero-discriminant classes (2r, r^2)
    rng = random.Random(33)
    for ell in (101, 1009):
        for _ in range(150):
            _check_against_orbits(rng.randrange(ell), rng.randrange(1, ell), ell)
        for r in rng.sample(range(1, ell), 10):
            _check_against_orbits(2 * r % ell, r * r % ell, ell)


def _reference_outcomes(record, k, ell, pmax, series):
    """Per-prime outcomes from _ddf at every prime, compared with the prediction."""
    outcomes = []
    for p in primes_upto(pmax):
        if p == ell:
            outcomes.append((p, "skipped-ell", None, None))
            continue
        observed = ddf([c % p for c in record.coeffs], p)
        if observed is None:
            outcomes.append((p, "skipped-ramified", None, None))
            continue
        candidates = _admissible_patterns(series.coeff(p), pow(p, k - 1, ell), ell)
        if len(candidates) > 1:
            predicted = candidates
            status = "ambiguous-pass" if observed in predicted else "FAIL"
        else:
            (predicted,) = candidates
            status = "match" if observed == predicted else "FAIL"
        outcomes.append((p, status, observed, predicted))
    return tuple(outcomes)


def test_verify_record_mutated_records_match_per_prime_ddf():
    rng = random.Random(8)
    for k, ell in BUNDLED_LABELS:
        series = delta_k(k, ell, 100)
        coeffs = bundled_record(k, ell).coeffs
        for _ in range(4):
            mutated = list(coeffs)
            mutated[rng.randrange(len(coeffs) - 1)] += rng.choice((1, -1, 2, -2))
            record = ProjPolyRecord(tuple(mutated))
            rep = verify_record(record, k, ell, 100)
            assert rep.outcomes == _reference_outcomes(record, k, ell, 100, series), (k, ell)


#: the counts key of each status
_COUNT_KEY = {
    "match": "match",
    "ambiguous-pass": "ambiguous_pass",
    "skipped-ramified": "skipped_ramified",
    "skipped-ell": "skipped_ell",
    "FAIL": "fail",
}


@pytest.mark.parametrize(
    "k, ell, change, pmax",
    [(k, ell, None, 1000) for k, ell in BUNDLED_LABELS]
    + [(22, 11, "c3 + 1", 200), (16, 13, "c13 + 6", 200)],
)
def test_report_counts_and_failures_are_read_off_the_outcomes(k, ell, change, pmax):
    coeffs = list(bundled_record(k, ell).coeffs)
    if change == "c3 + 1":
        coeffs[3] += 1
    elif change == "c13 + 6":
        coeffs[13] += 6
    rep = verify_record(ProjPolyRecord(tuple(coeffs)), k, ell, pmax)
    statuses = [status for _, status, _, _ in rep.outcomes]
    assert set(statuses) <= set(_COUNT_KEY)
    assert rep.counts == {key: statuses.count(status) for status, key in _COUNT_KEY.items()}
    assert rep.failures == tuple(p for p, status, _, _ in rep.outcomes if status == "FAIL")
    assert bool(rep.failures) == (change is not None)
    full = json.loads(json.dumps(rep.to_json_dict(full=True)))
    assert VerificationReport.from_json_dict(full) == rep
    slim = json.loads(json.dumps(rep.to_json_dict()))
    assert "outcomes" not in slim
    assert VerificationReport.from_json_dict(slim) == rep._replace(outcomes=())


def test_verification_report_json_roundtrip():
    rep = verify_record(bundled_record(22, 11), 22, 11, 60)
    full = rep.to_json_dict(full=True)
    assert VerificationReport.from_json_dict(full) == rep
    slim = rep.to_json_dict()
    assert "outcomes" not in slim
    assert slim["counts"] == rep.counts


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {},  # each was a TypeError
        lambda doc: {"foo": 1},
        lambda doc: [1],
        lambda doc: {**doc, "foo": 1},
        lambda doc: {key: doc[key] for key in doc if key != "counts"},
    ],
    ids=["empty", "foo", "list", "extra-key", "no-counts"],
)
def test_verification_report_from_json_refuses_a_document_of_another_structure(edit):
    doc = verify_record(bundled_record(22, 11), 22, 11, 60).to_json_dict(full=True)
    with pytest.raises(ValueError, match="VerificationReport must be an object with exactly the keys"
                                         " k, ell, pmax, outcomes, counts, failures"):
        VerificationReport.from_json_dict(edit(doc))


@pytest.mark.parametrize(
    "edit",
    [
        {"pmax": True},
        {"ell": "11"},
        {"k": 22.0},
        {"counts": [1]},
        {"failures": "7"},
        {"outcomes": {}},
    ],
    ids=["pmax-true", "ell-str", "k-float", "counts-list", "failures-str", "outcomes-dict"],
)
def test_verification_report_from_json_refuses_a_wrong_typed_value(edit):
    doc = verify_record(bundled_record(22, 11), 22, 11, 60).to_json_dict(full=True)
    with pytest.raises(ValueError, match=rf"VerificationReport\.{next(iter(edit))} (is|must be) "):
        VerificationReport.from_json_dict({**doc, **edit})


@pytest.mark.parametrize(
    "outcomes, error",
    [
        ([["x"]], "outcomes[0] is ['x'], not [int, 'match' or"),
        ([[2, "match", [1], [1]], 7], "outcomes[1] is 7, not [int, 'match' or"),
        ([[2, "pass", None, None]], "outcomes[0][1] is 'pass', not 'match' or 'ambiguous-pass'"
                                    " or 'skipped-ramified' or 'skipped-ell' or 'FAIL'"),
    ],
    ids=["one-item", "int-item", "unknown-status"],
)
def test_verification_report_from_json_refuses_an_outcome_it_cannot_read(outcomes, error):
    # each was accepted, as any list passed for the outcomes
    doc = verify_record(bundled_record(22, 11), 22, 11, 60).to_json_dict()
    with pytest.raises(ValueError, match=re.escape(f"VerificationReport.{error}")):
        VerificationReport.from_json_dict({**doc, "outcomes": outcomes})


@pytest.mark.parametrize(
    "edit",
    [
        lambda counts: {},
        lambda counts: {key: n for key, n in counts.items() if key != "fail"},
        lambda counts: {**counts, "pass": 0},
        lambda counts: {**counts, "fail": "0"},
        lambda counts: {**counts, "fail": False},
        lambda counts: {**counts, "match": 12.0},
        lambda counts: {**counts, "skipped_ell": None},
    ],
    ids=["empty", "no-fail", "extra-key", "fail-str", "fail-bool", "match-float", "skipped-ell-null"],
)
def test_verification_report_from_json_refuses_counts_it_cannot_use(edit):
    # an empty counts made .ok raise KeyError, and a "0" read as a failure
    doc = json.loads(json.dumps(verify_record(bundled_record(22, 11), 22, 11, 60).to_json_dict()))
    with pytest.raises(ValueError, match=r"VerificationReport\.counts( must be an object with exactly the"
                                         r" keys match, ambiguous_pass, skipped_ramified, skipped_ell,"
                                         r" fail|\.\w+ is .*, not int)"):
        VerificationReport.from_json_dict({**doc, "counts": edit(doc["counts"])})


@pytest.mark.parametrize("failures", [["a"], [7.0], [True], [None], [[7]]],
                         ids=["str", "float", "bool", "null", "list"])
def test_verification_report_from_json_refuses_failures_not_ints(failures):
    doc = json.loads(json.dumps(verify_record(bundled_record(22, 11), 22, 11, 60).to_json_dict()))
    with pytest.raises(ValueError, match=r"VerificationReport\.failures\[0\] is .*, not int"):
        VerificationReport.from_json_dict({**doc, "failures": failures})


def test_verification_report_from_json_keeps_int_failures():
    doc = json.loads(json.dumps(verify_record(bundled_record(22, 11), 22, 11, 60).to_json_dict()))
    doc["counts"]["fail"], doc["failures"] = 2, [3, 7]
    rep = VerificationReport.from_json_dict(doc)
    assert rep.failures == (3, 7) and not rep.ok


def _pow_mod(h, e, f, p):
    """h^e mod the monic f by square and multiply on the oracles."""
    result, base = [1], h
    while e:
        if e & 1:
            result = oracles.poly_rem_monic(oracles.poly_mul_mod(result, base, p), f, p)
        base = oracles.poly_rem_monic(oracles.poly_mul_mod(base, base, p), f, p)
        e >>= 1
    return oracles.poly_rem_monic(result, f, p)


def _reduced(result, p, n):
    """result, checked to be a list of n ints in [0, p)."""
    assert isinstance(result, list) and len(result) == n
    assert all(type(c) is int and 0 <= c < p for c in result), result
    return result


# 13367 and 876706517 are the largest primes whose Frobenius set-up at
# degree 24 packs into 4- and 8-byte slots (tests/test_polyarith.py); the
# latter needs 9-byte slots at degree 30, and 2^61 - 1 wide slots at every
# degree.  The x^p ladder starts at x^e, e the longest binary prefix of p
# below n, unreduced: the degrees p - 1, p and p + 1 put p just above, at
# and just below n, and p < n takes no squaring at all.  Each f is set up
# with u reduced from the integer u of a monic lift of f with coefficients
# off by multiples of p, as verify_record passes it.
@pytest.mark.parametrize(
    "p", (2, 3, 5, 7, 13, 23, 29, 31, 97, 997, 9973, 13367, 876706517, 2**61 - 1)
)
def test_frobenius_setup_matches_long_division(p):
    rng = random.Random(p)
    lifts = random.Random(f"lift {p}")  # its own generator, so f, a and b stay as before
    near = [n for n in (p - 1, p, p + 1) if 2 <= n <= 32]
    for n in (2, 3, 24, 30, *near, *rng.sample(range(4, 30), 3)):
        # -f_low is p - 1 in every slot for the all-ones f, and 1 for the
        # all-(p - 1) one: the quotient products reach their slot bound
        for low in ([rng.randrange(p) for _ in range(n)], [1] * n, [p - 1] * n):
            f = low + [1]
            lift = [c + p * lifts.randrange(-3, 4) for c in low] + [1]
            u = [c % p for c in _rev_inverse(lift)]
            # the trace of the Frobenius matrix: [x^i] (x^(i*p) mod f), summed
            xp, row, trace = _pow_mod([0, 1], p, f, p), oracles.poly_rem_monic([1], f, p), 0
            for i in range(n):
                trace += row[i]
                row = oracles.poly_rem_monic(oracles.poly_mul_mod(row, xp, p), f, p)
            top = [p - 1] * n
            x = [0, 1] + [0] * (n - 2)
            a, b = [rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(n)]
            products = [
                (g, h, oracles.poly_rem_monic(oracles.poly_mul_mod(g, h, p), f, p))
                for g, h in ((a, b), (top, top), (top, a))
            ]
            # frobenius(x) is x^p mod f, the top of the ladder
            powers = [(h, _pow_mod(h, p, f, p)) for h in (x, a, top)]
            work, frobenius, mulmod, got = _frobenius(f, p, u)
            assert work == f, (n, low)
            assert got == trace % p, (n, low)
            for g, h, expected in products:
                assert _reduced(mulmod(g, h), p, n) == expected, (n, low)
            for h, expected in powers:
                assert _reduced(frobenius(h), p, n) == expected, (n, low, h)


def test_integer_rev_inverse_inverts_rev_f():
    # rev(f) u = 1 + O(x^n) over Z: the defining property of u, on the six
    # records and on a monic record of degree 200 with 64-bit coefficients
    rng = random.Random(14)
    records = [bundled_record(k, ell).coeffs for k, ell in BUNDLED_LABELS]
    records.append([rng.randrange(-(2**63), 2**63) for _ in range(200)] + [1])
    for coeffs in records:
        n = len(coeffs) - 1
        u = _rev_inverse(coeffs)
        assert len(u) == n
        product = oracles.poly_mul_int(coeffs[::-1], u, n - 1)
        assert product == [1] + [0] * (n - 1), n
