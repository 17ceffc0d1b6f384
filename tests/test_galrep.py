import pytest

from thetatwist.errors import RamifiedPrime
from thetatwist.ffield import factorize, primes_upto
from thetatwist.galrep import (
    AMBIGUOUS,
    NONSPLIT,
    SPLIT,
    CharpolData,
    ScreeningReport,
    charpol_data,
    frobenius_class,
    predicted_degree_pattern,
    screen_exceptional,
)
from thetatwist.qseries import delta_k

import oracles


def _cd(t, d, ell):
    return CharpolData(p=0, ell=ell, trace=t, det=d)


def test_charpol_data_example():
    cd = charpol_data(16, 13, 2, 8)
    assert cd.trace == 8
    assert cd.det == pow(2, 15, 13) == 8
    # a_2(delta_16) really is 8 mod 13
    assert delta_k(16, 13, 3).coeff(2) == 8


def test_charpol_data_det_is_prime_power():
    for k in (12, 16, 22):
        for p in (2, 3, 5, 7, 11):
            cd = charpol_data(k, 13, p, 0)
            assert cd.trace == 0
            assert cd.det == pow(p, k - 1, 13)


def test_charpol_data_ramified():
    with pytest.raises(RamifiedPrime):
        charpol_data(16, 13, 13, 0)
    with pytest.raises(ValueError):
        charpol_data(16, 13, 4, 0)


def test_frobenius_class_examples():
    assert frobenius_class(_cd(2, 1, 13)).kind == AMBIGUOUS
    fc = frobenius_class(_cd(0, 1, 13))
    assert (fc.kind, fc.order) == (SPLIT, 2)
    fc = frobenius_class(_cd(8, 8, 13))
    assert fc.kind == NONSPLIT
    assert 14 % fc.order == 0
    # (t^2 - 4d) = 32 = 6 mod 13, a non-residue
    assert pow(6, 6, 13) == 12


def test_frobenius_class_exhaustive_classification():
    for ell in [5, 7, 11, 13]:
        for t in range(ell):
            for d in range(1, ell):
                fc = frobenius_class(_cd(t, d, ell))
                disc = (t * t - 4 * d) % ell
                if disc == 0:
                    assert fc.kind == AMBIGUOUS and fc.order is None
                elif pow(disc, (ell - 1) // 2, ell) == 1:
                    assert fc.kind == SPLIT
                    assert fc.order >= 2 and (ell - 1) % fc.order == 0
                else:
                    assert fc.kind == NONSPLIT
                    assert fc.order >= 2 and (ell + 1) % fc.order == 0


def test_predicted_degree_pattern_examples():
    from thetatwist.galrep import FrobeniusClass

    assert predicted_degree_pattern(FrobeniusClass(SPLIT, 1), 13) == (1,) * 14
    assert predicted_degree_pattern(FrobeniusClass(SPLIT, 2), 13) == (
        1, 1, 2, 2, 2, 2, 2, 2,
    )
    assert predicted_degree_pattern(FrobeniusClass(NONSPLIT, 14), 13) == (14,)
    pair = predicted_degree_pattern(FrobeniusClass(AMBIGUOUS), 13)
    assert pair == ((1,) * 14, (1, 13))


def test_predicted_degree_pattern_sums():
    from thetatwist.galrep import FrobeniusClass

    for ell in [5, 7, 11, 13, 17]:
        for n in range(1, ell):
            if (ell - 1) % n == 0:
                assert sum(predicted_degree_pattern(FrobeniusClass(SPLIT, n), ell)) == ell + 1
        for n in range(2, ell + 2):
            if (ell + 1) % n == 0:
                assert sum(predicted_degree_pattern(FrobeniusClass(NONSPLIT, n), ell)) == ell + 1
        for pat in predicted_degree_pattern(FrobeniusClass(AMBIGUOUS), ell):
            assert sum(pat) == ell + 1


def test_pattern_matches_companion_matrix_orbits():
    # the acceptance suite sweeps ell <= 13; this extends it to larger ell,
    # where the orders have more divisors to strip
    for ell in [5, 7, 17, 19, 23, 29, 31]:
        for t in range(ell):
            for d in range(1, ell):
                fc = frobenius_class(_cd(t, d, ell))
                observed = oracles.companion_orbits(t, d, ell)
                predicted = predicted_degree_pattern(fc, ell)
                if fc.kind == AMBIGUOUS:
                    assert observed in predicted, (ell, t, d)
                else:
                    assert observed == predicted, (ell, t, d)
                    assert fc.order == max(observed), (ell, t, d)


def test_frobenius_class_large_ell():
    # ell - 1 = 2 * 3 * 166667 and ell + 1 = 2^2 * 53^2 * 89
    ell = 1000003
    for d in (1, 2, 3, 5, 999999, 123457):
        fc = frobenius_class(_cd(0, d, ell))
        assert fc.order == 2, d
    kinds = set()
    for t in range(1, 40):
        for d in (1, 2, 7, 500001, ell - 1):
            fc = frobenius_class(_cd(t * 7919, d, ell))
            if fc.kind == AMBIGUOUS:
                continue
            kinds.add(fc.kind)
            n = ell - 1 if fc.kind == SPLIT else ell + 1
            assert fc.order >= 2 and n % fc.order == 0, (t, d, fc)
    assert kinds == {SPLIT, NONSPLIT}
    # a split class with known eigenvalues 3 and 1: the order is that of 3
    fc = frobenius_class(_cd(4, 3, ell))
    assert fc.kind == SPLIT
    assert pow(3, fc.order, ell) == 1
    assert all(pow(3, fc.order // q, ell) != 1 for q in factorize(fc.order))


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
