"""Verify the six bundled projective polynomials against Frobenius data.

For every prime p up to the bound, the distinct-degree factorization of the
polynomial mod p has to reproduce the cycle type predicted from a_p alone.
A wrong polynomial cannot survive this across dozens of primes, which the
mutation experiment at the end makes concrete.
"""

import random

from thetatwist import BUNDLED_LABELS, ProjPolyRecord, bundled_record, verify_record

PMAX = 500

for k, ell in BUNDLED_LABELS:
    record = bundled_record(k, ell)
    rep = verify_record(record, k, ell, PMAX)
    c = rep.counts
    verdict = "consistent" if rep.ok else "INCONSISTENT"
    print(
        f"({k:>2}, {ell:>2}) pmax={PMAX}: {verdict} -- {c['match']} match, "
        f"{c['ambiguous_pass']} ambiguous-pass, {c['skipped_ramified']} ramified, "
        f"{c['fail']} FAIL"
    )

print("\nnow corrupt one coefficient of the (22, 11) record by +1 and retry:")
rng = random.Random(4)
record = bundled_record(22, 11)
coeffs = list(record.coeffs)
idx = rng.randrange(record.degree)
coeffs[idx] += 1
mutated = ProjPolyRecord(tuple(coeffs), k=22, ell=11)
rep = verify_record(mutated, 22, 11, 200, fail_fast=True)
print(
    f"mutated c_{idx}: first failing prime {rep.failures[0]}, "
    f"fail count {rep.counts['fail']} (scan stopped at the first failure)"
)
