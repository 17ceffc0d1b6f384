"""From a_p to a predicted factorization pattern, one prime at a time.

The Frobenius at p has characteristic polynomial x^2 - a_p x + p^{k-1} over
F_ell.  Whether its discriminant is a square decides split vs nonsplit, the
order of the eigenvalue ratio gives the projective order, and that order
dictates the cycle type on the ell + 1 points of the projective line, which
is exactly the degree multiset of the projective polynomial mod p.
verify_record compares the two at every prime; its outcomes carry the
observed and the predicted pattern of each, and the class is read back off
the prediction: a pair of patterns when the discriminant vanishes
(ambiguous), two fixed points for a split class, none for a nonsplit one,
and the projective order as the largest cycle.
"""

from thetatwist import bundled_record, delta_k, verify_record

K, ELL, PMAX = 16, 13, 59
series = delta_k(K, ELL, PMAX)
record = bundled_record(K, ELL)
report = verify_record(record, K, ELL, PMAX)

print(f"form weight {K}, modulus {ELL}, polynomial degree {record.degree}\n")
print(f"{'p':>4} {'a_p':>4} {'class':>9} {'ord':>4}   predicted == observed")
for p, status, observed, predicted in report.outcomes:
    if status == "skipped-ell":
        print(f"{p:>4}    -         -    -   p = ell, skipped")
        continue
    if status == "skipped-ramified":
        print(f"{p:>4}    -   ramified    -   reduction not squarefree, skipped")
        continue
    if isinstance(predicted[0], tuple):  # the pair of admissible patterns
        kind, order, tag = "ambiguous", "-", "ambiguous, observed matches an admissible pattern"
    else:
        kind = "split" if 1 in predicted else "nonsplit"
        order, tag = max(predicted), ""
    verdict = "MISMATCH" if status == "FAIL" else "ok"
    print(f"{p:>4} {series.coeff(p):>4} {kind:>9} {order:>4}   {observed} {verdict} {tag}")

print("\nsplit classes show the two fixed eigenlines as the pair of 1s;")
print("nonsplit classes have no fixed points, so all factors share one degree")
