"""From a_p to a predicted factorization pattern, one prime at a time.

The Frobenius at p has characteristic polynomial x^2 - a_p x + p^{k-1} over
F_ell.  Whether its discriminant is a square decides split vs nonsplit, the
order of the eigenvalue ratio gives the projective order, and that order
dictates the cycle type on the ell + 1 points of the projective line, which
is exactly the degree multiset of the projective polynomial mod p.
"""

from thetatwist import (
    ModPoly,
    bundled_record,
    ddf,
    delta_k,
    frobenius_class,
    is_squarefree_mod,
    predicted_degree_pattern,
)

K, ELL = 16, 13
series = delta_k(K, ELL, 60)
record = bundled_record(K, ELL)

print(f"form weight {K}, modulus {ELL}, polynomial degree {record.degree}\n")
print(f"{'p':>4} {'a_p':>4} {'class':>9} {'ord':>4}   predicted == observed")
for p in (2, 3, 5, 7, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
    fp = ModPoly(p, record.coeffs)
    if not is_squarefree_mod(fp):
        print(f"{p:>4}    -   ramified    -   reduction not squarefree, skipped")
        continue
    fc = frobenius_class(series.coeff(p), pow(p, K - 1, ELL), ELL)
    predicted = predicted_degree_pattern(fc, ELL)
    observed = ddf(fp)
    if fc.is_ambiguous:
        tag = "ambiguous, observed matches an admissible pattern"
        ok = observed in predicted
    else:
        tag = ""
        ok = observed == predicted
    order = fc.order if fc.order is not None else "-"
    print(f"{p:>4} {series.coeff(p):>4} {fc.kind:>9} {order:>4}   {observed} {'ok' if ok else 'MISMATCH'} {tag}")

print("\nsplit classes show the two fixed eigenlines as the pair of 1s;")
print("nonsplit classes have no fixed points, so all factors share one degree")
