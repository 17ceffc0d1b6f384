"""Reproduce the theta-twist table: delta_k = theta^i delta_k' mod ell.

For each (k, ell) with k > ell + 1 the search scans k' over the
one-dimensional weights up to ell + 1 and i over [0, ell - 2], accepts the
first pair passing the weight congruence k = k' + 2i (mod ell - 1) and the
bounded prime check a_p = p^i a_p', then certifies full series equality to
1000 terms.
"""

from thetatwist import published_discrepancy, twist_search

PAIRS = ((16, 13), (20, 17), (22, 11), (22, 19), (26, 13), (26, 23))

print(f"{'k':>3} {'ell':>4} {'i':>3} {'k_prime':>8}   checked primes")
for k, ell in PAIRS:
    i, kp, cert = twist_search(k, ell)
    primes = [p for p, _, _ in cert.checks]
    print(f"{k:>3} {ell:>4} {i:>3} {kp:>8}   p <= {cert.bound}: {primes}")
    note = published_discrepancy(k, ell, i, kp)
    if note:
        print(f"          note: {note}")

print("\neach certificate also confirms a_n = n^i a_n' for all n <= 1000,")
print("far beyond the bound that the twist theorem actually requires")
