"""Build q-expansions over F_ell and play with the theta operator.

Everything is exact arithmetic mod ell: the Eisenstein series E4 and E6 are
assembled from divisor sums, the weight-k cusp forms are monomials in E4, E6
and the discriminant form, and theta is q d/dq acting on coefficients.
"""

from thetatwist import QExpansion, delta_k, eisenstein, prove_congruence, series_mul, theta_power

ELL = 13

e4 = eisenstein(4, ELL, 10)
e6 = eisenstein(6, ELL, 10)
print(f"E4  mod {ELL}:", e4.coeffs)
print(f"E6  mod {ELL}:", e6.coeffs)

f = delta_k(12, ELL, 10)
print(f"\ndelta_12 mod {ELL} (the tau values reduced):", f.coeffs)
print("tagged with weight k =", f.weight)

tf = theta_power(f, 1)
print(f"\ntheta delta_12: a_n = n * a_n, weight jumps by ell + 1 = {ELL + 1}")
print("coefficients:", tf.coeffs)
print("note a_13 of any theta image vanishes:", theta_power(delta_k(12, ELL, 14), 1).coeff(13))

a = QExpansion(ELL, [1] + [0] * 10, ELL - 1)
af = series_mul(a, f)
print(f"\nthe weight {ELL - 1} form with q-expansion 1 leaves series alone:")
print("1 * delta_12 == delta_12:", af.coeffs == f.coeffs, "with weight", af.weight)

# two forms of congruent weights agreeing far enough must be equal:
# delta_16 = theta^2 delta_12 mod 13, proved through the Sturm index
g = delta_k(16, ELL, 10)
t2f = theta_power(f, 2)
m = prove_congruence(g, t2f)
print(f"\ndelta_16 == theta^2 delta_12, proved through the Sturm index m = {m}")
print(f"(weights {g.weight} and {t2f.weight}, congruent mod {ELL - 1})")
print("first coefficients:", g.coeffs[:6], "vs", t2f.coeffs[:6])
