"""Exponential sums with Mersenne phases: cancellation against the trivial bound.

The magnitude of each sum is compared with its normalizer (the trivial
estimate); rho = log X / log q^gamma is the scale of X against the modulus.

Run:  python3 demos/exponential_sums.py
"""

from __future__ import annotations

from mdl import mangoldt_exp_sum, mersenne_prime_sum


def main() -> None:
    q, gamma = 3, 40
    print(f"modulus {q}^{gamma} = {q**gamma}")
    print("note: the modulus exceeds 2^53, phases still come from exact residues\n")

    print("log-weighted sum over prime powers n <= X of phase(a * 2^n)")
    print(f"{'X':>9} {'|sum|':>12} {'normalizer':>12} {'ratio':>8} {'rho':>7}")
    for X in (10**3, 10**4, 10**5):
        r = mangoldt_exp_sum(q, gamma, a=1, g=2, X=X)
        print(f"{X:>9} {r.magnitude:>12.3f} {r.normalizer:>12.3f} "
              f"{r.magnitude / r.normalizer:>8.4f} {r.rho:>7.4f}")

    print("\nsum over primes p <= X of phase(a * (2^p - 1))")
    print(f"{'X':>9} {'|sum|':>12} {'pi(X)':>8} {'ratio':>8}")
    for X in (10**3, 10**4, 10**5):
        r = mersenne_prime_sum(q, gamma, a=1, X=X)
        print(f"{X:>9} {r.magnitude:>12.3f} {r.term_count:>8} "
              f"{r.magnitude / r.normalizer:>8.4f}")


if __name__ == "__main__":
    main()
