"""Exact counts of power-sum collisions, the mean-value quantity.

Counts 2r-tuples in [1,P]^(2r) whose first k power sums agree, exactly.
The count divided by P^(2r) is the collision probability; its monotone
behaviour in r is checked with integers, never floats.  For a few larger
boxes the exponent log J / log P of the count J is printed next to the
mean value exponent max(r, 2r - k(k+1)/2), which holds only up to a
factor P^epsilon, so nothing is asserted.

Run:  python3 demos/power_sum_counts.py
"""

from __future__ import annotations

import math

from mdl import ResourceGuardError, VmvtInstance


def main() -> None:
    print("exact collision counts")
    print(f"{'r':>2} {'k':>2} {'P':>3} {'count':>10} {'count/P^2r':>11}")
    for r, k, P in [(1, 1, 6), (2, 1, 6), (2, 2, 6), (3, 2, 6), (3, 3, 6),
                    (2, 2, 30), (3, 2, 40)]:
        inst = VmvtInstance(r, k, P)
        print(f"{r:>2} {k:>2} {P:>3} {inst.count:>10} "
              f"{inst.count / P ** (2 * r):>11.3e}")

    print("\nnormalized counts can only shrink when r grows:")
    for r, k, P in [(1, 1, 8), (2, 2, 8), (3, 3, 8)]:
        bounded = VmvtInstance(r + 1, k, P).count <= P * P * VmvtInstance(r, k, P).count
        print(f"  r={r} -> r+1, k={k}, P={P}: {bounded}")

    print("\ncount exponent against the mean value exponent:")
    print(f"{'r':>2} {'k':>2} {'P':>3} {'log J/log P':>11} {'max(r, 2r-k(k+1)/2)':>20}")
    for r, k, P in [(4, 1, 100), (4, 2, 40), (4, 3, 30), (5, 2, 30)]:
        count = VmvtInstance(r, k, P).count
        print(f"{r:>2} {k:>2} {P:>3} {math.log(count) / math.log(P):>11.4f} "
              f"{max(r, 2 * r - k * (k + 1) // 2):>20}")

    print("\nthe dynamic program refuses to melt the desk:")
    try:
        VmvtInstance(6, 2, 30)
    except ResourceGuardError as exc:
        print(f"  {exc}")

if __name__ == "__main__":
    main()
