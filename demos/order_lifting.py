"""How the multiplicative order of g grows with the power of the modulus.

Run:  python3 demos/order_lifting.py
"""

from __future__ import annotations

from mdl import (
    OrderStructure,
    congruence_criterion,
    excess_valuation,
    order_mod_power,
    valuation_difference,
)


def main() -> None:
    print("Order lifting for a few (q, g) pairs")
    print("=" * 60)
    for q, g in [(3, 2), (11, 3), (5, 7), (7, 10)]:
        s = OrderStructure(q, g)
        print(f"\nq={q}, g={g}: order mod q is {s.order_mod_q}, "
              f"lift valuation {s.lift_valuation}, cofactor {s.cofactor}")
        print(f"  identity: {g}^{s.order_mod_q} - 1 = "
              f"{s.cofactor} * {q}^{s.lift_valuation}")
        row = ", ".join(
            f"n={n}: {order_mod_power(s, n)}" for n in range(1, 7)
        )
        print(f"  order mod q^n stays flat then multiplies by q: {row}")
        excesses = [excess_valuation(s, n) for n in range(1, 7)]
        print(f"  valuation overshoot per level: {excesses}")

    print("\nValuation of g^(m x) - g^(m y) from the closed form")
    print("=" * 60)
    s = OrderStructure(11, 3)
    for m, x, y in [(1, 6, 1), (11, 5, 0), (1, 12, 1), (5, 9, 4)]:
        v = valuation_difference(s, m, x, y)
        shown = "unit (no factor 11)" if v is None else f"11^{v} exactly"
        print(f"  m={m:2d}, x={x:2d}, y={y:2d}: 3^(mx) - 3^(my) carries {shown}")

    print("\nPower congruence, checked against plain divisibility")
    print("=" * 60)
    for r, sv, n1, n2 in [(3, 2, 13, 2), (3, 2, 13, 4), (4, 2, 130, 9)]:
        t = order_mod_power(s, sv)
        agree = congruence_criterion(s, r, sv, n1, n2)
        print(f"  r={r}, s={sv}: 3^({n1}*{t}) = 3^({n2}*{t}) mod 11^{r} is {agree}, "
              f"as is 11^{r - sv} | {n1} - {n2}")


if __name__ == "__main__":
    main()
