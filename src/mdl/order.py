"""Multiplicative-order structure of a unit g modulo powers of an odd prime q.

Once the order of g mod q and the valuation of g^order - 1 are known, the
order of g modulo every higher power q^n follows from a closed form, as
does the exact power of q dividing differences g^a - g^b.  This module
computes that structure and the two underlying congruence facts, each
evaluated by two independent routes that must agree (SelfCheckError).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import log2

from .arith import _check_int, _check_power_size, _check_unit_base, _prime_factors, padic_valuation
from .errors import PreconditionError, ResourceGuardError, SelfCheckError

__all__ = [
    "POWER_BIT_GUARD",
    "OrderStructure",
    "order_mod_power",
    "excess_valuation",
    "valuation_difference",
    "congruence_table",
    "congruence_criterion",
]


POWER_BIT_GUARD = 14_284  # bits of g^order: 4,300 digits, the most str(int) prints


class OrderStructure(namedtuple("OrderStructure", "q g order_mod_q lift_valuation cofactor")):
    """Order of g mod the odd prime q together with its exact lifting data.

    Built from q and g alone.  The order is found by descent from q-1: each
    prime factor p of q-1 is divided out while g**(order/p) is still 1 mod
    q.  The lifting data comes from the exact integer

        g**order_mod_q - 1 == cofactor * q**lift_valuation

    with gcd(cofactor, q) = 1 and lift_valuation >= 1.  Raises
    ResourceGuardError, before that power is formed, when
    order * log2|g| exceeds POWER_BIT_GUARD.
    """

    __slots__ = ()

    def __new__(cls, q: int, g: int) -> OrderStructure:
        _check_unit_base(q, g)
        tau = q - 1
        for p in set(_prime_factors(q - 1)):
            while tau % p == 0 and pow(g, tau // p, q) == 1:
                tau //= p
        if tau * log2(abs(g)) > POWER_BIT_GUARD:
            base = f"({g})" if g < 0 else g
            raise ResourceGuardError(
                f"{base}^{tau} exceeds the power guard of {POWER_BIT_GUARD} bits"
            )
        diff = g**tau - 1
        lift_valuation = padic_valuation(q, diff)
        return super().__new__(cls, q, g, tau, lift_valuation, diff // q**lift_valuation)

    def __getnewargs__(self) -> tuple[int, int]:
        return self.q, self.g


def order_mod_power(structure: OrderStructure, n: int) -> int:
    """Multiplicative order of g modulo q**n.

    Equals order_mod_q while n <= lift_valuation, then grows by a factor
    of q per extra power.  Raises ResourceGuardError, before q**n is
    formed, when it exceeds MODULUS_BIT_GUARD bits.
    """
    _check_int("n", n, least=1)
    if n <= structure.lift_valuation:
        return structure.order_mod_q
    _check_power_size(structure.q, n)  # q was validated with the structure
    return structure.q ** (n - structure.lift_valuation) * structure.order_mod_q


def excess_valuation(structure: OrderStructure, n: int) -> int:
    """How far the valuation of g**order_mod_power(n) - 1 overshoots n.

    The valuation is exactly n + excess; the excess is lift_valuation - n
    until n reaches lift_valuation and zero afterwards.
    """
    _check_int("n", n, least=1)
    return max(structure.lift_valuation - n, 0)


def valuation_difference(
    structure: OrderStructure, m: int, x: int, y: int
) -> int | None:
    """q-adic valuation of g**(m*x) - g**(m*y), or None when it is a unit.

    Two routes are always run: the closed form F = valuation(x-y) +
    valuation(m) + lift_valuation, and the valuation, capped at F + 1, of
    its one residue mod q**(F+1), behind the modulus guard of arith.
    Disagreement raises SelfCheckError: the structure would be wrong.
    """
    _check_int("m", m, least=1)
    _check_int("x", x, least=0)
    _check_int("y", y, least=0)
    if x == y:
        raise PreconditionError("x and y must differ")
    q, g = structure.q, structure.g
    if (pow(g, m * x, q) - pow(g, m * y, q)) % q != 0:
        return None
    formula = (
        padic_valuation(q, x - y)
        + padic_valuation(q, m)
        + structure.lift_valuation
    )
    _check_power_size(q, formula + 1)
    mod = q ** (formula + 1)
    direct = padic_valuation(q, (pow(g, m * x, mod) - pow(g, m * y, mod)) % mod or mod)
    if direct != formula:
        raise SelfCheckError(
            f"valuation mismatch for q={q}, g={g}, m={m}, x={x}, y={y}: "
            f"closed form {formula}, direct residue {direct}"
        )
    return formula


def congruence_table(
    structure: OrderStructure, r: int, s: int, n1: Sequence[int], n2: Sequence[int]
) -> list[list[bool]]:
    """Whether g**(a*t) and g**(b*t) agree mod q**r, for each a in n1 and b in n2.

    t is the order of g mod q**s.  With r >= s >= lift_valuation, they agree
    exactly when q**(r-s) divides a - b.  Both sides are computed on their
    own: one modular power per distinct exponent, compared pair by pair, and
    divisibility; the first disagreement raises SelfCheckError.  Row i holds
    the pairs of n1[i].  Raises ResourceGuardError, before it is formed,
    when q**r exceeds MODULUS_BIT_GUARD bits.
    """
    _check_int("r", r)
    _check_int("s", s)
    for a in n1:
        _check_int("n1", a, least=0)
    for b in n2:
        _check_int("n2", b, least=0)
    if not r >= s >= structure.lift_valuation:
        raise PreconditionError(
            f"need r >= s >= lift_valuation, got r={r}, s={s}, "
            f"lift_valuation={structure.lift_valuation}"
        )
    q, g = structure.q, structure.g
    _check_power_size(q, r)  # q was validated with the structure
    modulus, t, step = q**r, order_mod_power(structure, s), q ** (r - s)
    powers = {n: pow(g, n * t, modulus) for n in {*n1, *n2}}
    table = []
    for a in n1:
        row = []
        for b in n2:
            lhs = powers[a] == powers[b]
            if lhs != ((a - b) % step == 0):
                raise SelfCheckError(
                    f"congruence mismatch for q={q}, g={g}, r={r}, s={s}, "
                    f"n1={a}, n2={b}: power congruence {lhs}, divisibility {not lhs}"
                )
            row.append(lhs)
        table.append(row)
    return table


def congruence_criterion(
    structure: OrderStructure, r: int, s: int, n1: int, n2: int
) -> bool:
    """Whether g**(n1*t) and g**(n2*t) agree mod q**r, t the order of g mod q**s.

    The one-pair case of congruence_table, with its checks and errors.
    """
    return congruence_table(structure, r, s, (n1,), (n2,))[0][0]
